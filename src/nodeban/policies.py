"""Belief-based response policies: myopic, optimistic, and finite lookahead.

All three act on the same Bernoulli-model posterior. Myopic keeps a node
while the next step is profitable in expectation. Optimistic keeps it while
an upper bound on the value of keeping is positive, pretending the true
type were revealed next step (an honest node would then stay an expected
1/departure_rate steps, a malicious one would be removed after a single
step). Finite lookahead plans over every observation sequence up to a fixed
depth with backward induction, treating removal as an absorbing action of
value zero at every stage: lookahead_value from one belief (online), and
lookahead_values over the whole (count, ones) lattice at once, bit for bit.

Ties always remove: each rule keeps only on a strictly positive margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .belief import (
    BeliefState,
    BernoulliModel,
    ImpossibleEvidenceError,
    Posterior,
    initial_belief,
    keep_gain,
    posterior,
    posterior_table,
    predictive,
    update,
)
from .model import Decision, EnvParams

_MAX_DEPTH = 24


class LeafRule(Enum):
    """Value assigned to beliefs at the planning frontier."""

    ZERO = "zero"
    MYOPIC_INFINITE = "myopic_infinite"
    OPTIMISTIC = "optimistic"


@dataclass(frozen=True)
class LookaheadConfig:
    depth: int
    leaf_rule: LeafRule = LeafRule.ZERO

    def __post_init__(self) -> None:
        if not isinstance(self.depth, int) or not 1 <= self.depth <= _MAX_DEPTH:
            raise ValueError(f"depth must be an integer in [1, {_MAX_DEPTH}], got {self.depth}")


def _decision(margin: float) -> Decision:
    return Decision.KEEP if margin > 0.0 else Decision.REMOVE


def myopic_decide(belief: BeliefState, env: EnvParams) -> Decision:
    """Keep iff the one-step expected keep gain is strictly positive."""
    return _decision(keep_gain(belief.posterior_malicious, env))


def _optimistic_margin(pm: float, env: EnvParams) -> float:
    """P(honest) * gain / departure_rate - P(malicious) * loss."""
    return (1.0 - pm) * env.gain_honest / env.departure_rate - pm * env.loss_malicious


def optimistic_decide(belief: BeliefState, env: EnvParams) -> Decision:
    """Keep iff P(honest) * gain / departure_rate strictly exceeds
    P(malicious) * loss."""
    return _decision(_optimistic_margin(belief.posterior_malicious, env))


def _leaf_value(belief: BeliefState, env: EnvParams, rule: LeafRule) -> float:
    if rule is LeafRule.ZERO:
        return 0.0
    if rule is LeafRule.MYOPIC_INFINITE:
        return max(0.0, keep_gain(belief.posterior_malicious, env)) / env.departure_rate
    return max(0.0, _optimistic_margin(belief.posterior_malicious, env))


def lookahead_value(belief: BeliefState, env: EnvParams, cfg: LookaheadConfig) -> float:
    """Expected value of the best depth-limited keep/remove plan.

    Backward induction over the recursion

        V(b, d) = max(0, keep_gain(b) + p V(b + 1, d - 1) + (1 - p) V(b + 0, d - 1))

    where p is the predictive probability of a 1-bit, b + x the one-step
    belief update, and V(., 0) the configured leaf rule. Because the belief
    after the root depends on the future only through (ones seen, steps
    taken), the induction runs over that triangle of states, quadratic in
    depth rather than exponential. States whose history is impossible under
    both types carry probability zero along every path into them and are
    assigned value zero.
    """
    prior = belief.prior_malicious
    evaluate = Posterior(BernoulliModel(env.honest_mean, env.malicious_mean), prior)
    model, depth = evaluate.model, cfg.depth

    def state(i: int, j: int) -> BeliefState | None:
        if i == 0 and j == 0:
            return belief
        ones = belief.ones + i
        count = belief.count + j
        try:
            return BeliefState(ones, count, prior, evaluate(ones, count))
        except ImpossibleEvidenceError:
            return None

    values: list[float] = []
    for i in range(depth + 1):
        leaf = state(i, depth)
        values.append(0.0 if leaf is None else _leaf_value(leaf, env, cfg.leaf_rule))
    for j in range(depth - 1, -1, -1):
        layer: list[float] = []
        for i in range(j + 1):
            b = state(i, j)
            if b is None:
                layer.append(0.0)
                continue
            gain = keep_gain(b.posterior_malicious, env)
            p_one = predictive(b, model)
            layer.append(max(0.0, gain + p_one * values[i + 1] + (1.0 - p_one) * values[i]))
        values = layer
    return values[0]


def lookahead_values(env: EnvParams, cfg: LookaheadConfig, horizon: int) -> np.ndarray:
    """lookahead_value at every (count t, ones k) with t <= horizon, indexed
    [t, k], 0 where k > t: its recursion run once over the lattice, not once
    per root. V_0 is the leaf rule up to count horizon + depth; pass r gives
    V_r(c, .) from V_{r-1}(c + 1, .) by the scalar's operations in its order,
    max(0, x) being where(x > 0, x, 0), which maps an impossible point's NaN
    posterior to the scalar's 0."""
    model = BernoulliModel(env.honest_mean, env.malicious_mean)
    posteriors = posterior_table(horizon + cfg.depth + 1, model, env.prior_malicious)
    table = BeliefState(None, None, env.prior_malicious, posteriors)  # predictive reads only this
    gain = keep_gain(posteriors, env)
    p_one = predictive(table, model)
    p_zero = 1.0 - p_one
    if cfg.leaf_rule is LeafRule.ZERO:
        values = np.zeros_like(gain)
    elif cfg.leaf_rule is LeafRule.MYOPIC_INFINITE:
        values = np.where(gain > 0.0, gain, 0.0) / env.departure_rate
    else:
        margin = _optimistic_margin(posteriors, env)
        values = np.where(margin > 0.0, margin, 0.0)
    for n in range(horizon + cfg.depth, horizon, -1):
        keep = gain[:n, :n] + p_one[:n, :n] * values[1:, 1:] + p_zero[:n, :n] * values[1:, :n]
        values = np.where(keep > 0.0, keep, 0.0)
    return values


def lookahead_decide(belief: BeliefState, env: EnvParams, cfg: LookaheadConfig) -> Decision:
    """Keep iff the depth-limited plan value is strictly positive."""
    return _decision(lookahead_value(belief, env, cfg))


class _BeliefPolicy:
    """Shared plumbing for the online belief-tracking wrappers. Each subclass
    names its rule as _margin(ones, count, pm), pm the malicious posterior;
    removes(count, ones) and observe keep only where it is strictly positive."""

    def __init__(self, env: EnvParams) -> None:
        self.env = env
        self.model = BernoulliModel(env.honest_mean, env.malicious_mean)
        self.posterior = Posterior(self.model, env.prior_malicious)
        self._belief = initial_belief(env.prior_malicious)
        # Every rule removes on a high posterior, highest at ones = count when
        # the malicious rate is the higher one and at ones = 0 otherwise.
        self.anchor = 1.0 if env.malicious_mean > env.honest_mean else 0.0

    def observe(self, x: float) -> Decision:
        belief = self._belief = update(self._belief, x, self.model)
        return _decision(self._margin(belief.ones, belief.count, belief.posterior_malicious))

    def removes(self, count: int, ones: int) -> bool:
        """The rule after `ones` one-bits in `count` observations. A history
        impossible under both types is unreachable, and counts as removed."""
        try:
            pm = self.posterior(ones, count)
        except ImpossibleEvidenceError:
            return True
        return not self._margin(ones, count, pm) > 0.0

    @property
    def belief(self) -> BeliefState:
        return self._belief

    @property
    def statistic(self) -> float:
        """Current posterior probability of maliciousness."""
        return self._belief.posterior_malicious


class _AffineMarginPolicy(_BeliefPolicy):
    """A rule whose margin is affine in pm and takes arrays (myopic's,
    optimistic's), which compile_region compiles from its closed form."""

    def removes_elementwise(self, count: np.ndarray, ones: np.ndarray) -> np.ndarray:
        """removes at every pair of two broadcast integer arrays, bit for bit."""
        return ~(self._margin(ones, count, self.posterior.elementwise(ones, count)) > 0.0)

    def boundary(self, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both interval ends up to rounding: the ones at which the log odds,
        linear in ones, reach the logit of the pm at which the margin is 0."""
        logs, m0, m1 = self.posterior, self._margin(None, None, 0.0), self._margin(None, None, 1.0)
        per_zero = logs.log_not_q - logs.log_not_u
        with np.errstate(divide="ignore", invalid="ignore"):  # inf or NaN if stakes or rates are degenerate
            logit = np.log(np.float64(m0)) - np.log(-np.float64(m1))  # of m(0) / (m(0) - m(1))
            ones = (logit - logs.prior_log_odds - count * per_zero) / (logs.log_q - logs.log_u - per_zero)
        return ones, ones


class MyopicPolicy(_AffineMarginPolicy):
    def _margin(self, ones: int, count: int, pm: float) -> float:
        return keep_gain(pm, self.env)


class OptimisticPolicy(_AffineMarginPolicy):
    def _margin(self, ones: int, count: int, pm: float) -> float:
        return _optimistic_margin(pm, self.env)


class LookaheadPolicy(_BeliefPolicy):
    """Lookahead planner, quadratic in depth per lattice point: nodeban stream
    plans only as its region grows, the suites through lookahead_values."""

    def __init__(self, env: EnvParams, cfg: LookaheadConfig) -> None:
        super().__init__(env)
        self._cfg = cfg

    def _margin(self, ones: int, count: int, pm: float) -> float:
        belief = BeliefState(ones, count, self.env.prior_malicious, pm)
        return lookahead_value(belief, self.env, self._cfg)
