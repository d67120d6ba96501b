"""Belief-based response policies: myopic, optimistic, and finite lookahead.

All three act on the same Bernoulli-model posterior. Myopic keeps a node
while the next step is profitable in expectation. Optimistic keeps it while
an upper bound on the value of keeping is positive, pretending the true
type were revealed next step (an honest node would then stay an expected
1/departure_rate steps, a malicious one would be removed after a single
step). Finite lookahead plans over every observation sequence up to a fixed
depth with backward induction, treating removal as an absorbing action of
value zero at every stage. The induction has one body, _plan, over any table
of posteriors: rooted at each of some beliefs (lookahead_value,
LookaheadPolicy's rule) or over the whole (count, ones) lattice at once
(lookahead_values), with the same value at every point, bit for bit.

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


def _plan(pm: np.ndarray, env: EnvParams, cfg: LookaheadConfig) -> np.ndarray:
    """The lookahead recursion over a table of posteriors pm[t, k, ...], each
    t steps and k one-bits past the table's root: V_0 is the leaf rule at
    every entry, and pass r gives V_r(t, .) from V_{r-1}(t + 1, .) by

        V(t, k) = max(0, keep_gain + p V(t + 1, k + 1) + (1 - p) V(t + 1, k))

    p being the predictive probability of a 1-bit at (t, k) from env's rates,
    and max(0, x) where(x > 0, x, 0), which values a history impossible under
    both types (a NaN posterior) at 0. Returns V_depth on the first
    len(pm) - depth rows and columns."""
    gain = keep_gain(pm, env)
    p_one = env.honest_mean * (1.0 - pm) + env.malicious_mean * pm
    p_zero = 1.0 - p_one
    if cfg.leaf_rule is LeafRule.ZERO:
        values = np.zeros_like(gain)
    elif cfg.leaf_rule is LeafRule.MYOPIC_INFINITE:
        values = np.where(gain > 0.0, gain, 0.0) / env.departure_rate
    else:
        margin = _optimistic_margin(pm, env)
        values = np.where(margin > 0.0, margin, 0.0)
    for n in range(len(pm) - 1, len(pm) - 1 - cfg.depth, -1):
        keep = gain[:n, :n] + p_one[:n, :n] * values[1:, 1:] + p_zero[:n, :n] * values[1:, :n]
        values = np.where(keep > 0.0, keep, 0.0)
    return values


def _rooted_plan(evaluate: Posterior, ones, count, pm, env: EnvParams, cfg: LookaheadConfig) -> np.ndarray:
    """_plan's value at each root (count, ones) of posterior pm, all three
    broadcast, from the (depth + 1)^2 posteriors past each root: quadratic in
    depth rather than exponential, as the belief depends on the future only
    through (ones seen, steps taken)."""
    ones, count, pm = np.broadcast_arrays(ones, count, pm)
    step = np.arange(cfg.depth + 1).reshape((-1,) + (1,) * pm.ndim)
    table = evaluate.elementwise((ones + step)[None], (count + step)[:, None])
    table[0, 0] = pm
    return _plan(table, env, cfg)[0, 0]


def lookahead_value(belief: BeliefState, env: EnvParams, cfg: LookaheadConfig) -> float:
    """Expected value of the best depth-limited keep/remove plan from the
    belief: _plan rooted at it."""
    evaluate = Posterior(BernoulliModel(env.honest_mean, env.malicious_mean), belief.prior_malicious)
    return float(_rooted_plan(evaluate, belief.ones, belief.count, belief.posterior_malicious, env, cfg))


def lookahead_values(env: EnvParams, cfg: LookaheadConfig, horizon: int) -> np.ndarray:
    """lookahead_value at every (count t, ones k) with t <= horizon, indexed
    [t, k], 0 where k > t: _plan once over the lattice up to count
    horizon + depth, not once per root, with the same value at every point."""
    count, ones = np.ogrid[: horizon + cfg.depth + 1, : horizon + cfg.depth + 1]
    evaluate = Posterior(BernoulliModel(env.honest_mean, env.malicious_mean), env.prior_malicious)
    return _plan(evaluate.elementwise(ones, count), env, cfg)


def lookahead_decide(belief: BeliefState, env: EnvParams, cfg: LookaheadConfig) -> Decision:
    """Keep iff the depth-limited plan value is strictly positive."""
    return _decision(lookahead_value(belief, env, cfg))


class _BeliefPolicy:
    """Shared plumbing for the online belief-tracking wrappers. Each subclass
    names its rule as _margin(ones, count, pm), pm the malicious posterior,
    on numbers or broadcast arrays; removes(count, ones), its elementwise
    twin and observe keep only where it is strictly positive."""

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

    def removes_elementwise(self, count: np.ndarray, ones: np.ndarray) -> np.ndarray:
        """removes at every pair of two broadcast integer arrays, bit for bit."""
        return ~(self._margin(ones, count, self.posterior.elementwise(ones, count)) > 0.0)


class _AffineMarginPolicy(_BeliefPolicy):
    """A rule whose margin is affine in pm (myopic's, optimistic's), so that
    each count's removal interval has closed-form ends."""

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
    """Lookahead planner, quadratic in depth per lattice point. Its margin,
    the plan value, has no closed-form boundary, so compile_region bisects
    each interval end from the anchor; the suites compile it through
    lookahead_values instead, which shares every point's work."""

    def __init__(self, env: EnvParams, cfg: LookaheadConfig) -> None:
        super().__init__(env)
        self._cfg = cfg

    def _margin(self, ones: int, count: int, pm: float) -> float:
        return _rooted_plan(self.posterior, ones, count, pm, self.env, self._cfg)

    def boundary(self, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unknown ends, NaN."""
        unknown = np.full(count.shape, np.nan)
        return unknown, unknown
