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
LookaheadPolicy's rule) or over the whole (count, ones) lattice at once, with
the same value at every point, bit for bit. A Lattice holds one world's
posterior table and runs _plan once per leaf rule, to its deepest depth, so
one table serves every depth, leaf rule and belief rule of a simulated draw.

Ties always remove: each rule keeps only on a strictly positive margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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

MAX_DEPTH = 24


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
        if not isinstance(self.depth, int) or not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be an integer in [1, {MAX_DEPTH}], got {self.depth}")


def _optimistic_margin(pm: float, env: EnvParams) -> float:
    """P(honest) * gain / departure_rate - P(malicious) * loss."""
    return (1.0 - pm) * env.gain_honest / env.departure_rate - pm * env.loss_malicious


def _plan(pm: np.ndarray, env: EnvParams, leaf_rule: LeafRule, depths) -> dict[int, np.ndarray]:
    """The lookahead recursion over a table of posteriors pm[t, k, ...], each
    t steps and k one-bits past the table's root: V_0 is the leaf rule at
    every entry, and pass r gives V_r(t, .) from V_{r-1}(t + 1, .) by

        V(t, k) = max(0, keep_gain + p V(t + 1, k + 1) + (1 - p) V(t + 1, k))

    p being the predictive probability of a 1-bit at (t, k) from env's rates,
    and max(0, x) where(x > 0, x, 0), which values a history impossible under
    both types (a NaN posterior) at 0. Runs to the deepest of depths and
    returns V_r for each r in depths, on the first len(pm) - r rows and
    columns. An entry of V_r reads only its own posterior and r rows below
    it, so it does not depend on the table's size or on the other depths."""
    gain = keep_gain(pm, env)
    p_one = env.honest_mean * (1.0 - pm) + env.malicious_mean * pm
    p_zero = 1.0 - p_one
    if leaf_rule is LeafRule.ZERO:
        values = np.zeros_like(gain)
    elif leaf_rule is LeafRule.MYOPIC_INFINITE:
        values = np.where(gain > 0.0, gain, 0.0) / env.departure_rate
    else:
        margin = _optimistic_margin(pm, env)
        values = np.where(margin > 0.0, margin, 0.0)
    kept = {}
    for depth in range(1, max(depths) + 1):
        n = len(pm) - depth
        keep = gain[:n, :n] + p_one[:n, :n] * values[1:, 1:] + p_zero[:n, :n] * values[1:, :n]
        values = np.where(keep > 0.0, keep, 0.0)
        if depth in depths:
            kept[depth] = values
    return kept


def _rooted_plan(evaluate: Posterior, ones, count, pm, env: EnvParams, cfg: LookaheadConfig) -> np.ndarray:
    """_plan's value at each root (count, ones) of posterior pm, all three
    broadcast, from the (depth + 1)^2 posteriors past each root: quadratic in
    depth rather than exponential, as the belief depends on the future only
    through (ones seen, steps taken)."""
    ones, count, pm = np.broadcast_arrays(ones, count, pm)
    step = np.arange(cfg.depth + 1).reshape((-1,) + (1,) * pm.ndim)
    table = evaluate.elementwise((ones + step)[None], (count + step)[:, None])
    table[0, 0] = pm
    return _plan(table, env, cfg.leaf_rule, {cfg.depth})[cfg.depth][0, 0]


def lookahead_value(belief: BeliefState, env: EnvParams, cfg: LookaheadConfig) -> float:
    """Expected value of the best depth-limited keep/remove plan from the
    belief: _plan rooted at it."""
    evaluate = Posterior(BernoulliModel(env.honest_mean, env.malicious_mean), belief.prior_malicious)
    return float(_rooted_plan(evaluate, belief.ones, belief.count, belief.posterior_malicious, env, cfg))


class Lattice:
    """One world's posteriors at every (count t, ones k) up to count horizon +
    the deepest of configs' depths, and each leaf rule's _plan run once over
    them to its deepest depth, keeping the values at each depth configs ask
    for: each computed on first use, then shared by every rule on the world.
    Read on t, k <= horizon, every entry is the one a lattice of any other
    size or set of depths holds, bit for bit."""

    def __init__(self, env: EnvParams, horizon: int, configs: list[LookaheadConfig]) -> None:
        self.env, self.horizon = env, horizon
        self._depths: dict[LeafRule, set[int]] = {}
        for cfg in configs:
            self._depths.setdefault(cfg.leaf_rule, set()).add(cfg.depth)
        self._size = horizon + 1 + max(cfg.depth for cfg in configs)
        self._plans: dict[LeafRule, dict[int, np.ndarray]] = {}

    @cached_property
    def _posterior(self) -> np.ndarray:
        env = self.env
        count, ones = np.ogrid[: self._size, : self._size]
        evaluate = Posterior(BernoulliModel(env.honest_mean, env.malicious_mean), env.prior_malicious)
        return evaluate.elementwise(ones, count)

    def posterior(self) -> np.ndarray:
        """The posterior at every (count t, ones k) with t, k <= horizon,
        indexed [t, k], NaN where k > t or the history is impossible."""
        return self._posterior[: self.horizon + 1, : self.horizon + 1]

    def values(self, cfg: LookaheadConfig) -> np.ndarray:
        """lookahead_value at every (count t, ones k) with t, k <= horizon,
        indexed [t, k], 0 where k > t, for one of the lattice's configs."""
        leaf = cfg.leaf_rule
        if leaf not in self._plans:
            self._plans[leaf] = _plan(self._posterior, self.env, leaf, self._depths[leaf])
        return self._plans[leaf][cfg.depth][: self.horizon + 1, : self.horizon + 1]


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
        keep = self._margin(belief.ones, belief.count, belief.posterior_malicious) > 0.0
        return Decision.KEEP if keep else Decision.REMOVE

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

    def removes_posterior(self, pm: np.ndarray) -> np.ndarray:
        """removes_elementwise at each posterior of an array pm, such as
        Lattice.posterior(), bit for bit, as the margin reads only pm."""
        return ~(self._margin(None, None, pm) > 0.0)

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
    each interval end from the anchor (nodeban stream's route); the suites
    read it off their draw's Lattice instead, which shares every point's work
    and the draw's posterior table with the draw's other belief rules."""

    def __init__(self, env: EnvParams, cfg: LookaheadConfig) -> None:
        super().__init__(env)
        self._cfg = cfg

    def _margin(self, ones: int, count: int, pm: float) -> float:
        return _rooted_plan(self.posterior, ones, count, pm, self.env, self._cfg)

    def boundary(self, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unknown ends, NaN."""
        unknown = np.full(count.shape, np.nan)
        return unknown, unknown
