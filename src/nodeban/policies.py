"""The rule layer: belief-based response policies (myopic, optimistic and
finite lookahead), the one policy grammar, and removal regions.

Each belief policy is one rule on the same Bernoulli-model posterior: the best keep/remove
plan over every observation sequence up to a depth, by backward induction
with removal an absorbing action of value zero, valuing the beliefs at the
planning frontier by a leaf rule. Myopic and optimistic plan to depth 0.
Myopic's leaf keeps a node while the next step is profitable in expectation;
optimistic's keeps it while an upper bound on the value of keeping is
positive, pretending the true type were revealed next step (an honest node
would then stay an expected 1/departure_rate steps, a malicious one would be
removed after a single step). Lookahead plans to depth 1 or more over any
leaf rule. The induction has one body, _plan, over any table of posteriors:
rooted at each of some beliefs (lookahead_value, a lookahead rule's margin)
or over the whole (count, ones) lattice at once, with the same value at
every point, bit for bit. A Lattice holds one world's posterior table and
runs _plan once per leaf rule, to its deepest depth, so one table serves
every lookahead rule of a draw. Myopic's and optimistic's margins are
affine in the posterior, so they remove where the log odds pass one cut per
world, the logit boundary() reads; their removes_elementwise decides each
point outside a guard band about the cut by that comparison, with no exp,
and only points inside it through the posterior. The band rests on the C
library's exp being within an ulp (see removes_elementwise).

PolicySpec, the policy grammar of the suites and of nodeban stream, builds
any rule, hiper's too, in a world (policy), and as a Region, its removal
set on the (count, ones) lattice up to a draw's horizon (build): by
compile_region, from the rule's closed-form ends where one call of the rule
confirms them, or read off a Lattice by table_region. The simulator scores
Regions and the stream asks the rule point by point; this module loads
neither the simulator nor the suites, so nodeban stream starts without them.

Ties always remove: each rule keeps only on a strictly positive margin.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .belief import (
    BeliefState,
    ImpossibleEvidenceError,
    Posterior,
    initial_belief,
    keep_gain,
    posterior,
    update,
)
from .hiper import HiperPolicy, optimal_delta
from .model import EnvParams

MAX_DEPTH = 24
DEPTHS = range(1, MAX_DEPTH + 1)  # a lookahead rule's depths
_EDGE = 2.0**-20  # the depth-0 log-odds rule's bound on pm0 and 1 - pm0, and its band's scale


def check_depth(depth: int) -> int:
    """depth, if it is one of DEPTHS; else a ValueError that names it."""
    if depth not in DEPTHS:
        raise ValueError(f"depth must be an integer in [1, {MAX_DEPTH}], got {depth}")
    return depth


class LeafRule(Enum):
    """Value assigned to beliefs at the planning frontier."""

    ZERO = "zero"
    MYOPIC_INFINITE = "myopic_infinite"
    OPTIMISTIC = "optimistic"


def _leaf_margin(pm, env: EnvParams, leaf_rule: LeafRule):
    """The leaf rule's signed margin at each posterior of pm, a number or an
    array: 0; the one-step keep gain; or the optimistic P(honest) * gain /
    departure_rate - P(malicious) * loss."""
    if leaf_rule is LeafRule.MYOPIC_INFINITE:
        return keep_gain(pm, env)
    if leaf_rule is LeafRule.OPTIMISTIC:
        with np.errstate(over="ignore"):  # inf, which keeps, at a departure rate near 0
            return (1.0 - pm) * env.gain_honest / env.departure_rate - pm * env.loss_malicious
    return np.zeros_like(pm)


@np.errstate(over="ignore", invalid="ignore")  # V_0 inf at a departure rate near 0, and 0 * inf NaN
def _plan(pm: np.ndarray, env: EnvParams, leaf_rule: LeafRule, depths) -> dict[int, np.ndarray]:
    """The lookahead recursion over a table of posteriors pm[t, k, ...], each
    t steps and k one-bits past the table's root: V_0 is the leaf rule's
    margin where positive, else 0 (over departure_rate for myopic_infinite,
    an honest node's expected stay), and pass r gives V_r(t, .) by

        V(t, k) = max(0, keep_gain + p V(t + 1, k + 1) + (1 - p) V(t + 1, k))

    p being the predictive probability of a 1-bit at (t, k) from env's rates,
    and max(0, x) fmax(x, 0), which values a history impossible under both
    types (a NaN posterior) at 0. Runs to the deepest of depths, each one of
    DEPTHS, and returns V_r for each r in depths, on the first len(pm) - r
    rows and columns. An entry of V_r reads only its own posterior and r rows
    below it, so it does not depend on the table's size or on the other depths."""
    values = np.fmax(_leaf_margin(pm, env, leaf_rule), 0.0)
    if leaf_rule is LeafRule.MYOPIC_INFINITE:
        values /= env.departure_rate
    gain = keep_gain(pm, env)
    p_one = env.honest_mean * (1.0 - pm) + env.malicious_mean * pm
    p_zero = 1.0 - p_one
    kept = {}
    for depth in range(1, max(depths) + 1):
        n = len(pm) - depth
        keep = gain[:n, :n] + p_one[:n, :n] * values[1:, 1:] + p_zero[:n, :n] * values[1:, :n]
        values = np.fmax(keep, 0.0)
        if depth in depths:
            kept[depth] = values
    return kept


def _rooted_plan(evaluate: Posterior, ones, count, depth: int, leaf_rule: LeafRule) -> np.ndarray:
    """_plan's value to depth over leaf_rule in evaluate's world at each root
    (count, ones), the two broadcast, from the (depth + 1)^2 posteriors from
    each root on: quadratic in depth rather than exponential, as the belief
    depends on the future only through (ones seen, steps taken)."""
    ones, count = np.broadcast_arrays(ones, count)
    step = np.arange(depth + 1).reshape((-1,) + (1,) * ones.ndim)
    table = evaluate.elementwise((ones + step)[None], (count + step)[:, None])
    return _plan(table, evaluate.env, leaf_rule, {depth})[depth][0, 0]


def lookahead_value(
    belief: BeliefState, env: EnvParams, depth: int, leaf_rule: LeafRule = LeafRule.ZERO
) -> float:
    """Expected value of the best keep/remove plan from the belief to depth,
    one of DEPTHS, over leaf_rule: _plan rooted at it. It reads only the
    belief's ones and count; the root's posterior is the evaluator's."""
    return float(_rooted_plan(Posterior(env), belief.ones, belief.count, check_depth(depth), leaf_rule))


class Lattice:
    """One world's posteriors at every (count t, ones k) up to count horizon +
    the deepest depth of rules (anything with a leaf_rule and a depth, one of
    DEPTHS: lookahead PolicySpecs, or the policies), and each leaf rule's
    _plan run once to its deepest depth d, on the first horizon + 1 + d rows,
    keeping the values at each depth the rules ask for: each computed on
    first use, then shared by every rule on the world.
    Read on t, k <= horizon, every entry is the one a lattice of any other
    size or set of rules holds, bit for bit."""

    def __init__(self, env: EnvParams, horizon: int, rules) -> None:
        self.env, self.horizon = env, horizon
        self._depths: dict[LeafRule, set[int]] = {}
        for rule in rules:
            self._depths.setdefault(rule.leaf_rule, set()).add(rule.depth)
        self._plans: dict[LeafRule, dict[int, np.ndarray]] = {}

    @cached_property
    def _posterior(self) -> np.ndarray:
        size = self.horizon + 1 + max(map(max, self._depths.values()))
        count, ones = np.ogrid[:size, :size]
        return Posterior(self.env).elementwise(ones, count)

    def values(self, rule) -> np.ndarray:
        """The value of rule's plan at every (count t, ones k) with t, k <=
        horizon, indexed [t, k], 0 where k > t or the history is impossible,
        for one of the lattice's rules: its lookahead_value."""
        leaf = rule.leaf_rule
        if leaf not in self._plans:
            depths = self._depths[leaf]
            size = self.horizon + 1 + max(depths)
            self._plans[leaf] = _plan(self._posterior[:size, :size], self.env, leaf, depths)
        return self._plans[leaf][rule.depth][: self.horizon + 1, : self.horizon + 1]


class _BeliefPolicy:
    """The plan to depth over leaf_rule. Its margin _margin(ones, count, pm),
    pm the malicious posterior, on numbers or broadcast arrays, is the leaf's
    own at depth 0 and the plan value above, which reads only (count, ones);
    removes(count, ones) and its elementwise twin keep only where it is
    strictly positive, and observe folds one observation into the belief
    and returns removes at its (count, ones)."""

    def __init__(self, env: EnvParams, depth: int, leaf_rule: LeafRule) -> None:
        self.env, self.depth, self.leaf_rule = env, depth, leaf_rule
        self.posterior = Posterior(env)
        self._belief = initial_belief(env)
        # Every rule removes on a high posterior, highest at ones = count when
        # the malicious rate is the higher one and at ones = 0 otherwise.
        self.anchor = 1.0 if env.malicious_mean > env.honest_mean else 0.0
        self._band = None  # removes_elementwise's guard band about _cut, None where it is off
        if depth:
            return
        # the logit of m(0) / (m(0) - m(1)), the pm at which the affine margin m is 0
        m0, m1 = self._margin(None, None, 0.0), self._margin(None, None, 1.0)
        self._cut = (math.log(m0) if m0 else -math.inf) - (math.log(-m1) if m1 else -math.inf)
        if 0.0 < m0 < math.inf and -math.inf < m1 < 0.0 and _EDGE <= m0 / (m0 - m1) <= 1.0 - _EDGE:
            self._band = _EDGE * (1.0 + abs(self._cut))

    def _margin(self, ones, count, pm):
        if self.depth:
            return _rooted_plan(self.posterior, ones, count, self.depth, self.leaf_rule)
        return _leaf_margin(pm, self.env, self.leaf_rule)

    def observe(self, x: float) -> bool:
        belief = self._belief = update(self._belief, x, self.env)
        return self.removes(belief.count, belief.ones)

    def removes(self, count: int, ones: int) -> bool:
        """The rule after `ones` one-bits in `count` observations. A history
        impossible under both types is unreachable, and counts as removed."""
        try:
            pm = self.posterior(ones, count)
        except ImpossibleEvidenceError:
            return True
        return not self._margin(ones, count, pm) > 0.0

    def removes_elementwise(self, count: np.ndarray, ones: np.ndarray) -> np.ndarray:
        """removes at every pair of two broadcast integer-valued arrays, bit
        for bit: the margin of the evaluator's elementwise posterior (the
        exact path), except that at depth 0 most points are decided off their
        log odds L, the float elementwise computes, with no exp.

        At depth 0 the margin m(pm) = (1 - pm) m(0) + pm m(1) is affine. With
        m(0) > 0 > m(1) it is positive iff L lies below _cut, the logit of
        pm0 = m(0) / (m(0) - m(1)), so the rule removes iff L > _cut. In
        floats that holds wherever |L - _cut| > _band = 2^-20 (1 + |_cut|),
        given both ends finite and 2^-20 <= pm0 <= 1 - 2^-20 (else _band is
        None). Proof: rounding to nearest is monotone in each operand, and
        the C library's exp is within an ulp (glibc's is), so the posterior
        computed from L is within 5 ulps of the logistic of L, and 1 - pm
        within about 7e-16 of its true value. Each product, quotient and
        difference of the margin adds half an ulp, so the float margin is
        within 2e-15 (m(0) - m(1)) of the true one. Past the band the true
        margin is at least (m(0) - m(1)) pm0 (1 - pm0) _band: 10^8 times that
        error at pm0 = 1/2, and 6000 times it at either bound on pm0 (_cut's
        two logarithms, each at most 745 in size, put it within 2e-13 of the
        true logit, far inside the band). So there the float margin has the
        sign of _cut - L.

        The exact path takes the points within the band, those where either
        type is dead or the two log-likelihoods are equal (whose posterior is
        not the logistic of L), and every point when _band is None. A point
        with ones > count removes, as its NaN posterior does."""
        if self._band is None:
            return ~(self._margin(ones, count, self.posterior.elementwise(ones, count)) > 0.0)
        malicious_dead, honest_dead, tie, log_odds = self.posterior.cases(ones, count)
        removes = (log_odds > self._cut) | (ones > count)
        exact = (malicious_dead | honest_dead | tie | (np.abs(log_odds - self._cut) <= self._band)) & (ones <= count)
        if exact.any():
            ones, count = np.broadcast_arrays(ones, count)
            ones, count = ones[exact], count[exact]
            removes[exact] = ~(self._margin(ones, count, self.posterior.elementwise(ones, count)) > 0.0)
        return removes

    def boundary(self, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The removal interval's ends up to rounding, NaN above depth 0. At
        depth 0 the margin is affine in pm and falls as pm rises: x, the ones
        at which the log odds, linear in ones, reach the logit of the pm at
        which the margin is 0, and the anchor's edge. The interval is (x, inf)
        where the malicious rate is the higher one, so that pm rises with
        ones, and (-inf, x) otherwise."""
        if self.depth:
            unknown = np.full(count.shape, np.nan)
            return unknown, unknown
        logs = self.posterior
        per_zero = logs.log_not_q - logs.log_not_u
        with np.errstate(divide="ignore", invalid="ignore"):  # inf or NaN if stakes or rates are degenerate
            ones = (self._cut - logs.prior_log_odds - count * per_zero) / (logs.log_q - logs.log_u - per_zero)
        return (ones, np.inf) if self.anchor == 1.0 else (-np.inf, ones)


class MyopicPolicy(_BeliefPolicy):
    """The depth-0 plan of the myopic_infinite leaf: keep_gain is its margin."""

    depth, leaf_rule = 0, LeafRule.MYOPIC_INFINITE

    def __init__(self, env: EnvParams) -> None:
        super().__init__(env, self.depth, self.leaf_rule)


class OptimisticPolicy(_BeliefPolicy):
    """The depth-0 plan of the optimistic leaf."""

    depth, leaf_rule = 0, LeafRule.OPTIMISTIC

    def __init__(self, env: EnvParams) -> None:
        super().__init__(env, self.depth, self.leaf_rule)


class LookaheadPolicy(_BeliefPolicy):
    """The plan to depth, one of DEPTHS, over leaf_rule. Its margin has no
    closed form: a region reads it off a Lattice (PolicySpec.build), and
    nodeban stream asks removes once per (count, ones) point. Neither names
    this class: both build the rule through PolicySpec."""

    def __init__(self, env: EnvParams, depth: int, leaf_rule: LeafRule = LeafRule.ZERO) -> None:
        super().__init__(env, check_depth(depth), leaf_rule)


class Region(NamedTuple):
    """A policy compiled for one horizon: a node with count t and ones k is
    removed iff lo[t] <= k <= hi[t], for t = 0..horizon."""

    lo: np.ndarray
    hi: np.ndarray


def compile_region(policy, horizon: int) -> Region:
    """policy.removes(count, ones) as a Region to the horizon, in numpy, for a
    policy with removes_elementwise, removes on arrays, anchor, and
    boundary(count), each count's strict interval ends up to rounding (NaN
    where it has no closed form). Relies on each count's removal set being an
    interval of ones that, when nonempty, holds the ones value nearest
    anchor * count, its seed: rint(q t) for hiper, 0 or t for the belief rules.

    Each count's guess is boundary's ends rounded inward, floor(low) + 1 and
    ceil(high) - 1, clipped to [0, t]; a NaN end guesses the count empty. One
    removes_elementwise call confirms every guess: a nonempty one if both
    ends remove and their outer neighbours keep or lie outside [0, t], an
    empty one if its seed and the seed's neighbours keep. Only the counts not
    confirmed are read whole, at every ones value up to the count, in one
    more call."""
    count = np.arange(1.0, horizon + 1)  # floats: the rules' arithmetic is float, the values exact
    removes = policy.removes_elementwise
    seed = np.rint(policy.anchor * count)
    low, high = policy.boundary(count)
    first, last = np.maximum(np.floor(low) + 1.0, 0.0), np.minimum(np.ceil(high) - 1.0, count)
    some = first <= last
    first, last = np.where(some, first, seed), np.where(some, last, seed)
    hit = removes(count, np.array((first, first - 1.0, last, last + 1.0)))
    # an empty guess probes its seed twice, so hit[0] == hit[2] there
    wrong = ((hit[0] & hit[2]) != some) | hit[1] & (first > 0.0) | hit[3] & (last < count)
    sure = some & ~wrong
    lo, hi = np.zeros(horizon + 1, dtype=np.int64), np.full(horizon + 1, -1, dtype=np.int64)
    lo[1:], hi[1:] = np.where(sure, first, 0.0), np.where(sure, last, -1.0)
    unsure = np.flatnonzero(wrong)
    if unsure.size:
        rows, ones = count[unsure, None], np.arange(horizon + 1.0)
        lo[1:][unsure], hi[1:][unsure] = _ends(removes(rows, ones) & (ones <= rows))
    return Region(lo, hi)


def table_region(removed: np.ndarray) -> Region:
    """The Region of removed[t, k] for counts 1..horizon and ones k <= t, whose
    removing ones at each count must form an interval, as in compile_region."""
    removed = np.tril(removed)
    removed[0] = False
    return Region(*_ends(removed))


def _ends(removed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first and last True column, or 0 and -1 in a row with none."""
    some = removed.any(axis=1)
    lo = np.where(some, removed.argmax(axis=1), 0)
    hi = np.where(some, removed.shape[1] - 1 - removed[:, ::-1].argmax(axis=1), -1)
    return lo, hi


#: The ASCII literals of a spec's delta and depth, and, signed, of a CLI flag's
#: number: float() and int() would also take 0.9_9, ０.9, ' 0.9' and nan.
DECIMAL, INTEGER = r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?", "[0-9]+"


@dataclass(frozen=True)
class PolicySpec:
    """Parsed policy identifier: the one policy grammar, of a suite config's
    policies and of nodeban stream's --policy.

    Accepted forms, once stripped: "hiper:<delta>" (an ASCII decimal literal)
    or "hiper:star" (tuned delta per world), "myopic", "optimistic",
    "lookahead:<depth>" (ASCII digits, 1 to MAX_DEPTH) with an optional
    ":<leaf_rule>" suffix (zero, myopic_infinite, optimistic); each parse
    error names the text. A belief rule's spec holds its plan's depth and
    leaf rule: myopic's and optimistic's are their classes', at depth 0.
    """

    kind: str
    delta: float | None = None
    depth: int | None = None
    leaf_rule: LeafRule = LeafRule.ZERO

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        kind, *args = text.strip().split(":")
        try:
            if kind == "myopic" or kind == "optimistic":
                if args:
                    raise ValueError("takes no arguments")
                rule = MyopicPolicy if kind == "myopic" else OptimisticPolicy
                return cls(kind=kind, depth=rule.depth, leaf_rule=rule.leaf_rule)
            if kind == "hiper":
                if len(args) != 1:
                    raise ValueError("needs a delta, e.g. hiper:0.9 or hiper:star")
                if args[0] == "star":
                    return cls(kind=kind, delta=None)
                if not re.fullmatch(DECIMAL, args[0]):
                    raise ValueError(f"expected a delta in (0, 1) or star, got {args[0]!r}")
                delta = float(args[0])
                if not 0.0 < delta < 1.0:
                    raise ValueError(f"delta must lie in (0, 1), got {delta}")
                if math.isinf(2.0 / delta):  # the warm-up ln(2/delta) / (2 gap^2) is infinite at every gap
                    raise ValueError(f"delta {delta!r} is too small: ln(2/delta) is not finite")
                return cls(kind=kind, delta=delta)
            if kind == "lookahead":
                if len(args) not in (1, 2):
                    raise ValueError("needs a depth, e.g. lookahead:4")
                leaves = [rule.value for rule in LeafRule]
                leaf = args[1] if len(args) == 2 else "zero"
                if not re.fullmatch(INTEGER, args[0]) or leaf not in leaves:
                    raise ValueError(f"expected an integer depth and leaf rule ({', '.join(leaves)})")
                return cls(kind=kind, depth=check_depth(int(args[0])), leaf_rule=LeafRule(leaf))
            raise ValueError(f"unknown policy kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"policy {text!r}: {exc}") from None

    @property
    def label(self) -> str:
        """The policy's name in the CSV. A delta is written as its shortest
        round-trip repr, so that distinct deltas get distinct labels."""
        if self.kind == "hiper":
            return f"hiper:{'star' if self.delta is None else repr(self.delta)}"
        if self.kind == "lookahead":
            suffix = "" if self.leaf_rule is LeafRule.ZERO else f":{self.leaf_rule.value}"
            return f"lookahead:{self.depth}{suffix}"
        return self.kind

    def policy(self, env):
        """The policy in the world env: one instance serves every node,
        through its removes(count, ones) predicate. hiper reads only env's
        malicious_mean and gap, and for hiper:star the stakes and departure
        rate optimal_delta reads, so its env may be any object with those
        attributes."""
        if self.kind == "hiper":
            delta = self.delta
            if delta is None:
                delta = optimal_delta(env.loss_malicious, env.gain_honest, env.departure_rate, env.gap).value
            return HiperPolicy(delta, env.gap, env.malicious_mean)
        return _BeliefPolicy(env, self.depth, self.leaf_rule)

    def build(self, draw, lattice: Lattice | None = None) -> Region:
        """The policy's removal region on the draw (a simulator.ExperimentDraw,
        of which it reads env and horizon), compiled once for all its nodes.
        A rule that plans ahead (depth 1 or more) reads it off the draw's
        lattice, or off a lattice of its own where none is given; every
        other region is compile_region's, from hiper's and the depth-0
        rules' closed-form ends."""
        if self.depth:
            lattice = lattice or Lattice(draw.env, draw.horizon, [self])
            return table_region(lattice.values(self) <= 0.0)
        return compile_region(self.policy(draw.env), draw.horizon)
