"""Reference implementations the tests compare the package against.

Each restates one rule in its most direct form, slower or narrower than the
package's version, so that agreement between the two is evidence that the
package's version is right.
"""

from __future__ import annotations

import json
import math

import numpy as np

from nodeban.belief import BeliefState, ImpossibleEvidenceError, update
from nodeban.hiper import HiperPolicy, min_samples
from nodeban.model import NEVER, EnvParams
from nodeban.policies import LeafRule
from nodeban.simulator import _region_bounds

_BRUTEFORCE_MAX_DEPTH = 12


def posterior_per_call(ones: int, count: int, env: EnvParams) -> float:
    """posterior as one function that checks the prior and takes every
    logarithm of env's rates and prior on each call."""
    if ones < 0 or count < 0 or ones > count:
        raise ValueError(f"need 0 <= ones <= count, got ones={ones} count={count}")
    prior_malicious = env.prior_malicious
    if not 0.0 <= prior_malicious <= 1.0:
        raise ValueError(f"prior_malicious must lie in [0, 1], got {prior_malicious}")
    u = env.honest_mean
    q = env.malicious_mean
    zeros = count - ones
    malicious_zero = (q == 0.0 and ones > 0) or (q == 1.0 and zeros > 0)
    honest_zero = (u == 0.0 and ones > 0) or (u == 1.0 and zeros > 0)
    malicious_dead = malicious_zero or prior_malicious == 0.0
    honest_dead = honest_zero or prior_malicious == 1.0
    if malicious_dead and honest_dead:
        raise ImpossibleEvidenceError(
            f"history (ones={ones}, count={count}) has zero prior-weighted "
            f"likelihood under both types (u={u}, q={q}, prior={prior_malicious})"
        )
    if malicious_dead:
        return 0.0
    if honest_dead:
        return 1.0
    log_like_malicious = (ones * math.log(q) if ones else 0.0) + (
        zeros * math.log1p(-q) if zeros else 0.0
    )
    log_like_honest = (ones * math.log(u) if ones else 0.0) + (
        zeros * math.log1p(-u) if zeros else 0.0
    )
    if log_like_malicious == log_like_honest:
        return prior_malicious
    log_odds = (
        math.log(prior_malicious)
        - math.log1p(-prior_malicious)
        + log_like_malicious
        - log_like_honest
    )
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    weight = math.exp(log_odds)
    return weight / (1.0 + weight)


def belief_rule_removes(rule: str, env: EnvParams, count: int, ones: int) -> bool:
    """MyopicPolicy's or OptimisticPolicy's removes(count, ones) (rule "myopic"
    or "optimistic") in the form of a decision on a whole belief: the
    BeliefState at (count, ones) from posterior_per_call, the rule's keep
    margin read off it, and the verdict that margin gives (True: remove)."""
    try:
        belief = BeliefState(ones, count, posterior_per_call(ones, count, env))
    except ImpossibleEvidenceError:
        return True
    pm = belief.posterior_malicious
    if rule == "myopic":
        margin = (1.0 - pm) * env.gain_honest - pm * env.loss_malicious
    else:
        margin = (1.0 - pm) * env.gain_honest / env.departure_rate - pm * env.loss_malicious
    return not margin > 0.0


def confidence_radius(delta: float, t: float) -> float:
    """Two-sided deviation threshold sqrt(ln(2/delta) / (2 t)) after t samples.

    t is the sample count; real values are accepted so the radius can be
    evaluated at the (generally fractional) warm-up threshold, where it
    equals the gap exactly.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if t <= 0:
        raise ValueError(f"sample count must be positive, got {t}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * t))


def hiper_decision(count: int, total: float, delta: float, gap: float, malicious_mean: float) -> bool:
    """The confidence-interval rule from its closed forms: remove (True) iff
    count strictly exceeds min_samples and the mean total / count lies
    strictly inside confidence_radius of the malicious mean."""
    return count > min_samples(delta, gap) and abs(total / count - malicious_mean) < confidence_radius(delta, count)


def lookahead_leaf_value(belief: BeliefState, env: EnvParams, rule: LeafRule) -> float:
    """The value a LeafRule puts on a belief at the planning frontier: 0; the
    myopic keep gain, if positive, earned for an honest node's expected stay
    of 1/departure_rate steps; or the optimistic margin, if positive."""
    pm = belief.posterior_malicious
    if rule is LeafRule.ZERO:
        return 0.0
    if rule is LeafRule.MYOPIC_INFINITE:
        return max(0.0, (1.0 - pm) * env.gain_honest - pm * env.loss_malicious) / env.departure_rate
    return max(0.0, (1.0 - pm) * env.gain_honest / env.departure_rate - pm * env.loss_malicious)


def lookahead_value_bruteforce(
    belief: BeliefState, env: EnvParams, depth: int, leaf_rule: LeafRule = LeafRule.ZERO
) -> float:
    """Reference evaluation of lookahead_value by expanding all 2^depth
    observation paths; validates the state-merged induction.
    """
    if depth > _BRUTEFORCE_MAX_DEPTH:
        raise ValueError(
            f"brute-force enumeration is limited to depth {_BRUTEFORCE_MAX_DEPTH}, "
            f"got {depth}"
        )

    def expand(b: BeliefState, d: int) -> float:
        if d == 0:
            return lookahead_leaf_value(b, env, leaf_rule)
        pm = b.posterior_malicious
        gain = (1.0 - pm) * env.gain_honest - pm * env.loss_malicious
        p_one = env.honest_mean * (1.0 - pm) + env.malicious_mean * pm
        try:
            v_one = expand(update(b, 1, env), d - 1)
        except ImpossibleEvidenceError:
            v_one = 0.0
        try:
            v_zero = expand(update(b, 0, env), d - 1)
        except ImpossibleEvidenceError:
            v_zero = 0.0
        return max(0.0, gain + p_one * v_one + (1.0 - p_one) * v_zero)

    return expand(belief, depth)


def parse_event_loads(line: str, line_no: int) -> tuple[str, int, float]:
    """One stripped input line of nodeban stream, as (node_id, t, x), parsed
    by json.loads: the stream's definition of an event. cli._parse_event is
    this reading, and a line that the stream reads off its canonical
    pattern must give the same event."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also an integer too long to convert, or nesting too deep
        raise ValueError(f"line {line_no}: not valid JSON ({exc})")
    try:
        node_id, t, x = obj["node_id"], obj["t"], obj["x"]
    except (KeyError, TypeError):  # a KeyError only from a dict
        if type(obj) is not dict:
            raise ValueError(f"line {line_no}: expected a JSON object")
        raise ValueError(f"line {line_no}: missing fields {sorted({'node_id', 't', 'x'} - set(obj))}")
    # json.loads gives exact types, so `type(v) is int` excludes a JSON true
    if type(node_id) is not str:  # 7 and "7" would otherwise be one node
        raise ValueError(f"line {line_no}: node_id must be a JSON string, got {json.dumps(node_id)}")
    if type(t) is not int or t < 1:
        raise ValueError(f"line {line_no}: t must be a positive integer, got {t!r}")
    if type(x) is int:
        try:
            x = float(x)
        except OverflowError:  # an integer beyond the float range
            x = math.inf if x > 0 else -math.inf
    elif type(x) is not float:
        raise ValueError(f"line {line_no}: x must be a number, got {x!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"line {line_no}: observation value must lie in [0, 1], got {x}")
    return node_id, t, x


def stream_replay(events, make_policy, binarize=None) -> tuple[str, str]:
    """nodeban stream's stdout and stderr on events (dicts with node_id, t and
    x), from one policy object per node fed through observe, as the stream
    ran before it kept per-node (count, ones) state. Each verdict's statistic
    comes from the replay's own running total per node: the mean for hiper,
    posterior_per_call for a belief policy. binarize thresholds x that are
    not 0 or 1, for the belief policies."""
    nodes, removed, lines = {}, set(), []
    for line_no, event in enumerate(events, 1):
        node = event["node_id"]
        if node in removed:
            continue
        x = float(event["x"])
        if binarize is not None and x != 0.0 and x != 1.0:
            x = 1.0 if x >= binarize else 0.0
        policy, count, total = nodes.get(node) or (make_policy(), 0, 0.0)
        try:
            remove = policy.observe(x)
        except ImpossibleEvidenceError as exc:
            return "".join(lines), f"error: line {line_no}: {exc}\n"
        count, total = count + 1, total + x
        nodes[node] = policy, count, total
        if isinstance(policy, HiperPolicy):
            statistic = total / count
        else:
            statistic = posterior_per_call(int(total), count, policy.env)
        decision = "remove" if remove else "keep"
        verdict = {"node_id": node, "t": event["t"], "decision": decision, "statistic": statistic}
        lines.append(json.dumps(verdict) + "\n")
        if remove:
            removed.add(node)
    return "".join(lines), ""


class RegionWalk:
    """policy.removes(count, ones) as lists lo, hi that extend(n) grows in
    place, one count at a time: at count t <= n it removes iff
    lo[t] <= ones <= hi[t], (0, -1) when no ones does. Relies on each count's
    removal set being an interval of ones holding, when nonempty, floor or
    ceil of policy.anchor * t: those seeds decide emptiness, and each end is
    walked from its last position."""

    def __init__(self, policy) -> None:
        self._removes, self._anchor = policy.removes, policy.anchor
        self.lo, self.hi = [0], [-1]

    def extend(self, count: int) -> None:
        removes, anchor, lo, hi = self._removes, self._anchor, self.lo, self.hi
        for t in range(len(lo), count + 1):
            seed = anchor * t
            inside = math.floor(seed)
            if not removes(t, inside):
                inside = math.ceil(seed)
                if inside == seed or not removes(t, inside):
                    lo.append(0)
                    hi.append(-1)
                    continue
            a, b = (lo[-1], hi[-1]) if lo[-1] <= hi[-1] else (inside, inside)
            lo.append(_walk(removes, t, inside, a, -1))
            hi.append(_walk(removes, t, inside, b, 1))


def _walk(removes, t: int, inside: int, start: int, step: int) -> int:
    """The end, in direction step, of the removal interval at count t that
    holds `inside`, searched from `start`."""
    if (start - inside) * step <= 0:
        start = inside
    if start == inside or removes(t, start):
        while 0 <= start + step <= t and removes(t, start + step):
            start += step
        return start
    start -= step
    while not removes(t, start):
        start -= step
    return start


def first_passage(lo, hi, draw, is_malicious: bool, rng) -> tuple[float, float]:
    """A node's removal and departure steps under the region (lo, hi), one
    count at a time in plain Python: the departure (NEVER if malicious) and
    then one double per step of the node's stay (the horizon, or the
    departure step - 1 if less) from rng, as node_rng's stream yields them;
    the removal step is the first count t from 0 to the stay with
    lo[t] <= ones <= hi[t], NEVER if none."""
    env = draw.env
    departure, stay = NEVER, draw.horizon
    if not is_malicious:
        departure = float(rng.geometric(env.departure_rate))
        stay = min(int(departure) - 1, draw.horizon)
    mean = env.malicious_mean if is_malicious else env.honest_mean
    ones = 0
    for t, double in enumerate([None] + rng.random(stay).tolist()):
        if t and double < mean:
            ones += 1
        if lo[t] <= ones <= hi[t]:
            return float(t), departure
    return NEVER, departure


def exact_loss(regions, draw) -> tuple[np.ndarray, np.ndarray]:
    """Each region's expected loss per node on the draw, split (honest part,
    malicious part), each weighted by its type's prior: run_episode's loss
    in expectation, with NEVER capped at the horizon H.

    A forward pass carries each type's probability mass over the ones count,
    one count t = 0..H at a time, for every region at once, in one
    (2 regions, H + 1) array: a row per region for the honest rate u, then
    one per region for the malicious rate q. At each count the mass inside
    the region, read through _region_bounds so that its ends are clipped as
    run_episode clips them, is removed there. An honest node removed at t
    is still present with probability (1 - rate)^t, and then loses its
    remaining stay, capped at H: gU (1 - (1 - rate)^(H - t)) / rate, which
    is gU at t < H and 0 at t = H where rate = 1. A malicious node loses lQ
    per count t < H at which it has not yet been removed."""
    env, horizon, n = draw.env, draw.horizon, len(regions)
    bounds = [_region_bounds(i, region, horizon, np.int64, np.int64) for i, region in enumerate(regions)]
    lo = np.array([b[0] for b in bounds] * 2)
    hi = lo + np.array([b[1] for b in bounds] * 2) - 1
    rate = np.repeat([env.honest_mean, env.malicious_mean], n)[:, None]
    mass = np.zeros((2 * n, horizon + 1))
    mass[:, 0] = 1.0
    ones = np.arange(horizon + 1)
    lam, present = env.departure_rate, 1.0
    honest, malicious = np.zeros(n), np.zeros(n)
    for t in range(horizon + 1):
        inside = (lo[:, t, None] <= ones) & (ones <= hi[:, t, None])
        removed = np.where(inside, mass, 0.0).sum(axis=1)
        mass[inside] = 0.0
        honest += removed[:n] * present * env.gain_honest * (1.0 - (1.0 - lam) ** (horizon - t)) / lam
        if t == horizon:
            break
        malicious += mass[n:].sum(axis=1) * env.loss_malicious
        step = mass * rate
        mass -= step
        mass[:, 1:] += step[:, :-1]
        present *= 1.0 - lam
    prior = env.prior_malicious
    return (1.0 - prior) * honest, prior * malicious
