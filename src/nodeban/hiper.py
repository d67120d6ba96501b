"""High-probability efficient response: a confidence-interval stopping rule.

The rule tracks the running mean of a node's observations and removes the
node once two strict conditions hold simultaneously: the mean sits inside a
shrinking confidence radius around the malicious mean, and enough samples
have accumulated that the radius has dropped below the honest/malicious gap.
The radius comes from a two-sided sub-Gaussian tail bound for means of
independent [0, 1]-valued variables, so only the two means are assumed
known, not the observation distributions themselves.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_DELTA_MIN = 1e-6
_DELTA_MAX = 1.0 - 1e-6


def min_samples(delta: float, gap: float) -> float:
    """Warm-up threshold ln(2/delta) / (2 gap^2).

    Removal requires the integer sample count to strictly exceed this value;
    at exactly this count the confidence radius equals the gap. Raises
    ValueError where the threshold is not finite (2 gap^2 underflows, or the
    quotient overflows), since no node could ever be removed.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not gap > 0.0:
        raise ValueError(f"gap must be positive, got {gap}")
    denominator = 2.0 * gap * gap
    warmup = math.log(2.0 / delta) / denominator if denominator else math.inf
    if warmup == math.inf:
        raise ValueError(f"the warm-up ln(2/delta) / (2 gap^2) is not finite at delta={delta}, gap={gap}")
    return warmup


class OptimalDelta(NamedTuple):
    value: float
    clamped: bool


def optimal_delta(
    loss_malicious: float, gain_honest: float, departure_rate: float, gap: float
) -> OptimalDelta:
    """Error probability that balances the malicious- and honest-side loss bounds.

    Returns 1 - sqrt(loss_malicious * rate * (gap^2 + 2 rate) /
    (gain_honest * (gap^2 + 2))), clamped into [1e-6, 1 - 1e-6]. The clamped
    flag is set whenever clamping changed the value; parameter combinations
    where the formula leaves (0, 1) are exactly those where keeping a
    malicious node forever is no worse than losing an honest one. Raises
    ValueError where the ratio is NaN: both of its products overflow.
    """
    if loss_malicious <= 0.0 or gain_honest <= 0.0 or gap <= 0.0:
        raise ValueError(f"lQ, gU and gap must be positive, got lQ={loss_malicious}, gU={gain_honest}, gap={gap}")
    if not 0.0 < departure_rate <= 1.0:
        raise ValueError(f"departure_rate must lie in (0, 1], got {departure_rate}")
    gap2 = gap * gap
    arg = loss_malicious * departure_rate * (gap2 + 2.0 * departure_rate) / (
        gain_honest * (gap2 + 2.0)
    )
    if math.isnan(arg):
        raise ValueError(
            f"delta* is not a number at lQ={loss_malicious}, gU={gain_honest}, lambda={departure_rate}, "
            f"Delta={gap}: both sides of its ratio overflow"
        )
    raw = 1.0 - math.sqrt(arg)
    value = min(max(raw, _DELTA_MIN), _DELTA_MAX)
    return OptimalDelta(value, value != raw)


def bound_loss_malicious(loss_malicious: float, delta: float) -> float:
    """The paper's closed-form expected-loss ceiling against a malicious node:
    loss_malicious / (1 - delta)^2.

    The closed form ignores the warm-up: no node is removed before its count
    exceeds W = min_samples(delta, gap), so a malicious node (which never
    departs) loses at least loss_malicious * (floor(W) + 1). The value
    therefore bounds this rule's malicious loss only where
    floor(W) + 1 <= 1 / (1 - delta)^2; bound_loss_malicious_warmup is the
    ceiling that counts the warm-up. Raises ValueError where it is not
    finite (the quotient overflows).
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if loss_malicious < 0.0:
        raise ValueError(f"loss_malicious must be nonnegative, got {loss_malicious}")
    bound = loss_malicious / ((1.0 - delta) * (1.0 - delta))
    if not math.isfinite(bound):
        raise ValueError(f"the malicious loss bound is not finite at loss={loss_malicious}, delta={delta}")
    return bound


def bound_loss_malicious_warmup(loss_malicious: float, delta: float, gap: float) -> float:
    """Warm-up-aware expected-loss ceiling against a malicious node:
    loss_malicious * (floor(W) + 1 / (1 - delta)^2), W = min_samples(delta, gap).

    This is the paper's per-check budget 1 / (1 - delta)^2 counted from step
    floor(W) + 1, the first step at which the rule can remove a node, plus
    the floor(W) warm-up steps before it. It equals bound_loss_malicious when
    W < 1 and is never below the warm-up floor loss_malicious * (floor(W) + 1).
    Rejects what bound_loss_malicious rejects, what min_samples rejects, and
    a sum that is not finite.
    """
    paper = bound_loss_malicious(loss_malicious, delta)
    bound = paper + loss_malicious * math.floor(min_samples(delta, gap))
    if not math.isfinite(bound):
        raise ValueError(
            f"the warm-up-aware malicious loss bound is not finite at loss={loss_malicious}, "
            f"delta={delta}, gap={gap}"
        )
    return bound


def bound_loss_honest(gain_honest: float, departure_rate: float, gap: float) -> float:
    """Closed-form expected-loss ceiling against an honest node:
    gain_honest (gap^2 + 2) / (rate (gap^2 + 2 rate)). Raises ValueError
    where it is not finite (the denominator underflows, or the quotient
    overflows).

    At optimal_delta's unclamped delta* the paper's malicious-side closed
    form equals this one, so this is also the paper's combined ceiling
    there (nodeban bounds' loss_bound_combined, which at a clamped delta*
    is the larger of the two). That ignores the warm-up, as
    bound_loss_malicious does; max(bound_loss_malicious_warmup, this) counts it."""
    if gain_honest < 0.0:
        raise ValueError(f"gain_honest must be nonnegative, got {gain_honest}")
    if not 0.0 < departure_rate <= 1.0:
        raise ValueError(f"departure_rate must lie in (0, 1], got {departure_rate}")
    if gap <= 0.0:
        raise ValueError(f"gap must be positive, got {gap}")
    gap2 = gap * gap
    denominator = departure_rate * (gap2 + 2.0 * departure_rate)
    bound = gain_honest * (gap2 + 2.0) / denominator if denominator else math.inf
    if not math.isfinite(bound):  # NaN too, where gap^2 overflows
        raise ValueError(f"the honest loss bound is not finite at rate={departure_rate}, gap={gap}")
    return bound


class HiperPolicy:
    """The stopping rule, online: observe(x) feeds one observation and returns
    removes' verdict on the node's history so far (True: remove).

    delta is the acceptable per-check error probability, gap the assumed
    separation of the honest and malicious means (min_samples checks both),
    and malicious_mean, q, kept as anchor, a malicious node's expected
    observation, in [0, 1]. After each observation the node is removed iff
    its count t strictly exceeds the warm-up threshold min_samples(delta,
    gap) and its running mean lies strictly inside the confidence radius
    r_t = sqrt(ln(2/delta) / (2 t)) of the malicious mean. Equality in
    either comparison keeps the node. The warm-up threshold and the log
    term of the radius are precomputed once. removes(count, total) is the
    rule, scalar for nodeban stream's (count, total) points, observe and
    simulate_node; removes_elementwise is its array twin, and boundary its
    one closed form, whose ends compile_region confirms with
    removes_elementwise to compile the rule for a horizon.

    No count up to floor(W), W = min_samples(delta, gap), removes, and
    boundary's interval is empty there. Every count t past it removes: the
    rule removes the ones k with |k / t - q| < r_t, an interval of k (each
    operation is monotone in k, in floating point too) around t q of
    half-width t r_t = sqrt(t ln(2 / delta) / 2) > sqrt(ln(2) / 2) > 1/2. So
    the interval holds rint(q t), compile_region's seed for the anchor q, and
    its ends are boundary's rounded inward, as the strict comparison asks:
    floor(t (q - r_t)) + 1, at least 0, and ceil(t (q + r_t)) - 1, at most t,
    up to the rounding of boundary's own arithmetic.
    """

    def __init__(self, delta: float, gap: float, malicious_mean: float) -> None:
        self._warmup = min_samples(delta, gap)  # validates both, and a finite warm-up
        if not 0.0 <= malicious_mean <= 1.0:
            raise ValueError(f"malicious_mean must lie in [0, 1], got {malicious_mean}")
        self._log_term = math.log(2.0 / delta)
        self.anchor = malicious_mean  # removal sets sit around anchor * count
        self._count = 0
        self._total = 0.0

    def observe(self, x: float) -> bool:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"observation must lie in [0, 1], got {x}")
        self._count += 1
        self._total += x
        return self.removes(self._count, self._total)

    def removes(self, count: int, total: float) -> bool:
        """The rule after count observations summing to total (ones, if binary)."""
        return count > self._warmup and abs(total / count - self.anchor) < math.sqrt(
            self._log_term / (2.0 * count)
        )

    def removes_elementwise(self, count: np.ndarray, ones: np.ndarray) -> np.ndarray:
        """removes at every pair of two broadcast arrays, by the same IEEE
        operations (numpy's sqrt is correctly rounded, as math.sqrt is)."""
        radius = np.sqrt(self._log_term / (2.0 * count))
        return (count > self._warmup) & (np.abs(ones / count - self.anchor) < radius)

    def boundary(self, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The interval's ends up to rounding, count * (anchor -+ radius), and
        the empty (inf, -inf) at each count up to the warm-up."""
        spread = np.where(count > self._warmup, np.sqrt(count * (self._log_term / 2.0)), -np.inf)
        centre = count * self.anchor
        return centre - spread, centre + spread
