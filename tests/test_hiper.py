import json
import math
import os
import tempfile

import numpy as np
import pytest

from nodeban.cli import main
from nodeban.hiper import (
    HiperParams,
    HiperPolicy,
    bound_loss_combined,
    bound_loss_honest,
    bound_loss_malicious,
    bound_loss_malicious_warmup,
    confidence_radius,
    min_samples,
    optimal_delta,
)
from nodeban.model import Decision
from nodeban.simulator import compile_region
from oracles import hiper_decision

DELTA_E2 = 2.0 * math.exp(-2.0)  # makes ln(2/delta) = 2
PARAMS = HiperParams(delta=0.5, gap=0.4, malicious_mean=0.3)


def fed(params: HiperParams, xs) -> list[Decision]:
    """A fresh policy's verdict on each of xs, observed in order."""
    policy = HiperPolicy(params)
    return [policy.observe(float(x)) for x in xs]


def streamed_statistics(params: HiperParams, xs) -> list[float]:
    """The `statistic` of each verdict `nodeban stream --policy hiper` gives
    one node fed xs."""
    flags = ["--q", repr(params.malicious_mean), "--delta", repr(params.delta), "--Delta", repr(params.gap)]
    with tempfile.TemporaryDirectory() as tmp:
        events, verdicts = os.path.join(tmp, "events.jsonl"), os.path.join(tmp, "verdicts.jsonl")
        with open(events, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps({"node_id": "a", "t": t, "x": x}) + "\n" for t, x in enumerate(xs, 1))
        assert main(["stream", events, "--out", verdicts, "--policy", "hiper", *flags]) == 0
        with open(verdicts, encoding="utf-8") as handle:
            return [json.loads(line)["statistic"] for line in handle]


class TestRunningStat:
    """The running mean that HiperPolicy thresholds, as the stream reports it."""

    def test_mean_of_alternating_sequence(self):
        statistics = streamed_statistics(PARAMS, (1.0, 0.0, 1.0, 0.0))
        assert len(statistics) == 4
        assert statistics[-1] == 0.5  # a sum of 2 over a count of 4

    def test_single_sample(self):
        assert streamed_statistics(PARAMS, (0.7,)) == [pytest.approx(0.7, rel=1e-12)]

    def test_constant_sequence(self):
        assert streamed_statistics(PARAMS, (1.0, 1.0, 1.0))[-1] == 1.0

    def test_rejects_out_of_range(self):
        for x in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError):
                HiperPolicy(PARAMS).observe(x)

    def test_mean_is_exact_ratio(self):
        xs = np.random.default_rng(3).uniform(0, 1, size=100).tolist()
        # a warm-up of ln(4) / (2 * 0.05^2) ~ 277 samples: no removal ends the stream
        statistics = streamed_statistics(HiperParams(delta=0.5, gap=0.05, malicious_mean=0.3), xs)
        total = 0.0
        for x in xs:
            total += x
        assert len(statistics) == 100
        assert statistics[-1] == total / len(xs)


class TestConfidenceRadius:
    def test_unit_radius_at_one_sample(self):
        assert confidence_radius(DELTA_E2, 1) == pytest.approx(1.0, rel=1e-12)

    def test_half_radius_at_four_samples(self):
        assert confidence_radius(DELTA_E2, 4) == pytest.approx(0.5, rel=1e-12)

    def test_inverse_sqrt_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            delta = float(rng.uniform(0.01, 0.99))
            t = int(rng.integers(1, 1000))
            assert confidence_radius(delta, 4 * t) == pytest.approx(
                confidence_radius(delta, t) / 2.0, rel=1e-12
            )

    def test_strictly_decreasing_in_t_and_delta(self):
        for t in range(1, 50):
            assert confidence_radius(0.5, t + 1) < confidence_radius(0.5, t)
        deltas = np.linspace(0.05, 0.95, 19)
        radii = [confidence_radius(float(d), 10) for d in deltas]
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            confidence_radius(0.0, 5)
        with pytest.raises(ValueError):
            confidence_radius(1.0, 5)
        with pytest.raises(ValueError):
            confidence_radius(0.5, 0)


class TestMinSamples:
    def test_values(self):
        assert min_samples(DELTA_E2, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert min_samples(DELTA_E2, 0.5) == pytest.approx(4.0, rel=1e-12)

    def test_radius_equals_gap_at_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            delta = float(rng.uniform(0.001, 0.999))
            gap = float(rng.uniform(0.01, 1.0))
            threshold = min_samples(delta, gap)
            assert confidence_radius(delta, threshold) == pytest.approx(gap, rel=1e-12)

    def test_rejects_zero_gap(self):
        with pytest.raises(ValueError):
            min_samples(0.5, 0.0)

    def test_rejects_a_warmup_that_is_not_finite(self):
        # 2 gap^2 underflows to 0 at 1e-200, and to a subnormal at 1e-160
        # where the quotient overflows
        for gap in (1e-200, 1e-160, math.nan):
            with pytest.raises(ValueError):
                min_samples(0.9, gap)
            with pytest.raises(ValueError):
                bound_loss_malicious_warmup(1.0, 0.9, gap)
        with pytest.raises(ValueError):
            min_samples(5e-324, 0.5)  # 2 / delta overflows
        assert math.isfinite(min_samples(0.9, 1e-150))


def exact_sum_sequence(total: float, count: int) -> list[float]:
    """count observations in [0, 1] whose running sum is exactly `total`:
    ones, then the remainder, then zeros. Each partial sum is exact."""
    ones = int(total)
    rest = total - ones  # exact (Sterbenz): ones <= total < 2 * ones, or ones = 0
    assert ones + rest == total and ones + 1 <= count
    return [1.0] * ones + [rest] + [0.0] * (count - ones - 1)


class TestHiperDecide:
    """HiperPolicy.observe's verdict as a function of (count, running sum)."""

    def test_zero_deviation_after_warmup_removes(self):
        t = math.ceil(min_samples(0.5, 0.4)) + 1
        verdicts = fed(PARAMS, [0.3] * t)
        assert verdicts[-1] is Decision.REMOVE

    def test_warmup_guard_keeps(self):
        params = HiperParams(delta=0.5, gap=0.1, malicious_mean=0.3)
        warmup = min_samples(0.5, 0.1)
        verdicts = fed(params, [0.3] * int(warmup))
        assert verdicts == [Decision.KEEP] * int(warmup)

    def test_large_deviation_keeps(self):
        # radius at t=8 is sqrt(2/16) ~ 0.354 < |0.8 - 0.3|
        params = HiperParams(delta=DELTA_E2, gap=0.5, malicious_mean=0.3)
        verdicts = fed(params, [0.8] * 8)
        assert verdicts[-1] is Decision.KEEP

    def test_boundary_equality_keeps(self):
        # mean exactly one radius away from the malicious mean: the strict
        # comparison fails and the node stays. One ulp closer removes it.
        # q = 0, a power-of-two count and an exact running sum keep the
        # arithmetic exact.
        params = HiperParams(delta=0.5, gap=0.3, malicious_mean=0.0)
        t = 32
        assert t > min_samples(0.5, 0.3)
        radius = confidence_radius(0.5, t)
        at_boundary = exact_sum_sequence(radius * t, t)
        assert sum(at_boundary) / t == radius
        assert fed(params, at_boundary)[-1] is Decision.KEEP
        inside = exact_sum_sequence(math.nextafter(radius, 0.0) * t, t)
        assert sum(inside) / t == math.nextafter(radius, 0.0)
        assert fed(params, inside)[-1] is Decision.REMOVE
        # the elementwise twin that confirms region's ends compares as strictly
        totals = np.array([radius * t, math.nextafter(radius, 0.0) * t])
        assert HiperPolicy(params).removes_elementwise(np.array(t), totals).tolist() == [False, True]

    def test_requires_a_sample(self):
        # the compiled region removes nothing at count 0, even where a single
        # observation at the malicious mean removes the node
        params = HiperParams(delta=0.9, gap=1.0, malicious_mean=0.3)
        assert min_samples(0.9, 1.0) < 1.0
        region = compile_region(HiperPolicy(params), 1)
        assert region.lo[0] > region.hi[0]
        assert region.lo[1] <= 0 <= region.hi[1]  # one zero bit: mean 0 is within the radius
        assert HiperPolicy(params).observe(0.3) is Decision.REMOVE

    def test_monotone_in_deviation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            delta = float(rng.uniform(0.05, 0.95))
            gap = float(rng.uniform(0.05, 0.6))
            q = float(rng.uniform(0.2, 0.8))
            t = int(math.ceil(min_samples(delta, gap))) + int(rng.integers(1, 20))
            d_large = float(rng.uniform(0, min(q, 1 - q)))
            d_small = float(rng.uniform(0, d_large)) if d_large > 0 else 0.0
            params = HiperParams(delta=delta, gap=gap, malicious_mean=q)
            large = fed(params, [q + d_large] * t)
            small = fed(params, [q + d_small] * t)
            if large[-1] is Decision.REMOVE:
                assert small[-1] is Decision.REMOVE


class TestOptimalDelta:
    def test_direct_value(self):
        got = optimal_delta(1.0, 1.0, 0.1, 0.5)
        assert got.value == pytest.approx(1.0 - math.sqrt(0.02), rel=1e-12)
        assert not got.clamped

    def test_equal_stakes_full_rate_clamps_low(self):
        for gap in (0.1, 0.5, 0.9):
            got = optimal_delta(1.0, 1.0, 1.0, gap)
            assert got.clamped
            assert got.value == pytest.approx(1e-6)

    def test_vanishing_rate_clamps_high(self):
        got = optimal_delta(1.0, 1.0, 1e-12, 0.5)
        assert got.clamped
        assert got.value == pytest.approx(1.0 - 1e-6)

    def test_always_interior(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            got = optimal_delta(
                float(rng.uniform(0.01, 5)),
                float(rng.uniform(0.01, 5)),
                float(rng.uniform(0.001, 1.0)),
                float(rng.uniform(0.01, 1.0)),
            )
            assert 0.0 < got.value < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_delta(0.0, 1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            optimal_delta(1.0, 1.0, 0.0, 0.5)


class TestLossBounds:
    def test_malicious_bound_values(self):
        assert bound_loss_malicious(1.0, 0.9) == pytest.approx(100.0, rel=1e-12)
        assert bound_loss_malicious(1.0, 0.0) == 1.0
        assert bound_loss_malicious(2.0, 0.5) == pytest.approx(8.0, rel=1e-12)

    def test_malicious_bound_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            bound_loss_malicious(1.0, 1.0)
        with pytest.raises(ValueError):
            bound_loss_malicious(1.0, -0.1)

    def test_malicious_bound_rejects_a_value_that_is_not_finite(self):
        with pytest.raises(ValueError, match="malicious loss bound is not finite"):
            bound_loss_malicious(1e300, 1.0 - 1e-10)  # the quotient overflows
        with pytest.raises(ValueError, match="malicious loss bound is not finite"):
            bound_loss_malicious(math.inf, 0.5)

    def test_honest_bound_values(self):
        assert bound_loss_honest(1.0, 0.01, 0.5) == pytest.approx(2.25 / 0.0027, rel=1e-9)
        assert bound_loss_honest(0.0, 0.3, 0.2) == 0.0
        assert bound_loss_honest(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_honest_bound_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            bound_loss_honest(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            bound_loss_honest(1.0, -0.2, 0.5)

    def test_honest_bound_rejects_a_value_that_is_not_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            bound_loss_honest(1.0, 1e-300, 1e-200)  # the denominator underflows to 0
        with pytest.raises(ValueError, match="not finite"):
            bound_loss_honest(1e300, 1e-300, 0.5)  # the quotient overflows
        for gap in (1e200, math.inf, math.nan):  # gap^2 overflows: inf / inf
            with pytest.raises(ValueError, match="not finite"):
                bound_loss_honest(1.0, 0.5, gap)

    def test_combined_value(self):
        assert bound_loss_combined(1.0, 1.0, 0.1, 0.5) == pytest.approx(50.0, rel=1e-9)

    def test_combined_matches_malicious_bound_at_tuned_delta(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 100:
            loss = float(rng.uniform(0.05, 3))
            gain = float(rng.uniform(0.05, 3))
            rate = float(rng.uniform(0.001, 0.9))
            gap = float(rng.uniform(0.05, 1.0))
            tuned = optimal_delta(loss, gain, rate, gap)
            if tuned.clamped:
                continue
            checked += 1
            assert bound_loss_malicious(loss, tuned.value) == pytest.approx(
                bound_loss_combined(loss, gain, rate, gap), rel=1e-9
            )

    def test_combined_decreasing_in_rate(self):
        rates = np.linspace(0.01, 1.0, 25)
        bounds = [bound_loss_combined(1.0, 1.0, float(r), 0.5) for r in rates]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


class TestWarmupBound:
    def test_reference_value(self):
        # W = ln(4) / 0.5 ~ 2.77: two warm-up steps plus the paper's 1 / 0.25
        assert min_samples(0.5, 0.5) == pytest.approx(2.7726, abs=1e-4)
        assert bound_loss_malicious_warmup(1.0, 0.5, 0.5) == pytest.approx(6.0, rel=1e-12)

    def test_paper_value_plus_warmup_steps(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            loss = float(rng.uniform(0.0, 3.0))
            delta = float(rng.uniform(0.01, 0.99))
            gap = float(rng.uniform(0.05, 1.0))
            warmup = math.floor(min_samples(delta, gap))
            value = bound_loss_malicious_warmup(loss, delta, gap)
            assert value == pytest.approx(
                bound_loss_malicious(loss, delta) + loss * warmup, rel=1e-12
            )
            assert value >= loss * (warmup + 1)

    def test_equals_paper_value_without_warmup_steps(self):
        # ln(2/0.9) / 2 ~ 0.40 < 1
        assert min_samples(0.9, 1.0) < 1.0
        assert bound_loss_malicious_warmup(2.0, 0.9, 1.0) == bound_loss_malicious(2.0, 0.9)

    def test_floor_is_first_removal_step(self):
        # a malicious node whose every observation equals q is removed at the
        # first step past the warm-up, so it loses exactly the floor
        for delta, gap in ((0.5, 0.5), (0.9, 0.4), (0.2, 0.1), (0.99, 0.05)):
            policy = HiperPolicy(HiperParams(delta=delta, gap=gap, malicious_mean=0.3))
            steps = 1
            while policy.observe(0.3) is Decision.KEEP:
                steps += 1
            assert steps == math.floor(min_samples(delta, gap)) + 1

    def test_rejects_bad_inputs(self):
        for loss, delta in ((1.0, 1.0), (1.0, -0.1), (-1.0, 0.5)):
            with pytest.raises(ValueError):
                bound_loss_malicious(loss, delta)
            with pytest.raises(ValueError):
                bound_loss_malicious_warmup(loss, delta, 0.5)
        with pytest.raises(ValueError):
            bound_loss_malicious_warmup(1.0, 0.5, 0.0)

    def test_rejects_a_value_that_is_not_finite(self):
        # the paper's part is finite; lQ times the 29 warm-up steps overflows
        assert math.isfinite(bound_loss_malicious(1e308, 1e-6))
        with pytest.raises(ValueError, match="warm-up-aware malicious loss bound is not finite"):
            bound_loss_malicious_warmup(1e308, 1e-6, 0.5)
        with pytest.raises(ValueError, match="malicious loss bound is not finite"):
            bound_loss_malicious_warmup(1e300, 1.0 - 1e-10, 1.0)  # the paper's part overflows


def test_bernoulli_mean_deviation_tail():
    """Deviation frequencies of a Bernoulli running mean stay below the
    two-sided sub-Gaussian tail 2 exp(-2 t eps^2) plus Monte-Carlo slack.
    The mean of t ones-counts is sampled directly as Binomial(t, mu)/t."""
    rng = np.random.default_rng(13)
    trials = 20_000
    for mu in (0.1, 0.5):
        for t in (10, 100):
            for eps in (0.05, 0.1, 0.2):
                means = rng.binomial(t, mu, size=trials) / t
                freq = float(np.mean(np.abs(means - mu) >= eps))
                bound = 2.0 * math.exp(-2.0 * t * eps * eps)
                slack = 3.0 * math.sqrt(min(bound, 1.0) * (1.0 - min(bound, 1.0)) / trials)
                assert freq <= bound + slack + 1e-12


def test_malicious_survival_probability_bounded_by_delta():
    """Past the warm-up count, the chance a malicious node is still present
    at a fixed t is at most delta (plus Monte-Carlo slack): survival implies
    the mean sat outside the radius at that t."""
    delta, gap, q = 0.3, 0.4, 0.3
    params = HiperParams(delta=delta, gap=gap, malicious_mean=q)
    warmup = min_samples(delta, gap)  # ~5.93
    checkpoints = (7, 10, 20)
    n_nodes = 4000
    rng = np.random.default_rng(14)
    survived = {t: 0 for t in checkpoints}
    for _ in range(n_nodes):
        policy = HiperPolicy(params)
        alive = True
        step = 0
        for x in (rng.random(max(checkpoints)) < q).astype(float).tolist():
            step += 1
            if alive and policy.observe(x) is Decision.REMOVE:
                alive = False
            if alive and step in survived:
                survived[step] += 1
            if not alive:
                break
    for t in checkpoints:
        assert t > warmup
        freq = survived[t] / n_nodes
        assert freq <= delta + 3.0 * math.sqrt(delta * (1 - delta) / n_nodes)


def test_policy_wrapper_matches_operations():
    """The online rule's verdict stream equals the closed-form rule
    (min_samples and confidence_radius) and the removes predicate the
    simulator walks, on every prefix, for real-valued and binary inputs."""
    rng = np.random.default_rng(15)
    for _ in range(50):
        params = HiperParams(
            delta=float(rng.uniform(0.05, 0.95)),
            gap=float(rng.uniform(0.05, 0.8)),
            malicious_mean=float(rng.uniform(0.0, 1.0)),
        )
        policy = HiperPolicy(params)
        count, total = 0, 0.0
        for x in rng.uniform(0, 1, size=60):
            x = float(x)
            count, total = count + 1, total + x
            verdict = policy.observe(x)
            assert verdict is hiper_decision(count, total, params)
            assert policy.removes(count, total) == (verdict is Decision.REMOVE)
    # binary inputs, at the malicious rate so that removals occur: the
    # simulator's predicate sees the ones count as a Python int
    for _ in range(50):
        params = HiperParams(
            delta=float(rng.uniform(0.05, 0.95)),
            gap=float(rng.uniform(0.05, 0.8)),
            malicious_mean=float(rng.uniform(0.0, 1.0)),
        )
        policy = HiperPolicy(params)
        count = ones = 0
        for x in (rng.random(60) < params.malicious_mean).astype(int).tolist():
            count, ones = count + 1, ones + x
            verdict = policy.observe(float(x))
            assert verdict is hiper_decision(count, ones, params)
            assert policy.removes(count, ones) == (verdict is Decision.REMOVE)


def test_hiper_params_validation():
    with pytest.raises(ValueError):
        HiperParams(delta=0.0, gap=0.4, malicious_mean=0.3)
    with pytest.raises(ValueError):
        HiperParams(delta=1.0, gap=0.4, malicious_mean=0.3)
    with pytest.raises(ValueError):
        HiperParams(delta=0.5, gap=0.0, malicious_mean=0.3)
    with pytest.raises(ValueError):
        HiperParams(delta=0.5, gap=math.nan, malicious_mean=0.3)
    with pytest.raises(ValueError):
        HiperParams(delta=0.9, gap=1e-200, malicious_mean=0.3)
    with pytest.raises(ValueError):
        HiperParams(delta=0.9, gap=1e-160, malicious_mean=0.3)
    with pytest.raises(ValueError):
        HiperParams(delta=0.5, gap=0.4, malicious_mean=1.3)
