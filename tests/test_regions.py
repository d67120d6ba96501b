"""Compiled removal regions against the scalar rules they compile.

The posterior evaluator is checked bit for bit against posterior taken
afresh per call, and myopic's and optimistic's margins against a decision
on the whole belief, at every lattice point up to counts 200 and 60.
compile_region evaluates each rule elementwise only near the ends of each
count's removal interval: guessed from hiper's, myopic's and optimistic's
closed forms and confirmed by one probe either side of each end, and
bisected from the seed where a guess is not confirmed, and for lookahead,
which the suites compile from lattice-wide tables instead. The bisected
fixture counts the bisections, so that a guess the closed form gets wrong
shows even where the region comes out right. These tests
evaluate the scalar rule (and, for the tables, the scalar posterior and plan
value) at every lattice point (count t, ones k) with t <= 60 (40 for the
plan values) and compare exactly, over seeded random worlds that include
q > u, q < u, observation means of exactly 0 and 1, u == q, priors of 0
and 1, and a gain or loss of 0, where the closed form is infinite or NaN.
At long horizons, the suites' regions are checked against RegionWalk, the
scalar walk of the same rule in oracles.py, at every count of every draw of
the golden suite configs and of the benchmark's first timed unit (horizons
up to 1000), with no bisection, and hiper's past horizon 2**15. nodeban
stream recompiles its region at twice the count a node outgrows; it is
checked byte for byte against one observe-driven policy object per node, on
event streams that outlive count 200, and lookahead's compiled region and
walk against its table.
"""

import contextlib
import io
import json
import math
import os
import random
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodeban import simulator
from nodeban.belief import BeliefState, BernoulliModel, ImpossibleEvidenceError, Posterior
from nodeban.belief import posterior
from nodeban.cli import main
from nodeban.experiments import PolicySpec, SuiteConfig, build_regions
from nodeban.hiper import HiperParams, HiperPolicy, min_samples
from nodeban.model import EnvParams
from nodeban.policies import LeafRule, LookaheadConfig, LookaheadPolicy, MyopicPolicy
from nodeban.policies import Lattice, OptimisticPolicy, _BeliefPolicy, lookahead_value
from nodeban.simulator import ExperimentDraw, ExperimentSuite, compile_region
from nodeban.simulator import sample_experiment, table_region
from oracles import RegionWalk, belief_rule_removes, posterior_per_call, stream_replay

HORIZON = 60
SEEDED = settings(derandomize=True, database=None, deadline=None)


def world(u, q, gain=1.0, loss=1.0, rate=0.1, prior=0.5):
    env = EnvParams(
        honest_mean=u,
        malicious_mean=q,
        gain_honest=gain,
        loss_malicious=loss,
        departure_rate=rate,
        prior_malicious=prior,
    )
    return ExperimentDraw(horizon=HORIZON, env=env, seed=0)


unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def worlds(draw):
    u = draw(unit)
    # hiper.min_samples rejects a gap whose warm-up is not finite (2 gap^2
    # underflows below about 1e-154); keep the worlds' gaps well above that
    q = draw(unit.filter(lambda value: abs(value - u) > 1e-9))
    return world(
        u,
        q,
        gain=draw(st.floats(0.0, 2.0)),
        loss=draw(st.floats(0.0, 2.0)),
        rate=draw(st.floats(0.001, 1.0)),
        prior=draw(unit),
    )


def reachable(draw, t, k):
    """Whether some node can have k ones after t observations: the history
    has nonzero prior-weighted likelihood under one of the two types."""
    env = draw.env
    try:
        posterior(k, t, BernoulliModel(env.honest_mean, env.malicious_mean), env.prior_malicious)
    except ImpossibleEvidenceError:
        return False
    return True


def assert_region_is_the_rule(text, draw):
    spec = PolicySpec.parse(text)
    region = spec.build(draw)
    rule = spec.policy(draw)
    assert region.lo.shape == region.hi.shape == (HORIZON + 1,)
    assert region.lo[0] > region.hi[0]  # no removal before the first observation
    for t in range(1, HORIZON + 1):
        for k in range(t + 1):
            if spec.kind == "hiper" or reachable(draw, t, k):
                assert (region.lo[t] <= k <= region.hi[t]) == rule.removes(t, k), (text, t, k)


ENDPOINT_WORLDS = [
    world(0.8, 0.3),  # q < u
    world(0.2, 0.7),  # q > u
    world(0.0, 1.0),
    world(1.0, 0.0),
    world(0.5, 1.0),
    world(0.5, 0.0),
    world(0.0, 0.4, prior=1.0),
    world(1.0, 0.4, prior=0.0),
    world(0.3, 0.6, gain=0.0),
]


# worlds() keeps u != q for hiper; the belief layer also takes u == q, and
# endpoint rates together with a prior of 0 or 1
DEGENERATE_WORLDS = [
    world(0.4, 0.4),
    world(0.0, 0.0, prior=0.3),
    world(1.0, 1.0, prior=1.0),
    world(0.6, 0.6, prior=0.0),
    world(0.0, 1.0, prior=0.0),
    world(0.0, 1.0, prior=1.0),
    world(1.0, 0.0, prior=0.0),
    world(1.0, 0.0, prior=1.0),
    # a gain or loss of 0: the posterior at which a belief rule's margin is 0
    # is 0, 1 or 0/0, and its logit -inf, inf or NaN
    world(0.3, 0.6, loss=0.0),
    world(0.7, 0.2, loss=0.0),
    world(0.7, 0.2, gain=0.0),
    world(0.2, 0.7, gain=0.0, loss=0.0),
    world(0.0, 1.0, loss=0.0),
    world(0.4, 0.4, gain=0.0),
]


def with_examples(*extra, degenerate=False):
    """Add every endpoint world as an example, followed by `extra`; with
    degenerate, the degenerate worlds too."""

    def decorate(test):
        for example_world in ENDPOINT_WORLDS + (DEGENERATE_WORLDS if degenerate else []):
            test = example(example_world, *extra)(test)
        return test

    return decorate


@settings(SEEDED, max_examples=100)
@with_examples()
@given(worlds())
def test_posterior_table_is_posterior(draw):
    env = draw.env
    model = BernoulliModel(env.honest_mean, env.malicious_mean)
    count, ones = np.ogrid[: HORIZON + 1, : HORIZON + 1]
    table = Posterior(model, env.prior_malicious).elementwise(ones, count)
    assert table.shape == (HORIZON + 1, HORIZON + 1)
    for t in range(HORIZON + 1):
        for k in range(HORIZON + 1):
            try:
                expected = posterior(k, t, model, env.prior_malicious) if k <= t else math.nan
            except ImpossibleEvidenceError:
                expected = math.nan
            if math.isnan(expected):
                assert math.isnan(table[t, k]), (t, k)
            else:
                assert table[t, k] == expected, (t, k)


POSTERIOR_COUNTS = 200  # how far the evaluator is checked against posterior


@settings(SEEDED, max_examples=10)
@with_examples(degenerate=True)
@given(worlds())
def test_posterior_evaluator_is_posterior(draw):
    env = draw.env
    model, prior = BernoulliModel(env.honest_mean, env.malicious_mean), env.prior_malicious
    counts, ones = np.tril_indices(POSTERIOR_COUNTS + 1)
    points = list(zip(ones.tolist(), counts.tolist()))
    expected, impossible = [], {}
    for k, t in points:
        try:
            expected.append(posterior_per_call(k, t, model, prior))
        except ImpossibleEvidenceError as exc:
            expected.append(math.nan)
            impossible[k, t] = str(exc)

    def bits(evaluate) -> np.ndarray:
        """evaluate at every point as float64 bits, NaN where it raises the
        expected ImpossibleEvidenceError."""
        values = []
        for k, t in points:
            try:
                values.append(evaluate(k, t))
            except ImpossibleEvidenceError as exc:
                assert str(exc) == impossible.get((k, t)), (k, t)
                values.append(math.nan)
        return np.array(values).view(np.int64)

    want = np.array(expected).view(np.int64)
    assert np.array_equal(bits(Posterior(model, prior)), want)
    assert np.array_equal(bits(lambda k, t: posterior(k, t, model, prior)), want)
    lattice_count, lattice_ones = np.ogrid[: POSTERIOR_COUNTS + 1, : POSTERIOR_COUNTS + 1]
    table = Posterior(model, prior).elementwise(lattice_ones, lattice_count)
    assert np.array_equal(table[counts, ones].view(np.int64), want)
    assert np.isnan(table[np.triu_indices(POSTERIOR_COUNTS + 1, 1)]).all()  # ones > count


def test_posterior_evaluator_rejects_what_posterior_rejects():
    model = BernoulliModel(0.3, 0.6)
    for ones, count in [(-1, 3), (4, 3), (0, -1), (2, 1)]:
        with pytest.raises(ValueError) as expected:
            posterior_per_call(ones, count, model, 0.5)
        for call in (Posterior(model, 0.5), lambda k, t: posterior(k, t, model, 0.5)):
            with pytest.raises(ValueError) as raised:
                call(ones, count)
            assert type(raised.value) is ValueError
            assert str(raised.value) == str(expected.value)
    for prior in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError) as expected:
            posterior_per_call(1, 2, model, prior)
        for call in (lambda: Posterior(model, prior), lambda: posterior(1, 2, model, prior)):
            with pytest.raises(ValueError) as raised:
                call()
            assert type(raised.value) is ValueError
            assert str(raised.value) == str(expected.value)


@settings(SEEDED, max_examples=60)
@example(world(0.8, 0.3), 8, LeafRule.ZERO)
@example(world(0.2, 0.7), 8, LeafRule.MYOPIC_INFINITE)
@example(world(0.0, 1.0), 8, LeafRule.OPTIMISTIC)
@example(world(1.0, 0.4, prior=0.0), 1, LeafRule.OPTIMISTIC)
@given(worlds(), st.integers(1, 8), st.sampled_from(list(LeafRule)))
def test_lookahead_values_are_lookahead_value(draw, depth, leaf):
    env, cfg, horizon = draw.env, LookaheadConfig(depth, leaf), 40
    values = Lattice(env, horizon, [cfg]).values(cfg)
    assert values.shape == (horizon + 1, horizon + 1)
    model = BernoulliModel(env.honest_mean, env.malicious_mean)
    for t in range(horizon + 1):
        for k in range(horizon + 1):
            if k > t or not reachable(draw, t, k):
                assert values[t, k] == 0.0, (t, k)
                continue
            belief = BeliefState(k, t, env.prior_malicious, posterior(k, t, model, env.prior_malicious))
            assert values[t, k] == lookahead_value(belief, env, cfg), (t, k)


@settings(SEEDED, max_examples=100)
@with_examples(degenerate=True)
@given(worlds())
def test_hiper_regions(draw):
    env = draw.env
    if env.gap == 0.0:  # hiper's warm-up never ends
        with pytest.raises(ValueError, match="gap must be positive"):
            PolicySpec.parse("hiper:0.5").policy(draw)
        return
    for delta in (0.05, 0.5, 0.9, 0.999):
        assert_region_is_the_rule(f"hiper:{delta}", draw)
    if env.gain_honest > 0.0 and env.loss_malicious > 0.0:
        assert_region_is_the_rule("hiper:star", draw)


@settings(SEEDED, max_examples=100)
@with_examples(degenerate=True)
@given(worlds())
def test_myopic_and_optimistic_are_their_belief_decisions(draw):
    policies = {"myopic": MyopicPolicy(draw.env), "optimistic": OptimisticPolicy(draw.env)}
    for t in range(HORIZON + 1):
        for k in range(t + 1):
            if reachable(draw, t, k):
                for rule, policy in policies.items():
                    assert policy.removes(t, k) == belief_rule_removes(rule, draw.env, t, k), (rule, t, k)


@settings(SEEDED, max_examples=100)
@with_examples(degenerate=True)
@given(worlds())
def test_myopic_and_optimistic_regions(draw):
    assert_region_is_the_rule("myopic", draw)
    assert_region_is_the_rule("optimistic", draw)


@pytest.fixture
def bisected(monkeypatch):
    """The counts at which compile_region bisected an end, one list per
    bisection (a count's lower end, then its upper end): the counts whose
    seed removes among those whose guess was not confirmed, or among all
    counts where every guess was empty."""
    calls = []
    end = simulator._end

    def counted(removes, count, inside, step):
        if count.size:
            calls.append(count.astype(int).tolist())
        return end(removes, count, inside, step)

    monkeypatch.setattr(simulator, "_end", counted)
    return calls


@pytest.mark.parametrize("suite", list(ExperimentSuite))
def test_compiled_regions_are_the_walk_at_long_horizons(suite, bisected, monkeypatch):
    """Each default hiper, myopic and optimistic policy on every draw of the
    suite's golden config (base seed 7) and of the benchmark's first timed
    unit (base seed (1 << 32) | 7), at every count up to the horizon: built
    as a suite without a lattice builds it, by compile_region. Each region's
    one call of the rule confirms every count's closed-form guess, so
    nothing is bisected."""
    calls = []

    def counted(method):
        def counting(self, count, ones):
            calls.append(count.size)
            return method(self, count, ones)

        return counting

    for rule in (HiperPolicy, _BeliefPolicy):
        monkeypatch.setattr(rule, "removes_elementwise", counted(rule.removes_elementwise))
    horizons, builds = [], 0
    for base_seed in (7, (1 << 32) | 7):
        cfg = SuiteConfig.make(suite, base_seed, n_runs=50)
        specs = [spec for spec in map(PolicySpec.parse, cfg.policies) if spec.kind != "lookahead"]
        for run in range(cfg.n_runs):
            run_rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(run,)))
            draw = sample_experiment(run_rng, suite)  # as run_suite draws run `run`
            horizons.append(draw.horizon)
            for spec in specs:
                region, walk = spec.build(draw), RegionWalk(spec.policy(draw))
                builds += 1
                walk.extend(draw.horizon)
                assert region.lo.tolist() == walk.lo, (spec.label, base_seed, run)
                assert region.hi.tolist() == walk.hi, (spec.label, base_seed, run)
    assert max(horizons) > (90 if suite is ExperimentSuite.LOOKAHEAD_COMPARE else 900)
    assert bisected == []
    assert len(calls) == builds


SEED_COUNTS = 300  # how far hiper's region is checked against the walk
ENDPOINT_DELTAS = [1e-6, 0.5, 1.0 - 1e-6]  # the ends of optimal_delta's clamp, and its middle


@settings(SEEDED, max_examples=150)
@given(
    st.one_of(st.sampled_from(ENDPOINT_DELTAS), st.floats(*ENDPOINT_DELTAS[::2])),
    st.floats(0.01, 1.0, exclude_min=True),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
def test_hiper_region_from_the_nearest_seed(delta, gap, q):
    """compile_region takes every count past hiper's warm-up to remove the
    ones nearest q * count, its seed, where RegionWalk tries floor and ceil
    of it. The regions agree, and are nonempty exactly at the counts past the
    warm-up."""
    policy = HiperPolicy(HiperParams(delta, gap, q))
    region, walk = compile_region(policy, SEED_COUNTS), RegionWalk(policy)
    walk.extend(SEED_COUNTS)
    assert region.lo.tolist() == walk.lo
    assert region.hi.tolist() == walk.hi
    past_warmup = np.arange(SEED_COUNTS + 1) > min_samples(delta, gap)
    assert (region.lo <= region.hi).tolist() == past_warmup.tolist()


def assert_region_is_removes(policy, region, horizon):
    """region is policy.removes at every lattice point up to the horizon."""
    assert region.lo.shape == region.hi.shape == (horizon + 1,)
    assert region.lo.dtype == region.hi.dtype == np.int64
    for t in range(horizon + 1):
        removed = [policy.removes(t, k) for k in range(t + 1)] if t else [False]
        assert [region.lo[t] <= k <= region.hi[t] for k in range(t + 1)] == removed, t


@pytest.mark.parametrize("q", [0.0, 1.0, 0.3])
@pytest.mark.parametrize("delta", [1e-6, 1.0 - 1e-6])
@pytest.mark.parametrize("gap", [1.0, 0.3, 0.05])  # warm-ups 7.3 / 0.35, 81 / 3.9, 2902 / 139
def test_hiper_region_is_removes_at_every_point(q, delta, gap, bisected):
    """At q = 0 and 1 an end is clipped to the lattice's edge, and past it
    the rule would remove again; delta at both ends of optimal_delta's clamp;
    and gap 0.05 puts the warm-up at delta = 1e-6 beyond the horizon."""
    horizon = 200
    policy = HiperPolicy(HiperParams(delta, gap, q))
    region = compile_region(policy, horizon)
    assert_region_is_removes(policy, region, horizon)
    assert (region.lo <= region.hi).tolist() == (np.arange(horizon + 1) > min_samples(delta, gap)).tolist()
    assert bisected == []


@pytest.mark.parametrize("delta, q", [(0.5, 0.3), (1e-6, 1.0)])
def test_hiper_region_past_horizon_2_to_the_15(delta, q, bisected):
    """At horizons where run_episode counts ones in int32, the region is the
    walk of the scalar rule at every count."""
    horizon = 2**15 + 300
    policy = HiperPolicy(HiperParams(delta, 0.2, q))
    region, walk = compile_region(policy, horizon), RegionWalk(policy)
    walk.extend(horizon)
    assert region.lo.tolist() == walk.lo
    assert region.hi.tolist() == walk.hi
    assert bisected == []


def test_hiper_region_keeps_a_tie_at_an_exact_integer_end(bisected):
    """delta = 2 / e^2 to the last bit makes ln(2 / delta) exactly 2, so at
    count 16 the radius is 1/4 and, at q = 1/2, both t (q -+ r_t) = 4 and 12
    are exact integers: the mean there is exactly one radius from q, and the
    strict comparison keeps it. The inward rounding gets those ends without
    bisecting. At count 36, r_t = 1/6 is not a double: t (q + r_t) rounds to
    24, where the rule removes (and 12 keeps), so the guess is one short and
    count 36 alone is bisected, still exact."""
    delta = 0.2706705664732254
    assert math.log(2.0 / delta) == 2.0
    policy = HiperPolicy(HiperParams(delta, 1.0, 0.5))
    t = 16
    assert tuple(policy.boundary(np.array(t))) == (4.0, 12.0)
    assert not policy.removes(t, 4) and not policy.removes(t, 12)
    assert policy.removes(t, 5) and policy.removes(t, 11)
    region = compile_region(policy, t)
    assert (region.lo[t], region.hi[t]) == (5, 11)
    assert_region_is_removes(policy, region, t)
    assert bisected == []
    assert policy.boundary(np.array(36))[1] == 24.0 and policy.removes(36, 24)
    region = compile_region(policy, 40)
    assert bisected == [[36], [36]]
    assert (region.lo[16], region.hi[16], region.lo[36], region.hi[36]) == (5, 11, 13, 24)
    assert_region_is_removes(policy, region, 40)


def displaced(rule, shift_lo, shift_hi):
    """rule's class with boundary's ends moved by a fixed number of ones."""

    class Displaced(rule):
        def boundary(self, count):
            low, high = super().boundary(count)
            return low + shift_lo, high + shift_hi

    return Displaced


@pytest.mark.parametrize("shift_lo, shift_hi", [(-3, 3), (3, -3), (0, 1), (-1, 0), (3, 0), (0, -3)])
@pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
def test_hiper_region_falls_back_when_an_end_is_not_confirmed(shift_lo, shift_hi, q, bisected):
    """Guesses moved off the ends fail their confirming probes, so
    compile_region bisects those counts, and the region is still the rule's."""
    params = HiperParams(0.9, 0.5, q)
    policy = displaced(HiperPolicy, shift_lo, shift_hi)(params)
    region = compile_region(policy, 120)
    # an end moved past the lattice's edge is clipped back onto it, where it is
    clipped = (shift_lo == 0 or q == 0.0 and shift_lo < 0) and (shift_hi == 0 or q == 1.0 and shift_hi > 0)
    assert (bisected == []) == clipped
    exact = compile_region(HiperPolicy(params), 120)
    assert region.lo.tolist() == exact.lo.tolist()
    assert region.hi.tolist() == exact.hi.tolist()
    assert_region_is_removes(policy, region, 120)


@pytest.mark.parametrize("shift", [-3, -1, 1, 3])
@pytest.mark.parametrize("u, q", [(0.2, 0.7), (0.8, 0.3)])
@pytest.mark.parametrize("rule", [MyopicPolicy, OptimisticPolicy])
def test_belief_region_falls_back_when_an_end_is_not_confirmed(shift, u, q, rule, bisected):
    """The same for myopic and optimistic, whose interval is a half-line from
    the anchor's edge: its one finite end, moved, fails its probes, and the
    region is still the rule's, every count of it removing somewhere."""
    env = world(u, q).env
    policy = displaced(rule, shift, shift)(env)
    region = compile_region(policy, 120)
    assert bisected
    exact = compile_region(rule(env), 120)
    assert region.lo.tolist() == exact.lo.tolist()
    assert region.hi.tolist() == exact.hi.tolist()
    assert_region_is_removes(policy, region, 120)
    assert (region.lo <= region.hi)[30:].all()


@settings(SEEDED, max_examples=40)
@example(world(0.8, 0.3), 8, LeafRule.ZERO)
@example(world(0.2, 0.7), 8, LeafRule.MYOPIC_INFINITE)
@example(world(0.3, 0.9, rate=0.05), 8, LeafRule.OPTIMISTIC)
@example(world(0.6, 0.1, gain=0.3), 12, LeafRule.ZERO)
@example(world(0.2, 0.7, prior=0.2), 12, LeafRule.MYOPIC_INFINITE)
@example(world(0.7, 0.4, rate=0.02), 12, LeafRule.OPTIMISTIC)
@example(world(0.2, 0.7), 5, LeafRule.MYOPIC_INFINITE)
@example(world(0.0, 1.0), 3, LeafRule.OPTIMISTIC)
@example(world(1.0, 0.0), 4, LeafRule.MYOPIC_INFINITE)
@example(world(0.5, 1.0, prior=0.0), 2, LeafRule.OPTIMISTIC)
@given(worlds(), st.integers(1, 5), st.sampled_from(list(LeafRule)))
def test_lookahead_regions(draw, depth, leaf):
    assert_region_is_the_rule(f"lookahead:{depth}:{leaf.value}", draw)


belief_specs = st.one_of(
    st.sampled_from(["myopic", "optimistic"]),
    st.builds("lookahead:{}:{}".format, st.integers(1, 8), st.sampled_from([leaf.value for leaf in LeafRule])),
)


def with_shared_examples(test):
    leaves = list(LeafRule)
    for i, example_world in enumerate(ENDPOINT_WORLDS + DEGENERATE_WORLDS):
        texts = ["optimistic", f"lookahead:{1 + i % 8}:{leaves[i // 3 % 3].value}", "myopic", "lookahead:8"]
        test = example(example_world, (60, 2, 1)[i % 3], texts)(test)
    return test


@settings(SEEDED, max_examples=100)
@with_shared_examples
@given(worlds(), st.sampled_from([1, 2, 60]), st.lists(belief_specs, min_size=2, max_size=6, unique=True))
def test_shared_lattice_regions_are_each_rule_alone(draw, horizon, texts):
    """build_regions serves every belief spec of a draw from one posterior
    lattice and one plan per leaf rule when any spec plans ahead. Each region
    is the one its spec gets alone: lookahead's own table, compile_region for
    myopic and optimistic. Where a rate or the prior is 0 or 1, they agree at
    every reachable point; the lattice removes an impossible history, which
    compile_region may leave out of an empty count."""
    draw = replace(draw, horizon=horizon)
    env, specs = draw.env, [PolicySpec.parse(text) for text in texts]
    interior = all(0.0 < p < 1.0 for p in (env.honest_mean, env.malicious_mean, env.prior_malicious))
    points = [(t, k) for t in range(horizon + 1) for k in range(t + 1) if reachable(draw, t, k)]
    for spec, region in zip(specs, build_regions(specs, draw)):
        alone = spec.build(draw)  # with no lattice given: a lookahead spec builds its own
        if interior:
            assert region.lo.tolist() == alone.lo.tolist(), (spec.label, texts)
            assert region.hi.tolist() == alone.hi.tolist(), (spec.label, texts)
        for t, k in points:
            got = region.lo[t] <= k <= region.hi[t]
            assert got == (alone.lo[t] <= k <= alone.hi[t]), (spec.label, texts, t, k)


WALK_COUNTS = 200  # how far the lookahead walk is checked against its table


@settings(SEEDED, max_examples=40)
@example(world(0.8, 0.3), 8, LeafRule.ZERO)
@example(world(0.2, 0.7), 6, LeafRule.MYOPIC_INFINITE)
@example(world(0.3, 0.9, rate=0.05), 6, LeafRule.OPTIMISTIC)
@example(world(0.0, 1.0), 3, LeafRule.OPTIMISTIC)
@example(world(1.0, 0.0), 4, LeafRule.MYOPIC_INFINITE)
@example(world(0.5, 1.0, prior=0.0), 2, LeafRule.OPTIMISTIC)
@example(world(0.0, 0.4, prior=1.0), 5, LeafRule.ZERO)
@given(worlds(), st.integers(1, 8), st.sampled_from(list(LeafRule)))
def test_lookahead_walk_is_the_table(draw, depth, leaf):
    """The stream compiles lookahead's region by bisection from the anchor,
    the suites from the exact table. Both the compiler and the walk are
    right only where each count's removal set is an interval around the
    anchor, which this checks up to count 200."""
    env, cfg = draw.env, LookaheadConfig(depth, leaf)
    walk = RegionWalk(LookaheadPolicy(env, cfg))
    walk.extend(WALK_COUNTS)
    table = table_region(Lattice(env, WALK_COUNTS, [cfg]).values(cfg) <= 0.0)
    assert walk.lo == table.lo.tolist()
    assert walk.hi == table.hi.tolist()
    region = compile_region(LookaheadPolicy(env, cfg), WALK_COUNTS)
    assert region.lo.tolist() == table.lo.tolist()
    assert region.hi.tolist() == table.hi.tolist()


LONG_LIFE = 230  # events of node n0, so the stream's region outgrows count 200


def stream_events(draw, seed, binary):
    """Events of six nodes of the world, interleaved at random and stamped
    with the global tick: n0 is honest and sends LONG_LIFE events, the others
    1 to 40 each; then n6 sends ten fair coin flips, which are impossible
    histories in some endpoint worlds. x is the bit, or for binary=False a
    float in [0.5, 1) for a 1-bit and in [0, 0.5) for a 0-bit."""
    rng = random.Random(seed)
    env = draw.env
    nodes = []
    for n in range(6):
        malicious = n > 0 and rng.random() < env.prior_malicious
        mean = env.malicious_mean if malicious else env.honest_mean
        size = LONG_LIFE if n == 0 else rng.randint(1, 40)
        nodes.append((f"n{n}", [rng.random() < mean for _ in range(size)]))
    order = [node for node, bits in nodes for _ in bits]
    rng.shuffle(order)
    bits = {node: iter(node_bits) for node, node_bits in nodes}
    sends = [(node, next(bits[node])) for node in order]
    sends += [("n6", rng.random() < 0.5) for _ in range(10)]
    events = []
    for tick, (node, bit) in enumerate(sends, 1):
        x = int(bit) if binary else rng.uniform(0.5, 1.0) if bit else rng.uniform(0.0, 0.5)
        events.append({"node_id": node, "t": tick, "x": x})
    return events


def world_flags(env):
    return [
        "--u", repr(env.honest_mean),
        "--q", repr(env.malicious_mean),
        "--gU", repr(env.gain_honest),
        "--lQ", repr(env.loss_malicious),
        "--lambda", repr(env.departure_rate),
        "--prior", repr(env.prior_malicious),
    ]


def assert_stream_is_replay(events, flags, make_policy, binarize=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(event) + "\n" for event in events)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stream", path, *flags])
    expected_out, expected_err = stream_replay(events, make_policy, binarize)
    assert out.getvalue() == expected_out, flags
    assert err.getvalue() == expected_err, flags
    assert code == (2 if expected_err else 0)


@settings(SEEDED, max_examples=30)
@with_examples(0)
@given(worlds(), st.integers(0, 2**16))
def test_stream_hiper_is_the_per_node_replay(draw, seed):
    env = draw.env
    events = stream_events(draw, seed, binary=False)
    for delta in (0.05, 0.5, 0.9):
        params = HiperParams(delta=delta, gap=env.gap, malicious_mean=env.malicious_mean)
        flags = ["--policy", "hiper", "--delta", repr(delta), *world_flags(env)]
        assert_stream_is_replay(events, flags, lambda: HiperPolicy(params))


@settings(SEEDED, max_examples=30)
@with_examples(0)
@given(worlds(), st.integers(0, 2**16))
def test_stream_myopic_and_optimistic_are_the_per_node_replay(draw, seed):
    env = draw.env
    for binarize in (None, 0.5):
        events = stream_events(draw, seed, binary=binarize is None)
        extra = [] if binarize is None else ["--binarize", "0.5"]
        for name, rule in (("myopic", MyopicPolicy), ("optimistic", OptimisticPolicy)):
            flags = ["--policy", name, *world_flags(env), *extra]
            assert_stream_is_replay(events, flags, lambda: rule(env), binarize)


def with_lookahead_examples(test):
    leaves = list(LeafRule)
    for i, example_world in enumerate(ENDPOINT_WORLDS):
        test = example(example_world, i, 1 + i % 6, leaves[i % 3])(test)
    return test


@settings(SEEDED, max_examples=30)
@with_lookahead_examples
@given(worlds(), st.integers(0, 2**16), st.integers(1, 6), st.sampled_from(list(LeafRule)))
def test_stream_lookahead_is_the_per_node_replay(draw, seed, depth, leaf):
    env, cfg = draw.env, LookaheadConfig(depth, leaf)
    flags = ["--policy", "lookahead", "--lookahead-depth", str(depth), "--leaf-rule", leaf.value]
    events = stream_events(draw, seed, binary=True)
    assert_stream_is_replay(events, [*flags, *world_flags(env)], lambda: LookaheadPolicy(env, cfg))
