"""Compiled removal regions against the scalar rules they compile.

The posterior evaluator is checked bit for bit against posterior taken
afresh per call, and myopic's and optimistic's margins against a decision
on the whole belief, at every lattice point up to counts 200 and 60.
myopic and optimistic are the depth-0 plans of their leaf rules, compiled
from their closed form on every draw: no Lattice a suite builds holds a
depth-0 rule, and every lookahead rule's region read off a draw's lattice
(one read, Lattice.values) is its rule's, and the one it reads off a
lattice of its own when built alone. compile_region evaluates each rule
elementwise only near the ends of each count's removal interval: guessed
from hiper's, myopic's and optimistic's closed forms and confirmed by one
probe either side of each end, and read whole, at every ones value, where a
guess is not confirmed. lookahead has no closed form, so compile_region
guesses each of its counts empty. The read_whole fixture counts the rows
read whole, so that a guess the closed form gets wrong shows even where the
region comes out right. These tests evaluate the scalar rule (and, for the
tables, the scalar posterior and plan value) at every lattice point (count
t, ones k) with t <= 60 (40 for the plan values) and compare exactly, over
seeded random worlds that include q > u, q < u, observation means of
exactly 0 and 1, u == q, priors of 0 and 1, and a gain or loss of 0, where
the closed form is infinite or NaN. myopic's and optimistic's
removes_elementwise, which decides a point off its log odds outside a
guard band about the cut, is removes at every point of worlds whose cut
lies on, ulps from, or within two bands of a lattice point's log odds; it
takes the exact path at every point where its guard is off or the log odds
cannot decide, and compiling the golden policy_compare config's regions
gives the posterior's elementwise at most 50 points.
At long horizons, the suites' regions are checked against RegionWalk, the
scalar walk of the same rule in oracles.py, at every count of every draw of
the golden suite configs and of the benchmark's first timed unit (horizons
up to 1000), with no row read whole, and hiper's past horizon 2**15, and
lookahead's walk against its table. nodeban stream asks a belief rule's
scalar removes once per (count, ones) point; it is checked byte for byte
against one observe-driven policy object per node, on event streams that
outlive count 200, and against the region at every verdict of a node that
walks the region's edge past count 1000. On a churn of short-lived ids, a
belief rule's stream computes the posterior once per (count, ones) point
that gets a verdict, and nothing it keeps per point outlives one run. Every
rule's stream is its replay whatever the JSON layout of its input lines.
"""

import contextlib
import io
import json
import math
import os
import random
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodeban import experiments, policies
from nodeban.belief import BeliefState, ImpossibleEvidenceError, Posterior
from nodeban.belief import posterior
from nodeban.cli import main
from nodeban.experiments import SuiteConfig, build_regions, run_suite
from nodeban.hiper import HiperPolicy, min_samples
from nodeban.model import EnvParams, ExperimentSuite
from nodeban.policies import LeafRule, LookaheadPolicy, MyopicPolicy, PolicySpec, compile_region
from nodeban.policies import Lattice, OptimisticPolicy, _BeliefPolicy, lookahead_value, table_region
from nodeban.simulator import ExperimentDraw, sample_experiment
from oracles import RegionWalk, belief_rule_removes, posterior_per_call, stream_replay

HORIZON = 60


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
    try:
        posterior(k, t, draw.env)
    except ImpossibleEvidenceError:
        return False
    return True


def assert_region_is_the_rule(text, draw):
    spec = PolicySpec.parse(text)
    region = spec.build(draw)
    rule = spec.policy(draw.env)
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


@settings(max_examples=100)
@with_examples()
@given(worlds())
def test_posterior_table_is_posterior(draw):
    env = draw.env
    count, ones = np.ogrid[: HORIZON + 1, : HORIZON + 1]
    table = Posterior(env).elementwise(ones, count)
    assert table.shape == (HORIZON + 1, HORIZON + 1)
    for t in range(HORIZON + 1):
        for k in range(HORIZON + 1):
            try:
                expected = posterior(k, t, env) if k <= t else math.nan
            except ImpossibleEvidenceError:
                expected = math.nan
            if math.isnan(expected):
                assert math.isnan(table[t, k]), (t, k)
            else:
                assert table[t, k] == expected, (t, k)


POSTERIOR_COUNTS = 200  # how far the evaluator is checked against posterior


@settings(max_examples=10)
@with_examples(degenerate=True)
@given(worlds())
def test_posterior_evaluator_is_posterior(draw):
    env = draw.env
    counts, ones = np.tril_indices(POSTERIOR_COUNTS + 1)
    points = list(zip(ones.tolist(), counts.tolist()))
    expected, impossible = [], {}
    for k, t in points:
        try:
            expected.append(posterior_per_call(k, t, env))
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
    assert np.array_equal(bits(Posterior(env)), want)
    assert np.array_equal(bits(lambda k, t: posterior(k, t, env)), want)
    lattice_count, lattice_ones = np.ogrid[: POSTERIOR_COUNTS + 1, : POSTERIOR_COUNTS + 1]
    table = Posterior(env).elementwise(lattice_ones, lattice_count)
    assert np.array_equal(table[counts, ones].view(np.int64), want)
    assert np.isnan(table[np.triu_indices(POSTERIOR_COUNTS + 1, 1)]).all()  # ones > count


def test_posterior_evaluator_rejects_what_posterior_rejects():
    """Bad counts, as the reference does; a prior outside [0, 1] makes no
    world, so no evaluator or posterior call ever sees one, and EnvParams
    rejects it with the reference's text."""
    env = world(0.3, 0.6).env
    for ones, count in [(-1, 3), (4, 3), (0, -1), (2, 1)]:
        with pytest.raises(ValueError) as expected:
            posterior_per_call(ones, count, env)
        for call in (Posterior(env), lambda k, t: posterior(k, t, env)):
            with pytest.raises(ValueError) as raised:
                call(ones, count)
            assert type(raised.value) is ValueError
            assert str(raised.value) == str(expected.value)
    for prior in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError) as expected:
            posterior_per_call(1, 2, SimpleNamespace(honest_mean=0.3, malicious_mean=0.6, prior_malicious=prior))
        with pytest.raises(ValueError) as raised:
            replace(env, prior_malicious=prior)
        assert type(raised.value) is ValueError
        assert str(raised.value) == str(expected.value)


@settings(max_examples=60)
@example(world(0.8, 0.3), 8, LeafRule.ZERO)
@example(world(0.2, 0.7), 8, LeafRule.MYOPIC_INFINITE)
@example(world(0.0, 1.0), 8, LeafRule.OPTIMISTIC)
@example(world(1.0, 0.4, prior=0.0), 1, LeafRule.OPTIMISTIC)
@given(worlds(), st.integers(1, 8), st.sampled_from(list(LeafRule)))
def test_lookahead_values_are_lookahead_value(draw, depth, leaf):
    env, spec, horizon = draw.env, PolicySpec("lookahead", depth=depth, leaf_rule=leaf), 40
    values = Lattice(env, horizon, [spec]).values(spec)
    assert values.shape == (horizon + 1, horizon + 1)
    for t in range(horizon + 1):
        for k in range(horizon + 1):
            if k > t or not reachable(draw, t, k):
                assert values[t, k] == 0.0, (t, k)
                continue
            belief = BeliefState(k, t, posterior(k, t, env))
            assert values[t, k] == lookahead_value(belief, env, depth, leaf), (t, k)


@settings(max_examples=50)
@with_examples(degenerate=True)
@given(worlds())
def test_myopic_and_optimistic_are_depth_0_plans(draw):
    """myopic's and optimistic's regions from build_regions, on a draw that
    also holds a lookahead spec, are their rules' at every reachable point."""
    env = draw.env
    specs = [PolicySpec.parse(text) for text in ("myopic", "optimistic", "lookahead:1")]
    regions = build_regions(specs, draw)[:2]
    rules = MyopicPolicy(env), OptimisticPolicy(env)
    for t in range(HORIZON + 1):
        for k in range(t + 1):
            if not reachable(draw, t, k):
                continue
            for rule, region in zip(rules, regions):
                removed = t > 0 and region.lo[t] <= k <= region.hi[t]
                assert removed == (t > 0 and rule.removes(t, k)), (type(rule).__name__, t, k)


def test_depth_0_is_no_lookahead_depth():
    with pytest.raises(ValueError, match=r"^policy 'lookahead:0': depth must be an integer in \[1, 24\], got 0$"):
        PolicySpec.parse("lookahead:0")
    flags = ["--policy", "lookahead", "--lookahead-depth", "0", *world_flags(world(0.2, 0.7).env)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["stream", os.devnull, *flags]) == 2
    assert err.getvalue() == "error: --lookahead-depth must lie in [1, 24], got 0\n"


@settings(max_examples=100)
@with_examples(degenerate=True)
@given(worlds())
def test_hiper_regions(draw):
    env = draw.env
    if env.gap == 0.0:  # hiper's warm-up never ends
        with pytest.raises(ValueError, match="gap must be positive"):
            PolicySpec.parse("hiper:0.5").policy(draw.env)
        return
    for delta in (0.05, 0.5, 0.9, 0.999):
        assert_region_is_the_rule(f"hiper:{delta}", draw)
    if env.gain_honest > 0.0 and env.loss_malicious > 0.0:
        assert_region_is_the_rule("hiper:star", draw)


@settings(max_examples=100)
@with_examples(degenerate=True)
@given(worlds())
def test_myopic_and_optimistic_are_their_belief_decisions(draw):
    policies = {"myopic": MyopicPolicy(draw.env), "optimistic": OptimisticPolicy(draw.env)}
    for t in range(HORIZON + 1):
        for k in range(t + 1):
            if reachable(draw, t, k):
                for rule, policy in policies.items():
                    assert policy.removes(t, k) == belief_rule_removes(rule, draw.env, t, k), (rule, t, k)


@settings(max_examples=100)
@with_examples(degenerate=True)
@given(worlds())
def test_myopic_and_optimistic_regions(draw):
    assert_region_is_the_rule("myopic", draw)
    assert_region_is_the_rule("optimistic", draw)


EDGE = 2.0**-20  # a depth-0 rule decides off the log odds only with pm0 and 1 - pm0 at least this
RULES = {"myopic": MyopicPolicy, "optimistic": OptimisticPolicy}


def routed(policy):
    """policy.removes_elementwise at every (count t, ones k) with t <= HORIZON
    and k <= t + 1, indexed [t, k], and the set of the (t, k) its exact path
    took: those it gave the posterior's elementwise."""
    count, ones = np.ogrid[: HORIZON + 1, : HORIZON + 2]
    taken = set()
    elementwise = policy.posterior.elementwise

    def recording(ones, count):
        t, k = (points.astype(int).ravel().tolist() for points in np.broadcast_arrays(count, ones))
        taken.update(zip(t, k))
        return elementwise(ones, count)

    policy.posterior.elementwise = recording
    removes = policy.removes_elementwise(count.astype(float), ones.astype(float))
    del policy.posterior.elementwise
    return removes, taken


def assert_elementwise_is_removes(policy, removes):
    for t in range(HORIZON + 1):
        assert removes[t, : t + 1].tolist() == [policy.removes(t, k) for k in range(t + 1)], t
        assert removes[t, t + 1 :].all()  # ones > count, no history: removed


#: Where a world's prior puts one point's log odds, in ulps of the cut and
#: in bands, from the cut
OFFSETS = [(0, 0), (1, 0), (-1, 0), (4, 0), (-4, 0), (0, 0.5), (0, -0.5), (0, 1), (0, -1), (0, 2), (0, -2)]


@st.composite
def cut_on_a_point(draw):
    """A myopic or optimistic rule whose world puts the log odds of a lattice
    point (t, k) at one of OFFSETS from the rule's cut, the logit of pm0 =
    m(0) / (m(0) - m(1)), for pm0 anywhere in [EDGE, 1 - EDGE], 1/2 and
    both ends (a thousandth inside) included. k lies within 2 of the cut's
    ones at prior 1/2, so that the prior's log odds stay small, and the
    prior is the float, of the 81 nearest the logistic's, whose log odds put
    the point nearest its offset. Returns the rule, (t, k), the point's log
    odds and its offset."""
    rule = draw(st.sampled_from(sorted(RULES)))
    u = draw(st.floats(0.02, 0.98))
    q = draw(st.floats(0.02, 0.98).filter(lambda value: abs(value - u) > 1e-3))
    ends = [EDGE * 1.001, 1.0 - EDGE * 1.001]
    pm0 = draw(st.one_of(st.sampled_from([*ends, 0.5]), st.floats(*ends)))
    rate = draw(st.floats(0.001, 1.0))
    gain = pm0 / (1.0 - pm0) * (rate if rule == "optimistic" else 1.0)  # loss 1
    env = world(u, q, gain=gain, rate=rate).env
    policy = RULES[rule](env)
    assert policy._band is not None
    t = draw(st.integers(1, HORIZON))
    (x,) = [end for end in policy.boundary(np.array([float(t)])) if np.isfinite(end).all()]
    k = int(np.clip(round(float(x[0])) + draw(st.integers(-2, 2)), 0, t))
    ulps, bands = draw(st.sampled_from(OFFSETS))
    target = policy._cut + ulps * math.ulp(policy._cut) + bands * policy._band
    logs = policy.posterior
    log_like_malicious = k * logs.log_q + (t - k) * logs.log_not_q
    log_like_honest = k * logs.log_u + (t - k) * logs.log_not_u

    def log_odds(prior):
        return Posterior(replace(env, prior_malicious=prior)).prior_log_odds + log_like_malicious - log_like_honest

    prior = 1.0 / (1.0 + math.exp(log_like_malicious - log_like_honest - target))
    candidates = [prior]
    for toward in (0.0, 1.0):
        nearby = prior
        for _ in range(40):
            candidates.append(nearby := math.nextafter(nearby, toward))
    prior = min((p for p in candidates if 0.0 < p < 1.0), key=lambda p: abs(log_odds(p) - target))
    return RULES[rule](replace(env, prior_malicious=prior)), (t, k), log_odds(prior), (ulps, bands)


@settings(max_examples=300)
@given(cut_on_a_point())
def test_depth_0_elementwise_is_removes_about_its_cut(case):
    """removes_elementwise equals removes at every lattice point up to count
    60 in worlds whose cut lies on, a few ulps off, or within 2 bands of a
    lattice point's log odds; the exact path takes that point when it lies
    within half a band of the cut, and leaves it to the log odds at 2."""
    policy, point, log_odds, (_, bands) = case
    cut, band = policy._cut, policy._band
    assert abs(log_odds - (cut + bands * band)) < band / 8  # the point is where the offset puts it
    removes, taken = routed(policy)
    assert_elementwise_is_removes(policy, removes)
    if abs(bands) <= 0.5:
        assert point in taken
    if abs(bands) == 2:
        assert point not in taken
    assert len(taken) < removes.size / 10


@pytest.mark.parametrize("rule, draw", [
    ("myopic", world(0.3, 0.6, gain=0.0)),  # m(0) = 0
    ("optimistic", world(0.7, 0.2, loss=0.0)),  # m(1) = 0
    ("myopic", world(0.3, 0.6, gain=EDGE / 2)),  # pm0 < 2^-20
    ("myopic", world(0.7, 0.2, gain=2.0 / EDGE)),  # 1 - pm0 < 2^-20
    ("optimistic", world(0.3, 0.6, rate=1e-7)),  # 1 - pm0 < 2^-20
    ("optimistic", world(0.7, 0.2, gain=1e300, rate=1e-10)),  # m(0) = inf
    ("myopic", world(0.3, 0.6, loss=math.inf)),  # m(0) = 1 - 0 * inf, NaN
])
def test_depth_0_elementwise_is_exact_where_its_guard_is_off(rule, draw):
    """A stake of 0 or inf, or pm0 or 1 - pm0 below 2^-20: the rule has no
    band, and every point takes the exact path."""
    policy = RULES[rule](draw.env)
    assert policy._band is None
    removes, taken = routed(policy)
    assert len(taken) == removes.size
    assert_elementwise_is_removes(policy, removes)


def dead(rate, t, k):
    """Whether k ones in t draws at rate have probability 0."""
    return rate**k * (1.0 - rate) ** (t - k) == 0.0


@pytest.mark.parametrize("draw", [
    world(0.4, 0.4),  # u == q: equal log-likelihoods everywhere
    world(0.3, 0.6, prior=0.0),  # a dead type everywhere
    world(0.3, 0.6, prior=1.0),
    world(0.0, 0.4),  # endpoint rates: a dead type at some points
    world(1.0, 0.4),
    world(0.5, 0.0),
    world(0.5, 1.0),
    world(0.0, 1.0),
])
@pytest.mark.parametrize("rule", sorted(RULES))
def test_depth_0_elementwise_is_exact_where_the_log_odds_cannot_decide(rule, draw):
    """With the band on, every point whose posterior is not the logistic of
    its log odds takes the exact path: all of them where u == q or the
    prior is 0 or 1, and each point where an endpoint rate kills a type."""
    env = draw.env
    policy = RULES[rule](env)
    assert policy._band is not None
    removes, taken = routed(policy)
    assert_elementwise_is_removes(policy, removes)
    lattice = {(t, k) for t in range(HORIZON + 1) for k in range(t + 1)}
    if env.honest_mean == env.malicious_mean or env.prior_malicious in (0.0, 1.0):
        assert taken == lattice
    else:
        undecided = {(t, k) for t, k in lattice if dead(env.honest_mean, t, k) or dead(env.malicious_mean, t, k)}
        assert undecided and undecided <= taken


def test_depth_0_regions_take_almost_no_exp(monkeypatch):
    """Compiling myopic's and optimistic's regions on the golden
    policy_compare config's 50 draws (base seed 7) gives the posterior's
    elementwise at most 50 points, against 185,952 (4 per count per rule)
    when every probe took the exact path: outside its band a depth-0 rule
    is decided off the log odds, with no exp."""
    points = []
    elementwise = Posterior.elementwise

    def counting(self, ones, count):
        points.append(np.broadcast(ones, count).size)
        return elementwise(self, ones, count)

    monkeypatch.setattr(Posterior, "elementwise", counting)
    cfg = SuiteConfig.make("policy_compare", 7, n_runs=50)
    for run in range(cfg.n_runs):
        run_rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(run,)))
        build_regions(list(cfg.specs), sample_experiment(run_rng, cfg.suite))  # as run_suite builds run `run`
    assert sum(points) <= 50


@pytest.fixture
def read_whole(monkeypatch):
    """The counts whose rows compile_region read whole, one list per call:
    those whose guess was not confirmed. Only that read passes a column of
    counts, against a row of ones, to removes_elementwise."""
    calls = []
    for rule in (HiperPolicy, _BeliefPolicy):
        def counting(self, count, ones, method=rule.removes_elementwise):
            if np.ndim(count) == 2:
                calls.append(count[:, 0].astype(int).tolist())
            return method(self, count, ones)

        monkeypatch.setattr(rule, "removes_elementwise", counting)
    return calls


@pytest.mark.parametrize("suite", list(ExperimentSuite))
def test_compiled_regions_are_the_walk_at_long_horizons(suite, read_whole, monkeypatch):
    """Each default hiper, myopic and optimistic policy on every draw of the
    suite's golden config (base seed 7) and of the benchmark's first timed
    unit (base seed (1 << 32) | 7), at every count up to the horizon: built
    as a suite without a lattice builds it, by compile_region. Each region's
    one call of the rule confirms every count's closed-form guess, so no
    row is read whole."""
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
                region, walk = spec.build(draw), RegionWalk(spec.policy(draw.env))
                builds += 1
                walk.extend(draw.horizon)
                assert region.lo.tolist() == walk.lo, (spec.label, base_seed, run)
                assert region.hi.tolist() == walk.hi, (spec.label, base_seed, run)
    assert max(horizons) > (90 if suite is ExperimentSuite.LOOKAHEAD_COMPARE else 900)
    assert read_whole == []
    assert len(calls) == builds


SEED_COUNTS = 300  # how far hiper's region is checked against the walk
ENDPOINT_DELTAS = [1e-6, 0.5, 1.0 - 1e-6]  # the ends of optimal_delta's clamp, and its middle


@settings(max_examples=150)
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
    policy = HiperPolicy(delta, gap, q)
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
def test_hiper_region_is_removes_at_every_point(q, delta, gap, read_whole):
    """At q = 0 and 1 an end is clipped to the lattice's edge, and past it
    the rule would remove again; delta at both ends of optimal_delta's clamp;
    and gap 0.05 puts the warm-up at delta = 1e-6 beyond the horizon."""
    horizon = 200
    policy = HiperPolicy(delta, gap, q)
    region = compile_region(policy, horizon)
    assert_region_is_removes(policy, region, horizon)
    assert (region.lo <= region.hi).tolist() == (np.arange(horizon + 1) > min_samples(delta, gap)).tolist()
    assert read_whole == []


@pytest.mark.parametrize("delta, q", [(0.5, 0.3), (1e-6, 1.0)])
def test_hiper_region_past_horizon_2_to_the_15(delta, q, read_whole):
    """At horizons where run_episode counts ones in int32, the region is the
    walk of the scalar rule at every count."""
    horizon = 2**15 + 300
    policy = HiperPolicy(delta, 0.2, q)
    region, walk = compile_region(policy, horizon), RegionWalk(policy)
    walk.extend(horizon)
    assert region.lo.tolist() == walk.lo
    assert region.hi.tolist() == walk.hi
    assert read_whole == []


def test_hiper_region_keeps_a_tie_at_an_exact_integer_end(read_whole):
    """delta = 2 / e^2 to the last bit makes ln(2 / delta) exactly 2, so at
    count 16 the radius is 1/4 and, at q = 1/2, both t (q -+ r_t) = 4 and 12
    are exact integers: the mean there is exactly one radius from q, and the
    strict comparison keeps it. The inward rounding gets those ends without
    reading a row whole. At count 36, r_t = 1/6 is not a double: t (q + r_t)
    rounds to 24, where the rule removes (and 12 keeps), so the guess is one
    short and count 36 alone is read whole, still exact."""
    delta = 0.2706705664732254
    assert math.log(2.0 / delta) == 2.0
    policy = HiperPolicy(delta, 1.0, 0.5)
    t = 16
    assert tuple(policy.boundary(np.array(t))) == (4.0, 12.0)
    assert not policy.removes(t, 4) and not policy.removes(t, 12)
    assert policy.removes(t, 5) and policy.removes(t, 11)
    region = compile_region(policy, t)
    assert (region.lo[t], region.hi[t]) == (5, 11)
    assert_region_is_removes(policy, region, t)
    assert read_whole == []
    assert policy.boundary(np.array(36))[1] == 24.0 and policy.removes(36, 24)
    region = compile_region(policy, 40)
    assert read_whole == [[36]]
    assert (region.lo[16], region.hi[16], region.lo[36], region.hi[36]) == (5, 11, 13, 24)
    assert_region_is_removes(policy, region, 40)


@pytest.fixture
def elementwise_calls(monkeypatch):
    """The shape of each removes_elementwise call's broadcast (count, ones),
    by any rule, in call order."""
    calls = []
    for rule in (HiperPolicy, _BeliefPolicy):
        def counting(self, count, ones, method=rule.removes_elementwise):
            calls.append(np.broadcast(count, ones).shape)
            return method(self, count, ones)

        monkeypatch.setattr(rule, "removes_elementwise", counting)
    return calls


def test_hiper_past_its_warmup_is_one_call(elementwise_calls, read_whole):
    """gap 0.05 and delta 1e-6 put hiper's warm-up at count 2902: every
    count's guess is empty, and the one confirming call of the rule, which
    probes 4 points at each of the 200 counts, confirms them all."""
    policy = HiperPolicy(1e-6, 0.05, 0.3)
    assert min_samples(1e-6, 0.05) > 200
    region = compile_region(policy, 200)
    assert elementwise_calls == [(4, 200)]
    assert read_whole == []
    assert (region.lo > region.hi).all()
    assert_region_is_removes(policy, region, 200)


def displaced(rule, shift_lo, shift_hi):
    """rule's class with boundary's ends moved by a fixed number of ones."""

    class Displaced(rule):
        def boundary(self, count):
            low, high = super().boundary(count)
            return low + shift_lo, high + shift_hi

    return Displaced


@pytest.mark.parametrize("shift_lo, shift_hi", [(-3, 3), (3, -3), (0, 1), (-1, 0), (3, 0), (0, -3)])
@pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
def test_hiper_region_falls_back_when_an_end_is_not_confirmed(shift_lo, shift_hi, q, read_whole):
    """Guesses moved off the ends fail their confirming probes, so
    compile_region reads those counts whole, and the region is still the
    rule's."""
    params = (0.9, 0.5, q)  # delta, gap and malicious mean
    policy = displaced(HiperPolicy, shift_lo, shift_hi)(*params)
    region = compile_region(policy, 120)
    # an end moved past the lattice's edge is clipped back onto it, where it is
    clipped = (shift_lo == 0 or q == 0.0 and shift_lo < 0) and (shift_hi == 0 or q == 1.0 and shift_hi > 0)
    assert (read_whole == []) == clipped
    exact = compile_region(HiperPolicy(*params), 120)
    assert region.lo.tolist() == exact.lo.tolist()
    assert region.hi.tolist() == exact.hi.tolist()
    assert_region_is_removes(policy, region, 120)


@pytest.mark.parametrize("shift", [-3, -1, 1, 3])
@pytest.mark.parametrize("u, q", [(0.2, 0.7), (0.8, 0.3)])
@pytest.mark.parametrize("rule", [MyopicPolicy, OptimisticPolicy])
def test_belief_region_falls_back_when_an_end_is_not_confirmed(shift, u, q, rule, read_whole):
    """The same for myopic and optimistic, whose interval is a half-line from
    the anchor's edge: its one finite end, moved, fails its probes, and the
    region is still the rule's, every count of it removing somewhere."""
    env = world(u, q).env
    policy = displaced(rule, shift, shift)(env)
    region = compile_region(policy, 120)
    assert read_whole
    exact = compile_region(rule(env), 120)
    assert region.lo.tolist() == exact.lo.tolist()
    assert region.hi.tolist() == exact.hi.tolist()
    assert_region_is_removes(policy, region, 120)
    assert (region.lo <= region.hi)[30:].all()


@settings(max_examples=40)
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


@settings(max_examples=100)
@with_shared_examples
@given(worlds(), st.sampled_from([1, 2, 60]), st.lists(belief_specs, min_size=2, max_size=6, unique=True))
def test_shared_lattice_regions_are_each_rule_alone(draw, horizon, texts):
    """build_regions serves every lookahead spec of a draw from one posterior
    lattice and one plan per leaf rule. Each region is the one its spec gets
    alone, off a lattice of its own, in every world."""
    draw = replace(draw, horizon=horizon)
    specs = [PolicySpec.parse(text) for text in texts]
    for spec, region in zip(specs, build_regions(specs, draw)):
        alone = spec.build(draw)
        assert region.lo.tolist() == alone.lo.tolist(), (spec.label, texts)
        assert region.hi.tolist() == alone.hi.tolist(), (spec.label, texts)


@pytest.mark.parametrize("suite", list(ExperimentSuite))
def test_only_rules_that_plan_ahead_reach_a_lattice(suite, monkeypatch):
    """Every Lattice a suite builds is handed only rules of depth 1 or more:
    one per lookahead_compare run, for its two lookahead specs and not for
    optimistic, and none on policy_compare or delta_sweep, which plan no
    step ahead."""
    handed = []

    class Recording(Lattice):
        def __init__(self, env, horizon, rules):
            handed.append([rule.depth for rule in rules])
            super().__init__(env, horizon, rules)

    monkeypatch.setattr(experiments, "Lattice", Recording)
    monkeypatch.setattr(policies, "Lattice", Recording)
    run_suite(SuiteConfig.make(suite, 7, n_runs=3))
    assert all(depth >= 1 for depths in handed for depth in depths), handed
    assert handed == ([[4, 8]] * 3 if suite is ExperimentSuite.LOOKAHEAD_COMPARE else [])


WALK_COUNTS = 200  # how far the lookahead walk is checked against its table


@settings(max_examples=40)
@example(world(0.8, 0.3), 8, LeafRule.ZERO)
@example(world(0.2, 0.7), 6, LeafRule.MYOPIC_INFINITE)
@example(world(0.3, 0.9, rate=0.05), 6, LeafRule.OPTIMISTIC)
@example(world(0.0, 1.0), 3, LeafRule.OPTIMISTIC)
@example(world(1.0, 0.0), 4, LeafRule.MYOPIC_INFINITE)
@example(world(0.5, 1.0, prior=0.0), 2, LeafRule.OPTIMISTIC)
@example(world(0.0, 0.4, prior=1.0), 5, LeafRule.ZERO)
@given(worlds(), st.integers(1, 8), st.sampled_from(list(LeafRule)))
def test_lookahead_walk_is_the_table(draw, depth, leaf):
    """RegionWalk, the scalar walk from the anchor, is right only where each
    count's removal set is an interval around it, as compile_region and
    table_region assume: lookahead's walk is its table up to count 200."""
    env, spec = draw.env, PolicySpec("lookahead", depth=depth, leaf_rule=leaf)
    walk = RegionWalk(LookaheadPolicy(env, depth, leaf))
    walk.extend(WALK_COUNTS)
    table = table_region(Lattice(env, WALK_COUNTS, [spec]).values(spec) <= 0.0)
    assert walk.lo == table.lo.tolist()
    assert walk.hi == table.hi.tolist()


def test_lookahead_nan_guesses_are_confirmed_or_read_whole(elementwise_calls, read_whole):
    """lookahead's ends have no closed form, so every count is guessed empty
    and goes through the one confirming call: counts 1 and 2, where the seed
    and its neighbours keep, are confirmed, and every other count, whose
    seed removes, is read whole in one more call. The region is the lattice
    table's."""
    env = world(0.8, 0.3, prior=0.1).env
    policy = LookaheadPolicy(env, 2)
    low, high = policy.boundary(np.arange(1.0, HORIZON + 1))
    assert np.isnan(low).all() and np.isnan(high).all()
    region = compile_region(policy, HORIZON)
    table = table_region(Lattice(env, HORIZON, [policy]).values(policy) <= 0.0)
    assert region.lo.tolist() == table.lo.tolist()
    assert region.hi.tolist() == table.hi.tolist()
    assert elementwise_calls == [(4, HORIZON), (HORIZON - 2, HORIZON + 1)]
    assert read_whole == [list(range(3, HORIZON + 1))]


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


def run_stream(events, flags, layout=json.dumps):
    """The exit code, stdout and stderr of nodeban stream on events, each
    written as the line layout(event)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(layout(event) + "\n" for event in events)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stream", path, *flags])
    return code, out.getvalue(), err.getvalue()


def assert_stream_is_replay(events, flags, make_policy, binarize=None, layout=json.dumps):
    """nodeban stream on events, each written as the line layout(event),
    against stream_replay."""
    code, out, err = run_stream(events, flags, layout)
    expected_out, expected_err = stream_replay(events, make_policy, binarize)
    assert out == expected_out, flags
    assert err == expected_err, flags
    assert code == (2 if expected_err else 0)


@settings(max_examples=30)
@with_examples(0)
@given(worlds(), st.integers(0, 2**16))
def test_stream_hiper_is_the_per_node_replay(draw, seed):
    env = draw.env
    events = stream_events(draw, seed, binary=False)
    for delta in (0.05, 0.5, 0.9):
        flags = ["--policy", "hiper", "--delta", repr(delta), *world_flags(env)]
        assert_stream_is_replay(events, flags, lambda: HiperPolicy(delta, env.gap, env.malicious_mean))


@settings(max_examples=30)
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


@settings(max_examples=30)
@with_lookahead_examples
@given(worlds(), st.integers(0, 2**16), st.integers(1, 6), st.sampled_from(list(LeafRule)))
def test_stream_lookahead_is_the_per_node_replay(draw, seed, depth, leaf):
    env = draw.env
    flags = ["--policy", "lookahead", "--lookahead-depth", str(depth), "--leaf-rule", leaf.value]
    events = stream_events(draw, seed, binary=True)
    assert_stream_is_replay(events, [*flags, *world_flags(env)], lambda: LookaheadPolicy(env, depth, leaf))


def churn_events(env, seed, nodes=300):
    """Events of `nodes` short-lived ids, each sending 1 to 8 bits of its
    type's mean, interleaved at random and stamped with the global tick, so
    that many ids reach the same few (count, ones) points."""
    rng = random.Random(seed)
    sends = []
    for n in range(nodes):
        mean = env.malicious_mean if rng.random() < env.prior_malicious else env.honest_mean
        sends += [(f"c{n}", int(rng.random() < mean)) for _ in range(rng.randint(1, 8))]
    rng.shuffle(sends)
    return [{"node_id": node, "t": tick, "x": x} for tick, (node, x) in enumerate(sends, 1)]


def verdict_points(events, out):
    """The (count, ones) point of each verdict line of out, read against
    the events it answers (a removed node's later events get none)."""
    lines = iter(out.splitlines())
    state, removed, points = {}, set(), []
    for event in events:
        node = event["node_id"]
        if node in removed:
            continue
        count, ones = state.get(node, (0, 0))
        state[node] = count, ones = count + 1, ones + event["x"]
        verdict = json.loads(next(lines))
        assert verdict["node_id"] == node and verdict["t"] == event["t"]
        points.append((count, ones))
        if verdict["decision"] == "remove":
            removed.add(node)
    assert next(lines, None) is None
    return points


STREAM_RULES = [
    ("myopic", [], MyopicPolicy),
    ("optimistic", [], OptimisticPolicy),
    ("lookahead", ["--lookahead-depth", "3"], lambda env: LookaheadPolicy(env, 3)),
]


@pytest.mark.parametrize("name, extra, rule", STREAM_RULES, ids=[name for name, _, _ in STREAM_RULES])
@pytest.mark.parametrize("u, q", [(0.8, 0.3), (0.2, 0.7)])
def test_stream_computes_one_posterior_per_lattice_point(name, extra, rule, u, q, monkeypatch):
    env = world(u, q).env
    events = churn_events(env, seed=26)
    expected, _ = stream_replay(events, lambda: rule(env))
    points = verdict_points(events, expected)
    assert len(set(points)) < len(points) / 10  # ids share points
    assert {json.loads(line)["decision"] for line in expected.splitlines()} == {"keep", "remove"}
    calls = []
    original = policies.posterior

    def counted(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(policies, "posterior", counted)
    assert_stream_is_replay(events, ["--policy", name, *extra, *world_flags(env)], lambda: rule(env))
    assert sorted(calls) == sorted((ones, count) for count, ones in set(points))


def test_stream_verdicts_are_not_kept_across_runs():
    """One process, the same events, three worlds: each run is its own
    replay, so nothing a run keeps per (count, ones) outlives it."""
    first = world(0.8, 0.3).env
    events = churn_events(first, seed=11)
    for env in (first, replace(first, honest_mean=0.2, malicious_mean=0.7), replace(first, prior_malicious=0.05)):
        for name, extra, rule in STREAM_RULES:
            assert_stream_is_replay(events, ["--policy", name, *extra, *world_flags(env)], lambda: rule(env))


LONG_COUNT = 1100  # the long-lived node's last count


@pytest.mark.parametrize("text", ["lookahead:4", "myopic", "optimistic"])
def test_stream_verdicts_are_the_region_past_count_1000(text):
    """Node n0 walks the edge of its rule's region to count LONG_COUNT: it
    sends a 0, the bit toward removal (q < u), wherever that keeps, and a 1
    where it removes. Each of 40 other ids copies n0's bits up to a random
    count and then sends the other bit, so that the stream's points lie on
    both sides of the edge at every size of count. Every verdict of nodeban
    stream, which asks the rule's scalar removes once per new point, is the
    region's at its point: the spec built alone, off a lattice of its own
    for lookahead:4 and by compile_region for myopic and optimistic."""
    draw = replace(world(0.7, 0.3, rate=0.25, prior=0.3), horizon=LONG_COUNT)
    region = PolicySpec.parse(text).build(draw)
    lo, hi = region.lo.tolist(), region.hi.tolist()
    bits, ones = [], 0
    for t in range(1, LONG_COUNT + 1):
        bit = int(lo[t] <= ones <= hi[t])
        bits.append(bit)
        ones += bit
    rng = random.Random(22)
    sends = [("n0", bit) for bit in bits]
    for n in range(1, 41):
        cut = rng.randrange(LONG_COUNT)
        sends += [(f"p{n}", bit) for bit in bits[:cut]] + [(f"p{n}", 1 - bits[cut])]
    events = [{"node_id": node, "t": tick, "x": x} for tick, (node, x) in enumerate(sends, 1)]
    code, out, err = run_stream(events, ["--policy", text, *world_flags(draw.env)])
    assert (code, err) == (0, "")
    points = verdict_points(events, out)
    removed = [json.loads(line)["decision"] == "remove" for line in out.splitlines()]
    assert removed == [lo[t] <= k <= hi[t] for t, k in points]
    assert removed[:LONG_COUNT] == [False] * LONG_COUNT  # n0 reaches LONG_COUNT
    assert 10 < sum(removed) < 40


def shuffled_keys(event):
    items = list(event.items())
    random.Random(event["t"]).shuffle(items)
    return json.dumps(dict(items))


#: Event lines in JSON layouts other than json.dumps' default. In the last,
#: a decoy node_id comes first, and the event's own, the last, wins.
LAYOUTS = {
    "compact": lambda event: json.dumps(event, separators=(",", ":")),
    "tab_padded": lambda event: json.dumps(event, separators=("\t,\t", "\t:\t")),
    "padded_line": lambda event: " \t" + json.dumps(event) + "\t ",
    "shuffled_keys": shuffled_keys,
    "escaped_key": lambda event: json.dumps(event).replace('"node_id"', '"node\\u005fid"'),
    "duplicate_node_id": lambda event: '{"node_id": "decoy", ' + json.dumps(event)[1:],
}
LAYOUT_RULES = [
    ("hiper", ["--delta", "0.5"],
     lambda env: HiperPolicy(0.5, env.gap, env.malicious_mean)),
    *STREAM_RULES,
]


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@pytest.mark.parametrize("name, extra, rule", LAYOUT_RULES, ids=[name for name, _, _ in LAYOUT_RULES])
def test_stream_verdicts_do_not_depend_on_the_input_layout(name, extra, rule, layout):
    env = world(0.8, 0.3).env
    events = churn_events(env, seed=30, nodes=80)
    assert_stream_is_replay(
        events, ["--policy", name, *extra, *world_flags(env)], lambda: rule(env), layout=layout
    )
