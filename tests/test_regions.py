"""Compiled removal regions against the scalar rules they compile.

compile_region evaluates a rule only near the ends of each count's removal
interval, and lookahead compiles from lattice-wide tables. These tests
evaluate the scalar rule (and, for the tables, the scalar posterior and plan
value) at every lattice point (count t, ones k) with t <= 60 (40 for the
plan values) and compare exactly, over seeded random worlds that include
q > u, q < u, and observation means of exactly 0 and 1.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodeban.belief import BeliefState, BernoulliModel, ImpossibleEvidenceError, posterior
from nodeban.belief import posterior_table
from nodeban.experiments import PolicySpec
from nodeban.model import EnvParams
from nodeban.policies import LeafRule, LookaheadConfig, lookahead_value, lookahead_values
from nodeban.simulator import ExperimentDraw

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


def with_examples(test):
    for example_world in ENDPOINT_WORLDS:
        test = example(example_world)(test)
    return test


@settings(SEEDED, max_examples=100)
@with_examples
@given(worlds())
def test_posterior_table_is_posterior(draw):
    env = draw.env
    model = BernoulliModel(env.honest_mean, env.malicious_mean)
    table = posterior_table(HORIZON + 1, model, env.prior_malicious)
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


@settings(SEEDED, max_examples=60)
@example(world(0.8, 0.3), 8, LeafRule.ZERO)
@example(world(0.2, 0.7), 8, LeafRule.MYOPIC_INFINITE)
@example(world(0.0, 1.0), 8, LeafRule.OPTIMISTIC)
@example(world(1.0, 0.4, prior=0.0), 1, LeafRule.OPTIMISTIC)
@given(worlds(), st.integers(1, 8), st.sampled_from(list(LeafRule)))
def test_lookahead_values_are_lookahead_value(draw, depth, leaf):
    env, cfg, horizon = draw.env, LookaheadConfig(depth, leaf), 40
    values = lookahead_values(env, cfg, horizon)
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
@with_examples
@given(worlds())
def test_hiper_regions(draw):
    for delta in (0.05, 0.5, 0.9, 0.999):
        assert_region_is_the_rule(f"hiper:{delta}", draw)
    env = draw.env
    if env.gain_honest > 0.0 and env.loss_malicious > 0.0:
        assert_region_is_the_rule("hiper:star", draw)


@settings(SEEDED, max_examples=100)
@with_examples
@given(worlds())
def test_myopic_and_optimistic_regions(draw):
    assert_region_is_the_rule("myopic", draw)
    assert_region_is_the_rule("optimistic", draw)


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
