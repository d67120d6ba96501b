"""Compiled removal regions against the scalar rules they compile.

compile_region evaluates a rule only near the ends of each count's removal
interval. These tests evaluate the rule at every lattice point (count t,
ones k) with t <= 60 and compare, over seeded random worlds that include
q > u, q < u, and observation means of exactly 0 and 1.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodeban.belief import BernoulliModel, ImpossibleEvidenceError, posterior
from nodeban.experiments import PolicySpec
from nodeban.model import EnvParams
from nodeban.policies import LeafRule
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
@example(world(0.2, 0.7), 5, LeafRule.MYOPIC_INFINITE)
@example(world(0.0, 1.0), 3, LeafRule.OPTIMISTIC)
@example(world(1.0, 0.0), 4, LeafRule.MYOPIC_INFINITE)
@example(world(0.5, 1.0, prior=0.0), 2, LeafRule.OPTIMISTIC)
@given(worlds(), st.integers(1, 5), st.sampled_from(list(LeafRule)))
def test_lookahead_regions(draw, depth, leaf):
    assert_region_is_the_rule(f"lookahead:{depth}:{leaf.value}", draw)
