import math

import numpy as np
import pytest

from nodeban.belief import BeliefState, initial_belief, posterior, update
from nodeban.model import EnvParams
from nodeban.policies import (
    MAX_DEPTH,
    LeafRule,
    LookaheadPolicy,
    MyopicPolicy,
    OptimisticPolicy,
    PolicySpec,
    lookahead_value,
)
from oracles import belief_rule_removes, lookahead_value_bruteforce


def make_env(u=0.8, q=0.2, gain=1.0, loss=1.0, rate=0.1, prior=0.5):
    return EnvParams(
        honest_mean=u,
        malicious_mean=q,
        gain_honest=gain,
        loss_malicious=loss,
        departure_rate=rate,
        prior_malicious=prior,
    )


def random_instance(rng, max_history=30):
    u = float(rng.uniform(0.05, 0.95))
    q = float(rng.uniform(0.05, 0.95))
    env = make_env(
        u=u,
        q=q,
        gain=float(rng.uniform(0.05, 2.0)),
        loss=float(rng.uniform(0.05, 2.0)),
        rate=float(rng.uniform(0.01, 1.0)),
        prior=float(rng.uniform(0.05, 0.95)),
    )
    belief = initial_belief(env)
    history = int(rng.integers(0, max_history)) if max_history > 0 else 0
    for x in (rng.random(history) < 0.5).astype(int).tolist():
        belief = update(belief, x, env)
    return belief, env


# A rule's removes(0, 0) reads the posterior before any observation, which
# is exactly the env's prior_malicious: the tests below set the posterior
# through the prior.


class TestMyopic:
    def test_tie_removes(self):
        assert MyopicPolicy(make_env(gain=1.0, loss=1.0, prior=0.5)).removes(0, 0)

    def test_profitable_keeps(self):
        assert not MyopicPolicy(make_env(gain=1.0, loss=1.0, prior=0.4)).removes(0, 0)

    def test_certain_honest_keeps(self):
        assert not MyopicPolicy(make_env(gain=0.01, prior=0.0)).removes(0, 0)


class TestOptimistic:
    def test_patient_keep(self):
        # expected honest value 0.2 * 1 / 0.1 = 2 beats expected cost 0.8
        assert not OptimisticPolicy(make_env(gain=1.0, loss=1.0, rate=0.1, prior=0.8)).removes(0, 0)

    def test_certain_malicious_removes(self):
        assert OptimisticPolicy(make_env(gain=1.0, loss=1.0, rate=0.1, prior=1.0)).removes(0, 0)

    def test_full_departure_rate_equals_myopic(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            env = make_env(
                gain=float(rng.uniform(0, 2)),
                loss=float(rng.uniform(0, 2)),
                rate=1.0,
                prior=float(rng.uniform(0, 1)),
            )
            count = int(rng.integers(0, 30))
            ones = int(rng.integers(0, count + 1))
            assert OptimisticPolicy(env).removes(count, ones) == MyopicPolicy(env).removes(count, ones)


class TestLookaheadValue:
    def test_uninformative_model_accumulates_gain(self):
        # keep gain is 0.75 - 0.25 = 0.5 at every state, so depth 4 yields 2.0
        env = make_env(u=0.5, q=0.5, gain=1.0, loss=1.0, prior=0.25)
        belief = initial_belief(env)
        assert lookahead_value(belief, env, 4) == pytest.approx(2.0, rel=1e-12)
        assert lookahead_value_bruteforce(belief, env, 4) == pytest.approx(2.0, rel=1e-12)

    def test_unprofitable_uninformative_stops_at_zero(self):
        env = make_env(u=0.5, q=0.5, gain=1.0, loss=1.0, prior=0.75)
        belief = initial_belief(env)
        assert lookahead_value(belief, env, 5) == 0.0

    def test_depth_one_is_clipped_keep_gain(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            belief, env = random_instance(rng)
            value = lookahead_value(belief, env, 1)
            pm = belief.posterior_malicious
            expected = max(0.0, (1.0 - pm) * env.gain_honest - pm * env.loss_malicious)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_nonnegative_and_monotone_in_depth(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            belief, env = random_instance(rng)
            values = [lookahead_value(belief, env, t) for t in range(1, 9)]
            assert all(v >= 0.0 for v in values)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_uninformative_brute_force_value(self):
        env = make_env(u=0.4, q=0.4, gain=0.6, loss=1.0, prior=0.25)
        # keep gain 0.75 * 0.6 - 0.25 = 0.2 per step, depth 4 -> 0.8
        value = lookahead_value_bruteforce(initial_belief(env), env, 4)
        assert value == pytest.approx(0.8, rel=1e-12)

    def test_brute_force_depth_guard(self):
        belief, env = random_instance(np.random.default_rng(34))
        with pytest.raises(ValueError):
            lookahead_value_bruteforce(belief, env, 13)


def test_lookahead_matches_brute_force_everywhere():
    """State-merged induction against explicit path enumeration, all leaf
    rules, random histories and parameters."""
    rng = np.random.default_rng(35)
    rules = list(LeafRule)
    for trial in range(400):
        belief, env = random_instance(rng)
        depth, leaf = int(rng.integers(1, 9)), rules[trial % 3]
        dp = lookahead_value(belief, env, depth, leaf)
        bf = lookahead_value_bruteforce(belief, env, depth, leaf)
        assert dp == pytest.approx(bf, rel=1e-12, abs=1e-15)


def test_lookahead_handles_boundary_rates():
    # endpoint emission rates create zero-probability branches in the tree
    env = make_env(u=1.0, q=0.0, gain=1.0, loss=1.0, prior=0.5)
    belief = initial_belief(env)
    for depth in (1, 2, 4, 6):
        dp = lookahead_value(belief, env, depth)
        bf = lookahead_value_bruteforce(belief, env, depth)
        assert dp == pytest.approx(bf, rel=1e-12)
        assert dp >= 0.0


class TestLookaheadDecide:
    def test_certain_malicious_removes(self):
        assert LookaheadPolicy(make_env(prior=1.0), 4).removes(0, 0)

    def test_uninformative_profitable_keeps(self):
        env = make_env(u=0.5, q=0.5, gain=1.0, loss=1.0, prior=0.25)
        for depth in (1, 2, 8):
            assert not LookaheadPolicy(env, depth).removes(0, 0)

    def test_depth_one_zero_leaf_equals_myopic(self):
        rng = np.random.default_rng(36)
        for _ in range(500):
            belief, env = random_instance(rng, max_history=10)
            lookahead, myopic = LookaheadPolicy(env, 1), MyopicPolicy(env)
            assert lookahead.removes(belief.count, belief.ones) == myopic.removes(belief.count, belief.ones)


@pytest.mark.parametrize("depth", [-1, 0, MAX_DEPTH + 1])
def test_a_depth_out_of_range_is_a_value_error(depth):
    """Every entry to a lookahead plan holds its depth to 1 to MAX_DEPTH,
    and its error names the depth."""
    env = make_env()
    message = rf"depth must be an integer in \[1, {MAX_DEPTH}\], got {depth}$"
    with pytest.raises(ValueError, match=message):
        LookaheadPolicy(env, depth)
    with pytest.raises(ValueError, match=message):
        lookahead_value(initial_belief(env), env, depth)
    # "-1" is not a spec's integer literal, so the spec's error names its text
    spec_message = message if depth >= 0 else "expected an integer depth"
    with pytest.raises(ValueError, match=rf"^policy 'lookahead:{depth}': {spec_message}"):
        PolicySpec.parse(f"lookahead:{depth}")


@pytest.mark.parametrize("depth", [1, MAX_DEPTH])
def test_the_edge_depths_plan(depth):
    env = make_env()
    belief = BeliefState(1, 3, posterior(1, 3, env))
    value = lookahead_value(belief, env, depth)
    assert value >= 0.0
    assert LookaheadPolicy(env, depth).removes(3, 1) is (not value > 0.0)
    assert PolicySpec.parse(f"lookahead:{depth}").depth == depth


def test_posterior_extremes_align_all_policies():
    for pm, removed in ((1.0, True), (0.0, False)):
        env = make_env(gain=1.0, loss=1.0, rate=0.2, prior=pm)
        for policy in (MyopicPolicy(env), OptimisticPolicy(env), LookaheadPolicy(env, 4)):
            assert policy.removes(0, 0) is removed, (pm, type(policy).__name__)


class TestOnlineWrappers:
    def test_wrappers_match_operations_step_by_step(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            _, env = random_instance(rng, max_history=0)
            wrappers = {"myopic": MyopicPolicy(env), "optimistic": OptimisticPolicy(env)}
            belief = initial_belief(env)
            lookahead = LookaheadPolicy(env, 3)
            count = ones = 0
            for x in (rng.random(25) < 0.5).astype(int).tolist():
                belief = update(belief, float(x), env)
                count, ones = count + 1, ones + x  # ones stays a Python int
                for name, wrapper in wrappers.items():
                    verdict = wrapper.observe(float(x))
                    assert verdict is belief_rule_removes(name, env, count, ones), name
                    # the stream's observe and the simulator's predicate agree
                    assert wrapper.removes(count, ones) is verdict, name
                verdict = lookahead.observe(float(x))
                assert verdict is (not lookahead_value(belief, env, 3) > 0.0)
                assert lookahead.removes(count, ones) is verdict
