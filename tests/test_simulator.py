import math
from dataclasses import replace
from statistics import fmean

import numpy as np
import pytest

from nodeban.model import NEVER, EnvParams, ExperimentSuite, NodeType, realized_loss
from nodeban.policies import PolicySpec, Region
from nodeban.simulator import (
    EpisodeResult,
    ExperimentDraw,
    episode_rng,
    node_rng,
    node_streams,
    run_episode,
    sample_experiment,
    simulate_node,
)
from oracles import first_passage


def make_env(rate=0.1, prior=0.5, gain=1.0, loss=1.0, u=0.8, q=0.3):
    return EnvParams(
        honest_mean=u,
        malicious_mean=q,
        gain_honest=gain,
        loss_malicious=loss,
        departure_rate=rate,
        prior_malicious=prior,
    )


def make_draw(horizon=100, seed=1234, n_nodes=10, **env_kwargs):
    return ExperimentDraw(horizon=horizon, env=make_env(**env_kwargs), seed=seed, n_nodes=n_nodes)


class ScriptedPolicy:
    """Removes at a fixed count; records each (count, ones) it is asked about."""

    def __init__(self, remove_at=None):
        self.remove_at = remove_at
        self.seen = []

    def removes(self, count, ones):
        self.seen.append((count, ones))
        return count == self.remove_at


class TestSampleExperiment:
    def test_loss_is_always_one(self):
        rng = np.random.default_rng(41)
        for suite in ExperimentSuite:
            for _ in range(50):
                draw = sample_experiment(rng, suite)
                assert draw.env.loss_malicious == 1.0

    def test_ranges_per_suite(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            draw = sample_experiment(rng, ExperimentSuite.DELTA_SWEEP)
            assert 10 <= draw.horizon <= 1000
            assert 0.0 <= draw.env.gain_honest <= 1.0
            assert draw.n_nodes == 100
            assert draw.env.departure_rate == 1.0 / draw.horizon
            assert draw.env.gap > 0.0
        for _ in range(300):
            draw = sample_experiment(rng, ExperimentSuite.LOOKAHEAD_COMPARE)
            assert 1 <= draw.horizon <= 100
            assert 0.0 <= draw.env.gain_honest <= 2.0
        for _ in range(300):
            draw = sample_experiment(rng, ExperimentSuite.POLICY_COMPARE)
            assert 10 <= draw.horizon <= 1000
            assert 0.0 <= draw.env.gain_honest <= 2.0

    def test_prior_moments_match_beta22(self):
        rng = np.random.default_rng(43)
        priors = np.array(
            [sample_experiment(rng, "delta_sweep").env.prior_malicious for _ in range(100_000)]
        )
        # Beta(2,2): mean 1/2, variance 1/20, fourth central moment 3/560
        mean_se = math.sqrt(0.05 / priors.size)
        assert abs(priors.mean() - 0.5) <= 3 * mean_se
        var_se = math.sqrt((3.0 / 560.0 - 0.05**2) / priors.size)
        assert abs(priors.var() - 0.05) <= 3 * var_se

    def test_accepts_string_suite(self):
        rng = np.random.default_rng(44)
        draw = sample_experiment(rng, "policy_compare")
        assert isinstance(draw, ExperimentDraw)
        with pytest.raises(ValueError):
            sample_experiment(rng, "nope")


class TestSimulateNode:
    def test_malicious_removed_at_five_loses_five(self):
        draw = make_draw(loss=1.0)
        record = simulate_node(
            ScriptedPolicy(remove_at=5), NodeType.MALICIOUS, draw, node_rng(draw, 0)
        )
        assert record.removal_step == 5
        assert record.realized_loss == 5.0
        assert record.departure_step == NEVER

    def test_honest_departed_never_removed_loses_nothing(self):
        draw = make_draw(rate=0.5, seed=7)
        record = simulate_node(ScriptedPolicy(), NodeType.HONEST, draw, node_rng(draw, 0))
        assert record.removal_step == NEVER
        assert record.realized_loss == 0.0

    def test_full_departure_rate_departs_first_step(self):
        draw = make_draw(rate=1.0)
        policy = ScriptedPolicy()
        record = simulate_node(policy, NodeType.HONEST, draw, node_rng(draw, 0))
        assert record.departure_step == 1
        assert policy.seen == []  # departure precedes the observation
        assert record.realized_loss == 0.0

    def test_no_observations_after_removal(self):
        draw = make_draw(horizon=50)
        policy = ScriptedPolicy(remove_at=3)
        record = simulate_node(policy, NodeType.MALICIOUS, draw, node_rng(draw, 0))
        assert record.removal_step == 3
        assert [count for count, _ in policy.seen] == [1, 2, 3]

    def test_malicious_never_removed_capped_at_horizon(self):
        draw = make_draw(horizon=20, loss=2.0)
        policy = ScriptedPolicy()
        record = simulate_node(policy, NodeType.MALICIOUS, draw, node_rng(draw, 0))
        assert record.removal_step == NEVER
        assert len(policy.seen) == 20
        assert record.realized_loss == 40.0

    def test_honest_removed_before_departure(self):
        draw = make_draw(horizon=30, rate=0.01, gain=0.5, seed=11)
        record = simulate_node(
            ScriptedPolicy(remove_at=2), NodeType.HONEST, draw, node_rng(draw, 0)
        )
        assert record.removal_step == 2
        capped_departure = min(
            record.departure_step if record.departure_step != NEVER else math.inf, 30
        )
        assert record.realized_loss == (capped_departure - 2) * 0.5

    def test_observations_are_binary_and_match_type_rate(self):
        draw = make_draw(horizon=2000, q=0.3, seed=99)
        policy = ScriptedPolicy()
        simulate_node(policy, NodeType.MALICIOUS, draw, node_rng(draw, 5))
        assert [count for count, _ in policy.seen] == list(range(1, 2001))
        ones = [0] + [k for _, k in policy.seen]
        assert all(type(k) is int for k in ones)
        bits = [b - a for a, b in zip(ones, ones[1:])]
        assert set(bits) <= {0, 1}
        assert np.mean(bits) == pytest.approx(0.3, abs=0.05)


class TestDepartures:
    def test_mean_departure_matches_rate(self):
        rate = 0.05
        draw = make_draw(horizon=10_000, rate=rate, seed=3)
        times = []
        for node_id in range(10_000):
            record = simulate_node(
                ScriptedPolicy(), NodeType.HONEST, draw, node_rng(draw, node_id), node_id
            )
            assert record.departure_step != NEVER  # horizon far beyond the mean
            times.append(record.departure_step)
        expected = 1.0 / rate
        se = math.sqrt((1 - rate) / rate**2 / len(times))
        assert abs(np.mean(times) - expected) <= 3 * se


def hiper_region(draw, delta=0.9):
    return PolicySpec(kind="hiper", delta=delta).build(draw)


def node_type(is_malicious):
    return NodeType.MALICIOUS if is_malicious else NodeType.HONEST


class TestRunEpisode:
    def test_all_honest_when_prior_zero(self):
        draw = make_draw(prior=0.0, n_nodes=50)
        result = run_episode([hiper_region(draw)], draw)
        assert not result.malicious.any()
        assert result.malicious_fraction == 0.0

    def test_oracle_achieves_zero_loss(self):
        # A region cannot see a node's type, so the type-aware oracle is
        # scored on the episode's own nodes: each malicious node removed
        # before its first observation, each honest one kept to the horizon.
        rng = np.random.default_rng(45)
        draws = [make_draw(prior=1.0, n_nodes=50)] + [
            make_draw(prior=0.6, seed=int(seed), n_nodes=100) for seed in rng.integers(0, 2**32, size=5)
        ]
        for draw in draws:
            result = run_episode([hiper_region(draw)], draw)
            for m, departure in zip(result.malicious.tolist(), result.departure_step.tolist()):
                removal = 0.0 if m else float(draw.horizon)
                departure = min(departure, draw.horizon)
                assert realized_loss(node_type(m), departure, removal, draw.env) == 0.0

    def test_fixed_seed_reproducible(self):
        draw = make_draw(prior=0.5, n_nodes=40, seed=77)
        regions = [hiper_region(draw), hiper_region(draw, 0.5)]
        a = run_episode(regions, draw)
        b = run_episode(regions, draw)
        for field_a, field_b in zip(a, b):
            assert np.array_equal(field_a, field_b)

    def test_mean_loss_is_arithmetic_mean(self):
        draw = make_draw(prior=0.5, n_nodes=30, seed=8)
        result = run_episode([hiper_region(draw)], draw)
        assert result.mean_loss[0] == pytest.approx(result.loss[0].sum() / 30, rel=1e-12)
        assert (result.loss >= 0.0).all()

    def test_node_types_follow_the_prior_stream(self):
        draw = make_draw(prior=0.5, n_nodes=20)
        result = run_episode([hiper_region(draw)] * 3, draw)
        expected = episode_rng(draw).random(20) < 0.5
        assert isinstance(result, EpisodeResult)
        assert np.array_equal(result.malicious, expected)
        assert result.removal_step.shape == result.loss.shape == (3, 20)

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (np.array([1]), np.array([100])),  # would broadcast to every count
            (np.zeros(10, dtype=np.int64), np.full(10, -1)),  # one count short
            (np.zeros(12, dtype=np.int64), np.full(11, -1)),
            (np.zeros(11), np.full(11, -1.0)),  # not integers
            (np.zeros((1, 11), dtype=np.int64), np.full((1, 11), -1)),
        ],
    )
    def test_region_not_horizon_plus_one_long_is_rejected(self, lo, hi):
        draw = make_draw(horizon=10)
        with pytest.raises(ValueError, match="region 1: lo"):
            run_episode([hiper_region(draw), Region(lo, hi)], draw)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
    def test_region_dtype_does_not_change_scores(self, dtype):
        draw = make_draw(horizon=200, n_nodes=40, seed=5)
        region = hiper_region(draw)
        empty = region.lo > region.hi
        lo, hi = np.where(empty, 2, region.lo), np.where(empty, 0, region.hi)  # no negative end
        expected = run_episode([region], draw)
        got = run_episode([Region(lo.astype(dtype), hi.astype(dtype))], draw)
        assert np.isfinite(expected.removal_step).any()
        assert np.array_equal(got.removal_step, expected.removal_step)


def random_draw(rng, max_horizon):
    u, q = rng.choice([0.0, 1.0, rng.random(), rng.random()], size=2, replace=False)
    env = EnvParams(
        honest_mean=float(u),
        malicious_mean=float(q),
        gain_honest=float(rng.uniform(0.0, 2.0)),
        loss_malicious=1.0,
        departure_rate=float(rng.uniform(0.01, 1.0)),
        prior_malicious=float(rng.beta(2.0, 2.0)),
    )
    horizon = int(rng.integers(1, max_horizon + 1))
    return ExperimentDraw(horizon=horizon, env=env, seed=int(rng.integers(0, 2**63)), n_nodes=25)


class TestRegionsMatchPolicyObjects:
    """run_episode over compiled regions against the per-node reference:
    simulate_node over the same rule's removes predicate, one policy object
    per draw, on the same streams."""

    @pytest.mark.parametrize(
        "texts,max_horizon",
        [
            (("hiper:0.9", "hiper:0.5", "hiper:star", "myopic", "optimistic"), 400),
            (("lookahead:1", "lookahead:4:myopic_infinite", "lookahead:3:optimistic"), 40),
        ],
    )
    def test_per_node_outcomes_equal_simulate_node(self, texts, max_horizon):
        rng = np.random.default_rng(606)
        specs = [PolicySpec.parse(text) for text in texts]
        for _ in range(40):
            draw = random_draw(rng, max_horizon)
            result = run_episode([spec.build(draw) for spec in specs], draw)
            for row, spec in enumerate(specs):
                policy = spec.policy(draw.env)
                for node_id, is_malicious in enumerate(result.malicious.tolist()):
                    record = simulate_node(
                        policy, node_type(is_malicious), draw, node_rng(draw, node_id), node_id
                    )
                    got = (
                        result.removal_step[row, node_id],
                        result.departure_step[node_id],
                        result.loss[row, node_id],
                    )
                    assert got == (record.removal_step, record.departure_step, record.realized_loss), (
                        spec.label, draw, node_id
                    )

    def test_suite_draws_match(self):
        # The suites' own worlds, at the suites' own sizes, for a few runs;
        # lookahead_compare's horizons start at 1, so it also runs a draw at 1.
        for suite, texts in (
            ("policy_compare", ("hiper:star", "myopic", "optimistic")),
            ("delta_sweep", ("hiper:0.9", "hiper:0.99")),
            ("lookahead_compare", ("optimistic", "lookahead:4", "lookahead:8")),
        ):
            rng = np.random.default_rng(607)
            specs = [PolicySpec.parse(text) for text in texts]
            draws = [sample_experiment(rng, suite) for _ in range(4)]
            if suite == "lookahead_compare":
                env = replace(draws[0].env, departure_rate=1.0)  # 1 / horizon, as sampled
                draws.append(replace(draws[0], horizon=1, env=env))
            for draw in draws:
                result = run_episode([spec.build(draw) for spec in specs], draw)
                for row, spec in enumerate(specs):
                    policy = spec.policy(draw.env)
                    losses = [
                        simulate_node(policy, node_type(m), draw, node_rng(draw, i), i).realized_loss
                        for i, m in enumerate(result.malicious.tolist())
                    ]
                    assert result.mean_loss[row] == fmean(losses)


def hand_made_regions(rng, horizon):
    """Random regions to the horizon that no rule compiles to: per count an
    empty set, written as (0, -1) or as lo > hi + 1, or an interval of ones
    from 0, to the count, inside, or past both ends, at three rates of empty
    counts; the first region also removes at count 0. Some ends lie far
    outside what any count's ones dtype holds. The last region is empty up
    to a random count and holds every ones from there, so an honest node
    that departs before it can meet it only past its stay."""
    regions = []
    far = 2**40 - 1  # -1 modulo the range of any counts' dtype
    for p_empty in (0.5, 0.9, 0.98):
        lo, hi = [], []
        for t in range(horizon + 1):
            a, b = sorted(rng.integers(0, t + 1, size=2).tolist())
            if rng.random() < p_empty:
                ends = [(0, -1), (b + 2 + int(rng.integers(3)), b), (b + far, b), (-far, a - far)]
            else:
                ends = [(0, b), (a, t), (a, b), (-1 - a, t + 1 + b), (-far, b), (a, far)]
            ends = ends[rng.integers(len(ends))]
            lo.append(ends[0])
            hi.append(ends[1])
        regions.append(Region(np.array(lo), np.array(hi)))
    regions[0].lo[0], regions[0].hi[0] = 0, 0
    start = int(rng.integers(1, horizon + 1))
    counts = np.arange(horizon + 1)
    regions.append(Region(np.zeros(horizon + 1, dtype=np.int64), np.where(counts >= start, counts, -1)))
    return regions


class RegionPolicy:
    """A Region as a removes(count, ones) predicate, for simulate_node."""

    def __init__(self, region):
        self.lo, self.hi = region.lo.tolist(), region.hi.tolist()

    def removes(self, count, ones):
        return self.lo[count] <= ones <= self.hi[count]


class TestFirstPassage:
    """run_episode on hand-made regions against first_passage, the per-node
    count-by-count walk in oracles.py, on node_rng's own streams."""

    def test_hand_made_regions_equal_first_passage(self):
        rng = np.random.default_rng(610)
        seen = {"count 0": 0, "past stay only": 0, "empty as lo > hi + 1": 0}
        for max_horizon in [60] * 40 + [1000] * 3:
            draw = random_draw(rng, max_horizon)
            regions = hand_made_regions(rng, draw.horizon)
            result = run_episode(regions, draw)
            for row, region in enumerate(regions):
                lo, hi = region.lo.tolist(), region.hi.tolist()
                seen["empty as lo > hi + 1"] += sum(a > b + 1 for a, b in zip(lo, hi))
                for node_id, is_malicious in enumerate(result.malicious.tolist()):
                    removal, departure = first_passage(lo, hi, draw, is_malicious, node_rng(draw, node_id))
                    capped_departure = min(departure, draw.horizon)
                    loss = realized_loss(
                        node_type(is_malicious), capped_departure, min(removal, draw.horizon), draw.env
                    )
                    got = (
                        result.removal_step[row, node_id],
                        result.departure_step[node_id],
                        result.loss[row, node_id],
                    )
                    expected = (removal, departure if departure <= draw.horizon else NEVER, loss)
                    assert got == expected, (row, draw, node_id)
                    seen["count 0"] += removal == 0.0
                    stay = min(departure - 1, draw.horizon)
                    if row == len(regions) - 1 and removal == NEVER and stay < draw.horizon:
                        seen["past stay only"] += hi[draw.horizon] >= 0
        assert all(seen.values()), seen

    @pytest.mark.parametrize("horizon", [2**15 - 1, 2**15])
    def test_horizons_either_side_of_int16_counts_equal_simulate_node(self, horizon):
        # The hand-made region removes every node still present at the
        # horizon, where its interval of ones is horizon + 1 wide; all-ones
        # malicious nodes get there with ones = count = horizon.
        env = make_env(rate=0.1 / horizon, prior=0.5, u=0.5, q=1.0)
        draw = ExperimentDraw(horizon=horizon, env=env, seed=612, n_nodes=6)
        hi = np.full(horizon + 1, -1)
        hi[-1] = horizon
        hand_made = Region(np.zeros(horizon + 1, dtype=np.int64), hi)
        hiper = PolicySpec(kind="hiper", delta=0.9)
        regions, policies = [hiper.build(draw), hand_made], [hiper.policy(draw.env), RegionPolicy(hand_made)]
        result = run_episode(regions, draw)
        for row, policy in enumerate(policies):
            for node_id, is_malicious in enumerate(result.malicious.tolist()):
                rng = node_rng(draw, node_id)
                record = simulate_node(policy, node_type(is_malicious), draw, rng, node_id)
                got = (
                    result.removal_step[row, node_id],
                    result.departure_step[node_id],
                    result.loss[row, node_id],
                )
                assert got == (record.removal_step, record.departure_step, record.realized_loss), (row, node_id)
        removed_at_horizon = result.malicious[result.removal_step[1] == horizon]
        assert removed_at_horizon.any() and not removed_at_horizon.all(), result.removal_step


class TestNodeStreams:
    """node_streams redoes, in bulk from numpy's parent pool, the SeedSequence
    mixing of each node id and generate_state's hash-out of the pool, and
    lets numpy's PCG64 seed itself from the words; if a numpy release changed
    the mixing or the hash-out, these fail before any golden digest moves."""

    @pytest.mark.parametrize(
        "seed",
        # 1, 1, 2, 2, 3, 4, 5 and 6 seed words; 3 and 4 are the two sides of
        # the zero padding to 4 words, which sets how many hashes precede the id
        [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**127 + 1, 2**128 + 5, 2**160 + 7]
        + np.random.default_rng(608).integers(0, 2**63, size=4).tolist()
        + np.random.default_rng(609).integers(0, 2**32, size=2).tolist(),
    )
    def test_bulk_streams_are_node_rng(self, seed):
        draw = make_draw(seed=seed, n_nodes=3000)
        n_streams = 0
        for node_id, stream in enumerate(node_streams(draw)):
            reference = node_rng(draw, node_id)
            assert stream.bit_generator.state == reference.bit_generator.state, node_id
            got = (stream.geometric(0.01), stream.random(20).tolist())
            assert got == (reference.geometric(0.01), reference.random(20).tolist()), node_id
            n_streams += 1
        assert n_streams == draw.n_nodes

    def test_streams_held_together_are_node_rng(self):
        # every stream is its own Generator: drawing from one leaves the others
        draw = make_draw(seed=2**64 + 3, n_nodes=50)
        streams = list(node_streams(draw))
        for node_id, stream in enumerate(streams):
            reference = node_rng(draw, node_id)
            assert stream.bit_generator.state == reference.bit_generator.state, node_id
            assert stream.random(5).tolist() == reference.random(5).tolist(), node_id

    @pytest.mark.parametrize("n_words, dtype", [
        (3, np.uint64), (5, np.uint64), (8, np.uint64), (4, np.uint32), (8, np.uint32), (4, np.int64), (4, float),
    ])
    def test_node_seed_gives_only_four_uint64_words(self, n_words, dtype):
        draw = make_draw(seed=77, n_nodes=2)
        seed_seq = list(node_streams(draw))[1].bit_generator.seed_seq
        words = np.random.SeedSequence(77, spawn_key=(1, 1)).generate_state(4, np.uint64)
        assert seed_seq.generate_state(4, np.uint64).tolist() == words.tolist()
        assert seed_seq.generate_state(4, "uint64").tolist() == words.tolist()
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed_seq.generate_state(n_words, dtype)


class TestDrawValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            make_draw(horizon=0)
        with pytest.raises(ValueError):
            make_draw(n_nodes=0)
        with pytest.raises(ValueError):
            make_draw(seed=-1)

    @pytest.mark.parametrize(
        "field,value",
        [("horizon", True), ("horizon", 10.5), ("horizon", 10.0), ("horizon", "10"), ("seed", 3.0),
         ("seed", False), ("seed", np.True_), ("n_nodes", 2.0), ("n_nodes", True), ("n_nodes", None)],
    )
    def test_non_integer_fields_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_draw(**{field: value})

    def test_numpy_integers_become_ints(self):
        draw = make_draw(horizon=np.int64(12), seed=np.uint64(2**63 + 5), n_nodes=np.int32(3))
        assert (draw.horizon, draw.seed, draw.n_nodes) == (12, 2**63 + 5, 3)
        assert all(type(value) is int for value in (draw.horizon, draw.seed, draw.n_nodes))
        assert len(list(node_streams(draw))) == 3

    def test_node_ids_fit_one_seed_word(self):
        # node_streams mixes each node id as one 32-bit SeedSequence word;
        # constructing a draw allocates nothing per node
        assert make_draw(n_nodes=2**32).n_nodes == 2**32
        with pytest.raises(ValueError, match="n_nodes"):
            make_draw(n_nodes=2**32 + 1)
