"""The exact forward pass (oracles.exact_loss) against the simulator and
against brute-force enumeration.

(a) On random suite draws, every policy kind's region and hand-made regions
(one removes at count 0) are scored by run_episode over many nodes: each of
the honest and malicious parts of the Monte Carlo mean lies within 4
standard errors of the exact value. The standard error counts one more
node at the largest loss, H times the type's stake: a removal too rare for
any simulated node to meet would otherwise leave it at 0.
(b) On horizons up to 12, the pass equals an enumeration of every history
of bits and every honest departure step.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from nodeban.experiments import build_regions
from nodeban.model import NEVER, EnvParams, ExperimentSuite, NodeType, realized_loss
from nodeban.policies import PolicySpec, Region
from nodeban.simulator import ExperimentDraw, run_episode, sample_experiment
from oracles import exact_loss

SPECS = [PolicySpec.parse(text) for text in (
    "hiper:0.9", "hiper:star", "myopic", "optimistic", "lookahead:2", "lookahead:3:myopic_infinite",
    "lookahead:2:optimistic",
)]


def hand_made_regions(horizon: int, rng) -> list[Region]:
    """Regions no rule compiles to: one that removes every node at count 0
    (where every node has 0 ones) and nowhere else, and one whose ends are
    random in [-2, t + 2] at each count t, so that run_episode clips them."""
    at_zero = Region(np.zeros(horizon + 1, dtype=np.int64), np.full(horizon + 1, -1, dtype=np.int64))
    at_zero.hi[0] = 0
    counts = np.arange(horizon + 1)
    ends = rng.integers(-2, counts + 3, size=(2, horizon + 1))
    return [at_zero, Region(ends.min(axis=0), ends.max(axis=0))]


@pytest.mark.parametrize("seed, suite", enumerate(ExperimentSuite))
def test_simulator_mean_is_the_exact_loss(seed, suite):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        draw = sample_experiment(rng, suite)
        draw = replace(draw, n_nodes=min(40_000, 4_000_000 // (draw.horizon + 1)))  # 32 MB of doubles
        regions = build_regions(SPECS, draw) + hand_made_regions(draw.horizon, rng)
        episode = run_episode(regions, draw)
        stakes = draw.env.gain_honest, draw.env.loss_malicious
        masks = ~episode.malicious, episode.malicious
        for part, mask, stake, exact in zip(("honest", "malicious"), masks, stakes, exact_loss(regions, draw)):
            values = np.where(mask, episode.loss, 0.0)
            mean = values.mean(axis=1)
            se = np.sqrt(values.var(axis=1, ddof=1) / draw.n_nodes + (stake * draw.horizon / draw.n_nodes) ** 2)
            for i, label in enumerate([spec.label for spec in SPECS] + ["count_0", "random"]):
                assert abs(mean[i] - exact[i]) <= 4.0 * se[i], (
                    f"{suite.value} horizon {draw.horizon} {label} {part}: simulated {mean[i]} "
                    f"+- {se[i]}, exact {exact[i]}"
                )


def enumerated_loss(regions, draw) -> tuple[list[float], list[float]]:
    """exact_loss by brute force: every history of H bits, with its
    probability under each type, and every departure step d = 1..H + 1 of an
    honest node (H + 1 standing for every later one), each node scored as
    run_episode scores it: removed at the first count t, at most its stay
    min(d - 1, H), with lo[t] <= ones <= hi[t] on the region's ends as given,
    and charged realized_loss with both steps capped at H."""
    env, horizon, rate = draw.env, draw.horizon, draw.env.departure_rate
    ends = [(region.lo.tolist(), region.hi.tolist()) for region in regions]
    honest, malicious = [0.0] * len(regions), [0.0] * len(regions)
    for bits in itertools.product((0, 1), repeat=horizon):
        ones = [0, *itertools.accumulate(bits)]
        p_honest, p_malicious = (
            math.prod(mean if bit else 1.0 - mean for bit in bits) for mean in (env.honest_mean, env.malicious_mean)
        )
        for i, (lo, hi) in enumerate(ends):
            removal = next((t for t in range(horizon + 1) if lo[t] <= ones[t] <= hi[t]), NEVER)
            malicious[i] += p_malicious * realized_loss(NodeType.MALICIOUS, horizon, min(removal, horizon), env)
            for departure in range(1, horizon + 2):
                p_departure = (1.0 - rate) ** (departure - 1) * (rate if departure <= horizon else 1.0)
                removed = removal if removal <= min(departure - 1, horizon) else horizon
                loss = realized_loss(NodeType.HONEST, min(departure, horizon), removed, env)
                honest[i] += p_honest * p_departure * loss
    prior = env.prior_malicious
    return [(1.0 - prior) * value for value in honest], [prior * value for value in malicious]


def small_world(rng, horizon: int) -> ExperimentDraw:
    """A world with endpoint rates and a departure rate of 1 among its draws."""
    u, q = rng.choice([0.0, 1.0, float(rng.uniform()), float(rng.uniform())], size=2, replace=False).tolist()
    env = EnvParams(
        honest_mean=u,
        malicious_mean=q,
        gain_honest=float(rng.uniform(0.05, 2.0)),
        loss_malicious=float(rng.uniform(0.05, 2.0)),
        departure_rate=float(rng.choice([1.0, rng.uniform(0.01, 1.0)])),
        prior_malicious=float(rng.uniform()),
    )
    return ExperimentDraw(horizon=horizon, env=env, seed=0)


@pytest.mark.parametrize("horizon", [1, 2, 3, 5, 8, 12])
def test_forward_pass_is_the_enumeration(horizon):
    rng = np.random.default_rng(horizon)
    for _ in range(3 if horizon > 8 else 10):
        draw = small_world(rng, horizon)
        regions = build_regions(SPECS, draw) + hand_made_regions(horizon, rng)
        for exact, enumerated in zip(exact_loss(regions, draw), enumerated_loss(regions, draw)):
            assert exact.tolist() == pytest.approx(enumerated, rel=1e-9, abs=1e-12), (draw.env, horizon)
