"""Node population simulator with deterministic, splittable randomness.

Every run draws a world (horizon, observation means, gains, malicious
prior), populates it with nodes of hidden type, streams per-node Bernoulli
observations into a policy instance, and accounts each node's realized loss
against the type-aware oracle. Randomness is derived hierarchically:

    experiment seed -> per-run stream -> draw seed -> per-node streams

so distinct nodes can be simulated in any order (or in parallel) without
changing a single byte of output, and every policy evaluated on the same
draw sees identical node types, departures and observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from statistics import fmean
from typing import Protocol

import numpy as np

from .model import NEVER, Decision, EnvParams, NodeType, realized_loss

#: spawn_key tags under a draw's seed (types stream vs per-node streams).
_TYPES_STREAM = 0
_NODE_STREAM = 1

_DEFAULT_NODES = 100


class ExperimentSuite(str, Enum):
    """The three sweep protocols the experiment harness reproduces."""

    DELTA_SWEEP = "delta_sweep"
    POLICY_COMPARE = "policy_compare"
    LOOKAHEAD_COMPARE = "lookahead_compare"


class NodePolicy(Protocol):
    """What the simulator needs from a policy: a verdict before any
    observation, then one verdict per observation."""

    def initial_decision(self) -> Decision: ...

    def observe(self, x: float) -> Decision: ...


@dataclass(frozen=True)
class ExperimentDraw:
    """One sampled world plus the seed all of its node streams derive from."""

    horizon: int
    env: EnvParams
    seed: int
    n_nodes: int = _DEFAULT_NODES

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be at least 1, got {self.n_nodes}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class NodeRecord:
    node_id: int
    node_type: NodeType
    removal_step: float  # NEVER if the policy never removed the node
    departure_step: float  # NEVER if the node was still present at episode end
    realized_loss: float


@dataclass(frozen=True)
class EpisodeResult:
    records: tuple[NodeRecord, ...]

    @property
    def mean_loss(self) -> float:
        return fmean(r.realized_loss for r in self.records)

    @property
    def malicious_fraction(self) -> float:
        hits = sum(1 for r in self.records if r.node_type is NodeType.MALICIOUS)
        return hits / len(self.records)


def episode_rng(draw: ExperimentDraw) -> np.random.Generator:
    """Canonical stream for node-type sampling under a draw."""
    return np.random.default_rng(np.random.SeedSequence(draw.seed, spawn_key=(_TYPES_STREAM,)))


def node_rng(draw: ExperimentDraw, node_id: int) -> np.random.Generator:
    """Independent stream for one node's departure and observations."""
    return np.random.default_rng(
        np.random.SeedSequence(draw.seed, spawn_key=(_NODE_STREAM, node_id))
    )


def sample_experiment(rng: np.random.Generator, suite: ExperimentSuite | str) -> ExperimentDraw:
    """Draw one world for the given sweep protocol.

    Horizons are uniform integers on [10, 1000] ([1, 100] for the lookahead
    comparison), observation means uniform on [0, 1], honest gain uniform on
    [0, 1] for the delta sweep and [0, 2] for the policy comparisons, the
    malicious per-step loss is fixed at 1, and the malicious prior is
    Beta(2, 2). The departure rate is tied to the horizon as 1/horizon so
    that expected honest residence matches the episode length.
    """
    suite = ExperimentSuite(suite)
    if suite is ExperimentSuite.LOOKAHEAD_COMPARE:
        horizon = int(rng.integers(1, 101))
    else:
        horizon = int(rng.integers(10, 1001))
    honest_mean = float(rng.uniform())
    malicious_mean = float(rng.uniform())
    while malicious_mean == honest_mean:  # keep the gap positive (measure zero)
        malicious_mean = float(rng.uniform())
    if suite is ExperimentSuite.DELTA_SWEEP:
        gain_honest = float(rng.uniform())
    else:
        gain_honest = float(rng.uniform(0.0, 2.0))
    prior = float(rng.beta(2.0, 2.0))
    seed = int(rng.integers(0, 2**63))
    env = EnvParams(
        honest_mean=honest_mean,
        malicious_mean=malicious_mean,
        gain_honest=gain_honest,
        loss_malicious=1.0,
        departure_rate=1.0 / horizon,
        prior_malicious=prior,
    )
    return ExperimentDraw(horizon=horizon, env=env, seed=seed)


def simulate_node(
    policy: NodePolicy,
    node_type: NodeType,
    draw: ExperimentDraw,
    rng: np.random.Generator,
    node_id: int = 0,
) -> NodeRecord:
    """Run one node against one fresh policy instance.

    Per step: an honest node departs first with probability departure_rate
    (its departure step is drawn geometrically up front, which is the same
    process); if still present, one Bernoulli observation is drawn by type
    and fed to the policy. A remove verdict is absorbing: the node is gone
    and no further observations are processed. Loss accounting caps both the
    departure and removal steps at the episode horizon.
    """
    env = draw.env
    if node_type is NodeType.MALICIOUS:
        departure = NEVER
        n_observations = draw.horizon
        mean = env.malicious_mean
    else:
        departure = float(rng.geometric(env.departure_rate))
        n_observations = min(int(departure) - 1, draw.horizon)
        mean = env.honest_mean

    removal = NEVER
    if policy.initial_decision() is Decision.REMOVE:
        removal = 0.0
    elif n_observations > 0:
        observations = (rng.random(n_observations) < mean).astype(np.float64).tolist()
        observe = policy.observe
        t = 0
        for x in observations:
            t += 1
            if observe(x) is Decision.REMOVE:
                removal = float(t)
                break

    loss = realized_loss(
        node_type,
        min(departure, draw.horizon),
        min(removal, draw.horizon),
        env,
    )
    return NodeRecord(
        node_id=node_id,
        node_type=node_type,
        removal_step=removal,
        departure_step=departure if departure <= draw.horizon else NEVER,
        realized_loss=loss,
    )


def run_episode(policy_factory, draw: ExperimentDraw, rng: np.random.Generator) -> EpisodeResult:
    """Simulate a full population: sample each node's type with the draw's
    malicious prior (from `rng`), then run one independent policy instance
    per node on that node's own stream.

    policy_factory(draw, node_type) must return a fresh policy; learning
    policies ignore the type argument, a type-aware baseline (the tests'
    oracle) uses it.
    """
    malicious_mask = rng.random(draw.n_nodes) < draw.env.prior_malicious
    records = []
    for node_id, is_malicious in enumerate(malicious_mask.tolist()):
        node_type = NodeType.MALICIOUS if is_malicious else NodeType.HONEST
        policy = policy_factory(draw, node_type)
        records.append(simulate_node(policy, node_type, draw, node_rng(draw, node_id), node_id))
    return EpisodeResult(tuple(records))

