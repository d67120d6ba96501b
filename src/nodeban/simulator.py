"""Node population simulator with deterministic, splittable randomness.

Every run draws a world (horizon, observation means, gains, malicious
prior) and populates it with nodes of hidden type. Randomness is derived
hierarchically:

    experiment seed -> per-run stream -> draw seed -> per-node streams

so every policy evaluated on a draw sees identical nodes. The simulator
takes policies as input, as removal regions on the (count, ones) lattice
(policies.Region), which the rule layer compiles once per draw
(policies.PolicySpec.build); it defines no rule of its own.
run_episode draws each node once and scores every region by first passage.
It seeds the draw's node streams in bulk (node_streams, the same bits as one
node_rng per node: from numpy's pool of their parent SeedSequence, the id
mixing and hash-out run on stacked rows of all ids, then PCG64's own seeding)
and draws every node's observations into one matrix, turned into running ones
counts at once (int16 below horizon 2**15); each region is then one
subtraction and one unsigned comparison against the counts.
simulate_node, the scalar per-node reference, runs node_rng's draws through
the policy's removes(count, ones) predicate one count at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from statistics import fmean
from typing import Iterator, NamedTuple

import numpy as np

from .model import NEVER, EnvParams, ExperimentSuite, NodeType, realized_loss
from .policies import Region

#: spawn_key tags under a draw's seed (types stream vs per-node streams).
_TYPES_STREAM = 0
_NODE_STREAM = 1

_DEFAULT_NODES = 100

#: numpy's SeedSequence hash constants (node_streams).
_MASK32 = 2**32 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class ExperimentDraw:
    """One sampled world plus the seed all of its node streams derive from."""

    horizon: int
    env: EnvParams
    seed: int
    n_nodes: int = _DEFAULT_NODES

    def __post_init__(self) -> None:
        for name in ("horizon", "seed", "n_nodes"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # node_streams reads seed.bit_length()
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if not 1 <= self.n_nodes <= 2**32:  # node ids are single SeedSequence words
            raise ValueError(f"n_nodes must lie in [1, 2**32], got {self.n_nodes}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class NodeRecord:
    node_id: int
    node_type: NodeType
    removal_step: float  # NEVER if the policy never removed the node
    departure_step: float  # NEVER if the node was still present at episode end
    realized_loss: float


class EpisodeResult(NamedTuple):
    """One draw's nodes scored against a list of regions: per-node arrays in
    node order, with one row per region in removal_step and loss."""

    malicious: np.ndarray  # bool
    departure_step: np.ndarray  # NEVER if the node was still present at episode end
    removal_step: np.ndarray  # NEVER if the policy never removed the node
    loss: np.ndarray

    @property
    def mean_loss(self) -> list[float]:
        """Per region, the mean loss over nodes."""
        return [fmean(row) for row in self.loss.tolist()]

    @property
    def malicious_fraction(self) -> float:
        return int(self.malicious.sum()) / self.malicious.size


def episode_rng(draw: ExperimentDraw) -> np.random.Generator:
    """Canonical stream for node-type sampling under a draw."""
    return np.random.default_rng(np.random.SeedSequence(draw.seed, spawn_key=(_TYPES_STREAM,)))


def node_rng(draw: ExperimentDraw, node_id: int) -> np.random.Generator:
    """Independent stream for one node's departure and observations."""
    return np.random.default_rng(
        np.random.SeedSequence(draw.seed, spawn_key=(_NODE_STREAM, node_id))
    )


def node_streams(draw: ExperimentDraw) -> Iterator[np.random.Generator]:
    """node_rng(draw, node_id) for node_id = 0..n_nodes - 1, bit for bit: a new
    Generator per node, whose PCG64 seeds itself from the node's state words.

    Every node_rng SeedSequence is a child of the parent SeedSequence(draw.seed,
    spawn_key=(_NODE_STREAM,)), whose entropy it extends by one word, the node
    id (n_nodes <= 2**32), so numpy's mixing (random/bit_generator.pyx) gives
    it the parent's pool with the id mixed into each of the 4 pool words.
    The parent's entropy is the seed's 32-bit words zero-padded to 4, then
    _NODE_STREAM, each word hashed 4 times, which sets the constant the id's
    hashes start from. The id's mixing and generate_state(4, uint64)'s hash
    of the pool out to 8 32-bit words run for all nodes at once, as stacked
    (4, n_nodes) and (8, n_nodes) uint64 arrays of 32-bit values, one hash
    constant per row.
    """
    pool = np.random.SeedSequence(draw.seed, spawn_key=(_NODE_STREAM,)).pool.astype(np.uint64)[:, None]
    entropy_words = max(-(-draw.seed.bit_length() // 32), 4) + 1
    hash_const = _INIT_A * pow(_MULT_A, 4 * entropy_words, 2**32) & _MASK32
    # the node id, hashed once per pool word: row i of the stacked ids takes
    # the i-th hash's constants, as numpy's 4 hashmix calls in turn would
    node_id = np.arange(draw.n_nodes, dtype=np.uint64)
    hashed_id = _hash_rows(node_id, *_hash_consts(hash_const, _MULT_A, 4))
    pool = (_MIX_MULT_L * pool - _MIX_MULT_R * hashed_id) & _MASK32  # SeedSequence's mix
    pool ^= pool >> 16
    state = _hash_rows(pool, *_STATE_CONSTS).reshape(8, -1)  # generate_state: pool words 0-3, twice
    words = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)  # PCG64 reads each row in place
    node_seed = _node_seed_type()
    for node_words in words:
        yield np.random.Generator(np.random.PCG64(node_seed(node_words)))


@cache
def _node_seed_type() -> type:
    """The seed type node_streams hands PCG64, built on its first call so
    that importing this module loads no numpy.random. It must subclass
    ISeedSequence: PCG64 reads any other object as SeedSequence entropy,
    and raises TypeError for this one."""
    from numpy.random.bit_generator import ISeedSequence

    @dataclass
    class _NodeSeed(ISeedSequence):
        """One node's generate_state(4, uint64) words, PCG64's only request."""

        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a node seed holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
            return self.words

    return _NodeSeed


def _hash_consts(hash_const: int, mult: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of `rows` successive SeedSequence hashes from hash_const,
    as (rows, 1) uint64 columns: each hash XORs one in, then multiplies by
    the next."""
    consts = [hash_const]
    for _ in range(rows):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint64)[:, None]
    return consts[:-1], consts[1:]


def _hash_rows(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint64 values below 2**32, broadcast against
    the constant columns: row i takes the i-th hash's constants."""
    values = (values ^ xor) * mult & _MASK32
    return values ^ values >> 16


#: generate_state's 8 hashes, as (2, 4, 1) columns against the 4 pool rows.
_STATE_CONSTS = tuple(column.reshape(2, 4, 1) for column in _hash_consts(_INIT_B, _MULT_B, 8))


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
    policy,
    node_type: NodeType,
    draw: ExperimentDraw,
    rng: np.random.Generator,
    node_id: int = 0,
) -> NodeRecord:
    """Run one node against policy.removes(count, ones), the predicate whose
    elementwise twin compile_region evaluates; one policy object serves every
    node of a draw.

    Per step: an honest node departs first with probability departure_rate
    (its departure step is drawn geometrically up front, which is the same
    process); if still present, one Bernoulli observation is drawn by type
    and the rule is asked at the new count. Removal is absorbing, and no
    rule removes before the first observation. Loss accounting caps both the
    departure and removal steps at the episode horizon.
    """
    env, horizon = draw.env, draw.horizon
    if node_type is NodeType.MALICIOUS:
        departure, bits = NEVER, rng.random(horizon) < env.malicious_mean
    else:
        departure = float(rng.geometric(env.departure_rate))
        bits = rng.random(min(int(departure) - 1, horizon)) < env.honest_mean
    removal = NEVER
    removes = policy.removes
    for t, ones in enumerate(np.cumsum(bits).tolist(), 1):
        if removes(t, ones):
            removal = float(t)
            break
    loss = realized_loss(node_type, min(departure, horizon), min(removal, horizon), env)
    return NodeRecord(node_id, node_type, removal, departure if departure <= horizon else NEVER, loss)


def run_episode(regions: list[Region], draw: ExperimentDraw) -> EpisodeResult:
    """Sample each node's type from episode_rng(draw) with the malicious
    prior, draw its departure and bits from its own stream as simulate_node
    does, and score every region by first passage. Removal steps and losses
    equal simulate_node's with the policy each region was compiled from.

    The streams come from node_streams. Each node's doubles go into its row
    of one matrix pre-filled with 1.0, from column 1 to its stay (the
    horizon, or an honest node's departure step - 1 if less); one comparison
    against each row's type mean and one cumsum make every row's running
    ones count, int16 below horizon 2**15 and int32 from there, which stays
    level past the stay. A region is scored in one subtraction and one
    unsigned comparison, (ones - lo) < hi + 1 - lo (0 where lo > hi + 1),
    where a count below lo wraps above every width; argmax finds each row's
    first hit, which counts if it is a hit and at or before the node's stay.
    Each region's lo and hi must be integer arrays of length horizon + 1."""
    env = draw.env
    horizon = draw.horizon
    signed, unsigned = (np.int16, np.uint16) if horizon < 2**15 else (np.int32, np.uint32)
    bounds = [_region_bounds(index, region, horizon, signed, unsigned) for index, region in enumerate(regions)]
    malicious = episode_rng(draw).random(draw.n_nodes) < env.prior_malicious
    rate = env.departure_rate
    departure = [NEVER] * draw.n_nodes
    stay = [horizon] * draw.n_nodes
    doubles = np.ones((draw.n_nodes, horizon + 1))  # column 0 is count 0: never a one
    for node_id, (is_malicious, gen) in enumerate(zip(malicious.tolist(), node_streams(draw))):
        if is_malicious:
            gen.random(out=doubles[node_id, 1:])
            continue
        steps = gen.geometric(rate)  # simulate_node's order: the departure, then the bits
        departure[node_id] = steps
        stay[node_id] = node_stay = min(steps - 1, horizon)
        gen.random(out=doubles[node_id, 1 : node_stay + 1])
    departure = np.array(departure, dtype=float)
    stay = np.array(stay)
    mean = np.where(malicious, env.malicious_mean, env.honest_mean)
    ones = np.cumsum(doubles < mean[:, None], axis=1, dtype=signed)
    nodes = np.arange(draw.n_nodes)
    removal = np.empty((len(regions), draw.n_nodes))
    for row, (lo, width) in enumerate(bounds):
        hit = (ones - lo).view(unsigned) < width
        first = hit.argmax(axis=1)
        removal[row] = np.where(hit[nodes, first] & (first <= stay), first, NEVER)
    capped_removal = np.minimum(removal, horizon)
    capped_departure = np.minimum(departure, horizon)
    gain = env.gain_honest
    # realized_loss, elementwise: the same operations in the same order
    loss = np.where(
        malicious,
        capped_removal * env.loss_malicious,
        capped_departure * gain - np.minimum(capped_departure, capped_removal) * gain,
    )
    return EpisodeResult(malicious, np.where(departure <= horizon, departure, NEVER), removal, loss)


def _region_bounds(index: int, region: Region, horizon: int, signed, unsigned):
    """Region `index`'s lo as `signed`, the ones counts' dtype, and its
    interval widths, max(hi + 1 - lo, 0), as `unsigned`, of the same size,
    both clipped to the ones a count up to the horizon can hold."""
    lo, hi = np.asarray(region.lo), np.asarray(region.hi)
    for name, end in (("lo", lo), ("hi", hi)):
        if end.shape != (horizon + 1,) or end.dtype.kind not in "iu":
            raise ValueError(
                f"region {index}: {name} must be an integer array of length horizon + 1 = {horizon + 1}, "
                f"got shape {end.shape} and dtype {end.dtype}"
            )
    lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
    lo = np.maximum(lo, 0)
    width = np.maximum(np.minimum(hi, horizon) - lo + 1, 0)
    lo = np.minimum(lo, horizon)  # changes lo only where the width is 0
    return lo.astype(signed), width.astype(unsigned)
