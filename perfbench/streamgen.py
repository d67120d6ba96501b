"""Seeded synthetic event stream for `nodeban stream` under node churn.

The stream follows the paper's world model: every node has a hidden type
(malicious with probability PRIOR), emits one binary behaviour score per
event (a 1-bit with probability HONEST_MEAN or MALICIOUS_MEAN), and leaves
at a geometric rate. A fixed number of nodes is live at any time; a node
that leaves is replaced at once by a fresh node id, so the number of
distinct ids grows with the stream while the live set stays LIVE_NODES.
Malicious nodes keep sending after they are removed until they leave (an
attacker does not see the verdict), which gives the stream dropped events.

Each event comes from a uniformly chosen live node and carries the global
tick as `t`, so `t` is strictly increasing per node as the CLI requires.
Observations are binary, so every policy reads the same file.
"""

from __future__ import annotations

import random

HONEST_MEAN = 0.7
MALICIOUS_MEAN = 0.3
PRIOR = 0.3
GAIN = 1.0
LOSS = 1.0
HONEST_DEPARTURE = 0.25
MALICIOUS_DEPARTURE = 0.125
HIPER_DELTA = 0.8
LIVE_NODES = 64

#: Flags that describe this world to `nodeban stream`, shared by every policy.
WORLD_FLAGS = (
    "--u", str(HONEST_MEAN),
    "--q", str(MALICIOUS_MEAN),
    "--gU", str(GAIN),
    "--lQ", str(LOSS),
    "--lambda", str(HONEST_DEPARTURE),
    "--prior", str(PRIOR),
)


def write_events(path, seed: int, n_events: int) -> int:
    """Write `n_events` JSONL events drawn from `seed` to `path` and return
    the number of node ids created, the live ones at the end included."""
    rng = random.Random(seed)
    next_id = 0

    def fresh_node() -> tuple[str, bool]:
        nonlocal next_id
        next_id += 1
        return f"n{next_id:07d}", rng.random() < PRIOR

    live = [fresh_node() for _ in range(LIVE_NODES)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for tick in range(1, n_events + 1):
            slot = rng.randrange(LIVE_NODES)
            node_id, malicious = live[slot]
            mean = MALICIOUS_MEAN if malicious else HONEST_MEAN
            x = 1 if rng.random() < mean else 0
            handle.write(f'{{"node_id": "{node_id}", "t": {tick}, "x": {x}}}\n')
            departure = MALICIOUS_DEPARTURE if malicious else HONEST_DEPARTURE
            if rng.random() < departure:
                live[slot] = fresh_node()
    return next_id
