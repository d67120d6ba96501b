"""Environment model and gain/loss accounting shared by every policy.

A population of nodes shares a resource. Each node has a fixed hidden type:
honest nodes yield a per-step gain while present, malicious nodes cost a
per-step loss while present. The operator observes a bounded score per node
per step and may permanently remove (blacklist) a node at any time; honest
nodes also leave voluntarily at a geometric rate. Losses are measured
against an oracle that removes malicious nodes immediately and never
removes honest ones. The suite names and the number format of the CSV and
nodeban bounds live here too, so no command loads the simulator for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

#: Sentinel step count for "this never happened" (no removal / no departure).
#: Deliberately infinity rather than a large integer so that any accounting
#: path that forgets to cap at the episode horizon fails loudly instead of
#: producing a plausible number.
NEVER = math.inf


class NodeType(Enum):
    HONEST = "honest"
    MALICIOUS = "malicious"


class ExperimentSuite(str, Enum):
    """The three sweep protocols the experiment harness reproduces."""

    DELTA_SWEEP = "delta_sweep"
    POLICY_COMPARE = "policy_compare"
    LOOKAHEAD_COMPARE = "lookahead_compare"


def _fmt(value: float) -> str:
    """A float as the CSV and nodeban bounds print it: 9 significant digits."""
    return format(value, ".9g")


@dataclass(frozen=True)
class EnvParams:
    """Generative world parameters.

    honest_mean / malicious_mean are the expected observation values for the
    two node types. gain_honest is the operator's per-step reward for each
    honest node present; loss_malicious the per-step cost of each malicious
    node present. departure_rate is the per-step probability that an honest
    node leaves on its own, so expected residence is 1/departure_rate.
    prior_malicious is the probability a fresh node is malicious.
    """

    honest_mean: float
    malicious_mean: float
    gain_honest: float
    loss_malicious: float
    departure_rate: float
    prior_malicious: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.honest_mean <= 1.0:
            raise ValueError(f"honest_mean must lie in [0, 1], got {self.honest_mean}")
        if not 0.0 <= self.malicious_mean <= 1.0:
            raise ValueError(f"malicious_mean must lie in [0, 1], got {self.malicious_mean}")
        if not self.gain_honest >= 0.0:
            raise ValueError(f"gain_honest must be nonnegative, got {self.gain_honest}")
        if not self.loss_malicious >= 0.0:
            raise ValueError(f"loss_malicious must be nonnegative, got {self.loss_malicious}")
        if not 0.0 < self.departure_rate <= 1.0:
            raise ValueError(f"departure_rate must lie in (0, 1], got {self.departure_rate}")
        if not 0.0 <= self.prior_malicious <= 1.0:
            raise ValueError(f"prior_malicious must lie in [0, 1], got {self.prior_malicious}")

    @property
    def gap(self) -> float:
        """Separation between the two observation means (always derived)."""
        return abs(self.honest_mean - self.malicious_mean)


def realized_loss(node_type: NodeType, departure: float, removal: float, env: EnvParams) -> float:
    """Oracle gain minus realized gain for one node, removed at `removal` and
    departing at `departure`: a malicious node costs loss_malicious per step
    until removed, and an honest node's gain_honest per step is lost from
    its removal until it leaves. Both step counts must be nonnegative and
    capped at the episode horizon (never NEVER), since a malicious node that
    is never removed costs without bound."""
    for name, value in (("departure", departure), ("removal", removal)):
        if math.isnan(value) or value < 0:
            raise ValueError(f"{name} must be a nonnegative step count, got {value}")
        if math.isinf(value):
            raise ValueError(f"{name} must be capped at the episode horizon, got {value}")
    if node_type is NodeType.MALICIOUS:
        return removal * env.loss_malicious
    return departure * env.gain_honest - min(departure, removal) * env.gain_honest
