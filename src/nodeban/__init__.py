"""Blacklisting decisions for shared-resource node populations.

Core pieces: a confidence-interval stopping rule with closed-form loss
ceilings, three Bayesian response policies over a Bernoulli observation
model, a deterministic population simulator, and an experiment harness that
sweeps network parameters and emits plot-ready CSV curves.
"""

from .belief import (
    BeliefState,
    ImpossibleEvidenceError,
    Posterior,
    initial_belief,
    posterior,
)
from .hiper import (
    HiperPolicy,
    OptimalDelta,
    bound_loss_honest,
    bound_loss_malicious,
    bound_loss_malicious_warmup,
    confidence_radius,
    min_samples,
    optimal_delta,
)
from .model import (
    NEVER,
    Decision,
    EnvParams,
    NodeType,
    realized_loss,
)
from .policies import (
    LeafRule,
    LookaheadPolicy,
    MyopicPolicy,
    OptimisticPolicy,
    lookahead_value,
)
from .simulator import (
    EpisodeResult,
    ExperimentDraw,
    ExperimentSuite,
    NodeRecord,
    Region,
    compile_region,
    run_episode,
    sample_experiment,
    simulate_node,
)
from .experiments import (
    PolicySpec,
    SuiteConfig,
    SweepRecord,
    emit_csv,
    moving_average,
    run_suite,
    smooth_records,
)

__version__ = "0.1.0"
