"""Blacklisting decisions for shared-resource node populations.

Core pieces: a confidence-interval stopping rule with closed-form loss
ceilings, three Bayesian response policies over a Bernoulli observation
model, a deterministic population simulator, and an experiment harness that
sweeps network parameters and emits plot-ready CSV curves. Import each name
from its module (nodeban.hiper, nodeban.policies, ...): the package root
defines only __version__.
"""

__version__ = "0.1.0"
