"""Bayesian posterior over node type under a two-point Bernoulli signal model.

Honest and malicious nodes emit 1-bits at known rates, so the observation
history enters the posterior only through (ones seen, samples seen). All
likelihood work happens in log space: raw products like q^k (1-q)^(t-k)
underflow near a thousand samples, well inside the horizons the simulator
uses. Endpoint rates (0 or 1) are handled by exact zero-likelihood
short-circuits before any logarithm is used. A Posterior evaluator takes a
(model, prior) pair's logarithms once; posterior is one evaluation, and the
evaluator's elementwise method is many at once from the same cases, bit for
bit: the lookahead's lattice, region compilers near each boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import EnvParams


class ImpossibleEvidenceError(ValueError):
    """The observed history has probability zero under both node types."""


@dataclass(frozen=True)
class BernoulliModel:
    """Known 1-bit emission rates for the two node types."""

    honest_mean: float
    malicious_mean: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.honest_mean <= 1.0:
            raise ValueError(f"honest_mean must lie in [0, 1], got {self.honest_mean}")
        if not 0.0 <= self.malicious_mean <= 1.0:
            raise ValueError(f"malicious_mean must lie in [0, 1], got {self.malicious_mean}")


class BeliefState(NamedTuple):
    """Posterior over {honest, malicious} with its sufficient statistic."""

    ones: int
    count: int
    prior_malicious: float
    posterior_malicious: float

    @property
    def posterior_honest(self) -> float:
        return 1.0 - self.posterior_malicious


def initial_belief(prior_malicious: float) -> BeliefState:
    """Belief before any observation: the posterior is the prior."""
    if not 0.0 <= prior_malicious <= 1.0:
        raise ValueError(f"prior_malicious must lie in [0, 1], got {prior_malicious}")
    return BeliefState(0, 0, prior_malicious, prior_malicious)


class Posterior:
    """P(malicious | history with `ones` one-bits in `count` samples) under
    one (model, prior) pair, as evaluator(ones, count); the pair's logarithms
    are taken once, when the evaluator is built.

    Computed as a logistic transform of prior log odds plus the
    log-likelihood difference between the two types. Raises
    ImpossibleEvidenceError when the prior-weighted likelihood of the data
    is exactly zero under both types (for example an endpoint rate
    contradicted by the data on one side and a degenerate prior on the
    other).
    """

    def __init__(self, model: BernoulliModel, prior_malicious: float) -> None:
        if not 0.0 <= prior_malicious <= 1.0:
            raise ValueError(f"prior_malicious must lie in [0, 1], got {prior_malicious}")
        self.model, self.prior = model, prior_malicious
        u, q, prior = model.honest_mean, model.malicious_mean, prior_malicious
        # an endpoint's log is 0.0: it multiplies a count of 0 or scores a dead history
        self.log_u = math.log(u) if u > 0.0 else 0.0
        self.log_q = math.log(q) if q > 0.0 else 0.0
        self.log_not_u = math.log1p(-u) if u < 1.0 else 0.0
        self.log_not_q = math.log1p(-q) if q < 1.0 else 0.0
        self.prior_log_odds = math.log(prior) - math.log1p(-prior) if 0.0 < prior < 1.0 else 0.0

    def cases(self, ones, count):
        """At (ones, count), numbers or broadcast integer arrays: whether each
        type, malicious then honest, is dead (has zero prior-weighted
        likelihood), then the two types' log-likelihoods in the same order."""
        zeros = count - ones
        u, q, prior = self.model.honest_mean, self.model.malicious_mean, self.prior
        malicious_dead = (q == 0.0) & (ones > 0) | (q == 1.0) & (zeros > 0) | (prior == 0.0)
        honest_dead = (u == 0.0) & (ones > 0) | (u == 1.0) & (zeros > 0) | (prior == 1.0)
        log_like_malicious = ones * self.log_q + zeros * self.log_not_q
        log_like_honest = ones * self.log_u + zeros * self.log_not_u
        return malicious_dead, honest_dead, log_like_malicious, log_like_honest

    def __call__(self, ones: int, count: int) -> float:
        if ones < 0 or count < 0 or ones > count:
            raise ValueError(f"need 0 <= ones <= count, got ones={ones} count={count}")
        malicious_dead, honest_dead, log_like_malicious, log_like_honest = self.cases(ones, count)
        if malicious_dead and honest_dead:
            raise ImpossibleEvidenceError(
                f"history (ones={ones}, count={count}) has zero prior-weighted likelihood under both "
                f"types (u={self.model.honest_mean}, q={self.model.malicious_mean}, prior={self.prior})"
            )
        if malicious_dead:
            return 0.0
        if honest_dead:
            return 1.0
        if log_like_malicious == log_like_honest:
            return self.prior
        log_odds = self.prior_log_odds + log_like_malicious - log_like_honest
        weight = math.exp(-abs(log_odds))  # exp(-|log odds|), which never overflows
        return (1.0 if log_odds >= 0.0 else weight) / (1.0 + weight)

    def elementwise(self, ones: np.ndarray, count: np.ndarray) -> np.ndarray:
        """The evaluator at every pair of broadcast integer-valued arrays, NaN
        where it raises ImpossibleEvidenceError or ones > count: its cases in
        the same order, each exp from math.exp (numpy's can differ in an ulp),
        taken only where ones <= count."""
        malicious_dead, honest_dead, log_like_malicious, log_like_honest = self.cases(ones, count)
        log_odds = self.prior_log_odds + log_like_malicious - log_like_honest
        live = ones <= count
        weight = np.full(log_odds.shape, np.nan)
        weight[live] = np.fromiter(map(math.exp, (-np.abs(log_odds[live])).tolist()), float)
        table = np.where(log_odds >= 0.0, 1.0, weight) / (1.0 + weight)
        table = np.where(log_like_malicious == log_like_honest, self.prior, table)
        table = np.where(honest_dead, 1.0, table)  # each case overrides the ones above it
        table = np.where(malicious_dead, 0.0, table)
        return np.where(malicious_dead & honest_dead | ~live, np.nan, table)


def posterior(ones: int, count: int, model: BernoulliModel, prior_malicious: float) -> float:
    """Posterior(model, prior_malicious)(ones, count)."""
    return Posterior(model, prior_malicious)(ones, count)


def update(belief: BeliefState, x: float, model: BernoulliModel) -> BeliefState:
    """Fold one binary observation into the belief.

    The cached posterior of the result is recomputed from the updated
    sufficient statistic, so sequential updates match the batch posterior
    exactly and any permutation of the same observations yields the same
    belief.
    """
    if x == 0 or x == 1:
        ones = belief.ones + int(x)
    else:
        raise ValueError(f"belief updates need a binary observation, got {x}")
    count = belief.count + 1
    post = posterior(ones, count, model, belief.prior_malicious)
    return BeliefState(ones, count, belief.prior_malicious, post)


def keep_gain(pm: float, env: EnvParams) -> float:
    """One-step expected gain of keeping a node that is malicious with
    probability pm (removing always yields 0)."""
    return (1.0 - pm) * env.gain_honest - pm * env.loss_malicious
