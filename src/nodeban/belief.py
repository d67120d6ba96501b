"""Bayesian posterior over node type under a two-point Bernoulli signal model.

Honest and malicious nodes emit 1-bits at known rates, so the observation
history enters the posterior only through (ones seen, samples seen). All
likelihood work happens in log space: raw products like q^k (1-q)^(t-k)
underflow near a thousand samples, well inside the horizons the simulator
uses. Endpoint rates (0 or 1) are handled by exact zero-likelihood
short-circuits before any logarithm is used. A Posterior evaluator takes the
logarithms of a world's two rates and prior (an EnvParams) once; posterior
is one evaluation, and the evaluator's elementwise method is many at once
from the same cases, bit for bit: the lookahead's lattice, and a depth-0
rule's removes_elementwise at the few points within its guard band of the
cut (outside it, that rule decides off the log odds of cases with no exp; the
band rests on the C library's exp being within an ulp).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import EnvParams


class ImpossibleEvidenceError(ValueError):
    """The observed history has probability zero under both node types."""


class BeliefState(NamedTuple):
    """Posterior over {honest, malicious} with its sufficient statistic."""

    ones: int
    count: int
    posterior_malicious: float

    @property
    def posterior_honest(self) -> float:
        return 1.0 - self.posterior_malicious


def initial_belief(env: EnvParams) -> BeliefState:
    """Belief before any observation: the posterior is env's prior."""
    return BeliefState(0, 0, env.prior_malicious)


class Posterior:
    """P(malicious | history with `ones` one-bits in `count` samples) in one
    world, as evaluator(ones, count): the env's honest and malicious rates
    and prior, whose logarithms are taken once, when the evaluator is built.

    Computed as a logistic transform of prior log odds plus the
    log-likelihood difference between the two types. Raises
    ImpossibleEvidenceError when the prior-weighted likelihood of the data
    is exactly zero under both types (for example an endpoint rate
    contradicted by the data on one side and a degenerate prior on the
    other).
    """

    def __init__(self, env: EnvParams) -> None:
        self.env = env
        u, q, prior = env.honest_mean, env.malicious_mean, env.prior_malicious
        # an endpoint's log is 0.0: it multiplies a count of 0 or scores a dead history
        self.log_u = math.log(u) if u > 0.0 else 0.0
        self.log_q = math.log(q) if q > 0.0 else 0.0
        self.log_not_u = math.log1p(-u) if u < 1.0 else 0.0
        self.log_not_q = math.log1p(-q) if q < 1.0 else 0.0
        self.prior_log_odds = math.log(prior) - math.log1p(-prior) if 0.0 < prior < 1.0 else 0.0

    def cases(self, ones, count):
        """At (ones, count), numbers or broadcast integer arrays: whether each
        type, malicious then honest, is dead (has zero prior-weighted
        likelihood; a bool where that holds at every point or at none), whether
        their log-likelihoods tie (the posterior is then the prior), and the log
        odds: prior log odds plus malicious minus honest log-likelihood, in order."""
        zeros = count - ones
        env = self.env
        u, q, prior = env.honest_mean, env.malicious_mean, env.prior_malicious
        malicious_dead = prior == 0.0 or _endpoint_dead(q, ones, zeros)
        honest_dead = prior == 1.0 or _endpoint_dead(u, ones, zeros)
        log_like_malicious = ones * self.log_q + zeros * self.log_not_q
        log_like_honest = ones * self.log_u + zeros * self.log_not_u
        tie = log_like_malicious == log_like_honest
        return malicious_dead, honest_dead, tie, self.prior_log_odds + log_like_malicious - log_like_honest

    def __call__(self, ones: int, count: int) -> float:
        if ones < 0 or count < 0 or ones > count:
            raise ValueError(f"need 0 <= ones <= count, got ones={ones} count={count}")
        malicious_dead, honest_dead, tie, log_odds = self.cases(ones, count)
        if malicious_dead and honest_dead:
            env = self.env
            raise ImpossibleEvidenceError(
                f"history (ones={ones}, count={count}) has zero prior-weighted likelihood under both "
                f"types (u={env.honest_mean}, q={env.malicious_mean}, prior={env.prior_malicious})"
            )
        if malicious_dead:
            return 0.0
        if honest_dead:
            return 1.0
        if tie:
            return self.env.prior_malicious
        weight = math.exp(-abs(log_odds))  # exp(-|log odds|), which never overflows
        return (1.0 if log_odds >= 0.0 else weight) / (1.0 + weight)

    def elementwise(self, ones: np.ndarray, count: np.ndarray) -> np.ndarray:
        """The evaluator at every pair of broadcast integer-valued arrays, NaN
        where it raises ImpossibleEvidenceError or ones > count: its cases in
        the same order, each exp from math.exp (numpy's can differ in an ulp),
        taken only where ones <= count. A type that cases finds dead at no
        point (the bool False) costs no pass."""
        malicious_dead, honest_dead, tie, log_odds = self.cases(ones, count)
        live = ones <= count
        weight = np.full(log_odds.shape, np.nan)
        weight[live] = np.fromiter(map(math.exp, (-np.abs(log_odds[live])).tolist()), float)
        table = np.where(log_odds >= 0.0, 1.0, weight) / (1.0 + weight)
        table = np.where(tie, self.env.prior_malicious, table)
        if honest_dead is not False:  # each case overrides the ones above it
            table = np.where(honest_dead, 1.0, table)
        if malicious_dead is not False:
            table = np.where(malicious_dead, 0.0, table)
        unknown = ~live
        if malicious_dead is not False and honest_dead is not False:
            unknown |= malicious_dead & honest_dead
        return np.where(unknown, np.nan, table)


def _endpoint_dead(rate: float, ones, zeros):
    """Whether `ones` one-bits and `zeros` zero-bits have probability 0 at
    rate: at no point unless the rate is 0 or 1."""
    return ones > 0 if rate == 0.0 else zeros > 0 if rate == 1.0 else False


def posterior(ones: int, count: int, env: EnvParams) -> float:
    """Posterior(env)(ones, count)."""
    return Posterior(env)(ones, count)


def update(belief: BeliefState, x: float, env: EnvParams) -> BeliefState:
    """Fold one binary observation into the belief, in world env.

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
    return BeliefState(ones, count, posterior(ones, count, env))


def keep_gain(pm: float, env: EnvParams) -> float:
    """One-step expected gain of keeping a node that is malicious with
    probability pm (removing always yields 0)."""
    return (1.0 - pm) * env.gain_honest - pm * env.loss_malicious
