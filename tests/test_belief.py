import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodeban.belief import (
    ImpossibleEvidenceError,
    Posterior,
    initial_belief,
    keep_gain,
    posterior,
    update,
)
from nodeban.model import EnvParams


def direct_posterior(ones, count, env):
    """Raw-product Bayes computation, usable only where the products do not
    underflow; serves as the independent check against the log-space path."""
    u, q, prior = env.honest_mean, env.malicious_mean, env.prior_malicious
    zeros = count - ones
    like_m = (q**ones) * ((1 - q) ** zeros)
    like_u = (u**ones) * ((1 - u) ** zeros)
    denom = prior * like_m + (1 - prior) * like_u
    return prior * like_m / denom


def make_env(u=0.8, q=0.2, gain=1.0, loss=1.0, prior=0.5):
    return EnvParams(
        honest_mean=u,
        malicious_mean=q,
        gain_honest=gain,
        loss_malicious=loss,
        departure_rate=0.1,
        prior_malicious=prior,
    )


class TestPosterior:
    def test_zero_likelihood_branch(self):
        env = make_env(u=1.0, q=0.0)
        assert posterior(1, 1, env) == 0.0

    def test_symmetric_single_one(self):
        env = make_env(u=0.8, q=0.2)
        assert posterior(1, 1, env) == pytest.approx(0.2, rel=1e-12)

    def test_uninformative_model_returns_prior(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            mean = float(rng.uniform(0.05, 0.95))
            prior = float(rng.uniform(0, 1))
            env = make_env(u=mean, q=mean, prior=prior)
            count = int(rng.integers(0, 50))
            ones = int(rng.integers(0, count + 1))
            assert posterior(ones, count, env) == prior

    def test_impossible_evidence_raises(self):
        env = make_env(u=0.0, q=0.0)
        with pytest.raises(ImpossibleEvidenceError):
            posterior(1, 1, env)
        # degenerate prior contradicted by the data on the live branch
        env2 = make_env(u=0.5, q=0.0, prior=1.0)
        with pytest.raises(ImpossibleEvidenceError):
            posterior(1, 1, env2)

    def test_degenerate_priors_absorb(self):
        assert posterior(3, 5, make_env(u=0.8, q=0.2, prior=0.0)) == 0.0
        assert posterior(3, 5, make_env(u=0.8, q=0.2, prior=1.0)) == 1.0

    def test_rejects_bad_counts(self):
        env = make_env(u=0.8, q=0.2)
        with pytest.raises(ValueError):
            posterior(3, 2, env)
        with pytest.raises(ValueError):
            posterior(-1, 2, env)

    def test_log_space_matches_direct_space(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            u, q = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))
            env = make_env(u=u, q=q, prior=float(rng.uniform(0.01, 0.99)))
            count = int(rng.integers(1, 200))  # small enough for raw products
            ones = int(rng.integers(0, count + 1))
            expected = direct_posterior(ones, count, env)
            if expected == 0.0 or not math.isfinite(expected):
                continue
            assert posterior(ones, count, env) == pytest.approx(expected, rel=1e-9)

    def test_no_underflow_at_long_histories(self):
        value = posterior(100, 1000, make_env(u=0.8, q=0.2))
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(1.0, abs=1e-9)  # 10% ones looks malicious

    def test_monotone_in_ones_when_honest_rate_higher(self):
        env = make_env(u=0.7, q=0.2, prior=0.4)
        count = 40
        values = [posterior(k, count, env) for k in range(count + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        flipped = make_env(u=0.2, q=0.7, prior=0.4)
        values = [posterior(k, count, flipped) for k in range(count + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestUpdate:
    def test_sequential_equals_batch(self):
        env = make_env(u=0.8, q=0.2)
        belief = initial_belief(env)
        for x in (1, 0, 1):
            belief = update(belief, x, env)
        assert belief.ones == 2 and belief.count == 3
        assert belief.posterior_malicious == pytest.approx(
            posterior(2, 3, env), rel=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        env = make_env(u=0.9, q=0.3, prior=0.4)
        xs = (rng.random(40) < 0.5).astype(int).tolist()
        reference = None
        for _ in range(5):
            rng.shuffle(xs)
            belief = initial_belief(env)
            for x in xs:
                belief = update(belief, x, env)
            if reference is None:
                reference = belief
            assert belief == reference

    def test_absorbing_prior(self):
        env = make_env(u=0.8, q=0.2, prior=0.0)
        belief = initial_belief(env)
        for x in (1, 0, 0, 1):
            belief = update(belief, x, env)
            assert belief.posterior_malicious == 0.0

    def test_rejects_non_binary(self):
        env = make_env(u=0.8, q=0.2)
        with pytest.raises(ValueError):
            update(initial_belief(env), 0.5, env)

    def test_accepts_float_and_int_bits(self):
        env = make_env(u=0.8, q=0.2)
        a = update(update(initial_belief(env), 1, env), 0.0, env)
        b = update(update(initial_belief(env), 1.0, env), 0, env)
        assert a == b


class TestExpectedKeepGain:
    def test_balance_point(self):
        assert keep_gain(0.5, make_env(gain=1.0, loss=1.0)) == 0.0

    def test_certain_honest(self):
        assert keep_gain(0.0, make_env(gain=0.7)) == pytest.approx(0.7)

    def test_mostly_malicious(self):
        got = keep_gain(0.8, make_env(gain=1.0, loss=1.0))
        assert got == pytest.approx(-0.6, rel=1e-12)


def test_normalization_everywhere():
    rng = np.random.default_rng(24)
    for _ in range(200):
        u, q = float(rng.uniform()), float(rng.uniform())
        env = make_env(u=u, q=q, prior=float(rng.uniform()))
        belief = initial_belief(env)
        for x in (rng.random(30) < 0.5).astype(int).tolist():
            try:
                belief = update(belief, x, env)
            except ImpossibleEvidenceError:
                break
            assert belief.posterior_malicious + belief.posterior_honest == pytest.approx(
                1.0, abs=1e-12
            )
            assert 0.0 <= belief.posterior_malicious <= 1.0


def test_long_history_sequential_equals_batch():
    rng = np.random.default_rng(25)
    env = make_env(u=0.65, q=0.35)
    belief = initial_belief(env)
    xs = (rng.random(1000) < 0.6).astype(int).tolist()
    for x in xs:
        belief = update(belief, x, env)
    assert belief.count == 1000
    batch = posterior(sum(xs), 1000, env)
    assert belief.posterior_malicious == pytest.approx(batch, rel=1e-12)


#: A rate or prior: either endpoint exactly, or anything in [0, 1].
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def cases_points(draw):
    """A world with any rates and prior in [0, 1], endpoints included, and
    a point (ones, count): two ints with ones <= count, or a row of ones
    against a column of counts, ones > count included, as a lattice asks."""
    env = make_env(u=draw(UNIT), q=draw(UNIT), prior=draw(UNIT))
    if draw(st.booleans()):
        count = draw(st.integers(0, 5000))
        return env, draw(st.integers(0, count)), count
    values = st.lists(st.integers(0, 300), min_size=1, max_size=6)
    return env, np.array(draw(values))[None], np.array(draw(values))[:, None]


@settings(max_examples=300)
@given(cases_points())
def test_cases_tie_and_log_odds_are_the_log_likelihoods(case):
    """Posterior.cases' tie is the equality of the two log-likelihoods, each
    k log(rate) + (t - k) log(1 - rate) off the evaluator's logarithms, and
    its log odds is prior_log_odds + malicious - honest, bit for bit: the one
    definition that the scalar posterior, the elementwise posterior and the
    depth-0 rules' removes_elementwise all read."""
    env, ones, count = case
    logs = Posterior(env)
    log_like_malicious = ones * logs.log_q + (count - ones) * logs.log_not_q
    log_like_honest = ones * logs.log_u + (count - ones) * logs.log_not_u
    _, _, tie, log_odds = logs.cases(ones, count)
    assert np.array_equal(tie, log_like_malicious == log_like_honest)
    want = np.asarray(logs.prior_log_odds + log_like_malicious - log_like_honest, dtype=float)
    got = np.asarray(log_odds, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
