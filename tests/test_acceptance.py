"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see
them all). Simulation-backed criteria use pinned seeds, so the outcomes are
reproducible bit for bit.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodeban.belief import BernoulliModel, initial_belief, posterior, update
from nodeban.cli import main as cli_main
from nodeban.experiments import PolicySpec, SuiteConfig, aggregate_mean_loss, build_regions, run_suite
from nodeban.hiper import (
    HiperParams,
    HiperPolicy,
    bound_loss_combined,
    bound_loss_honest,
    bound_loss_malicious,
    bound_loss_malicious_warmup,
    min_samples,
    optimal_delta,
)
from nodeban.model import EnvParams, NodeType
from nodeban.policies import (
    Lattice,
    LeafRule,
    LookaheadConfig,
    LookaheadPolicy,
    MyopicPolicy,
    OptimisticPolicy,
    lookahead_value,
)
from nodeban.simulator import ExperimentDraw, ExperimentSuite, compile_region, episode_rng
from nodeban.simulator import run_episode, sample_experiment
from oracles import lookahead_value_bruteforce


def report(criterion: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert passed, line


def mean_and_se(losses: np.ndarray) -> tuple[float, float]:
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(losses.size))


def hiper_losses(node_type, draw, params):
    """Per-node losses of the rule over the draw's nodes, every one of them
    of node_type. Node streams depend only on the draw's seed and the node
    id, so the prior that fixes the type leaves them unchanged."""
    malicious = node_type is NodeType.MALICIOUS
    draw = replace(draw, env=replace(draw.env, prior_malicious=1.0 if malicious else 0.0))
    episode = run_episode([compile_region(HiperPolicy(params), draw.horizon)], draw, episode_rng(draw))
    assert (episode.malicious == malicious).all()
    return episode.loss[0]


def test_c01_malicious_loss_bound():
    start = time.perf_counter()
    env = EnvParams(
        honest_mean=0.7,  # gap 0.4 relative to the malicious mean
        malicious_mean=0.3,
        gain_honest=1.0,
        loss_malicious=1.0,
        departure_rate=0.001,
        prior_malicious=1.0,
    )
    draw = ExperimentDraw(horizon=1000, env=env, seed=101, n_nodes=10_000)
    params = HiperParams(delta=0.9, gap=0.4, malicious_mean=0.3)
    losses = hiper_losses(NodeType.MALICIOUS, draw, params)
    mean, se = mean_and_se(losses)
    bound = bound_loss_malicious(1.0, 0.9)
    elapsed = time.perf_counter() - start
    report(
        "criterion 01 malicious loss bound",
        mean + 3 * se <= bound,
        f"mean={mean:.3f} se={se:.3f} mean+3se={mean + 3 * se:.3f} <= {bound:.1f} "
        f"(n={losses.size}, {elapsed:.1f}s)",
    )


def test_c02_honest_loss_bound():
    start = time.perf_counter()
    env = EnvParams(
        honest_mean=0.8,
        malicious_mean=0.3,
        gain_honest=1.0,
        loss_malicious=1.0,
        departure_rate=0.01,
        prior_malicious=0.0,
    )
    draw = ExperimentDraw(horizon=2000, env=env, seed=102, n_nodes=10_000)
    params = HiperParams(delta=0.9, gap=0.5, malicious_mean=0.3)
    losses = hiper_losses(NodeType.HONEST, draw, params)
    mean, se = mean_and_se(losses)
    bound = bound_loss_honest(1.0, 0.01, 0.5)
    elapsed = time.perf_counter() - start
    report(
        "criterion 02 honest loss bound",
        mean + 3 * se <= bound,
        f"mean={mean:.3f} se={se:.3f} mean+3se={mean + 3 * se:.3f} <= {bound:.2f} "
        f"(n={losses.size}, {elapsed:.1f}s)",
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@example(1.876928025711171, 1.0, 1.0)  # the bound rounds one ulp below g at rate 1
@example(1e-06, 0.19300674981406024, 791305935664159.0)  # gap^2 + 2 rounds to gap^2
@example(1.0103853822934488e97, 0.6001024187654664, 1.644260776076373e72)  # 2.17 ulps below
@example(4.2e-322, 0.9999999999998364, 0.4896935204622582)  # a subnormal g
@example(2e-323, 0.9730914801778461, 2.9368796537734697e-92)
@example(1.0, math.nextafter(1.0, 0.0), 1e-3)
@example(0.0, 0.5, 0.5)
@example(1.0, 1e-150, 1e150)
@given(
    st.floats(0.0, 1e308),
    st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    st.floats(0.0, 1e308, exclude_min=True),
)
def test_c02_honest_bound_is_at_least_gain_over_rate(gain, rate, gap):
    """The honest bound g (gap^2 + 2) / (rate (gap^2 + 2 rate)) is at least
    g / rate at every input bound_loss_honest accepts, as rate <= 1. An
    honest node loses g per step it is kept out of before it departs, at
    most its stay, whose mean is 1 / rate; so every rule's expected honest
    loss is at most g / rate, and criterion 02 holds for any region, HIPER's
    or not. Compared exactly, in Fractions, to within five ulps of g / rate,
    one per rounding of the bound's five operations: the two sides are
    equal in real arithmetic at rate 1, and closer than that rounding near
    it or where gap^2 swamps 2."""
    try:
        bound = bound_loss_honest(gain, rate, gap)
    except ValueError:
        return  # not an accepted input: the bound is not finite
    assert Fraction(bound) >= Fraction(gain) / Fraction(rate) - 5 * Fraction(math.ulp(gain / rate))


def test_c03_tuned_delta_combined_bound():
    """Tuned-delta ceilings, with the warm-up counted.

    The rule removes no node before its count exceeds the warm-up
    W = ln(2/delta*) / (2 gap^2), and malicious nodes never depart, so each
    malicious node loses at least loss * min(floor(W) + 1, horizon). The
    paper's combined ceiling ignores that floor. At every unclamped setting
    this checks (a) that the worst per-type mean + 3 SE stays within the
    warm-up-aware combined ceiling, max(bound_loss_malicious_warmup,
    bound_loss_honest), and (b) that it exceeds the paper's combined ceiling
    only where the warm-up floor alone already does. The report lists every
    setting above the paper's ceiling with its floor and warm-up-aware
    ceiling.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    n_settings = 20
    n_per_type = 1500
    horizon = 1500
    worst_margin = math.inf
    above_paper = []
    failures = []
    checked = 0
    while checked < n_settings:
        honest_mean = float(rng.uniform())
        malicious_mean = float(rng.uniform())
        gap = abs(honest_mean - malicious_mean)
        if gap == 0.0:
            continue
        loss = float(rng.uniform(0.2, 2.0))
        gain = float(rng.uniform(0.2, 2.0))
        rate = float(rng.uniform(0.005, 0.2))
        tuned = optimal_delta(loss, gain, rate, gap)
        if tuned.clamped:
            continue
        checked += 1
        env = EnvParams(
            honest_mean=honest_mean,
            malicious_mean=malicious_mean,
            gain_honest=gain,
            loss_malicious=loss,
            departure_rate=rate,
            prior_malicious=0.5,
        )
        draw = ExperimentDraw(
            horizon=horizon, env=env, seed=int(rng.integers(0, 2**63)), n_nodes=n_per_type
        )
        params = HiperParams(delta=tuned.value, gap=gap, malicious_mean=malicious_mean)
        paper = bound_loss_combined(loss, gain, rate, gap)
        ceiling = max(
            bound_loss_malicious_warmup(loss, tuned.value, gap),
            bound_loss_honest(gain, rate, gap),
        )
        warmup = min_samples(tuned.value, gap)
        floor = loss * min(math.floor(warmup) + 1, horizon)
        worst = 0.0
        for node_type in (NodeType.MALICIOUS, NodeType.HONEST):
            losses = hiper_losses(node_type, draw, params)
            mean, se = mean_and_se(losses)
            worst = max(worst, mean + 3 * se)
        worst_margin = min(worst_margin, ceiling - worst)
        setting = (
            f"(gap={gap:.3f} gain={gain:.2f} loss={loss:.2f} rate={rate:.3f} "
            f"delta*={tuned.value:.3f} warmup={warmup:.2f} worst={worst:.1f} "
            f"paper={paper:.1f} floor={floor:.1f} ceiling={ceiling:.1f})"
        )
        if worst > paper:
            above_paper.append(setting)
        if worst > ceiling:
            failures.append(f"above the warm-up-aware ceiling {setting}")
        if worst > paper and floor <= paper:
            failures.append(f"above the paper's ceiling with the floor below it {setting}")
    elapsed = time.perf_counter() - start
    report(
        "criterion 03 tuned-delta combined bound",
        not failures,
        f"{len(failures)} failed checks over {n_settings} unclamped settings; "
        f"min margin to the warm-up-aware ceiling {worst_margin:.2f} ({elapsed:.1f}s); "
        + "".join(f"{failure}; " for failure in failures)
        + f"{len(above_paper)} settings exceed the paper's combined ceiling: "
        + ("; ".join(above_paper) if above_paper else "none"),
    )


def test_c04_bernoulli_deviation_tail():
    rng = np.random.default_rng(104)
    trials = 100_000
    worst_gap = -math.inf
    cells = 0
    for mu in (0.1, 0.3, 0.5):
        for t in (10, 100, 1000):
            for eps in (0.02, 0.05, 0.1):
                means = rng.binomial(t, mu, size=trials) / t
                freq = float(np.mean(np.abs(means - mu) >= eps))
                bound = 2.0 * math.exp(-2.0 * t * eps * eps)
                capped = min(bound, 1.0)
                slack = 3.0 * math.sqrt(capped * (1.0 - capped) / trials)
                cells += 1
                worst_gap = max(worst_gap, freq - bound)
                assert freq <= bound + slack + 1e-12, (
                    f"mu={mu} t={t} eps={eps}: freq {freq:.5f} > "
                    f"bound {bound:.5f} + slack {slack:.5f}"
                )
    report(
        "criterion 04 mean-deviation tail bound",
        True,
        f"{cells} grid cells x {trials} trials, worst freq-bound gap {worst_gap:.4f}",
    )


def test_c05_lookahead_matches_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    rules = list(LeafRule)
    instances = 1000
    worst_rel = 0.0
    for i in range(instances):
        env = EnvParams(
            honest_mean=float(rng.uniform(0.05, 0.95)),
            malicious_mean=float(rng.uniform(0.05, 0.95)),
            gain_honest=float(rng.uniform(0.05, 2.0)),
            loss_malicious=float(rng.uniform(0.05, 2.0)),
            departure_rate=float(rng.uniform(0.01, 1.0)),
            prior_malicious=float(rng.uniform(0.05, 0.95)),
        )
        model = BernoulliModel(env.honest_mean, env.malicious_mean)
        belief = initial_belief(env.prior_malicious)
        for x in (rng.random(int(rng.integers(0, 20))) < 0.5).astype(int).tolist():
            belief = update(belief, x, model)
        cfg = LookaheadConfig(int(rng.integers(1, 9)), rules[i % 3])
        bf = lookahead_value_bruteforce(belief, env, cfg)
        # lookahead_value plans from the belief; the suites read the value off
        # a lattice of the world's posteriors
        lattice = Lattice(env, belief.count, [cfg]).values(cfg)[belief.count, belief.ones]
        for dp in (lookahead_value(belief, env, cfg), float(lattice)):
            assert dp == pytest.approx(bf, rel=1e-12, abs=1e-15), f"instance {i}: {dp} vs {bf}"
            if bf != 0.0:
                worst_rel = max(worst_rel, abs(dp - bf) / abs(bf))
    elapsed = time.perf_counter() - start
    report(
        "criterion 05 lookahead matches enumeration",
        True,
        f"{instances} instances depth<=8, plan and lattice values, worst relative gap {worst_rel:.2e} "
        f"({elapsed:.1f}s)",
    )


def test_c06_policy_reductions():
    posteriors = np.linspace(0.0, 1.0, 100)
    stakes = np.linspace(0.1, 2.0, 10)
    lookahead_cfg = LookaheadConfig(1, LeafRule.ZERO)
    points = 0
    disagreements = 0
    for pm in posteriors:
        for gain in stakes:
            for loss in stakes:
                env = EnvParams(
                    honest_mean=0.7,
                    malicious_mean=0.3,
                    gain_honest=float(gain),
                    loss_malicious=float(loss),
                    departure_rate=1.0,
                    prior_malicious=float(pm),
                )
                points += 1
                # removes(0, 0) reads the posterior before any observation: the prior, pm
                base = MyopicPolicy(env).removes(0, 0)
                if OptimisticPolicy(env).removes(0, 0) is not base:
                    disagreements += 1
                if LookaheadPolicy(env, lookahead_cfg).removes(0, 0) is not base:
                    disagreements += 1
    # the regions the suites build, at every count of random draws
    rng = np.random.default_rng(106)
    myopic, optimistic, lookahead = (PolicySpec.parse(text) for text in ("myopic", "optimistic", "lookahead:1"))
    draws = counts = 0
    for suite in (ExperimentSuite.POLICY_COMPARE, ExperimentSuite.LOOKAHEAD_COMPARE):
        for _ in range(10):
            draw = sample_experiment(rng, suite)
            full_rate = replace(draw, env=replace(draw.env, departure_rate=1.0))
            pairs = (
                build_regions([myopic, lookahead], draw),  # both off one lattice
                [myopic.build(draw), lookahead.build(draw)],  # compile_region, and lookahead's own lattice
                build_regions([myopic, optimistic], full_rate),
            )
            for base, region in pairs:
                disagreements += int(((base.lo != region.lo) | (base.hi != region.hi)).sum())
            draws += 1
            counts += draw.horizon + 1
    report(
        "criterion 06 policy reductions",
        disagreements == 0,
        f"{points} grid points and {counts} counts of {draws} suite draws, {disagreements} disagreements "
        "(lookahead depth-1/zero-leaf vs myopic; optimistic at full departure rate vs myopic)",
    )


def test_c07_belief_consistency():
    rng = np.random.default_rng(107)
    worst_rel = 0.0
    for _ in range(25):
        model = BernoulliModel(
            float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.02, 0.98))
        )
        prior = float(rng.uniform(0.02, 0.98))
        length = int(rng.integers(1, 1001))
        bits = (rng.random(length) < rng.uniform()).astype(int).tolist()
        belief = initial_belief(prior)
        for x in bits:
            belief = update(belief, x, model)
            total = belief.posterior_malicious + belief.posterior_honest
            assert total == pytest.approx(1.0, abs=1e-12)
        batch = posterior(sum(bits), length, model, prior)
        assert belief.posterior_malicious == pytest.approx(batch, rel=1e-12)
        if batch:
            worst_rel = max(worst_rel, abs(belief.posterior_malicious - batch) / batch)
        shuffled = list(bits)
        rng.shuffle(shuffled)
        permuted = initial_belief(prior)
        for x in shuffled:
            permuted = update(permuted, x, model)
        assert permuted.posterior_malicious == belief.posterior_malicious
    report(
        "criterion 07 belief consistency",
        True,
        f"sequential==batch and permutation invariance over histories up to 1000 "
        f"(worst rel gap {worst_rel:.2e})",
    )


def test_c08_policy_comparison_ordering():
    """Partially red: myopic does not exceed the tuned stopping rule here.

    Measured at this seed and run count: hiper:star loses 94.40 against
    myopic's 62.58. Honest nodes account for 66.75 of the 94.40: 41.4% of
    them are removed, 37.5% within floor(W) + 3 steps. The warm-up ends as
    soon as the radius drops below the gap, and at that point the removal
    interval around the malicious mean still reaches almost to the honest
    mean. Malicious nodes never removed account for 14.6. delta* near 1 is
    not the cause: a fixed delta of 0.9 or 0.99 loses 95.56 or 94.46. Where
    the warm-up ends decides it: a variant that waits until the radius is
    below gap/2 loses 61.78, just under myopic. The rule keeps its current
    warm-up, which the README, the hiper module and its unit tests pin, until
    the paper's algorithm and experiment section settle it. The myopic-vs-
    optimistic and low-malicious-subset clauses do hold.
    """
    start = time.perf_counter()
    cfg = SuiteConfig.make("policy_compare", base_seed=20260810, n_runs=1000)
    records = run_suite(cfg)
    agg = {p: aggregate_mean_loss(records, p) for p in ("hiper:star", "myopic", "optimistic")}
    low_malicious = {}
    for p in ("hiper:star", "optimistic"):
        subset = [
            r.mean_loss
            for r in records
            if r.policy_id == p and r.sweep_variable == "malicious_proportion" and r.x < 0.3
        ]
        low_malicious[p] = sum(subset) / len(subset)
    clause_myopic_vs_hiper = agg["myopic"] > agg["hiper:star"]
    clause_myopic_vs_optimistic = agg["myopic"] > agg["optimistic"]
    clause_low_malicious = low_malicious["optimistic"] <= low_malicious["hiper:star"]
    elapsed = time.perf_counter() - start
    report(
        "criterion 08 policy-comparison ordering",
        clause_myopic_vs_hiper and clause_myopic_vs_optimistic and clause_low_malicious,
        f"aggregate losses hiper:star={agg['hiper:star']:.2f} myopic={agg['myopic']:.2f} "
        f"optimistic={agg['optimistic']:.2f}; "
        f"myopic>hiper:star={clause_myopic_vs_hiper} "
        f"myopic>optimistic={clause_myopic_vs_optimistic}; "
        f"low-malicious subset optimistic={low_malicious['optimistic']:.2f} "
        f"<= hiper:star={low_malicious['hiper:star']:.2f}={clause_low_malicious} "
        f"(1000 runs, {elapsed:.0f}s)",
    )


def test_c09_lookahead_comparison_ordering():
    start = time.perf_counter()
    cfg = SuiteConfig.make(
        "lookahead_compare",
        base_seed=314159,
        n_runs=1000,
        policies=("optimistic", "lookahead:4", "lookahead:8", "myopic"),
    )
    records = run_suite(cfg)
    agg = {
        p: aggregate_mean_loss(records, p)
        for p in ("optimistic", "lookahead:4", "lookahead:8", "myopic")
    }
    clause_la4 = agg["lookahead:4"] < agg["myopic"]
    clause_la8 = agg["lookahead:8"] < agg["myopic"]
    clause_vs_optimistic = agg["lookahead:8"] <= 1.05 * agg["optimistic"]
    elapsed = time.perf_counter() - start
    report(
        "criterion 09 lookahead-comparison ordering",
        clause_la4 and clause_la8 and clause_vs_optimistic,
        f"aggregate losses optimistic={agg['optimistic']:.3f} "
        f"lookahead:4={agg['lookahead:4']:.3f} lookahead:8={agg['lookahead:8']:.3f} "
        f"myopic={agg['myopic']:.3f}; lookahead<myopic={clause_la4 and clause_la8} "
        f"lookahead:8<=1.05*optimistic={clause_vs_optimistic} (1000 runs, {elapsed:.0f}s)",
    )


def test_c10_suite_determinism(tmp_path):
    config_path = tmp_path / "suite.json"
    with open(config_path, "w") as handle:
        json.dump(
            {
                "suite": "policy_compare",
                "n_runs": 8,
                "ma_window": 3,
                "policies": ["hiper:star", "myopic", "optimistic"],
            },
            handle,
        )
    digests = []
    for name, jobs in (("one.csv", "1"), ("two.csv", "1"), ("par.csv", "2")):
        out = tmp_path / name
        code = cli_main(
            ["suite", "--config", str(config_path), "--out", str(out), "--seed", "424242",
             "--jobs", jobs]
        )
        assert code == 0
        digests.append(out.read_bytes())
    report(
        "criterion 10 suite determinism",
        digests[0] == digests[1] == digests[2],
        "byte-identical CSVs across repeated runs and 1-vs-2 worker processes",
    )
