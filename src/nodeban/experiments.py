"""Experiment suites: parameter sweeps, smoothing and CSV emission.

Each suite runs many independent worlds, evaluates every configured policy
on identical worlds (paired comparison), and reports each run's mean loss
against four sweep variables: the horizon, the gap between observation
means, the realized fraction of malicious nodes, and the honest gain.
Curves are produced by sorting runs along each variable and taking a
centered moving average, matching a scatter-plus-trend reading.

Each configured policy is parsed into a spec of the rule layer
(policies.PolicySpec) and built into a removal region once per draw
(build_regions). hiper, myopic and optimistic are compiled per policy from
their closed-form ends, confirmed by one call of the rule
(policies.compile_region), on every draw. The policies that plan ahead
(depth 1 or more) share one posterior lattice to count horizon + their
deepest depth, and one plan per leaf rule. The simulator scores the regions
(run_episode). Only nodeban suite loads this module.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from statistics import fmean

import numpy as np

from .model import ExperimentSuite, _fmt
from .policies import Lattice, PolicySpec, Region
from .simulator import ExperimentDraw, run_episode, sample_experiment

SWEEP_VARIABLES = ("horizon", "gap", "malicious_proportion", "gain")

_DEFAULT_RUNS = {
    ExperimentSuite.DELTA_SWEEP: 10_000,
    ExperimentSuite.POLICY_COMPARE: 10_000,
    ExperimentSuite.LOOKAHEAD_COMPARE: 1_000,
}

_DEFAULT_POLICIES = {
    ExperimentSuite.DELTA_SWEEP: ("hiper:0.9", "hiper:0.95", "hiper:0.99", "hiper:star"),
    ExperimentSuite.POLICY_COMPARE: ("hiper:star", "myopic", "optimistic"),
    ExperimentSuite.LOOKAHEAD_COMPARE: ("optimistic", "lookahead:4", "lookahead:8"),
}


@dataclass(frozen=True)
class SweepRecord:
    suite: str
    sweep_variable: str
    x: float
    policy_id: str
    mean_loss: float
    run_count: int

    def __post_init__(self) -> None:
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.sweep_variable!r}")
        if self.run_count < 1:
            raise ValueError(f"run_count must be at least 1, got {self.run_count}")
        if not math.isfinite(self.x):  # NaN would also slip past moving_average's sortedness check
            raise ValueError(f"x must be finite, got {self.x}")
        if not (math.isfinite(self.mean_loss) and self.mean_loss >= 0.0):
            raise ValueError(f"mean_loss must be finite and nonnegative, got {self.mean_loss}")


def build_regions(specs: list[PolicySpec], draw: ExperimentDraw) -> list[Region]:
    """Each spec's region on the draw, one build per spec. The specs that
    plan ahead, if any, share one Lattice: one posterior table, and one plan
    per leaf rule that serves each of its depths. The lattice is computed
    inside the first build that reads it."""
    ahead = [spec for spec in specs if spec.depth]
    lattice = Lattice(draw.env, draw.horizon, ahead) if ahead else None
    return [spec.build(draw, lattice) for spec in specs]


@dataclass(frozen=True)
class SuiteConfig:
    suite: ExperimentSuite
    base_seed: int
    n_runs: int
    ma_window: int
    policies: tuple[str, ...]
    specs: tuple[PolicySpec, ...] = field(init=False, repr=False, compare=False)  # policies, parsed

    def __post_init__(self) -> None:
        # type() and not isinstance(): a JSON true is a bool, which is an int
        if type(self.n_runs) is not int or self.n_runs < 1:
            raise ValueError(f"n_runs must be a positive integer, got {self.n_runs!r}")
        if type(self.ma_window) is not int or self.ma_window < 1 or self.ma_window % 2 == 0:
            raise ValueError(f"ma_window must be a positive odd integer, got {self.ma_window!r}")
        if not self.policies:
            raise ValueError("policies must not be empty")
        object.__setattr__(self, "specs", tuple(map(PolicySpec.parse, self.policies)))
        labels = [spec.label for spec in self.specs]
        if len(set(labels)) < len(labels):
            raise ValueError(f"policies must name distinct policies, got labels {labels}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed}")

    @classmethod
    def make(
        cls,
        suite: ExperimentSuite | str,
        base_seed: int,
        n_runs: int | None = None,
        ma_window: int | None = None,
        policies: tuple[str, ...] | None = None,
    ) -> "SuiteConfig":
        suite = ExperimentSuite(suite)
        return cls(
            suite=suite,
            base_seed=base_seed,
            n_runs=_DEFAULT_RUNS[suite] if n_runs is None else n_runs,
            ma_window=51 if ma_window is None else ma_window,
            policies=_DEFAULT_POLICIES[suite] if policies is None else tuple(policies),
        )


def _execute_run(cfg: SuiteConfig, run_index: int) -> tuple:
    """One world, every policy. Returns the run's coordinates in
    SWEEP_VARIABLES order (the horizon as a float, the gap, the realized
    malicious fraction, the honest gain) and each policy's (label, mean loss)."""
    run_rng = np.random.default_rng(np.random.SeedSequence(cfg.base_seed, spawn_key=(run_index,)))
    draw = sample_experiment(run_rng, cfg.suite)
    episode = run_episode(build_regions(cfg.specs, draw), draw)
    coords = (float(draw.horizon), draw.env.gap, episode.malicious_fraction, draw.env.gain_honest)
    return coords, [(spec.label, loss) for spec, loss in zip(cfg.specs, episode.mean_loss)]


def run_suite(cfg: SuiteConfig, jobs: int = 1) -> list[SweepRecord]:
    """Execute the configured number of independent runs and return one raw
    record per (run, policy, sweep variable). Records are unsmoothed
    (run_count is 1); apply smooth_records before plotting or emission.

    jobs > 1 distributes whole runs over worker processes, at most one per
    run and per CPU, since the pool starts every worker at once; results
    are assembled in run order, so the output is byte-identical regardless
    of worker count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or cfg.n_runs == 1:
        outcomes = [_execute_run(cfg, r) for r in range(cfg.n_runs)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it slows every start-up
        workers = min(jobs, cfg.n_runs, os.cpu_count() or 1)
        chunk = max(1, cfg.n_runs // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_run, [cfg] * cfg.n_runs, range(cfg.n_runs), chunksize=chunk))
    return [
        SweepRecord(cfg.suite.value, variable, x, label, mean_loss, run_count=1)
        for coords, per_policy in outcomes
        for label, mean_loss in per_policy
        for variable, x in zip(SWEEP_VARIABLES, coords)
    ]


def moving_average(records: list[SweepRecord], window: int) -> list[SweepRecord]:
    """Centered moving average over one x-sorted group of records.

    The window is truncated symmetrically at the boundaries: position i
    averages over [i - h, i + h] with h = min(window // 2, i, n - 1 - i).
    run_count of each output record is the number of points averaged.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    for earlier, later in zip(records, records[1:]):
        if later.x < earlier.x:
            raise ValueError("records must be sorted by x")
    n = len(records)
    half = window // 2
    values = [r.mean_loss for r in records]
    smoothed = []
    for i, record in enumerate(records):
        h = min(half, i, n - 1 - i)
        span = values[i - h : i + h + 1]
        smoothed.append(replace(record, mean_loss=fmean(span), run_count=len(span)))
    return smoothed


def smooth_records(records: list[SweepRecord], window: int) -> list[SweepRecord]:
    """Group records by (suite, sweep variable, policy), sort each group by x
    (stable, so run order breaks ties) and smooth each group."""
    groups: dict[tuple[str, str, str], list[SweepRecord]] = {}
    for record in records:
        groups.setdefault((record.suite, record.sweep_variable, record.policy_id), []).append(record)
    out: list[SweepRecord] = []
    for group in groups.values():
        out.extend(moving_average(sorted(group, key=lambda r: r.x), window))
    return out


def emit_csv(records: list[SweepRecord], path) -> None:
    """Write records as CSV with a fixed header, rows sorted by
    (panel, policy, x), floats at 9 significant digits, \\n newlines."""
    ordered = sorted(records, key=lambda r: (r.suite, r.sweep_variable, r.policy_id, r.x))
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["suite", "panel", "policy", "x", "mean_loss", "run_count"])
            for r in ordered:
                writer.writerow(
                    [r.suite, r.sweep_variable, r.policy_id, _fmt(r.x), _fmt(r.mean_loss), r.run_count]
                )
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path}: {exc}") from exc


def aggregate_mean_loss(records: list[SweepRecord], policy_id: str) -> float:
    """Mean over runs of the per-run mean loss for one policy, computed from
    raw (unsmoothed) records via the horizon panel, which holds exactly one
    record per run."""
    losses = [
        r.mean_loss
        for r in records
        if r.policy_id == policy_id and r.sweep_variable == "horizon" and r.run_count == 1
    ]
    if not losses:
        raise ValueError(f"no raw horizon records for policy {policy_id!r}")
    return fmean(losses)
