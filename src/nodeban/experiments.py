"""Experiment suites: parameter sweeps, smoothing and CSV emission.

Each suite runs many independent worlds, evaluates every configured policy
on identical worlds (paired comparison), and keeps one row per run (Sweep):
the run's four sweep variables (the horizon, the gap between observation
means, the realized fraction of malicious nodes, and the honest gain) and
each policy's mean loss. Curves are produced by sorting runs along each
variable and taking a centered moving average, matching a scatter-plus-trend
reading (smooth_records), which yields the CSV's rows in the CSV's order.

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
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from .model import ExperimentSuite, _fmt
from .policies import Lattice, PolicySpec, Region
from .simulator import ExperimentDraw, run_episode, sample_experiment

SWEEP_VARIABLES = ("horizon", "gap", "malicious_proportion", "gain")

#: Each suite's default run count and policies.
_DEFAULTS = {
    ExperimentSuite.DELTA_SWEEP: (10_000, ("hiper:0.9", "hiper:0.95", "hiper:0.99", "hiper:star")),
    ExperimentSuite.POLICY_COMPARE: (10_000, ("hiper:star", "myopic", "optimistic")),
    ExperimentSuite.LOOKAHEAD_COMPARE: (1_000, ("optimistic", "lookahead:4", "lookahead:8")),
}


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
        if type(self.base_seed) is not int or self.base_seed < 0:
            raise ValueError(f"base_seed must be a nonnegative integer, got {self.base_seed!r}")
        if type(self.n_runs) is not int or self.n_runs < 1:
            raise ValueError(f"n_runs must be a positive integer, got {self.n_runs!r}")
        if type(self.ma_window) is not int or self.ma_window < 1 or self.ma_window % 2 == 0:
            raise ValueError(f"ma_window must be a positive odd integer, got {self.ma_window!r}")
        if not isinstance(self.policies, (list, tuple)) or not all(isinstance(p, str) for p in self.policies):
            raise ValueError(f"policies must be a list or tuple of policy strings, got {self.policies!r}")
        if not self.policies:
            raise ValueError("policies must not be empty")
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "specs", tuple(map(PolicySpec.parse, self.policies)))
        labels = [spec.label for spec in self.specs]
        if len(set(labels)) < len(labels):
            raise ValueError(f"policies must name distinct policies, got labels {labels}")

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
        default_runs, default_policies = _DEFAULTS[suite]
        return cls(
            suite=suite,
            base_seed=base_seed,
            n_runs=default_runs if n_runs is None else n_runs,
            ma_window=51 if ma_window is None else ma_window,
            policies=default_policies if policies is None else policies,
        )


@dataclass(frozen=True)
class Sweep:
    """A suite's raw result, one row per run: coords[r] holds run r's values
    of SWEEP_VARIABLES, in that order, and losses[r] its mean loss under each
    policy, in the order of labels."""

    suite: str
    labels: tuple[str, ...]
    coords: tuple[tuple[float, ...], ...]
    losses: tuple[list[float], ...]

    def __post_init__(self) -> None:
        for coords, losses in zip(self.coords, self.losses, strict=True):
            if not all(map(math.isfinite, coords)):  # NaN would also leave smooth_records' sort undefined
                raise ValueError(f"coordinates must be finite, got {coords}")
            if not all(math.isfinite(loss) and loss >= 0.0 for loss in losses):
                raise ValueError(f"mean losses must be finite and nonnegative, got {losses}")

    def column(self, label: str) -> list[float]:
        """Each run's mean loss under the policy labelled `label`, in run order."""
        index = self.labels.index(label)  # a ValueError for a label not in the sweep
        return [losses[index] for losses in self.losses]


def _execute_run(cfg: SuiteConfig, run_index: int) -> tuple[tuple[float, ...], list[float]]:
    """One world, every policy. Returns the run's coordinates in
    SWEEP_VARIABLES order (the horizon as a float, the gap, the realized
    malicious fraction, the honest gain) and each policy's mean loss, in the
    order of cfg.specs."""
    run_rng = np.random.default_rng(np.random.SeedSequence(cfg.base_seed, spawn_key=(run_index,)))
    draw = sample_experiment(run_rng, cfg.suite)
    episode = run_episode(build_regions(cfg.specs, draw), draw)
    coords = (float(draw.horizon), draw.env.gap, episode.malicious_fraction, draw.env.gain_honest)
    return coords, episode.mean_loss


def run_suite(cfg: SuiteConfig, jobs: int = 1) -> Sweep:
    """Execute the configured number of independent runs and return their
    Sweep: one row per run, with each policy's unsmoothed mean loss. Apply
    smooth_records before plotting or emission.

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
    coords, losses = zip(*outcomes)
    return Sweep(cfg.suite.value, tuple(spec.label for spec in cfg.specs), coords, losses)


def moving_average(values: list[float], window: int) -> list[tuple[float, int]]:
    """Centered moving average of a series, as (average, number of values
    averaged) per position.

    The window is truncated symmetrically at the boundaries: position i
    averages over [i - h, i + h] with h = min(window // 2, i, n - 1 - i).
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    n = len(values)
    half = window // 2
    smoothed = []
    for i in range(n):
        h = min(half, i, n - 1 - i)
        span = values[i - h : i + h + 1]
        smoothed.append((fmean(span), len(span)))
    return smoothed


def smooth_records(sweep: Sweep, window: int) -> list[tuple]:
    """The CSV's rows, (suite, panel, policy, x, mean_loss, run_count), in
    the CSV's order: panels by name, then policies by label, then runs sorted
    by the panel's coordinate (stable, so run order breaks ties). Each row
    holds the centered moving average of its policy's losses in that order."""
    rows = []
    for panel in sorted(SWEEP_VARIABLES):
        xs = [coords[SWEEP_VARIABLES.index(panel)] for coords in sweep.coords]
        order = sorted(range(len(xs)), key=xs.__getitem__)
        for label in sorted(sweep.labels):
            column = sweep.column(label)
            smoothed = moving_average([column[r] for r in order], window)
            rows.extend((sweep.suite, panel, label, xs[r], *point) for r, point in zip(order, smoothed))
    return rows


def emit_csv(rows: list[tuple], path) -> None:
    """Write smooth_records' rows, in their order, as CSV with a fixed
    header, floats at 9 significant digits, \\n newlines."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["suite", "panel", "policy", "x", "mean_loss", "run_count"])
            for suite, panel, policy, x, mean_loss, run_count in rows:
                writer.writerow([suite, panel, policy, _fmt(x), _fmt(mean_loss), run_count])
    except OSError as exc:
        raise OSError(f"failed writing sweep CSV to {path}: {exc}") from exc


def aggregate_mean_loss(sweep: Sweep, label: str) -> float:
    """Mean over runs of the per-run mean loss of the policy labelled `label`."""
    return fmean(sweep.column(label))
