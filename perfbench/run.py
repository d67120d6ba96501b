"""nodeban benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload policy_compare --seed 7 --seconds 16 --trace 0

Run it from the repository root. It imports nodeban from ./src and writes
its scratch files and results under ./.perfbench. Workloads:

  policy_compare, lookahead_compare, delta_sweep
      the `nodeban suite` pipeline (run_suite at --jobs 1, smooth_records,
      emit_csv) on that suite, in units of 50 runs
  stream_churn
      `nodeban stream` through cli.main over a seeded churning event file,
      one pass each for hiper, myopic, optimistic and lookahead:4

Unit 0 is built from --seed. It runs first, untimed, as a warm-up, and its
outputs are checked: at the default seed against the digests in
golden.json, otherwise by their structure. With --trace 0 the run then
times about --seconds of units and reports the end-to-end metrics of
BENCHMARK.json. The times are scaled to a reference host speed by
probe.py, and the raw figures are printed too. With --trace 1 it repeats
unit 0, untraced and then traced, for --seconds, and reports the
per-layer metrics. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. Without nodeban's sources the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from probe import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 7
SETUP_REPEATS = 7
#: A unit's wall time at the seed commit on a 2-core Xeon; --seconds over
#: this, rounded up, gives the number of units an untraced run times, so
#: that parent and change time the same work.
NOMINAL_UNIT_S = {
    "policy_compare": 6.5,
    "lookahead_compare": 4.2,
    "delta_sweep": 3.1,
    "stream_churn": 8.0,
}
WORKLOADS = ("policy_compare", "lookahead_compare", "delta_sweep", "stream_churn")

#: Runs in a fresh interpreter: the time to import nodeban and parse the
#: command's arguments and config, up to its first unit of work.
_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from nodeban import cli
argv = sys.argv[2:]
if argv[0] == "suite":
    cli._load_suite_config(cli.build_parser().parse_args(argv))
elif cli.main(argv) != 0:
    sys.exit(1)
print(time.perf_counter() - start)
"""

#: Runs in a fresh interpreter next to each _SETUP_CHILD: the time to import
#: the libraries nodeban imports. Set-up times are divided by it, because
#: on this shared host both drifted by half between runs half an hour apart.
_REFERENCE_CHILD = """
import time
start = time.perf_counter()
import argparse, concurrent.futures, csv, dataclasses, enum, json, statistics
import numpy
print(time.perf_counter() - start)
"""
#: _REFERENCE_CHILD's median time at the seed commit on a 2-core Xeon.
REFERENCE_IMPORT_S = 0.19


class ProgramMissing(Exception):
    pass


def load_program(root: Path):
    """Import nodeban from root/src, and from nowhere else."""
    src = root / "src"
    if not (src / "nodeban" / "__init__.py").is_file():
        raise ProgramMissing(f"no nodeban sources under {src}")
    sys.path.insert(0, str(src))
    import nodeban
    import nodeban.cli
    import nodeban.experiments

    if Path(nodeban.__file__).resolve().parent != (src / "nodeban").resolve():
        raise ProgramMissing(f"imported nodeban from {nodeban.__file__}, not {src}")
    return nodeban


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
    }


def _child_seconds(*argv: str) -> float:
    done = subprocess.run(
        [sys.executable, "-c", *argv], capture_output=True, text=True, timeout=120, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout)


def measure_setup(workload) -> list[tuple[float, float]]:
    """(set-up seconds, reference import seconds) of SETUP_REPEATS pairs of
    fresh interpreters."""
    return [
        (
            _child_seconds(_SETUP_CHILD, str(ROOT / "src"), *workload.setup_argv()),
            _child_seconds(_REFERENCE_CHILD),
        )
        for _ in range(SETUP_REPEATS)
    ]


def make_workload(nodeban, name: str, seed: int, workdir: Path):
    if name == "stream_churn":
        return workloads.StreamWorkload(nodeban, seed, workdir)
    return workloads.SuiteWorkload(nodeban, name, seed, workdir)


def golden_problems(name: str, seed: int, unit) -> list[str]:
    """At the default seed, unit 0's outputs must match golden.json."""
    if seed != DEFAULT_SEED:
        return []
    golden = json.loads((HERE / "golden.json").read_text())[name]
    return [
        f"{name}: {key} digest {unit.digests[key]} != golden {want}"
        for key, want in golden.items()
        if unit.digests[key] != want
    ]


def _quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def untraced_run(workload, name: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    setup = measure_setup(workload)
    first = workload.run_unit(0)
    n_units = max(1, math.ceil(seconds / NOMINAL_UNIT_S[name]))
    with SpeedProbe() as probe:
        timed = [
            probe.speed_during(lambda k=k: workload.run_unit(k))
            for k in range(workload.first_timed_unit, workload.first_timed_unit + n_units)
        ]
    units = [unit for unit, _ in timed]
    problems = [p for u in [first, *units] for p in u.problems]
    problems += golden_problems(name, seed, first)
    ops = sum(u.ops for u in units)
    wall = sum(u.wall_s * speed for u, speed in timed)
    if workload.kind == "stream":
        # Every round replays the same input: take each round's quantiles
        # over its verdicts, then the median over rounds.
        p50 = statistics.median(u.latency_p50_us * s for u, s in timed)
        p99 = statistics.median(u.latency_p99_us * s for u, s in timed)
        samples = sum(u.verdicts for u in units)
    else:
        # A suite run's result is out when its unit's CSV is written, so
        # each run's latency is its unit's wall time.
        walls = [u.wall_s * s * 1e6 for u, s in timed]
        p50, p99 = _quantile(walls, 50), _quantile(walls, 99)
        samples = ops
    metrics = {
        "ops_per_s": ops / wall,
        "latency_p50_us": p50,
        "latency_p99_us": p99,
        "setup_s": statistics.median(s / ref for s, ref in setup) * REFERENCE_IMPORT_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "units": len(units),
        "ops": ops,
        "latency_samples": samples,
        "host_speed": [s for _, s in timed],
        "raw_ops_per_s": ops / sum(u.wall_s for u in units),
        "raw_setup_s": statistics.median(s for s, _ in setup),
        "setup_reference_s": [ref for _, ref in setup],
        "digest": first.digests,
    }
    if workload.kind == "stream":
        info["events_per_pass"] = workload.n_events
        info["node_ids"] = workload.node_ids
        info["dropped_events"] = units[0].events_read - units[0].verdicts
    return metrics, info, problems


def _layer_values(tracer, unit) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    observe = ("policies.observe", "policies.lookahead.observe")
    values = {}
    for name in (
        "simulator.node_rng", "simulator.sample_experiment", "simulator.simulate_node",
        "simulator.run_episode", "model.realized_loss", "hiper.observe", "belief.posterior",
        "belief.update", "policies.lookahead_value", "experiments.policy_build",
        "cli.json_parse", "cli.json_write",
    ):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s(name)
    values["policies.observe.calls"] = sum(calls(n) for n in observe)
    values["policies.observe.self_s"] = sum(self_s(n) for n in observe)
    for name in ("experiments.run_suite", "experiments.smooth_records", "experiments.emit_csv", "cli.stream"):
        values[f"{name}.self_s"] = self_s(name)
    values["experiments.emit_csv.bytes"] = unit.csv_bytes
    drawn = tracer.counters.get("obs_drawn", 0)
    fed = calls("hiper.observe") + values["policies.observe.calls"]
    values["simulator.obs_used_ratio"] = fed / drawn if drawn else 0.0
    decisions = calls("policies.lookahead.observe")
    values["policies.lookahead.cache_hit_ratio"] = (
        1.0 - calls("policies.lookahead_value") / decisions if decisions else 0.0
    )
    values["cli.dropped_ratio"] = (
        (unit.events_read - unit.verdicts) / unit.events_read if unit.events_read else 0.0
    )
    return values


def traced_run(workload, name: str, seed: int, seconds: float, trace_path: Path):
    reps = []  # (untraced unit, traced unit, tracer)
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        plain = workload.run_unit(0)
        tracer = Tracer()
        with tracer.installed():
            traced = workload.run_unit(0, tracer)
        reps.append((plain, traced, tracer))
    problems = [p for plain, traced, _ in reps for p in plain.problems + traced.problems]
    problems += golden_problems(name, seed, reps[0][0])
    layers = [_layer_values(tracer, traced) for _, traced, tracer in reps]
    metrics = {}
    for key, first in layers[0].items():
        series = [layer[key] for layer in layers]
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(series)
            continue
        if series != [first] * len(series):
            problems.append(f"{key} differs between traced repetitions: {series}")
        metrics[key] = first
    metrics["trace_overhead_ratio"] = statistics.median(t.wall_s / p.wall_s for p, t, _ in reps)
    for plain, traced, _ in reps:
        if plain.digests != traced.digests:
            problems.append(f"traced output {traced.digests} != untraced {plain.digests}")
    reps[0][2].write(trace_path)
    info = {
        "repetitions": len(reps),
        "ops": sum(p.ops + t.ops for p, t, _ in reps),
        "digest": reps[0][0].digests,
        "trace_file": str(trace_path),
    }
    return metrics, info, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        nodeban = load_program(ROOT)
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load nodeban: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(nodeban, args.workload, args.seed, workdir)
    env = environment(ROOT)

    if args.trace:
        values, info, problems = traced_run(
            workload, args.workload, args.seed, args.seconds, workdir / "trace.json"
        )
        wanted = spec["per_layer"]
    else:
        values, info, problems = untraced_run(workload, args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = max(1, info["ops"])
    failed = attempted if problems else 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    for key, value in env.items():
        print(f"env {key} {value}")
    for key, value in info.items():
        print(f"info {key} {value}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"error_rate {failed / attempted:g} ({failed} of {attempted} operations failed)")
    for key, metric in metrics.items():
        print(f"metric {key} {metric['value']!r} {metric['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, info=info, problems=problems)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
