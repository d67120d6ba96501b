"""The benchmark's workloads and the checks on their outputs.

A workload runs in units. A unit of a suite workload is one `nodeban suite`
pipeline at the golden size (run_suite over N_RUNS runs at --jobs 1, then
smooth_records and emit_csv). Unit 0 uses the run's seed as its base seed,
so at the default seed it is the golden config. The timed units 1, 2, ...
come from a fixed pool, base seed (k << 32) | POOL_SEED, the same for
every seed. One suite run costs 30 to 400 ms depending on its draw, so a
run's worth of draws that all changed with the seed would spread about 7%
between seeds from the inputs alone. A unit of stream_churn is one round
of `nodeban stream` passes over the seed's event file, one pass per
policy. The passes run in-process through cli.main with instrumented
stdin and stdout, and every round replays the same file.

Operations are what a user waits on: suite runs, or input events.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import streamgen

N_RUNS = 50
POOL_SEED = 7
N_EVENTS = 60_000
MA_WINDOW = 51

#: Policy labels each suite writes, in CSV order.
SUITE_POLICIES = {
    "policy_compare": ("hiper:star", "myopic", "optimistic"),
    "lookahead_compare": ("lookahead:4", "lookahead:8", "optimistic"),
    "delta_sweep": ("hiper:0.9", "hiper:0.95", "hiper:0.99", "hiper:star"),
}
PANELS = ("gain", "gap", "horizon", "malicious_proportion")
CSV_HEADER = ["suite", "panel", "policy", "x", "mean_loss", "run_count"]

STREAM_POLICIES = {
    "hiper": ("--policy", "hiper", "--delta", str(streamgen.HIPER_DELTA)),
    "myopic": ("--policy", "myopic"),
    "optimistic": ("--policy", "optimistic"),
    "lookahead:4": ("--policy", "lookahead", "--lookahead-depth", "4"),
}


@dataclass
class Unit:
    ops: int
    wall_s: float
    digests: dict[str, str]
    problems: list[str] = field(default_factory=list)
    csv_bytes: int = 0
    latency_p50_us: float = 0.0  # over the unit's verdicts (stream only)
    latency_p99_us: float = 0.0
    events_read: int = 0
    verdicts: int = 0


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------- suites --


class SuiteWorkload:
    kind = "suite"
    first_timed_unit = 1

    def __init__(self, nodeban, suite: str, seed: int, workdir, n_runs: int = N_RUNS) -> None:
        self.experiments = nodeban.experiments
        self.suite = suite
        self.seed = seed
        self.n_runs = n_runs
        self.csv_path = workdir / "unit.csv"
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps({"suite": suite, "n_runs": n_runs}))

    def unit_seed(self, k: int) -> int:
        return self.seed if k == 0 else (k << 32) | POOL_SEED

    def setup_argv(self) -> list[str]:
        """`nodeban suite` arguments whose parsing setup_s times."""
        return ["suite", "--config", str(self.config_path), "--seed", str(self.seed),
                "--out", str(self.csv_path)]

    def run_unit(self, k: int, tracer=None) -> Unit:
        exp = self.experiments
        cfg = exp.SuiteConfig.make(self.suite, self.unit_seed(k), n_runs=self.n_runs)
        start = time.perf_counter()
        records = exp.run_suite(cfg, jobs=1)
        smoothed = exp.smooth_records(records, cfg.ma_window)
        exp.emit_csv(smoothed, self.csv_path)
        wall = time.perf_counter() - start
        unit = Unit(ops=self.n_runs, wall_s=wall, digests={"csv": sha256_file(self.csv_path)})
        unit.csv_bytes = self.csv_path.stat().st_size
        unit.problems = check_suite_csv(self.csv_path, self.suite, self.n_runs)
        return unit


def _window_counts(n: int) -> list[int]:
    half = MA_WINDOW // 2
    return [2 * min(half, i, n - 1 - i) + 1 for i in range(n)]


def check_suite_csv(path, suite: str, n_runs: int) -> list[str]:
    """Check the CSV's layout: header, one smoothed point per run, policy and
    panel, rows sorted, run counts of a truncated centred window, and every
    coordinate and loss finite (losses nonnegative)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != CSV_HEADER:
        return [f"{suite}: bad CSV header {rows[:1]}"]
    groups: dict[tuple[str, str], list[tuple[float, int]]] = {}
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER) or row[0] != suite:
            return [f"{suite}: malformed CSV row {row}"]
        try:
            x, loss, count = float(row[3]), float(row[4]), int(row[5])
        except ValueError:
            return [f"{suite}: non-numeric CSV row {row}"]
        if not (math.isfinite(x) and math.isfinite(loss) and loss >= 0.0):
            return [f"{suite}: non-finite or negative value in CSV row {row}"]
        groups.setdefault((row[1], row[2]), []).append((x, count))
    expected_keys = [(p, pol) for p in PANELS for pol in SUITE_POLICIES[suite]]
    if list(groups) != expected_keys:
        return [f"{suite}: CSV groups {list(groups)} != {expected_keys}"]
    counts = _window_counts(n_runs)
    for key, points in groups.items():
        xs = [p[0] for p in points]
        if xs != sorted(xs):
            return [f"{suite}: group {key} is not sorted by x"]
        if [p[1] for p in points] != counts:
            return [f"{suite}: group {key} has wrong run counts"]
    return []


# ---------------------------------------------------------------- stream --


class _TimedInput:
    """Iterates the events file and notes when each line was read."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.lines = 0
        self.read_ns = 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        self.read_ns = time.perf_counter_ns()
        line = next(self._handle)
        self.lines += 1
        return line


class _TimedOutput:
    """Writes verdicts to a file and records, per verdict, the time since
    its input line was read."""

    def __init__(self, handle, source: _TimedInput, latencies: np.ndarray, first: int) -> None:
        self._handle = handle
        self._source = source
        self._latencies = latencies
        self.next = first

    def write(self, text: str) -> int:
        written = self._handle.write(text)
        self._latencies[self.next] = time.perf_counter_ns() - self._source.read_ns
        self.next += 1
        return written

    def flush(self) -> None:
        self._handle.flush()


class StreamWorkload:
    kind = "stream"
    first_timed_unit = 0

    def __init__(self, nodeban, seed: int, workdir, n_events: int = N_EVENTS) -> None:
        self.cli = nodeban.cli
        self.seed = seed
        self.n_events = n_events
        self.events_path = workdir / "events.jsonl"
        self.empty_path = workdir / "empty.jsonl"
        self.out_path = workdir / "verdicts.jsonl"
        self.node_ids = streamgen.write_events(self.events_path, seed, n_events)
        self.empty_path.write_text("")
        # Reused by every round, so latency samples do not add to peak RSS.
        self._latencies = np.zeros(n_events * len(STREAM_POLICIES), dtype=np.int64)
        self._checked: dict[str, str] = {}

    @staticmethod
    def argv(policy: str, path: str = "-") -> list[str]:
        return ["stream", path, *streamgen.WORLD_FLAGS, *STREAM_POLICIES[policy]]

    def setup_argv(self) -> list[str]:
        """`nodeban stream` arguments for an empty input: setup_s times the
        command up to its first event."""
        return self.argv("lookahead:4", str(self.empty_path)) + ["--out", str(self.out_path)]

    def run_unit(self, k: int, tracer=None) -> Unit:
        digests, problems = {}, []
        wall = 0.0
        filled = 0
        events_read = 0
        for policy in STREAM_POLICIES:
            with open(self.events_path, encoding="utf-8") as src, open(
                self.out_path, "w", encoding="utf-8", newline=""
            ) as dst:
                infile = _TimedInput(src)
                outfile = _TimedOutput(dst, infile, self._latencies, filled)
                saved = sys.stdin, sys.stdout
                sys.stdin, sys.stdout = infile, outfile
                try:
                    start = time.perf_counter()
                    if tracer is None:
                        code = self.cli.main(self.argv(policy))
                    else:
                        with tracer.span("cli.stream"):
                            code = self.cli.main(self.argv(policy))
                    wall += time.perf_counter() - start
                finally:
                    sys.stdin, sys.stdout = saved
            filled = outfile.next
            events_read += infile.lines
            digests[policy] = sha256_file(self.out_path)
            if code != 0:
                problems.append(f"stream {policy}: exit code {code}")
            elif infile.lines != self.n_events:
                problems.append(f"stream {policy}: read {infile.lines} of {self.n_events} events")
            elif policy not in self._checked:
                problems += check_verdicts(self.events_path, self.out_path, policy)
                self._checked[policy] = digests[policy]
            elif self._checked[policy] != digests[policy]:
                problems.append(f"stream {policy}: verdicts differ between rounds")
        unit = Unit(ops=events_read, wall_s=wall, digests=digests, problems=problems)
        latencies = self._latencies[:filled]
        unit.latency_p50_us = float(np.percentile(latencies, 50)) / 1e3
        unit.latency_p99_us = float(np.percentile(latencies, 99)) / 1e3
        unit.events_read = events_read
        unit.verdicts = filled
        return unit


def check_verdicts(events_path, verdicts_path, policy: str) -> list[str]:
    """Replay the input against the verdicts: every event of a node not yet
    removed gets exactly one verdict, in order, with the event's node and t,
    a keep/remove decision and a finite statistic in [0, 1]; events of
    removed nodes get none."""
    removed: set[str] = set()
    with open(events_path, encoding="utf-8") as events, open(verdicts_path, encoding="utf-8") as out:
        verdicts = iter(out)
        for line in events:
            event = json.loads(line)
            if event["node_id"] in removed:
                continue
            try:
                verdict = json.loads(next(verdicts))
            except StopIteration:
                return [f"stream {policy}: missing verdict for {event}"]
            if list(verdict) != ["node_id", "t", "decision", "statistic"]:
                return [f"stream {policy}: bad verdict keys {verdict}"]
            if (verdict["node_id"], verdict["t"]) != (event["node_id"], event["t"]):
                return [f"stream {policy}: verdict {verdict} does not match event {event}"]
            stat = verdict["statistic"]
            if not (isinstance(stat, float) and math.isfinite(stat) and 0.0 <= stat <= 1.0):
                return [f"stream {policy}: bad statistic in {verdict}"]
            if verdict["decision"] == "remove":
                removed.add(event["node_id"])
            elif verdict["decision"] != "keep":
                return [f"stream {policy}: bad decision in {verdict}"]
        if next(verdicts, None) is not None:
            return [f"stream {policy}: more verdicts than events"]
    return []
