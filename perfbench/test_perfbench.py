"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

SEED = 11  # not the default seed: small sizes have no golden digests

nodeban = run.load_program(run.ROOT)


def small_workload(name: str, workdir):
    if name == "stream_churn":
        return workloads.StreamWorkload(nodeban, SEED, workdir, n_events=3000)
    return workloads.SuiteWorkload(nodeban, name, SEED, workdir, n_runs=3)


def _counts(metrics: dict) -> dict:
    return {
        key: value
        for key, value in metrics.items()
        if key.endswith((".calls", ".bytes", "_ratio")) and key != "trace_overhead_ratio"
    }


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_runs_repeat_counts(name, tmp_path):
    runs = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        metrics, info, problems = run.traced_run(
            small_workload(name, workdir), name, SEED, 0, workdir / "trace.json"
        )
        assert problems == []
        runs.append((_counts(metrics), info["digest"]))
    assert runs[0] == runs[1]
    counts = runs[0][0]
    assert counts["simulator.obs_used_ratio" if name != "stream_churn" else "cli.dropped_ratio"] > 0
    assert counts["belief.posterior.calls"] > 0 or name == "delta_sweep"


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_output_matches_untraced(name, tmp_path):
    workload = small_workload(name, tmp_path)
    original = nodeban.belief.posterior
    plain = workload.run_unit(0)
    tracer = Tracer()
    with tracer.installed():
        assert nodeban.belief.posterior is not original
        traced = workload.run_unit(0, tracer)
    assert nodeban.belief.posterior is original
    assert plain.problems == traced.problems == []
    assert traced.digests == plain.digests


def test_check_verdicts_catches_a_changed_decision(tmp_path):
    workload = small_workload("stream_churn", tmp_path)
    workload.run_unit(0)
    text = workload.out_path.read_text()
    workload.out_path.write_text(text.replace('"keep"', '"remove"', 1))
    assert workloads.check_verdicts(workload.events_path, workload.out_path, "lookahead:4")


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delta_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
