"""Golden output: the CSV bytes of each suite's default policies at seed 7
and 50 runs, with one worker and with two, and the verdict bytes of
`nodeban stream` for each policy on the benchmark's seed-7 event file. A
change that claims to keep behaviour must keep these digests; the suite ones
are listed in ROADMAP.md, and all of them are in perfbench/golden.json, which
the stream cases read together with the benchmark's event generator and
policy flags."""

import ast
import collections
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nodeban
from nodeban.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

GOLDEN_SHA256 = {
    "delta_sweep": "0306fa60723c672eff4955385f299538e8c85025d884db1454c6a99144617393",
    "policy_compare": "ff40ccd5ce491ed3f680c18dfb669dea12035be46dc14c2b57ba6b6e187d1545",
    "lookahead_compare": "937e401ecf81fa5e45aa03aeebb3f45f7eb2d18dc1b0920678f2d32316ce6cd1",
}
STREAM_GOLDEN_SHA256 = json.loads((PERFBENCH / "golden.json").read_text())["stream_churn"]
STREAM_SEED = 7


@pytest.mark.parametrize("suite, jobs", [
    pytest.param(suite, jobs, id=suite if jobs == 1 else f"{suite}-jobs{jobs}")
    for jobs in (1, 2) for suite in sorted(GOLDEN_SHA256)
])
def test_suite_csv_matches_golden_digest(suite, jobs, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": suite, "n_runs": 50}))
    out = tmp_path / "out.csv"
    argv = ["suite", "--config", str(cfg), "--seed", "7", "--out", str(out), "--jobs", str(jobs)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[suite]


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, which imports perfbench/streamgen.py by name:
    both are loaded from their files and left out of sys.modules afterwards,
    so no later import in the session resolves to them."""
    loaded = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("streamgen", "workloads"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            loaded[name] = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, loaded[name])
            spec.loader.exec_module(loaded[name])
    return loaded["workloads"]


@pytest.fixture(scope="module")
def stream_events(workloads, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "events.jsonl"
    workloads.streamgen.write_events(path, STREAM_SEED, workloads.N_EVENTS)
    return path


@pytest.mark.parametrize("policy", sorted(STREAM_GOLDEN_SHA256))
def test_stream_verdicts_match_golden_digest(policy, workloads, stream_events, tmp_path, capsys):
    out = tmp_path / "verdicts.jsonl"
    argv = workloads.StreamWorkload.argv(policy, str(stream_events)) + ["--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STREAM_GOLDEN_SHA256[policy]


#: A child process's computation of every golden digest above, at --jobs 1,
#: written as JSON to the file argv[1] together with the numpy dispatch
#: targets still enabled in that process.
CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
from nodeban.cli import main
sys.path.insert(0, sys.argv[2])
import workloads
work = Path(sys.argv[3])
digests = {}
with contextlib.redirect_stdout(io.StringIO()):
    for suite in ("delta_sweep", "policy_compare", "lookahead_compare"):
        (work / "cfg.json").write_text(json.dumps({"suite": suite, "n_runs": 50}))
        assert main(["suite", "--config", str(work / "cfg.json"), "--seed", "7", "--out", str(work / "out")]) == 0
        digests[suite] = hashlib.sha256((work / "out").read_bytes()).hexdigest()
    events = str(work / "events.jsonl")
    workloads.streamgen.write_events(events, int(sys.argv[4]), workloads.N_EVENTS)
    for policy in workloads.STREAM_POLICIES:
        assert main(workloads.StreamWorkload.argv(policy, events) + ["--out", str(work / "out")]) == 0
        digests[policy] = hashlib.sha256((work / "out").read_bytes()).hexdigest()
enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
Path(sys.argv[1]).write_text(json.dumps({"enabled": enabled, "digests": digests}))
"""


def test_digests_hold_without_numpy_dispatch(tmp_path):
    """Every golden digest, suite and stream, in a child process whose numpy
    runs no dispatched SIMD loop: NPY_DISABLE_CPU_FEATURES (set in the
    child's environment only) names every dispatch target that numpy
    enables on this host, X86_V3, X86_V4, AVX512_ICL and AVX512_SPR for
    numpy 2.4 on an AVX-512 x86 host. What could not be disabled: the
    baseline group the build requires (X86_V2 there; numpy refuses to start
    without it), and a single feature inside a group, such as AVX2 or FMA3,
    since numpy dispatches by group and rejects those names."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatched = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    env = {key: value for key, value in os.environ.items() if not key.startswith("NPY_")}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(dispatched)
    env["PYTHONPATH"] = str(Path(nodeban.__file__).resolve().parents[1])
    result = tmp_path / "result.json"
    argv = [sys.executable, "-W", "error::ImportWarning", "-c", CHILD, str(result), str(PERFBENCH), str(tmp_path),
            str(STREAM_SEED)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    reported = json.loads(result.read_text())
    assert reported["enabled"] == []
    assert reported["digests"] == {**GOLDEN_SHA256, **STREAM_GOLDEN_SHA256}


#: numpy's transcendental ufuncs: unlike IEEE arithmetic and np.sqrt, which
#: are correctly rounded, their float64 bits may differ between hosts, with
#: the SIMD loops numpy dispatches to (np.exp does, on AVX-512).
TRANSCENDENTAL = {"exp", "log", "log1p", "expm1", "log2", "log10", "power", "float_power"}
#: Each allowed call, by (file, enclosing function, ufunc), with its count:
#: none, so every log and exp in src/nodeban is math's.
ALLOWED_TRANSCENDENTAL_CALLS = {}


def test_no_numpy_transcendental_reaches_an_output_byte():
    """Every call in src/nodeban of a numpy transcendental ufunc (np.log(x),
    numpy.exp(x), _np.exp(x) after an import numpy as _np in any function,
    from numpy import ...) is on the allow-list, so no decision or output
    byte rests on their host-dependent bits. np.sqrt is correctly rounded,
    so its bits are the same everywhere, and it is out of scope; so are
    math's functions, which come from the C library."""
    calls, bound = collections.Counter(), set()
    for path in sorted(Path(nodeban.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "numpy"
                    for alias in node.names if alias.name in TRANSCENDENTAL}
        assert not imported, (path.name, imported)
        # every name an import of numpy binds, at module level or in a body
        names = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 for alias in node.names if alias.name == "numpy" or alias.name.startswith("numpy.")}
        bound |= names

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                func = child.func if isinstance(child, ast.Call) else None
                if (isinstance(func, ast.Attribute) and func.attr in TRANSCENDENTAL
                        and isinstance(func.value, ast.Name) and func.value.id in names):
                    calls[path.name, scope, func.attr] += 1
                visit(child, inner)

        visit(tree, "")
    assert "np" in bound  # the check sees the imports the rule layer makes inside its functions
    assert dict(calls) == ALLOWED_TRANSCENDENTAL_CALLS
