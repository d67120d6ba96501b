"""The benchmark's tracer, perfbench/tracer.py, wraps nodeban's functions where
their callers look them up, by name (observe, simulate_node, the posterior
and update globals, ...). Renaming or deleting one of them breaks the traced
benchmark run; this check makes it break here too."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_and_restores_every_traced_name():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer()
    with traced.installed():
        patched = [(owner, attr, getattr(owner, attr), original) for owner, attr, original in traced._patches]
    assert patched
    for owner, attr, wrapper, original in patched:
        assert wrapper is not original, attr
        assert getattr(owner, attr) is original, attr
