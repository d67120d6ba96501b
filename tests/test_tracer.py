"""The benchmark's tracer, perfbench/tracer.py, wraps nodeban's functions where
their callers look them up, by name (observe, simulate_node, the posterior
and update globals, ...). Renaming or deleting one of them breaks the traced
benchmark run; these checks make it break here too, and make a suite that
stops building its regions through PolicySpec.build fail."""

import importlib.util
from pathlib import Path

from nodeban.experiments import SuiteConfig, run_suite

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_finds_and_restores_every_traced_name():
    traced = load_tracer().Tracer()
    with traced.installed():
        patched = [(owner, attr, getattr(owner, attr), original) for owner, attr, original in traced._patches]
    assert patched
    for owner, attr, wrapper, original in patched:
        assert wrapper is not original, attr
        assert getattr(owner, attr) is original, attr


def test_every_region_is_built_inside_policy_build():
    """Each of a lookahead_compare run's three specs is one traced build, and
    the draw's shared lattice is computed inside them, so their self time is
    the region building's."""
    traced = load_tracer().Tracer()
    with traced.installed():
        run_suite(SuiteConfig.make("lookahead_compare", 7, n_runs=2))
    assert traced.calls("experiments.policy_build") == 6
    assert traced.self_s("experiments.policy_build") > 0.0
