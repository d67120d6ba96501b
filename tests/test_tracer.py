"""The benchmark's tracer, perfbench/tracer.py, wraps nodeban's functions where
their callers look them up, by name (observe, simulate_node, the posterior
and update globals, the json module of nodeban.cli, ...). Renaming or
deleting one of them breaks the traced benchmark run; these checks make it
break here too, and make a suite that stops building its regions through
PolicySpec.build, or a stream that stops parsing and writing its
non-canonical lines through json, fail. The benchmark's stream,
perfbench/streamgen.py, must stay on the stream's canonical path."""

import importlib.util
from pathlib import Path

from nodeban import cli
from nodeban.experiments import SuiteConfig, run_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py, loaded without importing perfbench as a package."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_restores_every_traced_name():
    traced = load_perfbench("tracer").Tracer()
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
    traced = load_perfbench("tracer").Tracer()
    with traced.installed():
        run_suite(SuiteConfig.make("lookahead_compare", 7, n_runs=2))
    assert traced.calls("experiments.policy_build") == 6
    assert traced.self_s("experiments.policy_build") > 0.0


#: A line of each kind, with the path its event takes: a canonical line with
#: a printable ASCII id lends its prefix to its verdict ("prefix"), one with
#: any other id has the id written by json.dumps ("dumps"), and a compact,
#: reordered or escaped line is parsed by json.loads as well ("loads").
MIXED_STREAM = [
    ('{"node_id": "a", "t": 1, "x": 0}', "prefix"),
    ('{"node_id":"b","t":1,"x":1}', "loads"),
    ('{"t": 2, "x": 1, "node_id": "a"}', "loads"),
    ('{"node_id": "c\\"d", "t": 1, "x": 0}', "loads"),
    ('{"node_id": "\u00e9", "t": 1, "x": 1}', "dumps"),
    ('{"node_id": "e", "t": 1, "x": 0.5}', "prefix"),
]


def test_stream_parses_and_writes_its_other_lines_through_json(tmp_path):
    paths = [path for _, path in MIXED_STREAM]
    assert [bool(cli._canonical_event(line)) for line, _ in MIXED_STREAM] == [path != "loads" for path in paths]
    events, out = tmp_path / "events.jsonl", tmp_path / "verdicts.jsonl"
    events.write_text("".join(line + "\n" for line, _ in MIXED_STREAM), encoding="utf-8")
    traced = load_perfbench("tracer").Tracer()
    with traced.installed():
        code = cli.main(["stream", str(events), "--out", str(out), "--policy", "hiper:0.9", "--q", "0.3",
                         "--Delta", "0.4"])
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == len(MIXED_STREAM)  # no event is dropped
    assert traced.calls("cli.json_parse") == paths.count("loads") == 3
    assert traced.calls("cli.json_write") == len(paths) - paths.count("prefix") == 4


def test_benchmark_stream_is_canonical_with_printable_ascii_ids(tmp_path):
    """Every event of the stream_churn workload's generator is read off
    _canonical_event and lends its prefix to its verdict, so the workload
    times that path and not json.loads and json.dumps."""
    path = tmp_path / "events.jsonl"
    load_perfbench("streamgen").write_events(path, 7, 5000)
    with open(path, encoding="utf-8") as lines:
        n_lines = 0
        for n_lines, line in enumerate(lines, 1):
            event = cli._canonical_event(line)
            assert event, line
            assert event[2].isascii() and event[2].isprintable(), line
    assert n_lines == 5000
