import argparse
import collections
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nodeban
from nodeban.cli import _canonical_event, _parse_event, _run_stream, main
from nodeban.belief import posterior
from nodeban.hiper import HiperPolicy, optimal_delta
from nodeban.model import EnvParams, ExperimentSuite
from nodeban.policies import MyopicPolicy
from oracles import parse_event_loads, stream_replay

HIPER = ["--policy", "hiper", "--q", "0.3", "--delta", "0.9", "--Delta", "0.4"]
MYOPIC = ["--policy", "myopic", "--u", "0.8", "--q", "0.2", "--gU", "1", "--lQ", "1"]
MYOPIC_ENV = EnvParams(honest_mean=0.8, malicious_mean=0.2, gain_honest=1.0, loss_malicious=1.0,
                       departure_rate=1.0, prior_malicious=0.5)

# stream policy flags that argparse rejects
NON_FINITE_FLAGS = [
    ["--policy", "hiper", "--q", "0.3", "--delta", "0.9", "--Delta", "nan"],
    ["--policy", "hiper", "--q", "0.3", "--delta", "nan", "--Delta", "0.4"],
    MYOPIC[:-4] + ["--gU", "nan", "--lQ", "1"],
    MYOPIC + ["--prior", "nan"],
    MYOPIC + ["--binarize", "inf"],
    MYOPIC[:2] + ["--u", "1e999"] + MYOPIC[4:],
]
# finite stream policy flags that the policy's own checks reject
INVALID_FLAGS = [
    HIPER[:-1] + ["1e-200"],  # no finite warm-up
    HIPER[:-4] + ["--delta", "1.5", "--Delta", "0.4"],
    HIPER[:4] + ["--Delta", "0.4"],  # no --delta
    MYOPIC[:-2],  # no --lQ
    MYOPIC + ["--prior", "1.5"],
    ["--policy", "optimistic", *MYOPIC[2:]],  # no --lambda
    ["--policy", "lookahead", *MYOPIC[2:], "--lookahead-depth", "0"],
    # means outside [0, 1], and gaps outside (0, 1]
    ["--policy", "hiper", "--u", "5", "--q", "0.5", "--delta", "0.5"],
    HIPER[:2] + ["--q", "1.5"] + HIPER[4:],
    HIPER[:-1] + ["3"],
    ["--policy", "hiper", "--u", "0.3", "--q", "0.3", "--delta", "0.5"],
    # a --binarize threshold outside [0, 1] maps every non-binary score to one value
    MYOPIC + ["--binarize", "7"],
    MYOPIC + ["--binarize", "-3"],
    # out-of-range values of flags the chosen policy does not read
    HIPER + ["--prior", "7"],
    HIPER + ["--lookahead-depth", "0"],
    HIPER + ["--lambda", "5"],
    HIPER + ["--gU", "-3"],
    HIPER + ["--lQ", "-1"],
    HIPER + ["--lookahead-depth", "25"],
    MYOPIC + ["--delta", "1.5"],
    MYOPIC + ["--Delta", "5"],
    MYOPIC + ["--lookahead-depth", "25"],
    ["--policy", "optimistic", *MYOPIC[2:], "--lambda", "0.5", "--delta", "0"],
]


#: Depths and deltas in --policy or a suite's policies that int() and
#: float() take, as 10, 4, 4, 0.99, 0.9 and 0.9, but a spec does not.
STRICT_NUMBER_SPECS = ["lookahead:1_0", "lookahead:\uff14", "lookahead: 4",
                       "hiper:0.9_9", "hiper:\uff10.9", "hiper: 0.9"]
#: Values that no numeric flag takes (--seed, --ma-window, --jobs, --delta,
#: --lookahead-depth, --gU): int() and float() read the first five as 10, 1,
#: 1, 1 and 1, but the spec grammar does not, and allows one sign, not two;
#: 5000 digits are past int()'s limit and float()'s range.
STRICT_NUMBER_FLAGS = ["1_0", "\uff11", "\u0661", " 1", "1 ", "+-1", pytest.param("1" * 5000, id="5000_digits")]

#: A world every policy reads in full, and binary events from three nodes
#: near q and three near u, which every policy keeps and removes on.
WORLD = ["--u", "0.8", "--q", "0.3", "--gU", "1", "--lQ", "1", "--lambda", "0.1"]
ALIAS_EVENTS = [
    {"node_id": f"n{t % 6}", "t": t, "x": float(random.Random(t).random() < (0.3 if t % 6 < 3 else 0.8))}
    for t in range(1, 181)
]


def run_cli(args):
    return main(args)


def exit_code(args):
    """main's return code, or the code argparse exits with on a usage error."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def assert_usage_error(args, capsys):
    """Exit code 2 with one `error:` line on stderr; returns the captured
    stdout and stderr."""
    assert exit_code(args) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert sum(1 for line in captured.err.splitlines() if "error:" in line) == 1
    return captured


def run_into_closed_pipe(args, tmp_path):
    """Run the nodeban CLI in a child process whose stdout reader has already
    gone away; return (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(nodeban.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nodeban.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            cwd=tmp_path,
            timeout=60,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


def write_events(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def read_verdicts(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """Each ```sh block of the README that shows a nodeban command's output,
    as (argv, the stdin a printf piped into it gives, the output: the
    block's `# ` lines without their `# `)."""
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S):
        lines = block.splitlines(True)
        shown = "".join(line[2:] for line in lines if line.startswith("# "))
        if not shown:
            continue
        script = "".join(line for line in lines if not line.startswith("# ")).replace("\\\n", " ")
        pipe, _, command = script.rpartition("|")
        printf, argv = shlex.split(pipe), shlex.split(command)
        assert printf[:2] == ["printf", "%s\\n"] or not printf, pipe
        assert argv[0] == "nodeban", command
        yield argv[1:], "".join(f"{event}\n" for event in printf[2:]), shown


def test_readme_examples_print_what_the_readme_shows(monkeypatch, capsys):
    examples = list(readme_examples())
    assert [argv[0] for argv, _, _ in examples] == ["bounds", "stream"]
    for argv, stdin, shown in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == shown, argv


class TestBounds:
    def test_reference_values(self, capsys):
        assert run_cli(["bounds", "--lQ", "1", "--gU", "1", "--lambda", "0.1", "--Delta", "0.5"]) == 0
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert float(out["delta_star"]) == pytest.approx(1 - math.sqrt(0.02), rel=1e-8)
        assert out["delta_star_clamped"] == "false"
        assert float(out["loss_bound_combined"]) == pytest.approx(50.0, rel=1e-8)
        assert float(out["loss_bound_malicious"]) == pytest.approx(50.0, rel=1e-8)
        assert float(out["loss_bound_honest"]) == pytest.approx(50.0, rel=1e-8)
        # W = ln(2/delta*) / (2 * 0.25) ~ 1.69: one warm-up step on top of 50
        assert out["loss_bound_malicious_warmup"] == "51"
        assert out["loss_bound_combined_warmup"] == "51"

    def test_warmup_lines_follow_the_paper_lines(self, capsys):
        assert run_cli(["bounds", "--lQ", "1", "--gU", "1", "--lambda", "0.1", "--Delta", "0.5"]) == 0
        keys = [line.split(" ", 1)[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == [
            "delta_star",
            "delta_star_clamped",
            "loss_bound_malicious",
            "loss_bound_honest",
            "loss_bound_combined",
            "loss_bound_malicious_warmup",
            "loss_bound_combined_warmup",
        ]

    def test_clamp_flag(self, capsys):
        assert run_cli(["bounds", "--lQ", "1", "--gU", "1", "--lambda", "1", "--Delta", "1"]) == 0
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert out["delta_star_clamped"] == "true"

    def test_clamped_combined_bound_is_the_larger_part(self, capsys):
        # delta* clamps to 1e-6, where the paper's two closed forms no longer
        # meet: the combined ceiling is the malicious one, not the honest 3.6
        assert run_cli(["bounds", "--lQ", "100", "--gU", "1", "--lambda", "0.5", "--Delta", "0.5"]) == 0
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert out["delta_star_clamped"] == "true"
        assert out["loss_bound_honest"] == "3.6"
        assert out["loss_bound_malicious"] == out["loss_bound_combined"] == "100.0002"

    def test_gap_derived_from_means(self, capsys):
        assert run_cli(["bounds", "--lQ", "1", "--gU", "1", "--lambda", "0.1", "--u", "0.8", "--q", "0.3"]) == 0
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert float(out["loss_bound_combined"]) == pytest.approx(50.0, rel=1e-8)

    def test_honest_bound_that_underflows_exits_2(self, capsys):
        # lambda (gap^2 + 2 lambda) underflows to 0 at these finite flags
        argv = ["bounds", "--Delta", "1e-200", "--gU", "1", "--lQ", "1", "--lambda", "1e-300"]
        assert "honest loss bound is not finite" in assert_usage_error(argv, capsys).err

    @pytest.mark.parametrize("flags", [
        ["--Delta", "0.5", "--gU", "1e-308", "--lQ", "1e308", "--lambda", "1"],
        ["--Delta", "0.5", "--gU", "1", "--lQ", "1.7e308", "--lambda", "0.5"],
    ])
    def test_warmup_bound_that_overflows_exits_2(self, flags, capsys):
        # delta* clamps to 1e-6, so lQ times the 29 warm-up steps overflows
        captured = assert_usage_error(["bounds", *flags], capsys)
        assert captured.out == ""
        assert "malicious loss bound is not finite" in captured.err

    def test_nonpositive_inputs_exit_2(self):
        assert run_cli(["bounds", "--lQ", "0", "--gU", "1", "--lambda", "0.1", "--Delta", "0.5"]) == 2
        assert run_cli(["bounds", "--lQ", "1", "--gU", "1", "--lambda", "0.1"]) == 2

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--lQ", "nan"),
            ("--Delta", "nan"),
            ("--gU", "inf"),
            ("--lambda", "-inf"),
            ("--u", "x"),
            # finite gaps whose warm-up ln(2/delta) / (2 gap^2) is not
            ("--Delta", "1e-200"),
            ("--Delta", "1e-160"),
            # means outside [0, 1], and gaps outside (0, 1]
            ("--u", "5"),
            ("--q", "-0.5"),
            ("--Delta", "7"),
            ("--Delta", "1.0000001"),
        ],
    )
    def test_non_finite_inputs_exit_2(self, flag, value, capsys):
        args = {"--lQ": "1", "--gU": "1", "--lambda": "0.1", "--Delta": "0.5"}
        args[flag] = value
        argv = ["bounds"] + [item for pair in args.items() for item in pair]
        assert assert_usage_error(argv, capsys).out == ""


class TestStream:
    def test_hiper_removes_once_past_warmup(self, tmp_path):
        # zero deviation throughout; warm-up ln(2/0.9)/(2*0.16) ~ 2.49
        events = [{"node_id": "n1", "t": t, "x": 0.3} for t in range(1, 6)]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        code = run_cli(
            ["stream", str(inp), "--out", str(outp), "--policy", "hiper",
             "--q", "0.3", "--delta", "0.9", "--Delta", "0.4"]
        )
        assert code == 0
        verdicts = read_verdicts(outp)
        assert [v["decision"] for v in verdicts] == ["keep", "keep", "remove"]
        assert verdicts[-1]["t"] == 3
        assert verdicts[-1]["statistic"] == pytest.approx(0.3)

    def test_events_after_remove_are_suppressed(self, tmp_path):
        events = [{"node_id": "a", "t": t, "x": 0.3} for t in range(1, 10)]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        run_cli(["stream", str(inp), "--out", str(outp), "--policy", "hiper",
                 "--q", "0.3", "--delta", "0.9", "--Delta", "0.4"])
        verdicts = read_verdicts(outp)
        assert len(verdicts) == 3
        assert sum(1 for v in verdicts if v["decision"] == "remove") == 1

    def test_myopic_pinned_honest_prior_keeps_forever(self, tmp_path):
        events = [{"node_id": "a", "t": t, "x": t % 2} for t in range(1, 30)]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        code = run_cli(
            ["stream", str(inp), "--out", str(outp), "--policy", "myopic",
             "--u", "0.8", "--q", "0.2", "--gU", "1", "--lQ", "1", "--prior", "0"]
        )
        assert code == 0
        verdicts = read_verdicts(outp)
        assert len(verdicts) == 29
        assert all(v["decision"] == "keep" for v in verdicts)
        assert all(v["statistic"] == 0.0 for v in verdicts)

    def test_out_of_range_x_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        for x, shown in ((1.5, "1.5"), (-0.1, "-0.1"), (2, "2.0")):
            write_events(inp, [{"node_id": "a", "t": 1, "x": x}])
            code = run_cli(["stream", str(inp), "--policy", "hiper",
                            "--q", "0.3", "--delta", "0.9", "--Delta", "0.4"])
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: line 1: observation value must lie in [0, 1], got {shown}\n"
            )

    def test_integer_x_beyond_float_range_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        for x, shown in (("1" + "0" * 400, "got inf"), ("-1" + "0" * 400, "got -inf"),
                         ("1" + "0" * 5000, "not valid JSON")):
            inp.write_text('{"node_id": "a", "t": 1, "x": 0}\n{"node_id": "a", "t": 2, "x": %s}\n' % x)
            code = run_cli(["stream", str(inp), "--policy", "hiper",
                            "--q", "0.3", "--delta", "0.9", "--Delta", "0.4"])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: line 2: ") and shown in err
            assert err.count("\n") == 1

    def test_deeply_nested_line_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        inp.write_text('{"node_id": "a", "t": 1, "x": 0}\n' + "[" * 200_000 + "]" * 200_000 + "\n")
        err = assert_usage_error(["stream", str(inp), *HIPER], capsys).err
        assert err.startswith("error: line 2: not valid JSON (maximum recursion depth exceeded")

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        with open(inp, "w") as handle:
            handle.write(json.dumps({"node_id": "a", "t": 1, "x": 0.5}) + "\n")
            handle.write("{not json\n")
        code = run_cli(["stream", str(inp), "--policy", "hiper",
                        "--q", "0.3", "--delta", "0.9", "--Delta", "0.4"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("node_id, shown", [
        (7, "7"), (7.5, "7.5"), (True, "true"), (None, "null"), ({"a": 1}, '{"a": 1}'), (["a"], '["a"]'),
    ])
    def test_node_id_that_is_not_a_string_exits_2(self, node_id, shown, tmp_path, capsys):
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, [{"node_id": "7", "t": 1, "x": 0.5}, {"node_id": node_id, "t": 2, "x": 0.5}])
        code = run_cli(["stream", str(inp), "--out", str(outp), *HIPER])
        assert code == 2
        assert capsys.readouterr().err == f"error: line 2: node_id must be a JSON string, got {shown}\n"
        assert [v["node_id"] for v in read_verdicts(outp)] == ["7"]

    @pytest.mark.parametrize("line, message", [
        pytest.param("[1]", "expected a JSON object", id="array"),
        pytest.param('"a"', "expected a JSON object", id="string"),
        pytest.param("null", "expected a JSON object", id="null"),
        pytest.param('{"t": 2, "x": 0.5}', "missing fields ['node_id']", id="no_node_id"),
        pytest.param('{"x": 0.5, "node_id": "a"}', "missing fields ['t']", id="no_t"),
        pytest.param('{"node_id": "a", "t": 2}', "missing fields ['x']", id="no_x"),
        pytest.param('{"y": 1}', "missing fields ['node_id', 't', 'x']", id="no_fields"),
        pytest.param('{"node_id": 7, "t": 2, "x": 0.5}', "node_id must be a JSON string, got 7", id="numeric_id"),
        pytest.param('{"node_id": "a", "t": true, "x": 0.5}', "t must be a positive integer, got True", id="t_true"),
        pytest.param('{"node_id": "a", "t": 0, "x": 0.5}', "t must be a positive integer, got 0", id="t_0"),
        pytest.param('{"node_id": "a", "t": 1.0, "x": 0.5}', "t must be a positive integer, got 1.0", id="t_float"),
        pytest.param('{"node_id": "a", "t": "1", "x": 0.5}', "t must be a positive integer, got '1'", id="t_string"),
        pytest.param('{"node_id": "a", "t": 2, "x": true}', "x must be a number, got True", id="x_true"),
        pytest.param('{"node_id": "a", "t": 2, "x": "0.5"}', "x must be a number, got '0.5'", id="x_string"),
        pytest.param('{"node_id": "a", "t": 2, "x": null}', "x must be a number, got None", id="x_null"),
        pytest.param('{"node_id": "a", "t": 2, "x": 1.5}', "observation value must lie in [0, 1], got 1.5", id="x_1.5"),
        pytest.param('{"node_id": "a", "t": 2, "x": 1%s}' % ("0" * 400),
                     "observation value must lie in [0, 1], got inf", id="x_huge_int"),
    ])
    def test_malformed_event_exits_2_with_its_message(self, line, message, tmp_path, capsys):
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        inp.write_text('{"node_id": "b", "t": 1, "x": 0.5}\n' + line + "\n")
        assert run_cli(["stream", str(inp), "--out", str(outp), *HIPER]) == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert [v["node_id"] for v in read_verdicts(outp)] == ["b"]

    @pytest.mark.parametrize("flags, make_policy, binarize", [
        # at delta 0.99 and gap 1 the warm-up is below 1, so a node's first
        # event is removed iff |x - q| lies inside the radius: both decisions show
        pytest.param(["--policy", "hiper", "--q", "0.3", "--delta", "0.99", "--Delta", "1"],
                     lambda: HiperPolicy(0.99, 1.0, 0.3), None, id="hiper"),
        # a node's first 0 is removed and its first 1 kept
        pytest.param([*MYOPIC, "--binarize", "0.5"], lambda: MyopicPolicy(MYOPIC_ENV), 0.5, id="myopic"),
    ])
    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(events=st.lists(
        st.tuples(
            st.text(st.characters(exclude_categories=())),  # surrogates too
            st.integers(1, 10**100),
            st.sampled_from([0.0, 1.0, 5e-324, 0.1]) | st.floats(0.0, 1.0),
        ),
        min_size=1, max_size=6, unique_by=lambda event: event[0],
    ))
    @example(events=[('"', 1, 0.0), ("\\", 2, 1.0), ("\x00\n\x1f\x7f", 10**100, 5e-324), ("é—\U0001f600", 3, 0.1)])
    @example(events=[(json.loads('"\\ud800"'), 1, 0.5)])
    def test_verdict_lines_are_the_json_modules_bytes(self, flags, make_policy, binarize, events, tmp_path):
        events = [{"node_id": node_id, "t": t, "x": x} for node_id, t, x in events]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        assert run_cli(["stream", str(inp), "--out", str(outp), *flags]) == 0
        expected, _ = stream_replay(events, make_policy, binarize)  # json.dumps of each verdict
        assert outp.read_bytes() == expected.encode()

    def test_out_of_order_t_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, [
            {"node_id": "a", "t": 2, "x": 0.5},
            {"node_id": "a", "t": 2, "x": 0.5},
        ])
        code = run_cli(["stream", str(inp), "--policy", "hiper",
                        "--q", "0.3", "--delta", "0.9", "--Delta", "0.4"])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_removed_node_events_stay_ordered(self, tmp_path, capsys):
        # removed at t=3, as in test_events_after_remove_are_suppressed; t=5
        # is dropped but still sets the node's last t
        events = [{"node_id": "a", "t": t, "x": 0.3} for t in (1, 2, 3, 5, 4)]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        err = assert_usage_error(["stream", str(inp), "--out", str(outp), *HIPER], capsys).err
        assert err == (
            "error: line 5: t=4 for node 'a' is not strictly increasing (previous 5)\n"
        )
        assert [v["t"] for v in read_verdicts(outp)] == [1, 2, 3]

    @pytest.mark.parametrize("link", [False, True], ids=["same_path", "symlink"])
    def test_out_naming_the_input_exits_2_and_keeps_it(self, link, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": t, "x": 0.3} for t in range(1, 4)])
        before = inp.read_bytes()
        outp = inp
        if link:
            outp = tmp_path / "out.jsonl"
            outp.symlink_to(inp)
        err = assert_usage_error(["stream", str(inp), "--out", str(outp), *HIPER], capsys).err
        assert err.startswith(f"error: --out {outp} is the input file")
        assert inp.read_bytes() == before

    def test_out_naming_redirected_stdin_exits_2_and_keeps_it(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": t, "x": 0.3} for t in range(1, 4)])
        before = inp.read_bytes()
        src = os.path.dirname(os.path.dirname(nodeban.__file__))
        with open(inp, "rb") as stdin:
            proc = subprocess.run(
                [sys.executable, "-m", "nodeban.cli", "stream", "--out", str(inp), *HIPER],
                stdin=stdin,
                capture_output=True,
                env=dict(os.environ, PYTHONPATH=src),
                timeout=60,
            )
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert "Traceback" not in err
        assert sum(1 for line in err.splitlines() if "error:" in line) == 1
        assert err.startswith(f"error: --out {inp} is the input file")
        assert inp.read_bytes() == before

    @pytest.mark.parametrize(
        "stand_in", [io.StringIO, lambda text: iter(text.splitlines(True))], ids=["no_descriptor", "no_fileno"]
    )
    def test_stdin_without_a_descriptor_is_not_the_out_file(self, stand_in, tmp_path, monkeypatch):
        outp = tmp_path / "out.jsonl"
        outp.write_text("an earlier run's verdicts\n")
        text = "".join(json.dumps({"node_id": "a", "t": t, "x": 0.3}) + "\n" for t in range(1, 4))
        monkeypatch.setattr(sys, "stdin", stand_in(text))
        assert run_cli(["stream", "--out", str(outp), *HIPER]) == 0
        assert [v["t"] for v in read_verdicts(outp)] == [1, 2, 3]

    def test_bayesian_policy_rejects_non_binary_without_binarize(self, tmp_path, capsys):
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        for x in (0.7, 0.5):
            write_events(inp, [{"node_id": "a", "t": 1, "x": x}])
            code = run_cli(["stream", str(inp), "--policy", "myopic",
                            "--u", "0.8", "--q", "0.2", "--gU", "1", "--lQ", "1"])
            assert code == 2
            assert "binarize" in capsys.readouterr().err
        for x in (0, 1, 0.0, 1.0):
            write_events(inp, [{"node_id": "a", "t": 1, "x": x}])
            code = run_cli(["stream", str(inp), "--out", str(outp), *MYOPIC])
            assert code == 0
            assert len(read_verdicts(outp)) == 1

    def test_binarize_thresholds(self, tmp_path):
        events = [
            {"node_id": "a", "t": 1, "x": 0.7},
            {"node_id": "a", "t": 2, "x": 0.2},
        ]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        code = run_cli(
            ["stream", str(inp), "--out", str(outp), "--policy", "myopic",
             "--u", "0.9", "--q", "0.1", "--gU", "1", "--lQ", "1", "--binarize", "0.5"]
        )
        assert code == 0
        verdicts = read_verdicts(outp)
        # x=0.7 -> 1 looks honest (u high), x=0.2 -> 0 pulls back toward prior
        assert verdicts[0]["statistic"] < 0.5
        assert verdicts[1]["statistic"] == pytest.approx(0.5)

    def test_interleaved_nodes_tracked_independently(self, tmp_path):
        events = [
            {"node_id": "a", "t": 1, "x": 0.3},
            {"node_id": "b", "t": 1, "x": 1.0},
            {"node_id": "a", "t": 2, "x": 0.3},
            {"node_id": "b", "t": 2, "x": 1.0},
            {"node_id": "a", "t": 3, "x": 0.3},
            {"node_id": "b", "t": 3, "x": 1.0},
        ]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        run_cli(["stream", str(inp), "--out", str(outp), "--policy", "hiper",
                 "--q", "0.3", "--delta", "0.9", "--Delta", "0.4"])
        verdicts = read_verdicts(outp)
        a = [v for v in verdicts if v["node_id"] == "a"]
        b = [v for v in verdicts if v["node_id"] == "b"]
        assert [v["decision"] for v in a] == ["keep", "keep", "remove"]
        assert all(v["decision"] == "keep" for v in b)  # mean 1.0 is far from q

    def test_missing_policy_params_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": 1, "x": 1.0}])
        assert run_cli(["stream", str(inp), "--policy", "hiper", "--q", "0.3"]) == 2
        assert run_cli(["stream", str(inp), "--policy", "optimistic",
                        "--u", "0.8", "--q", "0.2", "--gU", "1", "--lQ", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("policy_args", NON_FINITE_FLAGS)
    def test_non_finite_flags_exit_2(self, policy_args, tmp_path, capsys):
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, [{"node_id": "a", "t": t, "x": 0.0} for t in range(1, 4)])
        assert_usage_error(["stream", str(inp), "--out", str(outp), *policy_args], capsys)
        assert not outp.exists()

    def test_gap_with_no_finite_warmup_exits_2(self, tmp_path, capsys):
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, [{"node_id": "a", "t": 1, "x": 0.3}])
        argv = ["stream", str(inp), "--out", str(outp), *HIPER[:-1], "1e-200"]
        assert_usage_error(argv, capsys)
        assert not outp.exists()

    @pytest.mark.parametrize("policy", ["hiper", "myopic", "optimistic", "lookahead"])
    def test_in_range_flags_the_policy_ignores_are_accepted(self, policy, tmp_path, capsys):
        # every flag at an end of its domain, read or not by the policy
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": 1, "x": 1.0}])
        flags = ["--u", "0.7", "--q", "0.3", "--gU", "0", "--lQ", "0", "--lambda", "1", "--prior", "1",
                 "--delta", "0.5", "--Delta", "1", "--lookahead-depth", "24", "--binarize", "0"]
        assert run_cli(["stream", str(inp), "--policy", policy, *flags]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("base", [HIPER, MYOPIC], ids=["hiper", "myopic"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--lookahead-depth", "0"), ("--lookahead-depth", "25"), ("--Delta", "5"), ("--u", "5"), ("--q", "-1")],
    )
    def test_out_of_range_flag_error_names_the_flag(self, base, flag, value, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": 1, "x": 1.0}])
        err = assert_usage_error(["stream", str(inp), *base, flag, value], capsys).err
        assert f"{flag} must " in err

    def test_belief_rules_take_equal_means(self, tmp_path, capsys):
        # only hiper reads the gap, so |u - q| = 0 stops it alone
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": 1, "x": 1.0}])
        assert run_cli(["stream", str(inp), "--policy", "myopic", *MYOPIC[2:4], "--q", "0.8", *MYOPIC[6:]]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("policy_args", NON_FINITE_FLAGS + INVALID_FLAGS)
    def test_flag_error_keeps_existing_out(self, policy_args, tmp_path, capsys):
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, [{"node_id": "a", "t": 1, "x": 0.0}])
        earlier = b'{"node_id": "a", "t": 1, "decision": "keep", "statistic": 0.5}\n'
        outp.write_bytes(earlier)
        assert_usage_error(["stream", str(inp), "--out", str(outp), *policy_args], capsys)
        assert outp.read_bytes() == earlier

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": t, "x": 1.0} for t in range(1, 2001)])
        code, err = run_into_closed_pipe(["stream", str(inp), *HIPER], tmp_path)
        assert code == 1
        assert err == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out_flag", "stdout"])
    @pytest.mark.parametrize("n_events", [3, 2000])
    def test_full_output_exits_1_without_traceback(self, to_stdout, n_events, tmp_path):
        # a few verdicts fail when the output is closed or flushed at the end,
        # many when a write fills the buffer
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": t, "x": 0.0} for t in range(1, n_events + 1)])
        src = os.path.dirname(os.path.dirname(nodeban.__file__))
        out_flag = [] if to_stdout else ["--out", "/dev/full"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "nodeban.cli", "stream", str(inp), *HIPER, *out_flag],
                stdout=full if to_stdout else subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src),
                timeout=60,
            )
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert err.startswith("runtime failure: [Errno 28]") and err.count("\n") == 1, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_out_file_exits_1_in_process(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, [{"node_id": "a", "t": 1, "x": 0.0}])
        assert run_cli(["stream", str(inp), *HIPER, "--out", "/dev/full"]) == 1
        assert capsys.readouterr().err.startswith("runtime failure: [Errno 28]")

    def test_invalid_utf8_exits_2_and_keeps_earlier_verdicts(self, tmp_path, capsys):
        # the good lines fill more than one 8 KiB decoding chunk, so some are
        # read and answered before the bad bytes are decoded
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, [{"node_id": f"n{i}", "t": 1, "x": 1.0} for i in range(400)])
        with open(inp, "ab") as handle:
            handle.write(b'{"node_id": "\xff", "t": 1, "x": 1.0}\n')
        err = assert_usage_error(["stream", str(inp), "--out", str(outp), *HIPER], capsys).err
        assert "not valid UTF-8" in err
        read = int(re.search(r"after line (\d+) ", err).group(1))
        assert 0 < read < 400
        assert [v["node_id"] for v in read_verdicts(outp)] == [f"n{i}" for i in range(read)]

    @pytest.mark.parametrize(
        "data, code, err",
        [
            (b'{"node_id": "\xff", "t": 1, "x": 1}\n', 2,
             b"error: input after line 0 is not valid UTF-8 (invalid start byte)\n"),
            ('{"node_id": "\u00e9", "t": 1, "x": 1}\n'.encode(), 0, b""),
        ],
        ids=["not_utf8", "utf8"],
    )
    def test_stdin_in_utf8_mode_is_read_as_a_file_argument(self, data, code, err, tmp_path):
        # UTF-8 mode (also a C or POSIX locale) decodes stdin with surrogateescape
        src = os.path.dirname(os.path.dirname(nodeban.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="1")
        (tmp_path / "in.jsonl").write_bytes(data)
        stdin_run, file_run = (
            subprocess.run(
                [sys.executable, "-m", "nodeban.cli", "stream", path, *HIPER],
                input=data,
                capture_output=True,
                env=env,
                cwd=tmp_path,
                timeout=60,
            )
            for path in ("-", "in.jsonl")
        )
        assert (stdin_run.returncode, stdin_run.stderr) == (code, err)
        assert (stdin_run.returncode, stdin_run.stdout, stdin_run.stderr) == (
            file_run.returncode, file_run.stdout, file_run.stderr
        )

    @pytest.mark.parametrize("policy", ["myopic", "optimistic", "lookahead"])
    def test_impossible_history_exits_2_and_keeps_earlier_verdicts(self, policy, tmp_path, capsys):
        # --prior 1 rules out an honest node, and --q 1.0 a malicious 0-bit
        events = [{"node_id": "a", "t": 1, "x": 1}, {"node_id": "b", "t": 2, "x": 0}]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        argv = ["stream", str(inp), "--out", str(outp), "--policy", policy, "--u", "0.5",
                "--q", "1.0", "--gU", "1", "--lQ", "1", "--lambda", "0.1", "--prior", "1"]
        err = assert_usage_error(argv, capsys).err
        assert err.startswith(
            "error: line 2: history (ones=0, count=1) has zero prior-weighted likelihood "
            "under both types (u=0.5, q=1.0, prior=1.0)"
        )
        assert [(v["node_id"], v["statistic"]) for v in read_verdicts(outp)] == [("a", 1.0)]

    def test_lookahead_stream_runs(self, tmp_path):
        events = [{"node_id": "a", "t": t, "x": 0.0} for t in range(1, 6)]
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, events)
        code = run_cli(
            ["stream", str(inp), "--out", str(outp), "--policy", "lookahead",
             "--u", "0.9", "--q", "0.1", "--gU", "1", "--lQ", "1",
             "--lookahead-depth", "3"]
        )
        assert code == 0
        verdicts = read_verdicts(outp)
        assert verdicts[-1]["decision"] == "remove"  # zeros look malicious

    @pytest.mark.parametrize("alias, spec", [
        (["hiper", "--delta", "0.9"], "hiper:0.9"),
        (["hiper", "--delta", "0.95000001"], "hiper:0.95000001"),
        (["lookahead"], "lookahead:4"),
        (["lookahead", "--lookahead-depth", "3"], "lookahead:3"),
        (["lookahead", "--leaf-rule", "myopic_infinite"], "lookahead:4:myopic_infinite"),
        (["lookahead", "--lookahead-depth", "4", "--leaf-rule", "optimistic"], "lookahead:4:optimistic"),
        (["lookahead", "--lookahead-depth", "2", "--leaf-rule", "zero"], "lookahead:2:zero"),
    ])
    def test_alias_writes_the_specs_bytes(self, alias, spec, tmp_path):
        inp = tmp_path / "in.jsonl"
        write_events(inp, ALIAS_EVENTS)
        outs = []
        for policy in (alias, [spec]):
            outs.append(tmp_path / f"out{len(outs)}.jsonl")
            assert run_cli(["stream", str(inp), "--out", str(outs[-1]), *WORLD, "--policy", *policy]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert {v["decision"] for v in read_verdicts(outs[0])} == {"keep", "remove"}

    def test_hiper_star_is_hiper_at_the_tuned_delta(self, tmp_path):
        inp, star, tuned = tmp_path / "in.jsonl", tmp_path / "star.jsonl", tmp_path / "tuned.jsonl"
        write_events(inp, ALIAS_EVENTS)
        delta = optimal_delta(1.0, 1.0, 0.1, abs(0.8 - 0.3)).value  # --lQ, --gU, --lambda and |u - q| of WORLD
        assert run_cli(["stream", str(inp), "--out", str(star), *WORLD, "--policy", "hiper:star"]) == 0
        assert run_cli(["stream", str(inp), "--out", str(tuned), *WORLD, "--policy", f"hiper:{delta!r}"]) == 0
        assert star.read_bytes() == tuned.read_bytes()
        assert {v["decision"] for v in read_verdicts(star)} == {"keep", "remove"}

    @pytest.mark.parametrize("flags", [
        [*WORLD[:4], "--gU", "0", *WORLD[6:]],
        WORLD[:-2],  # no --lambda
    ], ids=["gU-0", "no-lambda"])
    def test_hiper_star_without_positive_stakes_exits_2(self, flags, tmp_path, capsys):
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_events(inp, ALIAS_EVENTS)
        assert_usage_error(["stream", str(inp), "--out", str(outp), *flags, "--policy", "hiper:star"], capsys)
        assert not outp.exists()

    @pytest.mark.parametrize("flag, value", [("--gU", "0"), ("--lQ", "0"), ("--lambda", "5"), ("--lambda", "0")])
    def test_bounds_and_hiper_star_reject_a_stake_alike(self, flag, value, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, ALIAS_EVENTS)
        flags = [*WORLD[:WORLD.index(flag)], flag, value, *WORLD[WORLD.index(flag) + 2:]]
        bounds = assert_usage_error(["bounds", *flags], capsys).err
        assert assert_usage_error(["stream", str(inp), *flags, "--policy", "hiper:star"], capsys).err == bounds

    def test_bounds_and_hiper_star_reject_a_ratio_that_overflows_alike(self, tmp_path, capsys):
        """Both stakes at 1e308 overflow both sides of delta*'s ratio: the error
        names the flags, not a NaN delta that no flag gave."""
        inp = tmp_path / "in.jsonl"
        write_events(inp, ALIAS_EVENTS)
        flags = ["--Delta", "1", "--lQ", "1e308", "--gU", "1e308", "--lambda", "1"]
        bounds = assert_usage_error(["bounds", *flags], capsys).err
        assert bounds == ("error: delta* is not a number at lQ=1e+308, gU=1e+308, lambda=1.0, Delta=1.0: "
                          "both sides of its ratio overflow\n")
        assert assert_usage_error(["stream", str(inp), "--policy", "hiper:star", "--q", "0.3", *flags],
                                  capsys).err == bounds

    @pytest.mark.parametrize("policy, label", [
        (["optimistic", "--leaf-rule", "myopic_infinite"], "optimistic"),
        (["optimistic"], "optimistic"),
        (["lookahead:4:optimistic"], "lookahead:4:optimistic"),
        (["lookahead", "--leaf-rule", "myopic_infinite"], "lookahead:4:myopic_infinite"),
    ])
    def test_missing_lambda_error_names_the_spec(self, policy, label, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, ALIAS_EVENTS)
        err = assert_usage_error(["stream", str(inp), *WORLD[:-2], "--policy", *policy], capsys).err
        assert err == f"error: {label} needs --lambda\n"

    @pytest.mark.parametrize("policy, flag, value", [
        ("hiper:0.9", "--delta", "0.9"),
        ("hiper:star", "--delta", "0.5"),
        ("lookahead:4", "--lookahead-depth", "4"),
        ("lookahead:4", "--leaf-rule", "zero"),
        ("lookahead:3:optimistic", "--leaf-rule", "optimistic"),
    ])
    def test_flag_that_the_spec_sets_exits_2_naming_it(self, policy, flag, value, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, ALIAS_EVENTS)
        err = assert_usage_error(["stream", str(inp), *WORLD, "--policy", policy, flag, value], capsys).err
        assert err == f"error: {flag} conflicts with --policy {policy}, which sets it\n"

    @pytest.mark.parametrize("spec", STRICT_NUMBER_SPECS)
    def test_spec_number_not_an_ascii_literal_exits_2_naming_it(self, spec, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, ALIAS_EVENTS)
        err = assert_usage_error(["stream", str(inp), *WORLD, "--policy", spec], capsys).err
        assert err.startswith(f"error: policy {spec!r}: expected ")

    @pytest.mark.parametrize("value", STRICT_NUMBER_FLAGS)
    @pytest.mark.parametrize("policy, flag", [("hiper", "--delta"), ("lookahead", "--lookahead-depth"),
                                              ("myopic", "--gU")])
    def test_flag_number_not_an_ascii_literal_exits_2_naming_it(self, policy, flag, value, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_events(inp, ALIAS_EVENTS)
        err = assert_usage_error(["stream", str(inp), *WORLD, "--policy", policy, flag, value], capsys).err
        assert f"error: argument {flag}: expected " in err


class TestSuiteCommand:
    def write_config(self, path, **kwargs):
        with open(path, "w") as handle:
            json.dump(kwargs, handle)

    def test_missing_config_exits_2_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = run_cli(["suite", "--config", str(missing), "--out", str(tmp_path / "o.csv"), "--seed", "1"])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b'{"suite": "\xff"}'])
    def test_unreadable_config_exits_2_with_path(self, content, tmp_path, capsys):
        config = tmp_path / "config"  # a directory, or a file that is not UTF-8
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        out = tmp_path / "o.csv"
        argv = ["suite", "--config", str(config), "--out", str(out), "--seed", "1"]
        assert str(config) in assert_usage_error(argv, capsys).err
        assert not out.exists()

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        config, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        config.write_text("[" * 200_000 + "]" * 200_000)
        argv = ["suite", "--config", str(config), "--out", str(out), "--seed", "1"]
        assert f"config file {config} is not valid JSON" in assert_usage_error(argv, capsys).err
        assert not out.exists()

    @pytest.mark.parametrize("link", [False, True], ids=["same_path", "symlink"])
    def test_out_naming_the_config_exits_2_and_keeps_it(self, link, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="policy_compare", n_runs=3)
        before = cfg.read_bytes()
        out = cfg
        if link:
            out = tmp_path / "out.csv"
            out.symlink_to(cfg)
        argv = ["suite", "--config", str(cfg), "--seed", "1", "--out", str(out)]
        err = assert_usage_error(argv, capsys).err
        assert err.startswith(f"error: --out {out} is the config file")
        assert cfg.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted({cfg.name, out.name})

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_unwritable_out_exits_2_before_the_first_run(self, where, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="policy_compare", n_runs=300)
        out = tmp_path / "missing" / "o.csv" if where == "missing_directory" else tmp_path
        monkeypatch.setattr("nodeban.experiments.run_suite", lambda *args, **kwargs: pytest.fail("the sweep ran"))
        err = assert_usage_error(["suite", "--config", str(cfg), "--seed", "1", "--out", str(out)], capsys).err
        assert err.startswith(f"error: cannot open output {out}: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    def test_existing_out_is_kept_on_a_config_error_and_replaced_on_success(self, tmp_path, capsys):
        cfg, out, fresh = tmp_path / "cfg.json", tmp_path / "o.csv", tmp_path / "fresh.csv"
        out.write_text("an older, longer file\n" * 1000)
        before = out.read_bytes()
        self.write_config(cfg, suite="delta_sweep", n_runs=2, ma_window=1, policies=["hiper:0.9"], runs=2)
        assert_usage_error(["suite", "--config", str(cfg), "--seed", "1", "--out", str(out)], capsys)
        assert out.read_bytes() == before
        self.write_config(cfg, suite="delta_sweep", n_runs=2, ma_window=1, policies=["hiper:0.9"])
        for path in (out, fresh):
            assert run_cli(["suite", "--config", str(cfg), "--seed", "1", "--out", str(path)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_out_exits_1_at_write_time(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="delta_sweep", n_runs=2, ma_window=1, policies=["hiper:0.9"])
        assert run_cli(["suite", "--config", str(cfg), "--seed", "1", "--out", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: failed writing sweep CSV to /dev/full: ")
        assert "Traceback" not in err

    def test_seed_required(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="delta_sweep", n_runs=2)
        code = run_cli(["suite", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="delta_sweep", runs=2)
        code = run_cli(["suite", "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--seed", "1"])
        assert code == 2
        assert "runs" in capsys.readouterr().err

    def test_small_run_produces_csv_and_summary(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "curves.csv"
        self.write_config(cfg, suite="delta_sweep", n_runs=5, ma_window=3, policies=["hiper:0.9"])
        code = run_cli(["suite", "--config", str(cfg), "--out", str(out), "--seed", "11"])
        assert code == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "suite,panel,policy,x,mean_loss,run_count"
        assert len(lines) == 1 + 5 * 4  # 5 runs x 4 panels, one policy
        stdout = capsys.readouterr().out
        assert "runs=5" in stdout
        assert "policy hiper:0.9 mean_loss=" in stdout

    def test_deltas_that_differ_past_6_digits_are_distinct_policies(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "curves.csv"
        self.write_config(cfg, suite="delta_sweep", n_runs=2, ma_window=1, policies=["hiper:0.95", "hiper:0.9500001"])
        assert run_cli(["suite", "--config", str(cfg), "--out", str(out), "--seed", "11"]) == 0
        policies = {line.split(",")[2] for line in out.read_text().splitlines()[1:]}
        assert policies == {"hiper:0.95", "hiper:0.9500001"}
        stdout = capsys.readouterr().out
        assert "policy hiper:0.95 mean_loss=" in stdout and "policy hiper:0.9500001 mean_loss=" in stdout

    def test_byte_identical_across_runs_and_jobs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="policy_compare", n_runs=4, ma_window=3, policies=["myopic", "optimistic"])
        outs = []
        for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            code = run_cli(["suite", "--config", str(cfg), "--out", str(out), "--seed", "21", "--jobs", jobs])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_suite_flag_supplies_missing_suite_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        self.write_config(cfg, n_runs=3, ma_window=1, policies=["myopic"])
        code = run_cli(["suite", "--config", str(cfg), "--suite", "policy_compare",
                        "--out", str(out), "--seed", "2"])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("policy_compare,")

    def test_suite_flag_conflict_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="delta_sweep", n_runs=2)
        code = run_cli(["suite", "--config", str(cfg), "--suite", "policy_compare",
                        "--out", str(tmp_path / "o.csv"), "--seed", "2"])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_conflicting_base_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="delta_sweep", n_runs=2, base_seed=99)
        code = run_cli(["suite", "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--seed", "1"])
        assert code == 2
        assert "base_seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,flags",
        [
            ({"ma_window": [1]}, []),
            ({"ma_window": True}, []),
            ({"ma_window": 3.0}, []),
            ({"n_runs": True}, []),
            ({"n_runs": 2.5}, []),
            ({}, ["--jobs", "0"]),
            ({}, ["--jobs", "-1"]),
            ({}, ["--jobs", "two"]),
            ({"base_seed": [1]}, []),
            ({"base_seed": 1.5}, []),
            ({"base_seed": True}, []),
            ({"policies": ["hiper:0.9", "hiper:.90", "myopic"]}, []),
        ],
    )
    def test_ill_typed_config_and_flags_exit_2(self, config, flags, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        self.write_config(cfg, **{"suite": "policy_compare", "n_runs": 2, "ma_window": 1, **config})
        argv = ["suite", "--config", str(cfg), "--out", str(out), "--seed", "1", *flags]
        assert_usage_error(argv, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("spec", STRICT_NUMBER_SPECS)
    def test_spec_number_not_an_ascii_literal_exits_2_naming_it(self, spec, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        self.write_config(cfg, suite="lookahead_compare", n_runs=2, ma_window=1, policies=["myopic", spec])
        err = assert_usage_error(["suite", "--config", str(cfg), "--out", str(out), "--seed", "1"], capsys).err
        assert err.startswith(f"error: invalid suite config: policy {spec!r}: expected ")
        assert not out.exists()

    @pytest.mark.parametrize("value", STRICT_NUMBER_FLAGS)
    @pytest.mark.parametrize("flag", ["--seed", "--ma-window", "--jobs"])
    def test_flag_number_not_an_ascii_literal_exits_2_naming_it(self, flag, value, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        self.write_config(cfg, suite="delta_sweep", n_runs=2, ma_window=1)
        argv = ["suite", "--config", str(cfg), "--out", str(out), "--seed", "1", flag, value]
        err = assert_usage_error(argv, capsys).err
        assert f"error: argument {flag}: expected an integer, got {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,flags,message",
        [
            ({}, ["--seed", "-1"], "--seed must be nonnegative, got -1"),
            ({}, ["--ma-window", "-3"], "--ma-window must be a positive odd integer, got -3"),
            ({}, ["--ma-window", "4"], "--ma-window must be a positive odd integer, got 4"),
            ({"ma_window": 4}, [], "invalid suite config: ma_window must be a positive odd integer, got 4"),
        ],
    )
    def test_out_of_domain_value_is_named_where_it_was_given(self, config, flags, message, tmp_path, capsys):
        """A value given by flag names the flag, and one given in the config its field."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        self.write_config(cfg, **{"suite": "delta_sweep", "n_runs": 2, **config})
        argv = ["suite", "--config", str(cfg), "--out", str(out), "--seed", "1", *flags]
        assert assert_usage_error(argv, capsys).err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_runs", "ma_window", "policies"])
    def test_null_config_key_exits_2_naming_it(self, key, tmp_path, capsys):
        """A key set to null is an error, not the default that omitting it gives."""
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        self.write_config(cfg, **{"suite": "delta_sweep", "n_runs": 2, "ma_window": 1, key: None})
        err = assert_usage_error(["suite", "--config", str(cfg), "--out", str(out), "--seed", "1"], capsys).err
        assert err == f"error: field {key!r}: expected a value, got null\n"
        assert not out.exists()

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        self.write_config(cfg, suite="delta_sweep", n_runs=2, ma_window=1, policies=["hiper:0.9"])
        code, err = run_into_closed_pipe(
            ["suite", "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--seed", "1"],
            tmp_path,
        )
        assert code == 1
        assert err == ""


# ------------------------------------------------------------ flag fuzz --

UNIT = ("0", "1", "5e-324", "1e-300", "0.3", "0.5", "0.9")
STAKE = ("0", "1", "5e-324", "1e-300", "1e300", "0.5", "2")
RATE = ("1", "5e-324", "1e-300", "0.01", "0.5")
#: Each flag's values: five times each in-domain value, from 0 and 1 to the
#: smallest subnormal and a huge double, then values outside most domains.
FUZZ_VALUES = {
    flag: st.sampled_from([*domain * 5, "-1", "-5e-324", "1e300"])
    for flags, domain in [
        (("--u", "--q", "--prior", "--binarize"), UNIT),
        (("--gU", "--lQ"), STAKE),
        (("--lambda", "--Delta"), RATE),
        (("--delta",), ("5e-324", "1e-300", "0.01", "0.5", "0.9")),
        (("--lookahead-depth",), ("1", "3", "24")),
    ]
    for flag in flags
}
FUZZ_VALUES["--leaf-rule"] = st.sampled_from(["zero", "myopic_infinite", "optimistic"])
#: Three nodes' binary events, then real x, which a belief rule rejects
#: without --binarize.
FUZZ_EVENTS = [{"node_id": f"n{t % 3}", "t": t, "x": float(t % 4 == 0)} for t in range(1, 19)] + [
    {"node_id": "n0", "t": 19, "x": 0.25},
    {"node_id": "n1", "t": 20, "x": 0.75},
]


def flag_sets(required, optional):
    """Each flag given once as --flag=value: all of required but at most one,
    and any of optional."""
    given = st.fixed_dictionaries(
        {flag: FUZZ_VALUES[flag] for flag in required}, optional={flag: FUZZ_VALUES[flag] for flag in optional}
    )
    dropped = st.sets(st.sampled_from(required), max_size=1)
    return st.tuples(given, dropped).map(
        lambda drawn: [f"{flag}={value}" for flag, value in drawn[0].items() if flag not in drawn[1]]
    )


@pytest.fixture(scope="module")
def fuzz_events(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "events.jsonl"
    write_events(path, FUZZ_EVENTS)
    return str(path)


#: --policy spec strings besides the four alias names: hiper:star, which
#: tunes delta from the stakes, deltas in range and too small, a leaf rule,
#: a depth past MAX_DEPTH, no policy, and numbers that are not ASCII literals.
FUZZ_SPECS = ["hiper:star", "hiper:0.9", "hiper:1e-310", "lookahead:3:optimistic", "lookahead:25", "bogus",
              *STRICT_NUMBER_SPECS]
STREAM_REQUIRED = ("--u", "--q", "--gU", "--lQ", "--lambda", "--delta")
STREAM_OPTIONAL = ("--Delta", "--prior", "--binarize", "--lookahead-depth", "--leaf-rule")


@settings(max_examples=400)
@given(command=st.one_of(
    flag_sets(("--gU", "--lQ", "--lambda"), ("--u", "--q", "--Delta")).map(lambda flags: ["bounds", *flags]),
    st.tuples(
        st.sampled_from(["hiper", "myopic", "optimistic", "lookahead"] + FUZZ_SPECS),
        flag_sets(STREAM_REQUIRED, STREAM_OPTIONAL),
    ).map(lambda drawn: ["stream", "--policy", drawn[0], *drawn[1]]),
))
def test_random_flag_sets_exit_cleanly(command, fuzz_events):
    """bounds and stream on any flag set: exit 0, 1 or 2, no traceback,
    exactly one error line on a usage error, and no inf or NaN printed."""
    argv = [*command[:1], *([fuzz_events] if command[0] == "stream" else []), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    assert not re.search(r"\b(inf|nan|infinity)\b", out.getvalue(), re.IGNORECASE), (argv, out.getvalue())


#: Policy strings for any suite: hiper deltas whose 2/delta overflows, the
#: largest delta below 1, a depth past MAX_DEPTH, a padded name, pairs with
#: one label (hiper:.90, " myopic"), and numbers that are not ASCII literals.
#: A valid lookahead plan runs only on lookahead_compare, whose horizons stay
#: at most 100.
SUITE_POLICIES = ["hiper:0.9", "hiper:.90", "hiper:star", "hiper:1e-310", "hiper:5e-324",
                  "hiper:0.9999999999999999", "myopic", " myopic", "optimistic", "lookahead:25",
                  *STRICT_NUMBER_SPECS]
#: Bad values besides 1 to 3 runs and windows 1 and 3 (each drawn three
#: times as often), null included.
BAD_COUNTS = [0, -1, True, 7.0, "x", None]


@st.composite
def suite_configs(draw):
    suite = draw(st.sampled_from([suite.value for suite in ExperimentSuite]))
    policies = SUITE_POLICIES + (["lookahead:2", "lookahead:3:optimistic"] if suite == "lookahead_compare" else [])
    config = {
        "suite": suite,
        "n_runs": draw(st.sampled_from([1, 2, 3] * 3 + BAD_COUNTS)),
        "ma_window": draw(st.sampled_from([1, 3] * 3 + BAD_COUNTS)),
    }
    if draw(st.integers(0, 3)):
        config["policies"] = draw(st.lists(st.sampled_from(policies), max_size=3))
    return config


@settings(max_examples=150)
@given(config=suite_configs(), jobs=st.sampled_from(["1", "2"]), seed=st.integers(0, 2**32))
def test_random_suite_configs_exit_cleanly(config, jobs, seed, tmp_path_factory):
    """suite on any small config: exit 0 or 2, no traceback, exactly one
    error line and no CSV on a config error."""
    folder = tmp_path_factory.mktemp("suite")
    cfg, out = folder / "cfg.json", folder / "o.csv"
    cfg.write_text(json.dumps(config))
    argv = ["suite", "--config", str(cfg), "--out", str(out), "--seed", str(seed), "--jobs", jobs]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    assert code in (0, 2), (config, err.getvalue())
    assert "Traceback" not in err.getvalue(), config
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, (config, err.getvalue())
    assert out.exists() == (code == 0), config


# ------------------------------------------------- stream line parsing --

#: Pieces of JSON and near-JSON that the fuzz strings together: structure,
#: the event's keys (one escaped), numbers at and past the grammar's edges,
#: the non-standard constants json accepts, strings with escapes (a lone
#: surrogate, an unknown escape, a raw control character), whitespace JSON
#: skips and whitespace it does not, and a BOM.
PARSE_FRAGMENTS = [
    "{", "}", "[", "]", ",", ":", '"node_id"', '"t"', '"x"', '"node\\u005fid"', '"a"', '""',
    "0", "1", "-0", "7", "0.5", "1e0", "-1E-2", "1.", ".5", "01", "-", "+1", "1" * 30, "2e400",
    "NaN", "Infinity", "-Infinity", "nan", "true", "false", "null", "nul",
    '"\\ud800"', '"\\u00e9"', '"\\uzzzz"', '"\\q"', '"\x00"', '"\\"', "'a'", "é", "\U0001f600",
    " ", "\t", "\n", "\r", "\x0b", "\xa0", "\u2028", "\ufeff",
]


def parse_fuzz_lines(seed, n):
    """n input lines, derandomized by seed: half strung together from
    PARSE_FRAGMENTS, half valid events in several layouts with up to three
    insertions (of a fragment or one character of one) or deletions."""
    rng = random.Random(seed)
    chars = sorted(set("".join(PARSE_FRAGMENTS)))
    for i in range(n):
        if i % 2:
            yield "".join(rng.choice(PARSE_FRAGMENTS) for _ in range(rng.randint(1, 12)))
            continue
        event = {"node_id": rng.choice(["a", "n7", "\ud800", 'q"\\']), "t": rng.choice([1, 2, 10**20]),
                 "x": rng.choice([0, 1, 0.0, 0.25, 1.0, 5e-324])}
        items = list(event.items())
        rng.shuffle(items)
        separators = rng.choice([(", ", ": "), (",", ":"), (" ,\t", "\t: ")])
        line = json.dumps(dict(items), separators=separators, ensure_ascii=rng.random() < 0.5)
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(line))
            if rng.random() < 0.5:
                line = line[:at] + line[at + rng.randint(1, 3):]
            else:
                piece = rng.choice(PARSE_FRAGMENTS)
                line = line[:at] + (piece if rng.random() < 0.5 else rng.choice(chars)) + line[at:]
        yield line


def parse_outcome(parse, text):
    """parse(text, 1) as a comparable value: the event's fields, with x by
    its repr, or the error type and text."""
    try:
        node_id, t, x = parse(text, 1)
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)
    return node_id, t, repr(x)


def test_parse_event_is_json_loads_on_fuzzed_lines():
    """_parse_event on the stripped lines the stream hands it: the same
    event as json.loads-based parsing, or the same error text."""
    outcomes = collections.Counter()
    for line in parse_fuzz_lines(seed=30, n=24_000):
        text = line.strip()
        expected = parse_outcome(parse_event_loads, text)
        assert parse_outcome(_parse_event, text) == expected, text
        # an event, or the reason json gives, or "" for an event's own check
        outcomes["event" if len(expected) == 3 else expected[1].partition(" (")[2].partition(":")[0]] += 1
    # accepted events show, and so does every error the parse rebuilds
    assert outcomes["event"] > 2000
    assert min(outcomes[reason] for reason in
               ("Expecting value", "Extra data", "Unexpected UTF-8 BOM (decode using utf-8-sig)")) > 100


@pytest.mark.parametrize("text, outcome", [
    pytest.param('\ufeff{"node_id": "a", "t": 1, "x": 0.5}',
                 "not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0))", id="bom"),
    pytest.param('{"node_id": "a", "t": 1, "x": 0.5}  \t {}',
                 "not valid JSON (Extra data: line 1 column 39 (char 38))", id="padded_extra_data"),
    pytest.param('"a"\t1', "not valid JSON (Extra data: line 1 column 5 (char 4))", id="tab_extra_data"),
    pytest.param("[" * 100_000, "not valid JSON (maximum recursion depth exceeded", id="deep_nesting"),
    pytest.param('{"node_id": "a", "t": 1%s, "x": 0.5}' % ("0" * 4999),
                 "not valid JSON (Exceeds the limit (4300 digits)", id="5000_digit_t"),
    pytest.param('{"node_id": "a", "t": 1, "x": NaN}', "observation value must lie in [0, 1], got nan", id="nan"),
    pytest.param('{"node_id": "a", "t": 1, "x": Infinity}', "observation value must lie in [0, 1], got inf", id="inf"),
    pytest.param('{"node_id": "a", "t": 1, "x": -Infinity}', "observation value must lie in [0, 1], got -inf",
                 id="minus_inf"),
    pytest.param('{"node_id": "\\ud800", "t": 1, "x": 0.5}', ("\ud800", 1, "0.5"), id="lone_surrogate"),
    pytest.param('{"node_id": "a", "t": 1, "x": 0.5, "node_id": "b", "t": 2}', ("b", 2, "0.5"), id="duplicate_keys"),
    pytest.param("", "not valid JSON (Expecting value: line 1 column 1 (char 0))", id="empty"),
])
def test_parse_event_is_json_loads_on_edge_lines(text, outcome):
    expected = parse_outcome(parse_event_loads, text)
    assert parse_outcome(_parse_event, text) == expected
    if isinstance(outcome, tuple):
        assert expected == outcome
    else:
        assert expected[1].startswith(f"line 1: {outcome}")


#: The fields of a canonical event line, each listed as the pattern's own
#: values first and then mutations of them, and what a line may end with:
#: ids the pattern takes as they stand (non-ASCII, a raw lone surrogate, DEL,
#: the empty id) or leaves to the scanner (an escaped quote or backslash, a
#: raw control character); t and x at and past the pattern's edges.
CANONICAL_FIELDS = {
    "id": (["n0000001", "\u00e9", "\ud800", "\x7f", ""], ['\\"', "\\\\", "a\x1fb", "\x00"]),
    "t": (["7", "9" * 18, "1" + "0" * 17], ["0", "01", "-1", "1" * 19, "1" * 21, "1.0", "true"]),
    "x": (["0", "1", "0.25", "1.0", "0.0", "1.00"], ["1.5", "-0", "-0.0", "01", "1e0", "5e-324", "NaN", "true"]),
    "suffix": (["", "\n"], [" \n", "\t", "\r"]),
}


def canonical_mutations():
    """Every combination of CANONICAL_FIELDS' values, as an input line."""
    fields = [own + mutated for own, mutated in CANONICAL_FIELDS.values()]
    for node_id, t, x, suffix in itertools.product(*fields):
        yield f'{{"node_id": "{node_id}", "t": {t}, "x": {x}}}{suffix}'


#: The stream's policies on raw lines: hiper, whose statistic after one event
#: is x, and a belief rule, which refuses a non-binary x.
RAW_LINE_POLICY = HiperPolicy(0.9, 0.4, 0.3)
RAW_LINE_BELIEF_POLICY = MyopicPolicy(MYOPIC_ENV)


def stream_outcome(line, policy=RAW_LINE_POLICY):
    """_run_stream on the one raw line: its exit code, output and error text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = _run_stream(argparse.Namespace(binarize=None), policy, [line], out)
    return code, out.getvalue(), err.getvalue()


def loads_outcome(line, policy=RAW_LINE_POLICY):
    """stream_outcome by definition: the stripped line is refused if blank, and
    otherwise parsed by json.loads-based parsing, whose event gets the rule's
    verdict at count 1: hiper's with the running mean summed from 0, or a
    belief rule's at ones x, with its posterior, when x is binary."""
    text = line.strip()
    try:
        if not text:
            raise ValueError("line 1: blank line")
        node_id, t, x = parse_event_loads(text, 1)
        if not isinstance(policy, HiperPolicy) and x not in (0.0, 1.0):
            raise ValueError(f"line 1: x={x} is not binary; this policy needs binary observations "
                             "(pass --binarize THRESHOLD to threshold them)")
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    if isinstance(policy, HiperPolicy):
        remove, statistic = policy.removes(1, 0 + x), 0 + x
    else:
        remove, statistic = policy.removes(1, int(x)), posterior(int(x), 1, policy.env)
    decision = "remove" if remove else "keep"
    return 0, json.dumps({"node_id": node_id, "t": t, "decision": decision, "statistic": statistic}) + "\n", ""


def test_stream_reads_raw_lines_as_json_loads():
    """_run_stream on each raw line, canonical or not, against json.loads on
    the stripped line: on the fuzz, and on every mutation of a canonical
    line, under hiper and again under a belief rule, so that each id is
    written on both rules' verdict paths. The pattern takes exactly the
    mutations whose every field is the pattern's own, and 60 of the fuzz's
    lines."""
    fuzz = list(parse_fuzz_lines(seed=30, n=24_000))
    mutations = list(canonical_mutations())
    for line in fuzz + mutations:
        assert stream_outcome(line) == loads_outcome(line), line
    for line in mutations:
        assert stream_outcome(line, RAW_LINE_BELIEF_POLICY) == loads_outcome(line, RAW_LINE_BELIEF_POLICY), line
    own = math.prod(len(values) for values, _ in CANONICAL_FIELDS.values())
    assert sum(bool(_canonical_event(line)) for line in mutations) == own == 180
    assert sum(bool(_canonical_event(line)) for line in fuzz) == 60  # unmutated, in json.dumps' default layout


def hiper_replay(events, policy):
    """The stream's verdict lines on events (node_id, t, x), each decided at
    its own event by policy.removes on the node's running total, with the
    mean total / count as its statistic; and the (count, total) points."""
    nodes, lines, points = {}, [], set()
    for node_id, t, x in events:
        count, total = nodes.get(node_id, (0, 0.0))
        if count is None:
            continue
        count, total = count + 1, total + x
        remove = policy.removes(count, total)
        decision = "remove" if remove else "keep"
        lines.append(json.dumps({"node_id": node_id, "t": t, "decision": decision, "statistic": total / count}) + "\n")
        points.add((count, total))
        nodes[node_id] = (None if remove else count, total)
    return lines, points


def hiper_streams():
    """Three event streams over shared node ids: binary, each bit written as
    an int or a float; real-valued, with each node's first x 0.5 and the
    rest 0 or 1, so every total is fractional while nodes still share
    points; and mixed, with -0.0, halves that sum to whole totals, and
    arbitrary fractions."""
    rng = random.Random(43)
    ids = [f"n{i}" for i in range(40)] + ["\u00e9", "\x7f", ""]
    bits = [(rng.choice(ids), t, int(rng.random() < 0.7)) for t in range(1, 1501)]
    binary = [(node_id, t, x if rng.random() < 0.5 else float(x)) for node_id, t, x in bits]  # "1" and "1.0"
    seen, real = set(), []
    for t in range(1, 1501):
        node_id = rng.choice(ids)
        real.append((node_id, t, 0.5 if node_id not in seen else float(rng.random() < 0.7)))
        seen.add(node_id)
    values = [0.0, 1.0, -0.0, 0.5, 0.5, 0.25, 0.75, 0.3]
    mixed = [(rng.choice(ids), t, rng.choice(values)) for t in range(1, 1501)]
    return {"binary": binary, "real": real, "mixed": mixed}


@pytest.mark.parametrize("kind", ["binary", "real", "mixed"])
def test_stream_keeps_hiper_verdicts_per_whole_point(kind, monkeypatch):
    """hiper's verdicts are each event's own, while the stream keeps them
    per (count, total) point whenever the total is whole: its tail is
    formatted once per distinct point on a binary stream, and once per
    event on a stream whose totals are all fractional."""
    events = hiper_streams()[kind]
    expected, points = hiper_replay(events, RAW_LINE_POLICY)
    tails = []
    verdict_tail = nodeban.cli._verdict_tail
    monkeypatch.setattr(nodeban.cli, "_verdict_tail", lambda *a: tails.append(a) or verdict_tail(*a))
    lines = [json.dumps({"node_id": node_id, "t": t, "x": x}) + "\n" for node_id, t, x in events]
    out = io.StringIO()
    assert _run_stream(argparse.Namespace(binarize=None), RAW_LINE_POLICY, lines, out) == 0
    assert out.getvalue().splitlines(keepends=True) == expected
    assert len(points) < len(expected)  # nodes share points, so a kept fraction would show
    if kind == "binary":
        assert len(tails) == len(points)
    elif kind == "real":
        assert all(total % 1 for _, total in points)
        assert len(tails) == len(expected)


class _PulledLines:
    """Standard input as the benchmark's timed input gives it: iteration
    only, with a count of the lines pulled so far."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._lines)
        self.pulled += 1
        return line


class _PullCountingOutput:
    """Standard output that notes, per write, how many lines had been pulled."""

    def __init__(self, source):
        self._source = source
        self.writes = []

    def write(self, text):
        self.writes.append((self._source.pulled, text))
        return len(text)

    def flush(self):
        pass


def test_stream_writes_each_verdict_before_reading_on(monkeypatch):
    """The stream reads its input one line at a time, as a live pipe needs
    and as an input with no read() allows: the verdict of line i is written
    once exactly i lines have been pulled, canonical or not."""
    # json.dumps escapes the id's é by default, so only the raw é is canonical
    layouts = [{}, {"separators": (",", ":")}, {"ensure_ascii": False}]
    lines = [json.dumps({"node_id": f"n\u00e9{i}", "t": i, "x": i % 2}, **layouts[i % 3]) + "\n"
             for i in range(1, 61)]
    assert sum(bool(_canonical_event(line)) for line in lines) == 20
    infile = _PulledLines(lines)
    outfile = _PullCountingOutput(infile)
    monkeypatch.setattr(sys, "stdin", infile)
    monkeypatch.setattr(sys, "stdout", outfile)
    assert main(["stream", "-", *MYOPIC]) == 0
    assert [pulled for pulled, _ in outfile.writes] == list(range(1, 61))
    assert all(text.count("\n") == 1 and text.endswith("\n") for _, text in outfile.writes)


def test_stream_and_bounds_do_not_load_numpy_random(tmp_path):
    """Neither command draws a random number, so neither loads numpy.random,
    whose import is a large part of nodeban's start-up."""
    script = (
        "import io, sys\n"
        "import nodeban.cli\n"
        "sys.stdin = io.StringIO('')\n"
        f"assert nodeban.cli.main(['stream', '-', *{MYOPIC!r}]) == 0\n"
        "assert nodeban.cli.main(['bounds', '--lQ', '1', '--gU', '1', '--lambda', '0.1', '--Delta', '0.5']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(nodeban.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_stream_and_bounds_load_neither_the_simulator_nor_the_suites(tmp_path):
    """The stream and bounds start on the rule layer alone: the simulator and
    the suites are loaded by nodeban suite only, which still runs in the same
    process afterwards."""
    events, config = tmp_path / "in.jsonl", tmp_path / "cfg.json"
    write_events(events, ALIAS_EVENTS)
    config.write_text(json.dumps({"suite": "policy_compare", "n_runs": 1, "ma_window": 1}))
    policies = [["hiper", "--delta", "0.9"], ["myopic"], ["optimistic"], ["lookahead:4"]]
    script = (
        "import sys\n"
        "from nodeban.cli import main\n"
        f"for policy in {policies!r}:\n"
        f"    assert main(['stream', 'in.jsonl', '--out', 'out.jsonl', *{WORLD!r}, '--policy', *policy]) == 0\n"
        "assert main(['bounds', '--lQ', '1', '--gU', '1', '--lambda', '0.1', '--Delta', '0.5']) == 0\n"
        "loaded = {'nodeban.simulator', 'nodeban.experiments'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
        "assert main(['suite', '--config', 'cfg.json', '--seed', '1', '--out', 'out.csv']) == 0\n"
    )
    src = os.path.dirname(os.path.dirname(nodeban.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").read_text().startswith("suite,panel,policy,x,mean_loss,run_count\n")
