"""Command-line entry point.

Three subcommands:

  suite   run an experiment sweep from a JSON config and emit a CSV of
          smoothed loss curves
  bounds  print the tuned error probability, the paper's closed-form loss
          ceilings and their warm-up-aware variants for a parameter set
  stream  apply a policy online to JSONL observation events from per-node
          (count, ones) state, one verdict per event until a node is removed

Exit codes: 0 success, 1 runtime failure (including a closed output pipe or
a full disk), 2 usage/config/input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import time
from types import SimpleNamespace

from . import policies
from .belief import ImpossibleEvidenceError
from .hiper import (
    HiperPolicy,
    bound_loss_honest,
    bound_loss_malicious,
    bound_loss_malicious_warmup,
    optimal_delta,
)
from .model import EnvParams, ExperimentSuite, _fmt
from .policies import DECIMAL, DEPTHS, INTEGER, MAX_DEPTH, LeafRule, PolicySpec

_CONFIG_KEYS = {"suite", "n_runs", "ma_window", "policies", "base_seed"}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _same_file(out: str, source) -> bool:
    """Whether `out` names the file `source` (a path or an open file) is, through
    any link or redirection: never when `source` has no descriptor or no `out` exists."""
    try:
        stat = os.stat(source) if isinstance(source, str) else os.fstat(source.fileno())
        return os.path.samestat(stat, os.stat(out))
    except (AttributeError, OSError, ValueError):
        return False


# ---------------------------------------------------------------- suite --


def _load_suite_config(args: argparse.Namespace):
    """Build a SuiteConfig from --config/--suite plus flag overrides.

    Raises ValueError with a field-level diagnostic on any problem.
    """
    from .experiments import SuiteConfig  # imported here: stream and bounds never load the suites or simulator
    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:  # missing, a directory, unreadable
            raise ValueError(f"cannot read config file {args.config}: {exc}")
        except (ValueError, RecursionError) as exc:  # a syntax error, non-UTF-8 bytes, or too deep
            raise ValueError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in sorted(raw):
            if raw[key] is None:  # raw.get below would read it as omitted, which takes the default
                raise ValueError(f"field {key!r}: expected a value, got null")
    if args.suite is not None:
        if "suite" in raw and raw["suite"] != args.suite:
            raise ValueError("--suite conflicts with the config file's 'suite' key")
        raw["suite"] = args.suite
    if "suite" not in raw:
        raise ValueError("a suite is required (config key 'suite' or flag --suite)")
    if args.seed is None:
        raise ValueError("--seed is required in suite mode")
    if "base_seed" in raw and type(raw["base_seed"]) is not int:  # a JSON true is an int
        raise ValueError(f"field 'base_seed': expected an integer, got {raw['base_seed']!r}")
    if "base_seed" in raw and raw["base_seed"] != args.seed:
        raise ValueError(
            f"config base_seed={raw['base_seed']} conflicts with --seed {args.seed}"
        )
    try:
        suite = ExperimentSuite(raw["suite"])
    except ValueError:
        valid = ", ".join(s.value for s in ExperimentSuite)
        raise ValueError(f"field 'suite': unknown suite {raw['suite']!r} (expected one of {valid})")
    policies = raw.get("policies")
    if policies is not None:
        if not isinstance(policies, list) or not all(isinstance(p, str) for p in policies):
            raise ValueError("field 'policies': expected a list of policy strings")
    ma_window = args.ma_window if args.ma_window is not None else raw.get("ma_window")
    try:
        return SuiteConfig.make(suite, args.seed, raw.get("n_runs"), ma_window, policies)
    except ValueError as exc:
        raise ValueError(f"invalid suite config: {exc}")


def cmd_suite(args: argparse.Namespace) -> int:
    from .experiments import aggregate_mean_loss, emit_csv, run_suite, smooth_records  # as in _load_suite_config
    try:
        _check_flags(args, ("jobs", "seed", "ma_window"))
        cfg = _load_suite_config(args)
    except ValueError as exc:
        return _fail(str(exc))
    if args.config is not None and _same_file(args.out, args.config):
        return _fail(f"--out {args.out} is the config file; writing it would erase the config")
    try:  # before the run, not after it; "a" truncates nothing, and only emit_csv writes
        held = open(args.out, "a", encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot open output {args.out}: {exc}")
    with held:  # open until emit_csv is done, so that a FIFO's reader sees one writer throughout
        try:
            start = time.perf_counter()
            sweep = run_suite(cfg, jobs=args.jobs)
            emit_csv(smooth_records(sweep, cfg.ma_window), args.out)
            wall = time.perf_counter() - start
        except Exception as exc:  # runtime failure, not usage
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 1
    print(
        f"suite={cfg.suite.value} runs={cfg.n_runs} policies={len(cfg.policies)} "
        f"seed={cfg.base_seed} wall_s={wall:.2f} out={args.out}"
    )
    for spec in cfg.specs:
        print(f"policy {spec.label} mean_loss={_fmt(aggregate_mean_loss(sweep, spec.label))}")
    return 0


# --------------------------------------------------------------- bounds --


#: Each flag's domain, by its argparse dest: a flag given outside it raises
#: ValueError wherever _check_flags reads it. Scores lie in [0, 1], so the
#: means and --binarize do too.
_FLAG_DOMAINS = {
    "jobs": ("--jobs", "be at least 1", lambda v: v >= 1),
    "seed": ("--seed", "be nonnegative", lambda v: v >= 0),
    "ma_window": ("--ma-window", "be a positive odd integer", lambda v: v >= 1 and v % 2 == 1),
    "u": ("--u", "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "q": ("--q", "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "gap": ("--Delta", "lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "binarize": ("--binarize", "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "prior": ("--prior", "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "delta": ("--delta", "lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    "departure_rate": ("--lambda", "lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "gU": ("--gU", "be nonnegative", lambda v: v >= 0.0),
    "lQ": ("--lQ", "be nonnegative", lambda v: v >= 0.0),
    "lookahead_depth": ("--lookahead-depth", f"lie in [1, {MAX_DEPTH}]", lambda v: v in DEPTHS),
}


def _check_flags(args: argparse.Namespace, dests) -> None:
    """Raise ValueError for the first of dests given outside its domain; a
    dest that args' command has no flag for is not given."""
    for dest in dests:
        flag, domain, holds = _FLAG_DOMAINS[dest]
        value = getattr(args, dest, None)
        if value is not None and not holds(value):
            raise ValueError(f"{flag} must {domain}, got {value}")


def _resolve_gap(args: argparse.Namespace) -> float | None:
    """--Delta, else |u - q| if both means are given, else None. Read after
    _check_flags, so the gap lies in [0, 1]; a gap of 0 raises ValueError."""
    gap = args.gap
    if gap is None and args.u is not None and args.q is not None:
        gap = abs(args.u - args.q)
    if gap == 0.0:
        raise ValueError("the gap |u - q| must be positive, got 0")
    return gap


def cmd_bounds(args: argparse.Namespace) -> int:
    try:
        _check_flags(args, ("u", "q", "gap", "departure_rate"))
        gap = _resolve_gap(args)
        if gap is None:
            raise ValueError("provide --Delta, or both --u and --q to derive it")
        if args.lQ is None or args.gU is None or args.departure_rate is None:
            raise ValueError("--lQ, --gU and --lambda are required")
        tuned = optimal_delta(args.lQ, args.gU, args.departure_rate, gap)
        malicious = bound_loss_malicious(args.lQ, tuned.value)
        honest = bound_loss_honest(args.gU, args.departure_rate, gap)
        malicious_warmup = bound_loss_malicious_warmup(args.lQ, tuned.value, gap)
    except ValueError as exc:
        return _fail(str(exc))
    print(f"delta_star {_fmt(tuned.value)}")
    print(f"delta_star_clamped {str(tuned.clamped).lower()}")
    print(f"loss_bound_malicious {_fmt(malicious)}")
    print(f"loss_bound_honest {_fmt(honest)}")
    # at an unclamped delta*, the paper's two closed forms coincide
    print(f"loss_bound_combined {_fmt(max(malicious, honest) if tuned.clamped else honest)}")
    print(f"loss_bound_malicious_warmup {_fmt(malicious_warmup)}")
    print(f"loss_bound_combined_warmup {_fmt(max(malicious_warmup, honest))}")
    return 0


# --------------------------------------------------------------- stream --


def _build_stream_policy(args: argparse.Namespace):
    """Validate policy parameters and return the one policy every node shares:
    the --policy spec's, in the world the flags give. Bare hiper and
    lookahead are aliases, of hiper:<--delta> and of
    lookahead:<--lookahead-depth>:<--leaf-rule> (at defaults 4 and zero);
    any other spec sets its own delta, or depth and leaf rule, and takes
    none of those flags. Every given flag is checked against its domain,
    whether or not the chosen policy reads it."""
    _check_flags(args, _FLAG_DOMAINS)
    if args.policy == "hiper":
        if args.q is None or args.delta is None:
            raise ValueError("hiper needs --q and --delta")
        spec = PolicySpec.parse(f"hiper:{args.delta!r}")
    elif args.policy == "lookahead":  # a depth of 0 failed _check_flags
        spec = PolicySpec.parse(f"lookahead:{args.lookahead_depth or 4}:{args.leaf_rule or 'zero'}")
    else:
        spec = PolicySpec.parse(args.policy)
        sets = {"hiper": {"--delta": args.delta},
                "lookahead": {"--lookahead-depth": args.lookahead_depth, "--leaf-rule": args.leaf_rule}}
        for flag, value in sets.get(spec.kind, {}).items():
            if value is not None:
                raise ValueError(f"{flag} conflicts with --policy {args.policy}, which sets it")
    if spec.kind == "hiper":
        if args.q is None:
            raise ValueError(f"{spec.label} needs --q")
        gap = _resolve_gap(args)
        if gap is None:
            raise ValueError(f"{spec.label} needs --Delta, or --u together with --q")
        if spec.delta is None and None in (args.lQ, args.gU, args.departure_rate):
            raise ValueError(f"{spec.label} needs --lQ, --gU and --lambda")
        # hiper needs no honest mean, so its world is what it reads, not an EnvParams
        return spec.policy(SimpleNamespace(malicious_mean=args.q, gap=gap, loss_malicious=args.lQ,
                                           gain_honest=args.gU, departure_rate=args.departure_rate))

    if args.u is None or args.q is None or args.gU is None or args.lQ is None:
        raise ValueError(f"{spec.label} needs --u, --q, --gU and --lQ")
    leaf = spec.leaf_rule  # myopic_infinite reads the rate only past depth 0, and optimistic at every depth
    if leaf is not LeafRule.ZERO and (spec.depth or leaf is LeafRule.OPTIMISTIC) and args.departure_rate is None:
        raise ValueError(f"{spec.label} needs --lambda")
    rate = 1.0 if args.departure_rate is None else args.departure_rate
    return spec.policy(EnvParams(args.u, args.q, args.gU, args.lQ, departure_rate=rate, prior_malicious=args.prior))


#: The scanner and the string encoder that json.loads and json.dumps run
#: under their default arguments, bound once for the stream's per-event calls.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())
_encode_string = json.encoder.encode_basestring_ascii


def _parse_event(text: str, line_no: int) -> tuple[str, int, float]:
    """The event (node_id, t, x) on a stripped input line, parsed exactly
    as json.loads parses it, or json.loads' own error: the scanner
    json.loads runs is called directly, and a line whose scan fails or
    stops short of its end goes to json.loads, which scans it from 0 too (a
    stripped line has no JSON whitespace at either end) and so raises. The
    stream calls it only for a line not in _canonical_event's layout: this
    parse accepts every line of that layout, with the values the pattern
    reads off it."""
    try:
        obj, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):  # StopIteration: no JSON value starts at 0
        end = -1
    if end != len(text):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also an integer too long to convert, or nesting too deep
            raise ValueError(f"line {line_no}: not valid JSON ({exc})")
    try:
        node_id, t, x = obj["node_id"], obj["t"], obj["x"]
    except (KeyError, TypeError):  # a KeyError only from a dict
        if type(obj) is not dict:
            raise ValueError(f"line {line_no}: expected a JSON object")
        raise ValueError(f"line {line_no}: missing fields {sorted({'node_id', 't', 'x'} - set(obj))}")
    # the scanner gives exact types, so `type(v) is int` excludes a JSON true
    if type(node_id) is not str:  # 7 and "7" would otherwise be one node
        raise ValueError(f"line {line_no}: node_id must be a JSON string, got {json.dumps(node_id)}")
    if type(t) is not int or t < 1:
        raise ValueError(f"line {line_no}: t must be a positive integer, got {t!r}")
    if type(x) is int:
        try:
            x = float(x)
        except OverflowError:  # an integer beyond the float range
            x = math.inf if x > 0 else -math.inf
    elif type(x) is not float:
        raise ValueError(f"line {line_no}: x must be a number, got {x!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"line {line_no}: observation value must lie in [0, 1], got {x}")
    return node_id, t, x


#: An event line as json.dumps writes it under its default arguments, with
#: the newline that iterating a file leaves on it:
#:     {"node_id": "<id>", "t": <t>, "x": <x>}
#: <id> holds no quote, backslash or control character (json's strict scanner
#: refuses a raw one), so it is the string as it stands; <t> is 1 to 18
#: digits with no leading zero; <x> is 0, 1, 0.<digits> or 1.<zeros>, so it
#: lies in [0, 1]. A line of this layout is an event that passes every check
#: of _parse_event, and int(<t>) and float(<x>) are the values json.loads gives.
#: The groups are the line's prefix up to <t> and its comma, <id>, <t> and <x>.
_canonical_event = re.compile(
    r'(\{"node_id": "([^"\\\x00-\x1f]*)", "t": ([1-9][0-9]{0,17}), )"x": (0|1|0\.[0-9]+|1\.0+)\}\n?'
).fullmatch

#: A canonical <x> as a number: a bit as an int, any other by float().
_BITS = {"0": 0, "1": 1}


def _verdict_tail(remove: bool, statistic: float) -> str:
    return f'"decision": "{"remove" if remove else "keep"}", "statistic": {statistic!r}}}\n'


def _run_stream(args: argparse.Namespace, policy, infile, outfile) -> int:
    """Per node id, keep one record (last t, count, s): s is the running total
    of x for hiper, or the ones count for a belief rule. Every rule's verdict
    depends on (count, s) alone, so it is kept per point: the rule's scalar
    removes(count, s) decides a point once, at its first event, with its
    statistic (the posterior, or hiper's mean s / count) formatted once. A
    point is kept only while s is whole, as a belief rule's ones count always
    is and hiper's total is on binary input: at most one entry per point up
    to the largest count C, (C + 1)(C + 2) / 2, and never more entries than
    verdicts. The count is None once the node is removed; its later events
    still advance its last t, so they must stay ordered, and are dropped.

    The input is read one line at a time, and each line's verdict is written
    before the next is read, so a live pipe's verdicts are not held back. A
    line in _canonical_event's layout is read off its match, its x only for
    a live node; any other is stripped, refused if blank, and parsed by
    _parse_event.

    Each verdict line is json.dumps of the verdict object, written directly:
    t is an int and the statistic a finite float, whose repr is json's. Up
    to t, it is a canonical line's own prefix when the id is printable
    ASCII, which the json module's ASCII string encoder writes unchanged;
    otherwise that encoder, the one json.dumps runs on a str, writes the id."""
    binary = not isinstance(policy, HiperPolicy)
    verdicts: dict[tuple[int, int | float], tuple[bool, str]] = {}  # one run's, per (count, s)
    nodes: dict[str, tuple[int, int | None, int | float]] = {}
    line_no = 0
    try:
        for line_no, line in enumerate(infile, 1):
            event = _canonical_event(line)
            if event:
                prefix, node_id, t, x = event.groups()
                t = int(t)
            else:
                text = line.strip()
                if not text:
                    return _fail(f"line {line_no}: blank line")
                try:
                    node_id, t, x = _parse_event(text, line_no)
                except ValueError as exc:
                    return _fail(str(exc))
            previous, count, s = nodes.get(node_id, (0, 0, 0))
            if t <= previous:  # t >= 1, so a new node passes
                return _fail(
                    f"line {line_no}: t={t} for node {node_id!r} is not "
                    f"strictly increasing (previous {previous})"
                )
            if count is None:
                nodes[node_id] = (t, None, s)
                continue
            if event:
                x = _BITS[x] if x in _BITS else float(x)
            if binary and type(x) is float:  # a belief rule counts ones, as ints
                if x != 0.0 and x != 1.0:
                    if args.binarize is None:
                        return _fail(
                            f"line {line_no}: x={x} is not binary; this policy needs binary "
                            "observations (pass --binarize THRESHOLD to threshold them)"
                        )
                    x = x >= args.binarize
                x = int(x)
            count += 1
            s += x
            verdict = verdicts.get((count, s))
            if verdict is None:
                try:  # the module global, so a tracer sees it; hiper's statistic is its mean
                    value = policies.posterior(s, count, policy.env) if binary else s / count
                except ImpossibleEvidenceError as exc:
                    return _fail(f"line {line_no}: {exc}")
                remove = policy.removes(count, s)
                verdict = (remove, _verdict_tail(remove, value))
                if s % 1 == 0:
                    verdicts[count, s] = verdict
            remove, tail = verdict
            if event and node_id.isascii() and node_id.isprintable():
                outfile.write(prefix + tail)
            else:
                outfile.write(f'{{"node_id": {_encode_string(node_id)}, "t": {t}, {tail}')
            nodes[node_id] = (t, None if remove else count, s)
    except UnicodeDecodeError as exc:
        return _fail(f"input after line {line_no} is not valid UTF-8 ({exc.reason})")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    # validate the flags before opening, and so truncating, --out
    try:
        policy = _build_stream_policy(args)
    except ValueError as exc:
        return _fail(str(exc))
    with contextlib.ExitStack() as files:
        if args.input == "-":
            infile = sys.stdin
            if hasattr(infile, "reconfigure"):  # strict UTF-8, as a file argument is read
                infile.reconfigure(encoding="utf-8", errors="strict")
        else:
            try:
                infile = files.enter_context(open(args.input, "r", encoding="utf-8"))
            except OSError as exc:
                return _fail(f"cannot open input {args.input}: {exc}")
        if args.out == "-":
            outfile = sys.stdout
        elif _same_file(args.out, infile):
            return _fail(f"--out {args.out} is the input file; writing it would erase the input")
        else:
            try:
                outfile = files.enter_context(open(args.out, "w", encoding="utf-8", newline=""))
            except OSError as exc:
                return _fail(f"cannot open output {args.out}: {exc}")
        return _run_stream(args, policy, infile, outfile)


# ----------------------------------------------------------------- main --


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a spec's decimal literal, signed or not, of finite value."""
    if not (re.fullmatch(f"[-+]?{DECIMAL}", text) and math.isfinite(float(text))):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return float(text)


def _integer(text: str) -> int:
    """argparse type of every integer flag: a spec's integer literal, signed or not."""
    with contextlib.suppress(ValueError):  # int() refuses more than 4300 digits
        if re.fullmatch(f"[-+]?{INTEGER}", text):
            return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--u", type=_finite_float, help="honest observation mean in [0, 1]")
    parser.add_argument("--q", type=_finite_float, help="malicious observation mean in [0, 1]")
    parser.add_argument("--gU", type=_finite_float, help="per-step gain from an honest node")
    parser.add_argument("--lQ", type=_finite_float, help="per-step loss from a malicious node")
    parser.add_argument("--lambda", dest="departure_rate", type=_finite_float,
                        help="per-step honest departure probability in (0, 1]")
    parser.add_argument("--Delta", dest="gap", type=_finite_float, help="gap between the means (default |u - q|)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodeban",
        description="Blacklisting decisions for mixed honest/malicious node populations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="run an experiment sweep and emit a CSV")
    p_suite.add_argument("--config", help="JSON config file (keys: suite, n_runs, ma_window, policies, base_seed)")
    p_suite.add_argument(
        "--suite",
        choices=[s.value for s in ExperimentSuite],
        help="suite name (alternative to a config file)",
    )
    p_suite.add_argument("--out", required=True, help="output CSV path")
    p_suite.add_argument("--seed", type=_integer, help="experiment seed (required)")
    p_suite.add_argument("--ma-window", type=_integer, help="odd moving-average window (default 51)")
    p_suite.add_argument("--jobs", type=_integer, default=1, help="worker processes (default 1)")
    p_suite.set_defaults(handler=cmd_suite)

    p_bounds = sub.add_parser("bounds", help="print the tuned delta and loss ceilings")
    _add_param_flags(p_bounds)
    p_bounds.set_defaults(handler=cmd_bounds)

    p_stream = sub.add_parser("stream", help="apply a policy to a JSONL event stream")
    p_stream.add_argument("input", nargs="?", default="-", help="JSONL events file (default: stdin)")
    p_stream.add_argument("--out", default="-", help="verdicts output (default: stdout)")
    p_stream.add_argument("--policy", required=True, help=(
        "a policy as a suite config's policies name it: hiper:<delta>, hiper:star (delta tuned from --lQ, --gU, "
        "--lambda and the gap), myopic, optimistic or lookahead:<depth>[:<leaf_rule>]; bare hiper reads --delta, "
        "and bare lookahead --lookahead-depth and --leaf-rule"))
    _add_param_flags(p_stream)
    p_stream.add_argument("--delta", type=_finite_float, help="bare hiper's error probability in (0, 1)")
    p_stream.add_argument("--prior", type=_finite_float, default=0.5,
                          help="prior malicious probability (default 0.5)")
    p_stream.add_argument("--lookahead-depth", type=_integer, help="bare lookahead's planning depth (default 4)")
    p_stream.add_argument("--leaf-rule", choices=[r.value for r in LeafRule],
                          help="bare lookahead's value rule at the planning frontier (default zero)")
    p_stream.add_argument("--binarize", type=_finite_float,
                          help="threshold mapping x >= THRESHOLD to 1 for the belief policies")
    p_stream.set_defaults(handler=cmd_stream)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except OSError as exc:  # an output failed, as on a full disk
        # A reader that closed stdout (e.g. `| head -1`) ends the command quietly.
        if not isinstance(exc, BrokenPipeError):
            print(f"runtime failure: {exc}", file=sys.stderr)
        # Point stdout at devnull, as the Python docs recommend, so the flush
        # at exit cannot raise again (a stand-in for stdout has no descriptor).
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
