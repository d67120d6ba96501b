import concurrent.futures
import csv
import math
import re

import numpy as np
import pytest

from nodeban import experiments
from nodeban.experiments import (
    SWEEP_VARIABLES,
    SuiteConfig,
    Sweep,
    aggregate_mean_loss,
    emit_csv,
    moving_average,
    run_suite,
    smooth_records,
)
from nodeban.policies import LeafRule, PolicySpec


def sweep(labels, coords, losses, suite="policy_compare"):
    """A hand-made Sweep: coords[r] is run r's (horizon, gap,
    malicious_proportion, gain), losses[r] its loss under each label."""
    return Sweep(suite, tuple(labels), tuple(map(tuple, coords)), tuple(map(list, losses)))


def row(x, loss, policy="p", panel="horizon", suite="policy_compare", runs=1):
    return (suite, panel, policy, x, loss, runs)


#: Depths and deltas that int() and float() take but a spec does not:
#: underscores, non-ASCII digits, inner whitespace, nan and a sign.
STRICT_NUMBER_SPECS = ["lookahead:1_0", "lookahead:\uff14", "lookahead: 4", "lookahead:4 :zero",
                       "hiper:0.9_9", "hiper:\uff10.9", "hiper: 0.9", "hiper:nan", "hiper:+0.5"]


class TestPolicySpec:
    def test_parse_round_trip(self):
        for text, label in [
            ("hiper:0.9", "hiper:0.9"),
            ("hiper:star", "hiper:star"),
            ("myopic", "myopic"),
            ("optimistic", "optimistic"),
            ("lookahead:4", "lookahead:4"),
            ("lookahead:8:optimistic", "lookahead:8:optimistic"),
            ("hiper:.90", "hiper:0.9"),
            ("hiper:1e-6", "hiper:1e-06"),
            ("hiper:0.9500001", "hiper:0.9500001"),  # 7 significant digits
            ("hiper:0.9999999999999999", "hiper:0.9999999999999999"),  # not hiper:1
            (" lookahead:4\t", "lookahead:4"),  # the whole spec is stripped
            ("\thiper:0.9 ", "hiper:0.9"),
            ("lookahead:04", "lookahead:4"),
        ]:
            assert PolicySpec.parse(text).label == label
            assert PolicySpec.parse(label).label == label

    def test_distinct_deltas_get_distinct_labels(self):
        texts = ("hiper:0.95", "hiper:0.9500001", "hiper:0.9999999999999999", "hiper:0.99")
        cfg = SuiteConfig.make("delta_sweep", base_seed=1, policies=texts)
        labels = [PolicySpec.parse(text).label for text in cfg.policies]
        assert labels == list(texts)
        assert [PolicySpec.parse(label).delta for label in labels] == [float(text[6:]) for text in texts]

    def test_parse_rejects_garbage(self):
        for text in ("hiper", "hiper:2.0", "lookahead", "lookahead:zero", "sprt", "myopic:1"):
            with pytest.raises(ValueError):
                PolicySpec.parse(text)

    @pytest.mark.parametrize("text", ["hiper:1e-310", "hiper:5e-324", "hiper:1.1e-308"])
    def test_parse_rejects_a_delta_without_finite_warm_up(self, text):
        # 2/delta overflows, so no gap gives hiper a finite warm-up: a config
        # error, found before any run starts
        with pytest.raises(ValueError, match=f"^policy '{text}': delta {text[6:]} is too small"):
            PolicySpec.parse(text)
        assert PolicySpec.parse("hiper:1.2e-308").delta == 1.2e-308  # ln(2/delta) is about 709.7

    @pytest.mark.parametrize("text, message", [
        ("lookahead:x", "policy 'lookahead:x': expected an integer depth and leaf rule "
                        "(zero, myopic_infinite, optimistic)"),
        ("lookahead:4:foo", "policy 'lookahead:4:foo': expected an integer depth and leaf rule "
                            "(zero, myopic_infinite, optimistic)"),
        ("hiper:abc", "policy 'hiper:abc': expected a delta in (0, 1) or star, got 'abc'"),
        ("lookahead:0", "policy 'lookahead:0': depth must be an integer in [1, 24], got 0"),
        ("lookahead:25", "policy 'lookahead:25': depth must be an integer in [1, 24], got 25"),
        ("hiper:2.0", "policy 'hiper:2.0': delta must lie in (0, 1), got 2.0"),
        ("hiper:1e-310", "policy 'hiper:1e-310': delta 1e-310 is too small: ln(2/delta) is not finite"),
    ])
    def test_parse_error_names_the_policy(self, text, message):
        # every error names the spec, which neither int(), float() and LeafRule()
        # nor the range checks of a depth and a delta do by themselves
        with pytest.raises(ValueError) as raised:
            PolicySpec.parse(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize("text", STRICT_NUMBER_SPECS)
    def test_parse_takes_only_ascii_literal_numbers(self, text):
        expected = "an integer depth" if text.startswith("lookahead") else "a delta in (0, 1) or star"
        with pytest.raises(ValueError, match=re.escape(f"policy '{text}': expected {expected}")):
            PolicySpec.parse(text)

    def test_leaf_rule_parsed(self):
        spec = PolicySpec.parse("lookahead:6:myopic_infinite")
        assert spec.depth == 6
        assert spec.leaf_rule is LeafRule.MYOPIC_INFINITE


class TestSuiteConfig:
    def test_defaults_per_suite(self):
        cfg = SuiteConfig.make("delta_sweep", base_seed=1)
        assert cfg.n_runs == 10_000
        assert cfg.policies == ("hiper:0.9", "hiper:0.95", "hiper:0.99", "hiper:star")
        cfg = SuiteConfig.make("policy_compare", base_seed=1)
        assert cfg.n_runs == 10_000
        assert cfg.policies == ("hiper:star", "myopic", "optimistic")
        cfg = SuiteConfig.make("lookahead_compare", base_seed=1)
        assert cfg.n_runs == 1_000
        assert cfg.policies == ("optimistic", "lookahead:4", "lookahead:8")
        assert cfg.ma_window == 51

    def test_policies_are_parsed_once_per_suite(self, monkeypatch):
        parse, texts = PolicySpec.parse.__func__, []

        def counted(cls, text):
            texts.append(text)
            return parse(cls, text)

        monkeypatch.setattr(PolicySpec, "parse", classmethod(counted))
        cfg = SuiteConfig.make("lookahead_compare", base_seed=1, n_runs=3)
        assert [spec.label for spec in cfg.specs] == list(cfg.policies)
        run_suite(cfg)
        assert texts == list(cfg.policies)

    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig.make("delta_sweep", base_seed=1, ma_window=10)
        with pytest.raises(ValueError):
            SuiteConfig.make("delta_sweep", base_seed=1, n_runs=0)
        with pytest.raises(ValueError):
            SuiteConfig.make("delta_sweep", base_seed=1, policies=("bogus",))
        with pytest.raises(ValueError):
            SuiteConfig.make("delta_sweep", base_seed=-3)
        with pytest.raises(ValueError, match=r"^unknown suite 'bogus' \(expected one of delta_sweep, policy_compare, "
                                             r"lookahead_compare\)$"):
            SuiteConfig.make("bogus", base_seed=1)
        for seed in (1.5, True, "7", None):  # would fail inside SeedSequence, or run as seed 1
            with pytest.raises(ValueError, match="^base_seed must be a nonnegative integer"):
                SuiteConfig.make("policy_compare", seed)
        for policies in ([3], "myopic", ("myopic", None), {"myopic"}):
            with pytest.raises(ValueError, match="^policies must be a list or tuple of policy strings"):
                SuiteConfig.make("policy_compare", 1, policies=policies)
        assert SuiteConfig.make("policy_compare", 1, policies=["myopic"]).policies == ("myopic",)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        values = [float(i * i) for i in range(6)]
        assert moving_average(values, 1) == [(v, 1) for v in values]

    def test_constant_series_unchanged(self):
        smoothed = moving_average([2.5] * 9, 5)
        assert [mean for mean, _ in smoothed] == [2.5] * 9

    def test_boundary_truncation_single_spike(self):
        smoothed = moving_average([0.0, 0.0, 3.0, 0.0, 0.0], 3)
        assert smoothed == [(0.0, 1), (1.0, 3), (1.0, 3), (1.0, 3), (0.0, 1)]

    def test_rejects_even_window(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 2)

    def test_interior_mass_preserved(self):
        # mass sitting at least a full window away from both boundaries is
        # redistributed by the centered average without any loss; the zero
        # padding absorbs the truncation bias
        rng = np.random.default_rng(51)
        window = 7
        pad = window - 1
        body = rng.uniform(0, 5, size=40).tolist()
        series = [0.0] * pad + body + [0.0] * pad
        smoothed = moving_average(series, window)
        raw_mean = sum(series) / len(series)
        smooth_mean = sum(mean for mean, _ in smoothed) / len(smoothed)
        assert smooth_mean == pytest.approx(raw_mean, rel=1e-9)


class TestRunSuite:
    def test_record_counts_and_panels(self):
        cfg = SuiteConfig.make("delta_sweep", base_seed=5, n_runs=10, ma_window=3)
        result = run_suite(cfg)
        assert result.suite == "delta_sweep"
        assert result.labels == cfg.policies
        # 10 runs, each with 4 coordinates and 4 policies' losses
        assert len(result.coords) == len(result.losses) == 10
        assert all(len(coords) == 4 and len(losses) == 4 for coords, losses in zip(result.coords, result.losses))
        assert all(loss >= 0.0 for losses in result.losses for loss in losses)
        rows = smooth_records(result, 1)
        # 10 runs x 4 policies x 4 panels, unsmoothed at window 1
        assert len(rows) == 160
        assert {r[1] for r in rows} == {"horizon", "gap", "malicious_proportion", "gain"}
        per_group = {}
        for r in rows:
            per_group.setdefault((r[1], r[2]), []).append(r)
        assert all(len(group) == 10 for group in per_group.values())
        assert all(r[5] == 1 for r in rows)

    def test_deterministic_across_calls_and_jobs(self):
        cfg = SuiteConfig.make(
            "policy_compare", base_seed=90, n_runs=6, ma_window=3, policies=("myopic",)
        )
        a = run_suite(cfg, jobs=1)
        b = run_suite(cfg, jobs=1)
        c = run_suite(cfg, jobs=2)
        assert a == b
        assert a == c

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (100_000, 4, 4), (100_000, 64, 6), (100_000, None, 1), (3, 64, 3), (2, 1, 1),
    ])
    def test_pool_has_at_most_one_worker_per_run_and_cpu(self, jobs, cpus, workers, monkeypatch):
        """The pool starts all its workers at the first submit, so its size
        is capped; any jobs > 1 still takes the pool path."""
        sizes = []

        class InlinePool:
            """Records its size and maps in this process: starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        cfg = SuiteConfig.make("policy_compare", base_seed=90, n_runs=6, ma_window=3, policies=("myopic",))
        expected = run_suite(cfg, jobs=1)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)  # run_suite imports it per call
        assert run_suite(cfg, jobs=jobs) == expected
        assert sizes == [workers]

    def test_aggregate_is_the_mean_of_a_column(self):
        cfg = SuiteConfig.make(
            "lookahead_compare", base_seed=3, n_runs=4, policies=("myopic",), ma_window=3
        )
        result = run_suite(cfg)
        value = aggregate_mean_loss(result, "myopic")
        per_run = [losses[0] for losses in result.losses]
        assert result.column("myopic") == per_run
        assert value == pytest.approx(sum(per_run) / len(per_run), rel=1e-12)
        with pytest.raises(ValueError):
            aggregate_mean_loss(result, "absent")


class TestSmoothRecords:
    def test_groups_do_not_mix(self):
        result = sweep(("a", "b"), [(1.0, 1.0, 0.5, 1.0), (2.0, 2.0, 0.5, 1.0)], [(10.0, 99.0), (0.0, 99.0)])
        by_policy = {}
        for r in smooth_records(result, 3):
            if r[1] == "horizon":
                by_policy.setdefault(r[2], []).append(r[4])
        assert by_policy["b"] == [99.0, 99.0]
        assert by_policy["a"] == [10.0, 0.0]  # truncated windows at both ends

    def test_csv_order(self):
        """Panels by name, then policies by label, then runs by x, with
        equal x in run order: a stable sort of each panel's coordinate."""
        labels = ("z", "a")
        coords = [(3.0, 0.2, 0.4, 1.0), (1.0, 0.2, 0.1, 2.0), (3.0, 0.1, 0.4, 1.0), (1.0, 0.3, 0.3, 0.5)]
        losses = [(0.0, 10.0), (1.0, 11.0), (2.0, 12.0), (3.0, 13.0)]
        rows = smooth_records(sweep(labels, coords, losses), 1)
        groups = [(panel, label) for panel in ("gain", "gap", "horizon", "malicious_proportion") for label in "az"]
        assert [(r[1], r[2]) for r in rows] == [group for group in groups for _ in coords]
        run_order = {"gain": [3, 0, 2, 1], "gap": [2, 0, 1, 3], "horizon": [1, 3, 0, 2],
                     "malicious_proportion": [1, 3, 0, 2]}
        for (panel, label), start in zip(groups, range(0, len(rows), len(coords))):
            x, loss = SWEEP_VARIABLES.index(panel), labels.index(label)
            expected = [(coords[r][x], losses[r][loss]) for r in run_order[panel]]
            assert [(r[3], r[4]) for r in rows[start:start + len(coords)]] == expected


class TestEmitCsv:
    HEADER = "suite,panel,policy,x,mean_loss,run_count"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_bytes() == (self.HEADER + "\n").encode()

    def test_rows_written_in_their_order(self, tmp_path):
        rows = [
            row(2.0, 1.0, policy="b", panel="gap"),
            row(1.0, 0.5, policy="a", panel="horizon"),
            row(1.5, 0.25, policy="a", panel="gap", runs=3),
        ]
        path = tmp_path / "a.csv"
        emit_csv(rows, path)
        assert path.read_text().splitlines() == [
            self.HEADER,
            "policy_compare,gap,b,2,1,1",
            "policy_compare,horizon,a,1,0.5,1",
            "policy_compare,gap,a,1.5,0.25,3",
        ]

    def test_round_trip_precision(self, tmp_path):
        path = tmp_path / "r.csv"
        x = 123.456789123456
        loss = 1.0 / 3.0
        emit_csv([row(x, loss)], path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["x"]) == pytest.approx(x, rel=1e-8)
        assert float(rows[0]["mean_loss"]) == pytest.approx(loss, rel=1e-8)
        assert rows[0]["run_count"] == "1"

    def test_io_error_names_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv([], tmp_path / "no" / "such" / "file.csv")


def test_sweep_validation():
    labels, coords = ("myopic",), [(1.0, 0.5, 0.5, 1.0)]
    with pytest.raises(ValueError):
        sweep(labels, coords, [(-0.5,)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            sweep(labels, [(1.0, bad, 0.5, 1.0)], [(1.0,)])
        with pytest.raises(ValueError, match="mean losses must be finite"):
            sweep(labels, coords, [(bad,)])
    with pytest.raises(ValueError):
        sweep(labels, [(1.0, math.nan, 0.5, 1.0)], [(math.nan,)])
    with pytest.raises(ValueError):  # one run's coordinates, two runs' losses
        sweep(labels, coords, [(1.0,), (1.0,)])
