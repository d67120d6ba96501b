import json
import math

import numpy as np
import pytest

from nodeban.cli import _parse_event, main
from nodeban.model import NEVER, EnvParams, NodeType, realized_loss


def env(gain=1.0, loss=1.0, rate=0.1):
    return EnvParams(
        honest_mean=0.8,
        malicious_mean=0.3,
        gain_honest=gain,
        loss_malicious=loss,
        departure_rate=rate,
        prior_malicious=0.5,
    )


# realized_loss is the oracle's gain minus the realized gain. The two
# classes below check each gain's part of it; horizons of 1000 cap the steps.


class TestRealizedGain:
    def test_malicious_cost_accrues_until_removal(self):
        assert realized_loss(NodeType.MALICIOUS, 1000, 3, env(loss=1.0)) == 3.0

    def test_honest_capped_by_departure(self):
        # kept past its departure: the realized gain is the oracle's
        assert realized_loss(NodeType.HONEST, 10, 1000, env(gain=0.5)) == 0.0

    def test_honest_capped_by_removal(self):
        # 2.0 realized of the oracle's 5.0
        assert realized_loss(NodeType.HONEST, 10, 4, env(gain=0.5)) == 3.0

    def test_uncapped_malicious_removal_rejected(self):
        with pytest.raises(ValueError, match="removal must be capped"):
            realized_loss(NodeType.MALICIOUS, 1000, NEVER, env())

    def test_negative_steps_rejected(self):
        for departure, removal in ((-1, 3), (3, -1), (math.nan, 3), (3, math.nan)):
            with pytest.raises(ValueError, match="nonnegative step count"):
                realized_loss(NodeType.HONEST, departure, removal, env())


class TestOracleGain:
    def test_malicious_yields_zero(self):
        # the oracle removes a malicious node at step 0, whenever it would leave
        assert realized_loss(NodeType.MALICIOUS, 100, 0, env()) == 0.0

    def test_honest_earns_until_departure(self):
        # removed at once, the node loses all the oracle earns
        assert realized_loss(NodeType.HONEST, 7, 0, env(gain=1.0)) == 7.0

    def test_immediate_departure(self):
        assert realized_loss(NodeType.HONEST, 0, 0, env(gain=2.0)) == 0.0

    def test_infinite_departure_rejected(self):
        with pytest.raises(ValueError, match="departure must be capped"):
            realized_loss(NodeType.HONEST, NEVER, 3, env())


class TestRealizedLoss:
    def test_malicious_loss_is_removal_cost(self):
        # departure already capped at the horizon by the caller
        assert realized_loss(NodeType.MALICIOUS, 1000, 5, env(loss=1.0)) == 5.0

    def test_honest_matching_oracle_costs_nothing(self):
        assert realized_loss(NodeType.HONEST, 10, 1000, env(gain=1.0)) == 0.0

    def test_honest_early_removal(self):
        assert realized_loss(NodeType.HONEST, 10, 4, env(gain=0.5)) == 3.0

    def test_uncapped_inputs_rejected(self):
        with pytest.raises(ValueError):
            realized_loss(NodeType.HONEST, NEVER, 4, env())


def per_step_loss(node_type, departure, removal, e):
    """Independent per-step bookkeeping against the oracle: loss for each
    step a malicious node is present (steps 1..removal), gain for each step
    an honest node would still be present had it not been removed (steps
    removal + 1..departure)."""
    total = 0.0
    if node_type is NodeType.MALICIOUS:
        for t in range(1, int(removal) + 1):
            total += e.loss_malicious
    else:
        for t in range(int(removal) + 1, int(departure) + 1):
            total += e.gain_honest
    return total


def test_per_step_accounting_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        e = env(gain=float(rng.uniform(0, 2)), loss=float(rng.uniform(0, 2)))
        departure = int(rng.integers(0, 40))
        removal = int(rng.integers(0, 40))
        node_type = NodeType.MALICIOUS if rng.random() < 0.5 else NodeType.HONEST
        closed = realized_loss(node_type, departure, removal, e)
        stepped = per_step_loss(node_type, departure, removal, e)
        assert closed == pytest.approx(stepped, rel=1e-12, abs=1e-12)


def test_loss_nonnegative_and_monotone():
    rng = np.random.default_rng(12)
    for _ in range(300):
        e = env(gain=float(rng.uniform(0, 2)), loss=float(rng.uniform(0, 2)))
        departure = int(rng.integers(0, 50))
        removal = int(rng.integers(0, 50))
        node_type = NodeType.MALICIOUS if rng.random() < 0.5 else NodeType.HONEST
        loss = realized_loss(node_type, departure, removal, e)
        assert loss >= 0.0
        if node_type is NodeType.HONEST and removal >= departure:
            assert loss == 0.0
        if node_type is NodeType.MALICIOUS:
            assert loss == pytest.approx(removal * e.loss_malicious, rel=1e-12, abs=0)
            assert realized_loss(node_type, departure, removal + 1, e) >= loss


class TestTypes:
    def test_observation_bounds(self, tmp_path, capsys):
        """Observations are scores in [0, 1]; the belief policies take only 0 or 1.
        Both checks live where observations enter: the stream command."""
        for x in (0.0, 0.5, 1.0):
            assert _parse_event(json.dumps({"node_id": "a", "t": 1, "x": x}), 1) == ("a", 1, x)
        for x in (1.5, -0.1):
            with pytest.raises(ValueError, match="must lie in"):
                _parse_event(json.dumps({"node_id": "a", "t": 1, "x": x}), 1)
        inp, outp = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        myopic = ["--policy", "myopic", "--u", "0.8", "--q", "0.2", "--gU", "1", "--lQ", "1"]
        for x, binary in ((0.5, False), (1.0, True), (0.0, True)):
            inp.write_text(json.dumps({"node_id": "a", "t": 1, "x": x}) + "\n")
            code = main(["stream", str(inp), "--out", str(outp), *myopic])
            assert code == (0 if binary else 2)
            assert ("binary" in capsys.readouterr().err) is not binary

    def test_env_gap_is_derived(self):
        e = env()
        assert e.gap == pytest.approx(0.5)

    def test_env_validation(self):
        # the belief layer reads the rates and the prior only from an EnvParams, so these are their one check
        with pytest.raises(ValueError, match=r"^honest_mean must lie in \[0, 1\], got 1.2$"):
            EnvParams(1.2, 0.3, 1.0, 1.0, 0.1, 0.5)
        with pytest.raises(ValueError, match=r"^malicious_mean must lie in \[0, 1\], got -0.3$"):
            EnvParams(0.8, -0.3, 1.0, 1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            EnvParams(0.8, 0.3, -1.0, 1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            EnvParams(0.8, 0.3, 1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError, match=r"^prior_malicious must lie in \[0, 1\], got 1.5$"):
            EnvParams(0.8, 0.3, 1.0, 1.0, 0.1, 1.5)
        for nan_at in range(6):
            args = [0.8, 0.3, 1.0, 1.0, 0.1, 0.5]
            args[nan_at] = math.nan
            with pytest.raises(ValueError):
                EnvParams(*args)

    def test_node_type_is_closed(self):
        assert {t.value for t in NodeType} == {"honest", "malicious"}
