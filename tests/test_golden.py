"""Golden suite output: the CSV bytes of each suite's default policies at
seed 7 and 50 runs. A change that claims to keep behaviour must keep these
digests; they are the ones listed in ROADMAP.md."""

import hashlib
import json

import pytest

from nodeban.cli import main

GOLDEN_SHA256 = {
    "delta_sweep": "0306fa60723c672eff4955385f299538e8c85025d884db1454c6a99144617393",
    "policy_compare": "ff40ccd5ce491ed3f680c18dfb669dea12035be46dc14c2b57ba6b6e187d1545",
    "lookahead_compare": "937e401ecf81fa5e45aa03aeebb3f45f7eb2d18dc1b0920678f2d32316ce6cd1",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_SHA256))
def test_suite_csv_matches_golden_digest(suite, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": suite, "n_runs": 50}))
    out = tmp_path / "out.csv"
    assert main(["suite", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[suite]
