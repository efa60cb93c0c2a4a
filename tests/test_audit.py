import json

import pytest

from epwb import audit_all
from epwb.audit import _entry
from epwb.cli import main

EXPECTED_IDS = (
    "wronskian-exponent",
    "product-base-coefficient",
    "bracket-gamma23",
    "chart-time-scale",
    "abel-powers",
)


def test_every_entry_resolves_to_the_corrected_reading():
    report = audit_all()
    assert report["all_resolved"] is True
    assert [e["id"] for e in report["entries"]] == list(EXPECTED_IDS)
    for entry in report["entries"]:
        assert entry["verdict"] == "reading_b"
        assert entry["resolved"] is True
        assert entry["reading_b"]["residual"] <= entry["accept_tol"]
        assert entry["reading_a"]["residual"] >= entry["reject_tol"]
        assert entry["reading_a"]["statement"] != entry["reading_b"]["statement"]


@pytest.mark.parametrize(
    "res_a, res_b", [(1.0, 1e-3), (1e-9, 1e-12)], ids=["reading-b-misses", "reading-a-holds"]
)
def test_an_unresolved_entry_claims_no_reading(res_a, res_b):
    # wronskian-exponent accepts reading b at <= 1e-6 and rejects reading a at >= 0.1
    entry = _entry("wronskian-exponent", res_a, res_b)
    assert entry["resolved"] is False
    assert entry["verdict"] == "unresolved"
    assert (entry["accept_tol"], entry["reject_tol"]) == (1e-6, 0.1)
    assert entry["reading_a"] == {"statement": "h^2 = (A C - B^2) W", "residual": res_a}


def _printed_and_written(capsys, tmp_path) -> tuple[bytes, bytes]:
    """The ledger as ``epwb audit-all`` prints it, and as ``--out`` writes it."""
    assert main(["audit-all"]) == 0
    printed = capsys.readouterr().out.encode()
    path = tmp_path / "ledger.json"
    assert main(["audit-all", "--out", str(path)]) == 0
    return printed, path.read_bytes()


def test_ledger_is_deterministic(capsys, tmp_path):
    printed, written = _printed_and_written(capsys, tmp_path)
    assert printed == written
    assert printed.endswith(b"\n")


def test_ledger_round_trips_through_json(capsys, tmp_path):
    printed, written = _printed_and_written(capsys, tmp_path)
    report = json.loads(written)
    assert report == json.loads(printed) == audit_all()
    assert len(report["entries"]) == 5
    assert all(isinstance(e["question"], str) and e["question"] for e in report["entries"])
