import json

from epwb import audit_all, ledger_json

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


def test_ledger_is_deterministic():
    a = ledger_json(audit_all())
    b = ledger_json(audit_all())
    assert a == b
    assert a.endswith("\n")


def test_ledger_round_trips_through_json():
    report = json.loads(ledger_json(audit_all()))
    assert len(report["entries"]) == 5
    assert all(isinstance(e["question"], str) and e["question"] for e in report["entries"])


def test_ledger_accepts_prebuilt_report():
    # the ledger renders the report it is given, nothing recomputed
    report = audit_all()
    report["entries"] = report["entries"][:1]
    assert json.loads(ledger_json(report)) == report
