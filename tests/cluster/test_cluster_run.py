"""End-to-end cluster runs: invariants, elections, record shape, determinism."""

import json

import pytest

from repro.cluster import run_cluster, spec_from_dict


def run(doc):
    return run_cluster(spec_from_dict(doc))


@pytest.fixture(scope="module")
def smoke_record():
    return run(
        {
            "name": "unit-smoke",
            "primaries": 2,
            "backups": 2,
            "capacity": 2,
            "workload": {"exchanges": 60, "service_time": 0.005},
            "crash": {"primary": 0, "at": 0.25},
            "deadline": 10.0,
        }
    )


def test_all_invariants_hold(smoke_record):
    invariants = smoke_record["invariants"]
    assert invariants["no_dual_primary"]
    assert invariants["exactly_once_streams"]
    assert invariants["bounded_takeover"]
    assert invariants["bounded_election"]
    assert invariants["fences_actuated"]
    assert smoke_record["ok"]


def test_every_client_verified(smoke_record):
    assert smoke_record["clients_verified"]
    assert [p["verified"] for p in smoke_record["pairs"]] == [True, True]


def test_takeover_latency_within_budget(smoke_record):
    assert 0 < smoke_record["detection_latency"] <= smoke_record["takeover_latency"]
    assert (
        smoke_record["takeover_latency"]
        <= smoke_record["invariants"]["takeover_budget"]
    )


def test_election_replaced_the_consumed_backup(smoke_record):
    (election,) = smoke_record["elections"]
    assert election["kind"] == "takeover"
    assert election["consumed_backup"] == "pool0"
    assert election["new_backup"] == "pool1"
    assert election["sync_latency"] is not None
    assert smoke_record["pool"]["consumed"] == ["pool0"]


def test_arbiter_fenced_exactly_once(smoke_record):
    assert smoke_record["arbiter"]["cuts_performed"] == 1
    assert not smoke_record["arbiter"]["sabotaged"]


def test_crashed_pair_gets_phase_timeline(smoke_record):
    timeline = smoke_record["timelines"]["s0"]
    assert timeline["outage"] > 0
    assert set(timeline["phases"]) == {"detection", "takeover", "recovery"}
    # Healthy pairs report only their progress gap.
    assert set(smoke_record["timelines"]["s1"]) == {"max_gap"}
    assert smoke_record["timelines"]["s1"]["max_gap"] < timeline["outage"]


def test_record_is_jsonable(smoke_record):
    assert json.loads(json.dumps(smoke_record)) == smoke_record


def test_runs_are_deterministic():
    doc = {
        "name": "unit-det",
        "primaries": 2,
        "backups": 2,
        "capacity": 2,
        "workload": {"exchanges": 40, "service_time": 0.005},
        "crash": {"at": 0.2},
        "deadline": 10.0,
    }
    assert run(doc) == run(doc)


def test_orphan_reelection():
    # pool0 shadows both s0 and s2; s0's takeover consumes it and orphans
    # s2, which must be re-elected onto a live pool host and re-synced.
    record = run(
        {
            "name": "unit-orphan",
            "primaries": 3,
            "backups": 3,
            "capacity": 2,
            "assignment": {"pool0": ["s0", "s2"], "pool1": ["s1"], "pool2": []},
            "workload": {"exchanges": 60, "service_time": 0.005},
            "crash": {"primary": 0, "at": 0.25},
            "deadline": 10.0,
        }
    )
    assert record["ok"]
    kinds = {e["service"]: e["kind"] for e in record["elections"]}
    assert kinds == {"s0": "takeover", "s2": "orphan"}
    assert all(e["sync_latency"] is not None for e in record["elections"])
    assert record["retired_services"] == 1


def test_sabotaged_arbiter_fails_the_run_record():
    # Scenario-level sabotage: requests acked, never actuated.  The crash
    # is real so no dual-primary arises, but the fence never lands and
    # the gap-recovery path must still converge the takeover; the
    # fences_actuated invariant fails the record on the arbiter's counters.
    record = run(
        {
            "name": "unit-sabotage",
            "primaries": 1,
            "backups": 1,
            "workload": {"exchanges": 40, "service_time": 0.005},
            "crash": {"at": 0.2},
            "arbiter": {"sabotaged": True},
            "deadline": 10.0,
        }
    )
    assert record["arbiter"]["sabotaged"]
    assert record["arbiter"]["cuts_performed"] == 0
    assert record["arbiter"]["fence_requests"] == 1
    assert record["invariants"]["no_dual_primary"]
    assert record["invariants"]["fences_actuated"] is False
    assert record["invariants"]["all_hold"] is False
    assert record["ok"] is False


def test_single_pair_cluster_matches_paper_shape():
    # The degenerate 1:1 cluster is the paper's own topology; it must
    # fail over cleanly through the same fabric code path.
    record = run(
        {
            "name": "unit-pair",
            "primaries": 1,
            "backups": 1,
            "workload": {"exchanges": 60, "service_time": 0.005},
            "crash": {"at": 0.25},
            "deadline": 10.0,
        }
    )
    assert record["clients_verified"]
    assert record["invariants"]["no_dual_primary"]
    assert record["invariants"]["bounded_takeover"]
    # A 1-backup pool cannot elect a replacement: recorded, not raised.
    (election,) = record["elections"]
    assert election["new_backup"] is None
