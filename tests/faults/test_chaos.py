"""Smoke and determinism tests for the chaos workloads."""

from repro.run import RunSpec, run
from repro.workload.catalogue import WORKLOADS
from repro.workload.chaos import (
    HEAL_AT,
    PARTITION_AT,
    flaky_links_workload,
    partition_recovery_workload,
)


def test_chaos_workloads_registered():
    assert "partition-recovery" in WORKLOADS
    assert "flaky-links" in WORKLOADS


def test_partition_recovery_arc():
    result = run(RunSpec("partition-recovery", 31)).outcome
    # Detection: the partition (not anything earlier) causes suspicion.
    assert result["first_suspicion_at"] > PARTITION_AT
    assert result["suspicions"]
    # Recovery: every member is back shortly after the heal.
    assert result["recovered_at"] is not None
    assert result["recovered_at"] > HEAL_AT
    assert result["recovery_time"] <= 3.0
    # The SLO fires during the split and clears after the heal.
    assert PARTITION_AT < result["slo_fired_at"] < HEAL_AT
    assert result["slo_cleared_at"] > HEAL_AT
    # Degradation sheds and recovery restores the media contract.
    events = [entry["event"] for entry in result["degradation_log"]]
    assert "degrade" in events and "recover" in events
    assert result["final_throughput"] == 150000.0
    assert result["session_counters"]["floor_reclaims"] == 1
    assert result["fault_spans"] == ["fault.heal", "fault.partition"]


def test_partition_recovery_baseline_is_inert():
    result = partition_recovery_workload(include_faults=False)
    assert result["faults"] == []
    assert result["suspicions"] == []
    assert result["slo_fired_at"] is None
    assert result["session_transitions"] == []
    assert result["final_throughput"] == 150000.0
    assert result["fault_spans"] == []


def test_flaky_links_policies_engage():
    result = run(RunSpec("flaky-links", 31)).outcome
    assert result["metric_rpc_retries"] > 0
    assert result["metric_breaker_opened"] > 0
    assert result["breaker_rejected"] > 0
    assert result["breaker"] == {"server": "closed"}
    assert result["chan_retries"] > 0
    assert result["chan_gave_up"] > 0
    assert result["tail_promoted"] > 0
    assert result["outcomes"].get("ok", 0) > 100


def test_chaos_workloads_deterministic():
    assert partition_recovery_workload(seed=7) \
        == partition_recovery_workload(seed=7)
    assert flaky_links_workload(seed=7) == flaky_links_workload(seed=7)


def test_seed_changes_outcome():
    assert flaky_links_workload(seed=1) != flaky_links_workload(seed=2)
