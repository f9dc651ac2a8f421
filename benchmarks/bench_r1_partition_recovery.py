"""R1 — surviving partitions: detection, degradation, recovery (§2.3).

*"...reliability stems from the system as a whole"* — a cooperative
session should survive the failure of individual connections by
degrading gracefully and recovering automatically, not by collapsing.

Setup: the two chaos workloads from :mod:`repro.faults.chaos`.

* **partition-recovery** — a four-member floor-controlled session with a
  QoS-monitored media flow across a two-site WAN.  A scheduled two-way
  partition splits the sites; the phi-accrual detector suspects the far
  members (automatic view change), the degradation manager reclaims the
  suspected holder's floor, sheds the media contract and drops the
  session to asynchronous mode when the SLO burn alert fires.  After the
  heal the members rejoin and full service is restored.  Compared
  against the identical stack under an *empty* fault schedule (the
  injector must be inert without scheduled events).
* **flaky-links** — recovery policies (exponential backoff, deadline
  budget, per-destination circuit breaker) under link flaps, a loss
  burst and a latency storm, with tail-based trace sampling rescuing
  the error traces the head sampler would have dropped.
"""

from benchmarks._util import print_table, run_once
from repro.faults.chaos import (
    HEAL_AT,
    MEMBERS,
    PARTITION_AT,
    flaky_links_workload,
    partition_recovery_workload,
)

SEED = 31


def run_experiment():
    return {
        "baseline": partition_recovery_workload(seed=SEED,
                                                include_faults=False),
        "partition": partition_recovery_workload(seed=SEED),
        "flaky": flaky_links_workload(seed=SEED),
    }


def test_r1_partition_recovery(benchmark):
    results = run_once(benchmark, run_experiment)
    baseline = results["baseline"]
    partition = results["partition"]
    flaky = results["flaky"]

    rows = []
    for name in ("baseline", "partition"):
        r = results[name]
        rows.append((
            name, len(r["suspicions"]), len(r["views"]),
            "-" if r["recovery_time"] is None else r["recovery_time"],
            "-" if r["slo_fired_at"] is None else r["slo_fired_at"],
            "-" if r["slo_cleared_at"] is None else r["slo_cleared_at"],
            r["session_counters"].get("floor_reclaims", 0),
            r["final_throughput"]))
    print_table(
        "R1  partition recovery: healthy baseline vs injected split",
        ["run", "suspicions", "views", "recovery s", "slo fired",
         "slo cleared", "floor reclaims", "final tp"],
        rows)
    print_table(
        "R1  flaky links: recovery policies + tail sampling",
        ["rpc ok", "rejected fast", "rpc retries", "breaker opened",
         "chan retries", "chan gave up", "tail promoted"],
        [(flaky["outcomes"].get("ok", 0),
          flaky["breaker_rejected"],
          flaky["metric_rpc_retries"],
          flaky["metric_breaker_opened"],
          flaky["chan_retries"],
          flaky["chan_gave_up"],
          flaky["tail_promoted"])])

    # Without scheduled faults the injector is inert: full membership,
    # no suspicions, the SLO never fires, full service throughout.
    assert baseline["faults"] == []
    assert baseline["suspicions"] == []
    assert baseline["slo_fired_at"] is None
    assert baseline["session_transitions"] == []
    assert baseline["final_throughput"] == 150000.0

    # The partition is detected (after it starts), shrinks the view,
    # and the heal brings every member back automatically.
    assert partition["first_suspicion_at"] is not None
    assert partition["first_suspicion_at"] > PARTITION_AT
    assert min(len(v["members"]) for v in partition["views"]) \
        < len(MEMBERS)
    assert partition["recovered_at"] is not None
    assert partition["recovery_time"] is not None
    assert partition["recovery_time"] <= 3.0

    # The SLO burn alert fires during the split and clears after the
    # heal; degradation sheds the contract and recovery restores it.
    assert partition["slo_fired_at"] is not None
    assert PARTITION_AT < partition["slo_fired_at"] < HEAL_AT
    assert partition["slo_cleared_at"] is not None
    assert partition["slo_cleared_at"] > HEAL_AT
    events = [entry["event"] for entry in partition["degradation_log"]]
    assert "degrade" in events and "recover" in events
    assert partition["final_throughput"] == 150000.0

    # The suspected floor holder's floor is reclaimed; the session dips
    # to asynchronous mode and comes back.
    assert partition["session_counters"]["floor_reclaims"] == 1
    assert len(partition["session_transitions"]) == 2

    # Fault injection is traced: every injected event has a span.
    assert partition["fault_spans"] == ["fault.heal", "fault.partition"]
    assert partition["faults_injected"] == 2

    # Flaky links: the policies visibly engage and the breaker recovers.
    assert flaky["metric_rpc_retries"] > 0
    assert flaky["metric_breaker_opened"] > 0
    assert flaky["breaker_rejected"] > 0
    assert flaky["breaker"] == {"server": "closed"}
    assert flaky["chan_retries"] > 0
    assert flaky["chan_gave_up"] > 0
    assert flaky["tail_promoted"] > 0
    assert flaky["outcomes"].get("ok", 0) > 100

    benchmark.extra_info["recovery_time_s"] = partition["recovery_time"]
    benchmark.extra_info["slo_fired_at"] = partition["slo_fired_at"]
