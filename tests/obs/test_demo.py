"""The registered telemetry demo workloads: shape and replayability."""

import json

from repro.run import RunSpec, run
from repro.workload.catalogue import WORKLOADS
from repro.workload.telemetry import slo_burn_workload, traced_rpc_workload


def _outcome(name, seed):
    return run(RunSpec(name, seed)).outcome


def test_workloads_are_registered():
    assert WORKLOADS["traced-rpc"] is traced_rpc_workload
    assert WORKLOADS["slo-burn"] is slo_burn_workload


class TestTracedRpc:

    def test_result_shape_and_sampling(self):
        result = _outcome("traced-rpc", seed=31)
        # All clients finish all their requests regardless of sampling.
        assert set(result["completed"].values()) == {8}
        assert result["posts"] == 24
        # The head sampler kept some traces and dropped some spans.
        assert result["sampled_traces"]
        assert result["spans_retained"] > 0
        assert result["spans_sampled_out"] > 0
        # Memory stayed inside the configured ring.
        assert result["spans_retained"] <= 256
        # The profile is part of the result and sees real sim time.
        assert result["profile"]["rpc.call"]["count"] > 0

    def test_result_is_json_serialisable_and_deterministic(self):
        first = json.dumps(_outcome("traced-rpc", seed=31),
                           sort_keys=True)
        second = json.dumps(_outcome("traced-rpc", seed=31),
                            sort_keys=True)
        assert first == second

    def test_different_seed_samples_different_traces(self):
        a = _outcome("traced-rpc", seed=31)
        b = _outcome("traced-rpc", seed=32)
        assert a["sampled_traces"] != b["sampled_traces"] \
            or a["env"] != b["env"]

    def test_replay_isolated(self):
        a = _outcome("traced-rpc", seed=31)
        b = _outcome("traced-rpc", seed=31)
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)


class TestSloBurn:

    def test_alert_fires_during_degradation_and_clears_after(self):
        result = _outcome("slo-burn", seed=31)
        assert result["fired"] == 1
        assert result["cleared"] == 1
        # Fires inside the degraded phase (20..45), clears after it.
        assert 20.0 <= result["first_fired_at"] <= 45.0
        assert result["first_cleared_at"] > 45.0
        assert result["active"] == []

    def test_deterministic(self):
        first = json.dumps(_outcome("slo-burn", seed=31),
                           sort_keys=True)
        second = json.dumps(_outcome("slo-burn", seed=31),
                            sort_keys=True)
        assert first == second


class TestTimelineDemo:

    def test_registered_and_json_safe(self):
        assert "timeline-demo" in WORKLOADS
        result = _outcome("timeline-demo", seed=31)
        json.dumps(result)  # fully serialisable, windows included

    def test_windows_are_contiguous_and_nonempty(self):
        result = _outcome("timeline-demo", seed=31)
        windows = result["windows"]
        assert windows
        assert [w["index"] for w in windows] == list(range(len(windows)))
        for prev, cur in zip(windows, windows[1:]):
            assert cur["start"] == prev["end"]
        assert result["windows_flushed"] == len(windows)

    def test_workload_is_genuinely_skewed(self):
        result = _outcome("timeline-demo", seed=31)
        assert result["node_zipf_skew"] > 0.5
        # The doubled-up host carries the most client traffic.
        assert result["top_node"] is not None
        # Ops follow the Zipf draw: the hot op dominates.
        totals = sorted(result["op_totals"].values(), reverse=True)
        assert totals[0] > totals[-1]

    def test_critical_path_covers_traces(self):
        result = _outcome("timeline-demo", seed=31)
        assert result["critical_traces"] > 0
        assert result["bottlenecks"]
        shares = [b["share"] for b in result["bottlenecks"]]
        assert shares == sorted(shares, reverse=True)

    def test_deterministic(self):
        first = json.dumps(_outcome("timeline-demo", seed=31),
                           sort_keys=True)
        second = json.dumps(_outcome("timeline-demo", seed=31),
                            sort_keys=True)
        assert first == second
