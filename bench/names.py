"""The benchmark's vocabulary: every metric, with unit and direction.

``BENCHMARK.json`` at the repository root lists the same names (the
self-tests compare the two), so a later issue can refer to
``net.send_us on packet-storm`` and mean one thing.
"""

from __future__ import annotations

from typing import List, Tuple

from layers import LAYERS

#: Format tag of ``bench/out/result.json`` (written by ``run.py``'s
#: suite mode, read by ``compare.py``).
SCHEMA = "repro-bench/2"

#: (name, unit, better, regression bound) — what a user of the system
#: sees.  Host times are in reference-pace seconds: ``wall_s`` (and
#: ``ops_per_s``) interference-filtered over a run's repetitions,
#: ``setup_s`` their fastest (``run.host_values``); ``peak_rss_mb`` is
#: a median; the simulated three repeat exactly for a seed.
#:
#: The bounds are what the benchmark driver applies to medians of ten
#: runs on ten *different* seeds, so they must cover what host noise
#: the filtering leaves (measured spread, interquartile range / median
#: over ten runs, of ``wall_s``: 1-4 % while the host stays in one
#: state, up to 7 % when a slow spell covers part of the ten; of
#: ``setup_s``: 1-10 %) and the seed-to-seed variation of the
#: simulated metrics (p50 <= 1.5 %, p99 <= 5 %, ok_ratio <= 3 %).
#: ``setup_s`` has the largest bound the driver allows; every other
#: bound is about three times the widest spread seen.  For one seed
#: ``compare.py`` holds simulated metrics to exact equality instead.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.20),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sim_latency_p50_ms", "ms", "lower", 0.10),
    ("sim_latency_p99_ms", "ms", "lower", 0.20),
    ("ok_ratio", "ratio", "higher", 0.10),
]

#: Metrics that depend only on the seed, never on the host.
SIMULATED = ("sim_latency_p50_ms", "sim_latency_p99_ms", "ok_ratio")

_COUNTS: List[Tuple[str, str, str]] = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_op", "1/op", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.timeout_calls", "count", "lower"),
    ("sim.process_calls", "count", "lower"),
    ("sim.sim_s_per_wall_s", "1/s", "higher"),
    ("net.packets_sent", "count", "lower"),
    ("net.packets_delivered", "count", "higher"),
    ("net.packets_dropped", "count", "lower"),
    ("net.link_bytes", "bytes", "lower"),
    ("net.send_us", "us", "lower"),
    ("net.self_us_per_packet", "us", "lower"),
    ("net.chan_sends", "count", "lower"),
    ("net.chan_retransmissions", "count", "lower"),
    ("net.chan_gave_up", "count", "lower"),
    ("net.retransmit_ratio", "ratio", "lower"),
    ("net.rpc_calls", "count", "lower"),
    ("net.rpc_retries", "count", "lower"),
    ("node.invocations", "count", "lower"),
    ("node.invoke_us", "us", "lower"),
    ("node.invoke_errors", "count", "lower"),
    ("groups.broadcasts", "count", "lower"),
    ("groups.broadcast_us", "us", "lower"),
    ("groups.receives", "count", "lower"),
    ("groups.receive_us", "us", "lower"),
    ("groups.holdback_ratio", "ratio", "lower"),
    ("groups.view_changes", "count", "lower"),
    ("concurrency.ot_local_edits", "count", "higher"),
    ("concurrency.ot_server_receives", "count", "lower"),
    ("concurrency.ot_server_receive_us", "us", "lower"),
    ("concurrency.ot_remote_applies", "count", "lower"),
    ("concurrency.ot_remote_apply_us", "us", "lower"),
    ("concurrency.ot_xforms_per_op", "1/op", "lower"),
    ("concurrency.lock_requests", "count", "lower"),
    ("concurrency.lock_acquire_us", "us", "lower"),
    ("concurrency.lock_waits", "count", "lower"),
    ("concurrency.lock_wait_ratio", "ratio", "lower"),
    ("concurrency.lock_takeovers", "count", "lower"),
    ("concurrency.store_writes", "count", "lower"),
    ("sessions.floor_requests", "count", "lower"),
    ("sessions.floor_request_us", "us", "lower"),
    ("sessions.floor_turns", "count", "higher"),
    ("sessions.pointer_moves", "count", "lower"),
    ("sessions.pointer_deliveries", "count", "lower"),
    ("awareness.published", "count", "lower"),
    ("awareness.delivered", "count", "lower"),
    ("awareness.publish_us", "us", "lower"),
    ("awareness.fanout", "ratio", "lower"),
    ("streams.frames_sent", "count", "lower"),
    ("streams.send_frame_us", "us", "lower"),
    ("streams.frames_played", "count", "higher"),
    ("streams.deadline_misses", "count", "lower"),
    ("streams.sink_receive_us", "us", "lower"),
    ("qos.negotiations", "count", "lower"),
    ("qos.frames_recorded", "count", "lower"),
    ("qos.record_frame_us", "us", "lower"),
    ("qos.windows_ok", "count", "higher"),
    ("qos.windows_violated", "count", "lower"),
    ("faults.injected", "count", "lower"),
    ("faults.breaker_rejected", "count", "lower"),
    ("faults.drops_no_route", "count", "lower"),
    ("faults.drops_impairment", "count", "lower"),
    ("faults.drops_link_down", "count", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.start_span_us", "us", "lower"),
    ("obs.flight_records", "count", "lower"),
    ("obs.timeline_windows", "count", "lower"),
    ("obs.metric_series", "count", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]

#: (name, unit, better) — single layers; no bound.  ``L.self_s`` and
#: ``L.share`` for every layer first, then counts and per-call costs.
PER_LAYER: List[Tuple[str, str, str]] = \
    [(layer + suffix, unit, "lower")
     for layer in LAYERS
     for suffix, unit in ((".self_s", "s"), (".share", "ratio"))] + _COUNTS
