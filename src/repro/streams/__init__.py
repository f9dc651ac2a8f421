"""Continuous media: frames, sources/sinks, bindings, synchronisation."""

from repro.streams.binding import STREAM_PORT, StreamBinding
from repro.streams.media import (
    ARRIVAL,
    DEADLINE,
    Frame,
    MediaSink,
    MediaSource,
)
from repro.streams.sync import (
    ContinuousSynchroniser,
    EventSynchroniser,
    measure_drift,
)

__all__ = [
    "ARRIVAL",
    "ContinuousSynchroniser",
    "DEADLINE",
    "EventSynchroniser",
    "Frame",
    "MediaSink",
    "MediaSource",
    "STREAM_PORT",
    "StreamBinding",
    "measure_drift",
]
