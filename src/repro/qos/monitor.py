"""End-to-end QoS monitoring (§4.2.2-ii).

*"...end-to-end monitoring of QoS so that the application can be informed
if degradations occur.  Dynamic re-negotiation should also be supported."*

:class:`QoSMonitor` observes a flow's delivered frames over a sliding
window, computes achieved throughput / latency / jitter / loss, compares
them against a contract and informs the application through a callback.
An optional adaptation hook triggers renegotiation automatically.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import QoSError
from repro.obs.metrics import get_metrics
from repro.qos.params import CLOSED, QoSContract, QoSParameters
from repro.sim import Counter, Environment


class QoSObservation:
    """Achieved QoS over one monitoring window."""

    __slots__ = ("window_start", "window_end", "throughput", "mean_latency",
                 "jitter", "loss", "frames")

    def __init__(self, window_start: float, window_end: float,
                 throughput: float, mean_latency: float, jitter: float,
                 loss: float, frames: int) -> None:
        self.window_start = window_start
        self.window_end = window_end
        self.throughput = throughput
        self.mean_latency = mean_latency
        self.jitter = jitter
        self.loss = loss
        self.frames = frames

    def meets(self, agreed: QoSParameters,
              throughput_slack: float = 0.9) -> bool:
        """Does the observation honour the agreed level?

        Throughput is judged against ``throughput_slack`` of the agreed
        floor to tolerate window quantisation.
        """
        return (self.throughput >= agreed.throughput * throughput_slack
                and self.mean_latency <= agreed.latency
                and self.jitter <= agreed.jitter
                and self.loss <= agreed.loss)

    def __repr__(self) -> str:
        return ("<QoSObservation tp={:.3g} lat={:.4g} jit={:.4g} "
                "loss={:.3g}>").format(self.throughput, self.mean_latency,
                                       self.jitter, self.loss)


class QoSMonitor:
    """Watches one flow and reports violations against its contract."""

    def __init__(self, env: Environment, contract: QoSContract,
                 window: float = 1.0,
                 on_violation: Optional[Callable[[QoSObservation],
                                                 None]] = None,
                 expected_frames_per_window: Optional[float] = None,
                 stop_on_violation: bool = True) -> None:
        if window <= 0:
            raise QoSError("monitoring window must be positive")
        self.env = env
        self.contract = contract
        self.window = window
        self.on_violation = on_violation
        self.expected_frames = expected_frames_per_window
        #: Historically a violated window ended monitoring (the contract
        #: leaves the active states).  Pass ``False`` to keep measuring
        #: through a violation — required when an SLO burn-rate alert
        #: consumes the per-window feed, since the alert needs to watch
        #: the flow *recover* as well as fail.
        self.stop_on_violation = stop_on_violation
        self._samples: List[Tuple[float, float, int]] = []
        self.observations: List[QoSObservation] = []
        self.counters = Counter()
        self._observers: List[Callable[[QoSObservation, bool], None]] = []
        self.process = env.process(self._run())

    def add_observer(self, observer: Callable[[QoSObservation, bool],
                                              None]) -> None:
        """Register a per-window callback ``(observation, violated)``.

        Unlike ``on_violation`` this fires for *every* window, healthy or
        not — the feed the SLO layer needs to compute good/bad ratios.
        """
        self._observers.append(observer)

    def record_frame(self, sent_at: float, received_at: float,
                     size: int) -> None:
        """Feed one delivered frame (times in seconds, size in bytes)."""
        if received_at < sent_at:
            raise QoSError("frame received before it was sent")
        self._samples.append((sent_at, received_at, size))

    # -- internals -------------------------------------------------------------

    def _monitoring(self) -> bool:
        if self.stop_on_violation:
            return self.contract.is_active
        return self.contract.state != CLOSED

    def _run(self):
        while self._monitoring():
            window_start = self.env.now
            yield self.env.timeout(self.window)
            observation = self._summarise(window_start, self.env.now)
            self.observations.append(observation)
            self._record_observation(observation)
            violated = not observation.meets(self.contract.agreed)
            for observer in self._observers:
                observer(observation, violated)
            if not observation.meets(self.contract.agreed):
                self.counters.incr("violations")
                self.contract.mark_violated()
                if self.on_violation is not None:
                    self.on_violation(observation)
            else:
                self.counters.incr("windows_ok")

    def _record_observation(self, observation: QoSObservation) -> None:
        """Publish the window into the metrics registry.

        Violations and healthy windows land as counters next to the
        lock/conflict counters, so a registry snapshot, a ``dump_jsonl``
        dump and its timeline windows show QoS degradation alongside
        concurrency behaviour.  Latency/jitter
        are only recorded for windows that saw frames (an empty window
        reports infinite latency, which would poison the histogram).
        """
        metrics = get_metrics()
        flow = "{}->{}".format(self.contract.src, self.contract.dst)
        violated = not observation.meets(self.contract.agreed)
        metrics.counter(
            "qos.violations" if violated else "qos.windows_ok",
            flow=flow).add()
        if observation.frames:
            metrics.histogram("qos.latency", flow=flow).record(
                observation.mean_latency)
            metrics.histogram("qos.jitter", flow=flow).record(
                observation.jitter)
            metrics.histogram("qos.throughput", flow=flow).record(
                observation.throughput)
        metrics.histogram("qos.loss", flow=flow).record(observation.loss)

    def _summarise(self, window_start: float,
                   window_end: float) -> QoSObservation:
        frames = [(s, r, size) for s, r, size in self._samples
                  if window_start <= r < window_end]
        self._samples = [sample for sample in self._samples
                         if sample[1] >= window_end]
        if not frames:
            expected = self.expected_frames or 1.0
            return QoSObservation(window_start, window_end, 0.0,
                                  float("inf"), float("inf"),
                                  1.0 if expected > 0 else 0.0, 0)
        span = window_end - window_start
        bits = sum(size * 8 for _, _, size in frames)
        latencies = [r - s for s, r, _ in frames]
        mean_latency = sum(latencies) / len(latencies)
        jitter = (max(latencies) - min(latencies)) \
            if len(latencies) > 1 else 0.0
        loss = 0.0
        if self.expected_frames:
            loss = max(0.0, 1.0 - len(frames) / self.expected_frames)
        return QoSObservation(window_start, window_end, bits / span,
                              mean_latency, jitter, loss, len(frames))
