"""Service-level objectives with multi-window burn-rate alerting.

The paper requires *"end-to-end monitoring of QoS so that the application
can be informed if degradations occur"* (§4.2.2-ii).  The QoS monitor
already measures each flow; this module adds the operational half:
**declarative objectives** over the instruments the middleware already
records (``qos.*`` windows, ``rpc.latency``, ``net.delivery_latency``,
…) and a **burn-rate evaluator** that tells the application not merely
*that* a window was bad, but that badness is consuming the error budget
fast enough to warrant interruption.

Burn rate is the SRE yardstick: with a target of 99% good events the
error budget is 1%; a burn rate of 10 means errors are arriving at ten
times the rate the budget can absorb.  Alerting on *two* windows at once
— a long one for significance, a short one to confirm the problem is
still live — is what keeps alerts both fast and non-flappy; the short
window is also what lets an alert *clear* promptly once the system
recovers.

Everything here is driven by simulated time and the metrics registry:
no wall clock, no randomness, no effect on the event schedule beyond the
monitor's own periodic ticks — so a run with SLO monitoring enabled
replays bit-for-bit, and one without it is byte-identical to a run
before this module existed.

Typical use::

    from repro.obs import slo

    monitor = slo.SLOMonitor(env, [
        slo.qos_slo("cam->viewer", target=0.95),
        slo.CounterRatioSLO("availability",
                            good=("service.requests", {"outcome": "ok"}),
                            bad=("service.requests", {"outcome": "err"}),
                            target=0.999),
    ], until=300.0)
    env.run()
    monitor.events      # fired / cleared alert log
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import QoSError
from repro.obs.metrics import MetricsRegistry
from repro.sim import Environment

#: Default multi-window burn-rate policy, patterned on the SRE workbook
#: pairs but in simulated seconds: (long window, short window, burn-rate
#: factor, severity).  Tune per experiment; horizons of minutes suit the
#: repo's session-scale workloads.
DEFAULT_WINDOWS: Tuple[Tuple[float, float, float, str], ...] = (
    (60.0, 5.0, 14.4, "page"),
    (360.0, 30.0, 6.0, "ticket"),
)

#: How often an :class:`SLOMonitor` evaluates, in simulated seconds.
EVALUATION_INTERVAL = 1.0


class SLO:
    """One declarative objective: a target fraction of good events.

    Subclasses define :meth:`totals` — cumulative (good, bad) event
    counts read from a metrics registry.  The evaluator differences
    totals over sliding windows, so instruments only need to be
    monotone, which counters and histogram counts already are.
    """

    def __init__(self, name: str, target: float,
                 description: str = "") -> None:
        if not 0.0 < target < 1.0:
            raise QoSError(
                "SLO target must be in (0, 1), got {}".format(target))
        self.name = name
        self.target = target
        self.description = description

    @property
    def error_budget(self) -> float:
        """The tolerable bad-event fraction (1 - target)."""
        return 1.0 - self.target

    def totals(self, registry: MetricsRegistry) -> Tuple[float, float]:
        """Cumulative (good, bad) event counts."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<{} {} target={}>".format(
            type(self).__name__, self.name, self.target)


class CounterRatioSLO(SLO):
    """Good/bad as two counter selectors (name plus a label subset).

    ``good`` / ``bad`` are either a bare counter name or a
    ``(name, labels_dict)`` pair; all matching label sets are summed.
    """

    def __init__(self, name: str, good, bad, target: float,
                 description: str = "") -> None:
        super().__init__(name, target, description)
        self.good = _selector(good)
        self.bad = _selector(bad)

    def totals(self, registry: MetricsRegistry) -> Tuple[float, float]:
        good_name, good_labels = self.good
        bad_name, bad_labels = self.bad
        return (float(registry.counter_total(good_name, **good_labels)),
                float(registry.counter_total(bad_name, **bad_labels)))


def qos_slo(flow: str, target: float = 0.95,
            name: Optional[str] = None) -> CounterRatioSLO:
    """An SLO over the QoS monitor's per-flow window verdicts.

    :class:`~repro.qos.monitor.QoSMonitor` records every monitoring
    window as ``qos.windows_ok`` or ``qos.violations`` (labelled by
    flow); this objective turns those into a burn-rate-evaluable target —
    the paper's degradation notification, with teeth.
    """
    return CounterRatioSLO(
        name or "qos:" + flow,
        good=("qos.windows_ok", {"flow": flow}),
        bad=("qos.violations", {"flow": flow}),
        target=target,
        description="fraction of QoS windows honouring the contract")


class BurnAlert:
    """One alert lifecycle: fired when both windows burn hot, cleared
    when either cools back below the factor."""

    __slots__ = ("slo", "severity", "long_window", "short_window",
                 "factor", "fired_at", "cleared_at", "peak_burn")

    def __init__(self, slo: str, severity: str, long_window: float,
                 short_window: float, factor: float,
                 fired_at: float) -> None:
        self.slo = slo
        self.severity = severity
        self.long_window = long_window
        self.short_window = short_window
        self.factor = factor
        self.fired_at = fired_at
        self.cleared_at: Optional[float] = None
        self.peak_burn = 0.0

    @property
    def active(self) -> bool:
        return self.cleared_at is None

    def __repr__(self) -> str:
        return "<BurnAlert {} {} fired={:g}{}>".format(
            self.slo, self.severity, self.fired_at,
            "" if self.active else " cleared={:g}".format(self.cleared_at))


class SLOMonitor:
    """Periodically evaluates SLO burn rates and records alert events.

    Every ``EVALUATION_INTERVAL`` the monitor snapshots each
    SLO's cumulative totals, differences them over each configured
    window pair and compares the burn rates against the pair's factor.
    Alerts fire when *both* windows exceed the factor and clear when the
    condition lapses; both transitions land in :attr:`events`, in the
    registry (``slo.alerts_fired`` / ``slo.alerts_cleared`` counters,
    ``slo.burn_rate`` gauges) and on the optional ``on_alert`` callback
    — the degradation notification the application asked for.

    Pass ``until`` (or call :meth:`stop`) so ``env.run()`` with no
    deadline can drain; windows with no events burn at rate zero.  The
    monitor reads and writes ``env.metrics``, the registry its
    environment was built under.
    """

    def __init__(self, env: Environment, slos: Sequence[SLO],
                 windows: Sequence[Tuple[float, float, float, str]]
                 = DEFAULT_WINDOWS,
                 until: Optional[float] = None,
                 on_alert: Optional[Callable[[str, BurnAlert], None]]
                 = None) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise QoSError("duplicate SLO names: {}".format(names))
        for long_window, short_window, factor, _severity in windows:
            for field, value in (("long window", long_window),
                                 ("short window", short_window),
                                 ("burn-rate factor", factor)):
                if not value > 0:  # also rejects NaN
                    raise QoSError("{} must be positive: {!r}".format(
                        field, value))
            if short_window > long_window:
                raise QoSError("short window must not exceed long window")
        if until is not None and not until > env.now:
            raise QoSError("until must be later than now ({!r}): "
                           "{!r}".format(env.now, until))
        self.env = env
        self.slos = list(slos)
        self.windows = tuple(windows)
        self.until = until
        self.on_alert = on_alert
        self._keep = (max(w[0] for w in windows) if windows else 0.0) \
            + 2 * EVALUATION_INTERVAL
        #: (time, {slo name: (good, bad)}) samples, oldest first.
        self._history: List[Tuple[float, Dict[str, Tuple[float, float]]]] \
            = []
        self._active: Dict[Tuple[str, str], BurnAlert] = {}
        #: Chronological fired/cleared event dicts (JSON-safe).
        self.events: List[Dict[str, Any]] = []
        self.alerts: List[BurnAlert] = []
        self._stopped = False
        self.process = env.process(self._run())

    def stop(self) -> None:
        """Stop evaluating (lets an open-ended ``env.run()`` drain).

        The monitor wakes once more, at its pending tick, and exits
        without evaluating.
        """
        self._stopped = True

    def active_alerts(self) -> List[BurnAlert]:
        """Alerts currently firing, stable-ordered."""
        return [self._active[key] for key in sorted(self._active)]

    # -- internals ---------------------------------------------------------

    def _run(self):
        while not self._stopped and \
                (self.until is None or self.env.now < self.until):
            yield self.env.timeout(EVALUATION_INTERVAL)
            if self._stopped:
                break
            self._evaluate()

    def _evaluate(self) -> None:
        now = self.env.now
        registry = self.env.metrics
        totals = {slo.name: slo.totals(registry) for slo in self.slos}
        self._history.append((now, totals))
        while self._history and self._history[0][0] < now - self._keep:
            self._history.pop(0)
        for slo in self.slos:
            current = totals[slo.name]
            for long_window, short_window, factor, severity in self.windows:
                burn_long = self._burn(slo, current, long_window, now)
                burn_short = self._burn(slo, current, short_window, now)
                registry.gauge("slo.burn_rate", slo=slo.name,
                               window="{:g}s".format(long_window)) \
                    .set(burn_long, at=now)
                self._transition(slo, severity, long_window, short_window,
                                 factor, burn_long, burn_short, now,
                                 registry)

    def _baseline(self, name: str, cutoff: float) -> Tuple[float, float]:
        """Totals at the newest sample at or before ``cutoff``.

        With no history that old (early in the run, or after pruning)
        the window is evaluated from zero — i.e. over all events so far.
        """
        baseline = (0.0, 0.0)
        for at, totals in self._history:
            if at > cutoff:
                break
            baseline = totals.get(name, baseline)
        return baseline

    def _burn(self, slo: SLO, current: Tuple[float, float],
              window: float, now: float) -> float:
        base_good, base_bad = self._baseline(slo.name, now - window)
        good = current[0] - base_good
        bad = current[1] - base_bad
        total = good + bad
        if total <= 0:
            return 0.0
        bad_fraction = bad / total
        budget = slo.error_budget
        if budget <= 0:
            return float("inf") if bad else 0.0
        return bad_fraction / budget

    def _transition(self, slo: SLO, severity: str, long_window: float,
                    short_window: float, factor: float, burn_long: float,
                    burn_short: float, now: float,
                    registry: MetricsRegistry) -> None:
        key = (slo.name, severity)
        firing = burn_long >= factor and burn_short >= factor
        alert = self._active.get(key)
        if firing and alert is None:
            alert = BurnAlert(slo.name, severity, long_window,
                              short_window, factor, fired_at=now)
            self._active[key] = alert
            self.alerts.append(alert)
            registry.counter("slo.alerts_fired", slo=slo.name,
                             severity=severity).add()
            self._record_event("fired", alert, burn_long, burn_short, now)
        if alert is not None and alert.active:
            alert.peak_burn = max(alert.peak_burn, burn_long)
        if not firing and alert is not None:
            alert.cleared_at = now
            del self._active[key]
            registry.counter("slo.alerts_cleared", slo=slo.name,
                             severity=severity).add()
            self._record_event("cleared", alert, burn_long, burn_short,
                               now)

    def _record_event(self, kind: str, alert: BurnAlert, burn_long: float,
                      burn_short: float, now: float) -> None:
        event = {
            "event": kind,
            "slo": alert.slo,
            "severity": alert.severity,
            "at": now,
            "burn_long": burn_long,
            "burn_short": burn_short,
            "long_window": alert.long_window,
            "short_window": alert.short_window,
        }
        self.events.append(event)
        if self.on_alert is not None:
            self.on_alert(kind, alert)

    def summary(self) -> Dict[str, Any]:
        """A JSON-safe digest (for workload results and bench telemetry)."""
        return {
            "slos": [slo.name for slo in self.slos],
            "events": list(self.events),
            "active": [alert.slo + "/" + alert.severity
                       for alert in self.active_alerts()],
            "fired": sum(1 for e in self.events if e["event"] == "fired"),
            "cleared": sum(1 for e in self.events
                           if e["event"] == "cleared"),
        }

    def __repr__(self) -> str:
        return "<SLOMonitor slos={} active={} events={}>".format(
            len(self.slos), len(self._active), len(self.events))


def _selector(spec) -> Tuple[str, Dict[str, Any]]:
    if isinstance(spec, str):
        return (spec, {})
    name, labels = spec
    return (name, dict(labels or {}))
