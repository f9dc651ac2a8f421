"""Every test runs under its own metrics registry and leaks no observer.

An environment binds whatever observers are ambient when it is built.
A test gets a fresh registry here, so nothing its environments record
reaches the next test, and on the way out it must leave the tracer,
registry, flight recorder, sanitizer and fault-schedule override as it
found them: a scope a test forgets to close fails that test, not a
later one.
"""

import pytest

from repro.analysis.hb import get_sanitizer, use_sanitizer
from repro.faults import schedule
from repro.obs.flight import get_flight, use_flight
from repro.obs.metrics import MetricsRegistry, get_metrics, use_metrics
from repro.obs.tracer import get_tracer, use_tracer


def ambient():
    """The five ambient observers, by name."""
    return {"tracer": get_tracer(), "metrics": get_metrics(),
            "flight": get_flight(), "sanitizer": get_sanitizer(),
            "schedule": schedule._schedule_override}


@pytest.fixture(autouse=True)
def run_owned_observers():
    found = ambient()
    # Re-entering the ambient values restores them on exit even when
    # the test leaked a scope, so one leak fails one test.
    with use_tracer(found["tracer"]), use_flight(found["flight"]), \
            use_sanitizer(found["sanitizer"]), \
            schedule._use_override(found["schedule"]), \
            use_metrics(MetricsRegistry()) as registry:
        yield registry
        left = ambient()
        expected = dict(found, metrics=registry)
    leaked = sorted(name for name in found if left[name] is not expected[name])
    assert not leaked, "the test left these observers changed: {}".format(
        ", ".join(leaked))
