"""Every test runs under its own metrics registry and leaks no observer.

An environment binds whatever observers are ambient when it is built.
A test gets a fresh registry here, so nothing its environments record
reaches the next test, and on the way out it must leave the tracer,
registry, flight recorder, sanitizer and fault-schedule override as it
found them: a scope a test forgets to close fails that test, not a
later one.

Every property test draws its examples under one hypothesis profile,
``repro``: derandomized, with no example database and no deadline, so a
test's examples are a function of the tree and the command, locally, in
CI and in every mutant copy alike.  It is loaded here, after
hypothesis's own import has loaded its ``ci`` profile on a CI runner,
and built on hypothesis's defaults, so the environment chooses nothing.
A test's ``@settings`` carries only ``max_examples``.  Random exploration is the second profile,
``explore``, chosen on the command line::

    pytest tests --hypothesis-profile=explore --hypothesis-seed=N

Each seed draws other examples and the same seed draws them again
(``--hypothesis-seed`` is ignored under ``derandomize``).
"""

import pytest
from hypothesis import settings

from repro.analysis.hb import get_sanitizer, use_sanitizer
from repro.faults import schedule
from repro.obs.flight import get_flight, use_flight
from repro.obs.metrics import MetricsRegistry, get_metrics, use_metrics
from repro.obs.tracer import get_tracer, use_tracer

# Both derive from hypothesis's defaults, not from whichever profile is
# loaded now: on a CI runner that is ``ci``, which suppresses a health
# check.
DEFAULTS = settings.get_profile("default")
settings.register_profile("repro", DEFAULTS, derandomize=True, database=None,
                          deadline=None)
settings.register_profile("explore", DEFAULTS, derandomize=False,
                          database=None, deadline=None, print_blob=True)
settings.load_profile("repro")


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
