"""Delta-debugging shrinker for fault schedules.

A fuzzed failure usually arrives wrapped in noise: five faults injected,
one of them the trigger.  :func:`shrink_schedule` minimizes the event
list with classic ddmin (Zeller's delta debugging over the ordered
event records), then pulls each surviving lift toward its onset while
the caller's ``test`` predicate keeps returning "still fails the same
way".

The predicate receives a candidate list of event dicts (the
``FaultSchedule.to_dict()["events"]`` shape) and must return ``True``
when the candidate still reproduces the original failure.  Candidates
that fail schedule validation are simply "does not reproduce".  Every
probe is counted and cached, and a test budget bounds the whole search,
so shrinking a pathological case degrades to "less minimal", never to
"runs forever".
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.schedule import LIFT_KINDS, ONSET_KINDS, pair_key

Event = Dict[str, Any]
Test = Callable[[List[Event]], bool]


class _BudgetedTest:
    """Counts, caches and budget-caps probe executions."""

    def __init__(self, test: Test, budget: int) -> None:
        self._test = test
        self.budget = budget
        self.tests_run = 0
        self._cache: Dict[str, bool] = {}

    @property
    def exhausted(self) -> bool:
        return self.tests_run >= self.budget

    def __call__(self, events: List[Event]) -> bool:
        key = json.dumps(events, sort_keys=True)
        if key in self._cache:
            return self._cache[key]
        if self.exhausted:
            return False  # out of budget: treat as "not reproduced"
        self.tests_run += 1
        verdict = bool(self._test(events))
        self._cache[key] = verdict
        return verdict


def ddmin(items: List[Event], test: Test,
          budget: Optional[int] = None) -> Tuple[List[Event], int]:
    """Zeller's ddmin: a 1-minimal failing subset of ``items``.

    Returns ``(minimal_items, tests_run)``.  ``test`` must hold for the
    full list; if it does not, the input is returned unchanged (zero
    confidence beats a wrong answer).  The result is 1-minimal within
    budget: removing any single remaining item stops the failure.
    """
    probe = test if isinstance(test, _BudgetedTest) \
        else _BudgetedTest(test, budget if budget is not None else 1 << 30)
    if not probe(list(items)):
        return list(items), probe.tests_run
    current = list(items)
    granularity = 2
    while len(current) >= 2 and not probe.exhausted:
        chunk = max(1, len(current) // granularity)
        chunks = [current[i:i + chunk]
                  for i in range(0, len(current), chunk)]
        reduced = False
        for index, subset in enumerate(chunks):
            if len(subset) < len(current) and probe(subset):
                current = subset
                granularity = 2
                reduced = True
                break
            complement = [event
                          for j, other in enumerate(chunks)
                          if j != index
                          for event in other]
            if complement and len(complement) < len(current) \
                    and probe(complement):
                current = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current, probe.tests_run


def _pairs(events: List[Event]) -> List[Tuple[int, int]]:
    """Indices of (onset, lift) pairs, matched first-in-first-lifted."""
    open_onsets: Dict[Tuple[Any, ...], List[int]] = {}
    pairs: List[Tuple[int, int]] = []
    for index, event in enumerate(events):
        kind = event["kind"]
        if kind in LIFT_KINDS:
            open_onsets.setdefault(pair_key(kind, event), []).append(index)
        else:
            waiting = open_onsets.get(pair_key(ONSET_KINDS[kind], event))
            if waiting:
                pairs.append((waiting.pop(0), index))
    return pairs


def _reduce_gaps(events: List[Event], probe: _BudgetedTest,
                 quantum: float) -> List[Event]:
    """Pull each lift toward its onset (shorter failing durations)."""
    current = events
    changed = True
    while changed and not probe.exhausted:
        changed = False
        for onset_index, lift_index in _pairs(current):
            onset_at = current[onset_index]["at"]
            lift_at = current[lift_index]["at"]
            gap = lift_at - onset_at
            if gap <= quantum:
                continue
            for target in (onset_at + max(quantum, gap / 2.0),
                           onset_at + quantum):
                if target >= lift_at:
                    continue
                candidate = [dict(event) for event in current]
                candidate[lift_index]["at"] = target
                if probe(candidate):
                    current = candidate
                    changed = True
                    break
    return current


def shrink_schedule(events: List[Event], test: Test,
                    budget: int = 400,
                    quantum: float = 0.25) -> Dict[str, Any]:
    """Minimize a failing event list; a JSON-safe shrink report.

    Phases: ddmin over the event list, then onset→lift gap closing,
    repeated in that order until nothing improves or the test budget
    runs out.  The report
    carries the minimized events plus search statistics (probe count,
    event counts before/after, whether the budget was exhausted).
    """
    probe = _BudgetedTest(test, budget)
    before = len(events)
    current = [dict(event) for event in events]
    if not probe(current):
        return {"events": current, "reproduced": False,
                "events_before": before, "events_after": before,
                "tests_run": probe.tests_run, "budget": budget,
                "budget_exhausted": probe.exhausted}
    previous = None
    while previous != current and not probe.exhausted:
        previous = current
        current, _ = ddmin(current, probe)
        current = _reduce_gaps(current, probe, quantum)
    return {"events": current, "reproduced": True,
            "events_before": before, "events_after": len(current),
            "tests_run": probe.tests_run, "budget": budget,
            "budget_exhausted": probe.exhausted}
