"""E3 — tickle, soft and notification locks vs hard locks (§4.2.1).

*"a number of researchers have proposed alternative styles of locking to
increase the flexibility of transaction mechanisms, e.g. tickle locks,
soft locks and notification locks."*

One contended workload — writers repeatedly edit a shared section,
sometimes going idle while holding the lock (the situation tickle locks
exist for), while readers follow along — is run under each style.  It
is the catalogue's ``locks-<style>`` workload
(:func:`repro.workload.locks.lock_style_workload`), read here, not
copied.  Reported: mean wait to start editing, lock takeovers (tickle),
advisory conflicts (soft), change notifications delivered
(notification), work completed and the session's length.

Declared claim, per seed: tickle locks take idle holds over; soft locks
never wait but surface conflicts for the social protocol; notification
locks notify the readers they admit; every style completes the same
work.  Reported as a finding, because it holds on too few seeds to be
declared: tickle locks wait less and finish sooner than hard locks.
"""

from benchmarks._util import check, finding, print_sweep, sweep
from repro.concurrency import HARD, NOTIFICATION, SOFT, STYLES, TICKLE
from repro.workload.locks import lock_style_workload


def run(seed, style):
    result = lock_style_workload(style, seed)
    counters = result["lock_counters"]
    return {"wait": result["wait"]["mean"], "max wait": result["wait"]["max"],
            "takeovers": counters.get("takeovers", 0),
            "conflicts": counters.get("conflicts", 0),
            "notifications": counters.get("notifications", 0),
            "completed": result["completed"],
            "makespan": result["env"]["now"]}


def claim_holds(rows):
    by_style = dict(zip(STYLES, rows))
    return (by_style[TICKLE]["takeovers"] > 0
            and by_style[SOFT]["max wait"] == 0.0
            and by_style[SOFT]["conflicts"] > 0
            and by_style[NOTIFICATION]["notifications"] > 0
            and len({row["completed"] for row in rows}) == 1)


def tickle_reclaims_idle_time(rows):
    by_style = dict(zip(STYLES, rows))
    tickle, hard = by_style[TICKLE], by_style[HARD]
    return (tickle["wait"] < hard["wait"]
            and tickle["makespan"] < hard["makespan"])


def test_e3_lock_styles():
    sweeps = sweep(run, STYLES)
    print_sweep("E3  lock styles under contention with idle holders",
                "style", STYLES, sweeps,
                {"mean wait (s)": "wait", "takeovers": "takeovers",
                 "conflicts": "conflicts", "notifies": "notifications",
                 "completed": "completed", "makespan (s)": "makespan"})
    check(sweeps, claim_holds, "(tickle takes over; soft never waits but "
          "conflicts; notification notifies; equal work)")
    finding(sweeps, tickle_reclaims_idle_time,
            "(tickle waits less and finishes sooner than hard)")
