"""A2 (ablation) — the cost of prescriptive coordination models (§4.1).

The paper quotes the Co-ordinator experience: *"Co-ordinator makes
explicit and textual a dimension of human communication which is
otherwise contained in the overall context of interaction"* — an overly
prescriptive model rejects the work people actually do.

We generate interaction traces with a controlled *informality rate*
(acknowledgements, thanks, a colleague covering a step, work done
slightly out of script — all observed in real offices, §2.2) and replay
each trace through four coordination models:

* speech-act conversation (Coordinator) — strict state machine;
* office procedure, strict (Domino-style);
* office procedure, tolerant — deviations logged, work proceeds;
* informal routing (Object Lens) — nothing rejected.

Declared claim, per seed, with informality swept 0 -> 50 %: with
canonical behaviour every model completes every case; at 50 % the
speech-act model rejects acts and the strict procedure stalls and
rejects, while the tolerant procedure and informal routing complete
every case (the tolerant one recording deviations, informal routing
rejecting nothing); strict rejections never fall as informality rises.
"""

from benchmarks._util import check, print_sweep, sweep
from repro.sim import RandomStreams
from repro.workflow import (
    FlexibleRouter,
    Procedure,
    STRICT,
    Step,
    TOLERANT,
    WorkObject,
    run_trace,
)

CASES = 60
INFORMALITY = (0.0, 0.25, 0.5)

CANONICAL_CFA = [("customer", "request"), ("performer", "promise"),
                 ("performer", "report_completion"),
                 ("customer", "declare_complete")]
SOCIAL_ACTS = [("performer", "acknowledge"), ("customer", "thank"),
               ("performer", "clarify"), ("customer", "nudge")]

CANONICAL_PROCEDURE = [("employee", "file_claim"),
                       ("supervisor", "approve"),
                       ("finance", "transfer")]
PROCEDURE_DEVIATIONS = [("colleague", "approve"),
                        ("employee", "resubmit_claim"),
                        ("supervisor", "transfer")]


def make_cfa_trace(rng, informality):
    trace = []
    for act in CANONICAL_CFA:
        if rng.random() < informality:
            trace.append(SOCIAL_ACTS[rng.randrange(len(SOCIAL_ACTS))])
        trace.append(act)
    return trace


def make_procedure_trace(rng, informality):
    trace = []
    for step in CANONICAL_PROCEDURE:
        if rng.random() < informality:
            trace.append(PROCEDURE_DEVIATIONS[
                rng.randrange(len(PROCEDURE_DEVIATIONS))])
        else:
            trace.append(step)
    return trace


def expense_procedure():
    return Procedure("expenses", [
        Step("submit", "employee", "file_claim"),
        Step("check", "supervisor", "approve"),
        Step("pay", "finance", "transfer"),
    ])


MODELS = ("speech-act", "procedure-strict", "procedure-tolerant",
          "informal-routing")


def run(seed, informality):
    rng = RandomStreams(seed).stream("a2-{:.2f}".format(informality))
    row = {"{} {}".format(model, count): 0 for model in MODELS
           for count in ("completed", "rejections")}

    def tally(model, done, rejections):
        row[model + " completed"] += int(done)
        row[model + " rejections"] += rejections

    for case in range(CASES):
        conversation, rejections = run_trace(
            "customer", "performer", _bind(make_cfa_trace(rng, informality)))
        tally("speech-act", conversation.state == "completed", rejections)
        proc_trace = make_procedure_trace(rng, informality)
        tally("procedure-strict", *expense_procedure().instantiate(
            STRICT).run_trace(proc_trace))
        tally("procedure-tolerant", *expense_procedure().instantiate(
            TOLERANT).run_trace(proc_trace))
        router = FlexibleRouter()
        obj = WorkObject("claim")
        router.submit(obj)
        tally("informal-routing", *router.run_trace(
            obj, proc_trace + [("finance", "done")]))
    return row


def _bind(trace):
    """Map role names to the two conversation parties."""
    return [("customer" if role == "customer" else "performer", act)
            for role, act in trace]


def claim_holds(rows):
    clean, messy = rows[0], rows[-1]
    strict = [row["procedure-strict rejections"] for row in rows]
    return (all(clean[model + " completed"] == CASES for model in MODELS)
            and messy["speech-act rejections"] > 0
            and messy["procedure-strict completed"] < CASES
            and messy["procedure-strict rejections"] > 0
            and messy["procedure-tolerant completed"] == CASES
            and messy["procedure-tolerant rejections"] > 0
            and messy["informal-routing completed"] == CASES
            and messy["informal-routing rejections"] == 0
            and strict == sorted(strict))


def test_a2_prescriptiveness():
    sweeps = sweep(run, INFORMALITY)
    print_sweep(
        "A2  coordination models vs real (informal) work patterns "
        "({} cases each)".format(CASES),
        "informality", ["{:.0%}".format(i) for i in INFORMALITY], sweeps,
        {"speech-act rejections": "speech-act rejections",
         "strict completed": "procedure-strict completed",
         "strict rejections": "procedure-strict rejections",
         "tolerant completed": "procedure-tolerant completed",
         "tolerant deviations": "procedure-tolerant rejections",
         "informal completed": "informal-routing completed"})
    check(sweeps, claim_holds, "(strict models reject and stall as "
          "informality rises; tolerant and informal complete everything)")
