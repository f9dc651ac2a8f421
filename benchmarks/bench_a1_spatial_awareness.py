"""A1 (ablation) — the spatial model scales awareness (§3.3.2, §4.2.1).

In a large shared space (DIVE's "large unbounded space"), broadcasting
every action to every inhabitant drowns users and the network.  The
aura/focus/nimbus model scopes each action to the entities that would
plausibly perceive it.

Sweep the population at constant density (the space grows with the
crowd).  For each action, count recipients under:

* broadcast-all — every other entity;
* spatial (peripheral+) — entities with any awareness of the actor;
* spatial (full only) — mutually attending entities.

Declared claim, per seed: full <= spatial <= broadcast at every
population; the reduction (broadcast over spatial recipients) grows
strictly with the population; and at the largest crowd an action still
reaches fewer entities spatially than broadcast reaches at the smallest
(local density, not the crowd, decides) — the scalability argument for
awareness scoping.
"""

import math

from benchmarks._util import check, print_sweep, sweep
from repro.awareness import Entity, FULL, SharedSpace
from repro.sim import RandomStreams

POPULATIONS = (10, 40, 160)
DENSITY = 0.01            # entities per square unit
ACTIONS_PER_ENTITY = 3


def run(seed, population):
    rng = RandomStreams(seed).stream("a1-{}".format(population))
    side = math.sqrt(population / DENSITY)
    space = SharedSpace("floor")
    for i in range(population):
        space.add(Entity("user-{}".format(i),
                         x=rng.uniform(0, side),
                         y=rng.uniform(0, side),
                         aura=30.0, focus=15.0, nimbus=15.0))
    broadcast_total = 0
    spatial_total = 0
    full_total = 0
    actions = 0
    for entity in space.entities():
        for _ in range(ACTIONS_PER_ENTITY):
            actions += 1
            broadcast_total += population - 1
            spatial_total += len(space.observers_of(entity.name))
            full_total += len(space.observers_of(entity.name,
                                                 minimum=FULL))
    return {
        "broadcast": broadcast_total / actions,
        "spatial": spatial_total / actions,
        "full": full_total / actions,
        "reduction": broadcast_total / max(spatial_total, 1),
    }


def claim_holds(rows):
    reduction = [row["reduction"] for row in rows]
    return (all(row["full"] <= row["spatial"] <= row["broadcast"]
                for row in rows)
            and all(a < b for a, b in zip(reduction, reduction[1:]))
            and rows[-1]["spatial"] < rows[0]["broadcast"])


def test_a1_spatial_awareness():
    sweeps = sweep(run, POPULATIONS)
    print_sweep(
        "A1  recipients per action at constant crowd density",
        "population", POPULATIONS, sweeps,
        {"broadcast-all": "broadcast", "spatial (peripheral+)": "spatial",
         "spatial (full)": "full", "reduction factor": "reduction"})
    check(sweeps, claim_holds, "(full <= spatial <= broadcast; the "
          "reduction grows with the crowd; spatial at the largest < "
          "broadcast at the smallest)")
