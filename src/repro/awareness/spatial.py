"""The spatial model of interaction (Benford & Fahlén; paper §3.3.2).

DIVE's model for *"cooperation in large unbounded space"*: every entity
projects an **aura** (the region in which interaction is possible at all),
a **focus** (the region it attends to) and a **nimbus** (the region in
which it is observable).  A's awareness of B is a function of A's focus
and B's nimbus:

* **full** — B is inside A's focus *and* A is inside B's nimbus;
* **peripheral** — exactly one of the two holds;
* **none** — neither holds (or their auras do not collide).

The model turns awareness from broadcast-everything into a scalable,
spatially scoped computation — ablation A1 measures exactly that effect.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.errors import ReproError

FULL = "full"
PERIPHERAL = "peripheral"
NONE = "none"


class Entity:
    """A user (or artefact) embedded in a shared space."""

    __slots__ = ("name", "x", "y", "aura", "focus", "nimbus")

    def __init__(self, name: str, x: float = 0.0, y: float = 0.0,
                 aura: float = 10.0, focus: float = 5.0,
                 nimbus: float = 5.0) -> None:
        for radius, label in ((aura, "aura"), (focus, "focus"),
                              (nimbus, "nimbus")):
            if not radius >= 0:  # also rejects NaN
                raise ReproError(label + " radius must be non-negative")
        self.name = name
        self.x = x
        self.y = y
        self.aura = aura
        self.focus = focus
        self.nimbus = nimbus

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x, self.y)

    def distance_to(self, other: "Entity") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def __repr__(self) -> str:
        return "<Entity {} at ({:.1f}, {:.1f})>".format(
            self.name, self.x, self.y)


class SharedSpace:
    """A population of entities with spatial awareness computation."""

    def __init__(self, name: str = "space") -> None:
        self.name = name
        self._entities: Dict[str, Entity] = {}

    def add(self, entity: Entity) -> Entity:
        """Place an entity in the space."""
        if entity.name in self._entities:
            raise ReproError(
                "entity {} already in space".format(entity.name))
        self._entities[entity.name] = entity
        return entity

    def remove(self, name: str) -> None:
        """Remove an entity."""
        if name not in self._entities:
            raise ReproError("no entity named {}".format(name))
        del self._entities[name]

    def entity(self, name: str) -> Entity:
        try:
            return self._entities[name]
        except KeyError:
            raise ReproError("no entity named {}".format(name))

    def entities(self) -> List[Entity]:
        return list(self._entities.values())

    def __len__(self) -> int:
        return len(self._entities)

    def __contains__(self, name: str) -> bool:
        return name in self._entities

    # -- the spatial model -----------------------------------------------------

    def auras_collide(self, a: Entity, b: Entity) -> bool:
        """Interaction is possible only when auras overlap."""
        return a.distance_to(b) <= a.aura + b.aura

    def awareness_level(self, observer: Entity,
                        observed: Entity) -> str:
        """Observer's awareness of observed: full/peripheral/none."""
        if observer is observed:
            return NONE
        if not self.auras_collide(observer, observed):
            return NONE
        distance = observer.distance_to(observed)
        in_focus = distance <= observer.focus
        in_nimbus = distance <= observed.nimbus
        if in_focus and in_nimbus:
            return FULL
        if in_focus or in_nimbus:
            return PERIPHERAL
        return NONE

    def observers_of(self, observed_name: str,
                     minimum: str = PERIPHERAL) -> List[str]:
        """Who would perceive an action by ``observed_name``.

        ``minimum`` is the weakest level included ("full" restricts to
        fully aware observers).
        """
        observed = self.entity(observed_name)
        admit = (FULL,) if minimum == FULL else (FULL, PERIPHERAL)
        return [entity.name for entity in self._entities.values()
                if entity is not observed
                and self.awareness_level(entity, observed) in admit]

