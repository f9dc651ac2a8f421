"""Informal object routing: the Object Lens approach (§3.2.1).

*"...others adopt a considerably less formal approach (Object Lens)"* —
semi-structured objects move between user folders under user-authored
rules; nothing is forbidden, everything is logged.  The same deviating
traces that strict models reject simply flow through here, which is the
point of ablation A2.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


class WorkObject:
    """A semi-structured object: typed fields plus an action history."""

    def __init__(self, kind: str, fields: Optional[Dict[str, Any]] = None
                 ) -> None:
        self.kind = kind
        self.fields: Dict[str, Any] = dict(fields or {})
        self.history: List[Tuple[str, str]] = []
        self.folder: Optional[str] = None

    def __repr__(self) -> str:
        return "<WorkObject kind={} folder={}>".format(self.kind,
                                                       self.folder)


Rule = Callable[[WorkObject], Optional[str]]


class FlexibleRouter:
    """User-tailorable routing of work objects between folders.

    Rules are ordered callables mapping an object to a destination folder
    (or None to pass).  Any actor may perform any action on any object at
    any time; actions append to history and re-run the rules.
    """

    def __init__(self) -> None:
        self.folders: Dict[str, List[WorkObject]] = {}
        self._rules: List[Tuple[str, Rule]] = []
        self.actions_performed = 0

    def add_folder(self, name: str) -> None:
        self.folders.setdefault(name, [])

    def add_rule(self, name: str, rule: Rule) -> None:
        """Append a routing rule (evaluated in insertion order)."""
        self._rules.append((name, rule))

    def submit(self, obj: WorkObject, folder: str = "inbox") -> None:
        """Introduce an object, then let the rules place it."""
        self.add_folder(folder)
        self._move(obj, folder)
        self._route(obj)

    def perform(self, actor: str, obj: WorkObject, action: str,
                **field_updates: Any) -> None:
        """Any action by any actor is accepted and recorded."""
        obj.history.append((actor, action))
        obj.fields.update(field_updates)
        self.actions_performed += 1
        self._route(obj)

    def run_trace(self, obj: WorkObject,
                  trace: List[Tuple[str, str]],
                  completion_action: str = "done") -> Tuple[bool, int]:
        """Replay a trace; returns (completed, rejections=0 always).

        Completion means the trace contains the completion action — the
        informal model never rejects, so rejections are structurally 0.
        """
        completed = False
        for actor, action in trace:
            self.perform(actor, obj, action)
            if action == completion_action:
                completed = True
        return (completed, 0)

    # -- internals ------------------------------------------------------------

    def _route(self, obj: WorkObject) -> None:
        for _name, rule in self._rules:
            destination = rule(obj)
            if destination is not None and destination != obj.folder:
                self.add_folder(destination)
                self._move(obj, destination)
                return

    def _move(self, obj: WorkObject, folder: str) -> None:
        if obj.folder is not None and obj in self.folders.get(
                obj.folder, []):
            self.folders[obj.folder].remove(obj)
        self.folders[folder].append(obj)
        obj.folder = folder
