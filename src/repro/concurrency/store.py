"""A shared information store: the data that groups cooperate over.

The store is deliberately simple — named items with versioned values —
because the paper's §4.2.1 argument is about the *access disciplines*
layered on top (transactions, lock styles, transaction groups, operation
transformation), not about the storage itself.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.hb import NOOP_SANITIZER
from repro.errors import ConcurrencyError


class DataItem:
    """A single shared item: a value with a version counter."""

    __slots__ = ("key", "value", "version", "last_writer", "last_write_at")

    def __init__(self, key: str, value: Any = None) -> None:
        self.key = key
        self.value = value
        self.version = 0
        self.last_writer: Optional[str] = None
        self.last_write_at = 0.0

    def __repr__(self) -> str:
        return "<DataItem {} v{}>".format(self.key, self.version)


class SharedStore:
    """A collection of shared items with change subscription.

    Subscribers receive ``(key, value, version, writer)`` on every write —
    this is the raw feed the awareness mechanisms (Figure 2b) build on.

    A store holds no clock of its own.  Given the ``env`` its readers
    and writers run in, it reports every read and write to that
    environment's sanitizer; without one it reports to none.
    """

    def __init__(self, name: str = "store",
                 keep_history: bool = False, env=None) -> None:
        self.name = name
        self._sanitizer = NOOP_SANITIZER if env is None else env.sanitizer
        self._items: Dict[str, DataItem] = {}
        self._subscribers: List[Callable[[str, Any, int, str], None]] = []
        self.reads = 0
        self.writes = 0
        #: With keep_history, every write is recorded — the *public
        #: history* that §2.3 identifies as the basis of accountability
        #: in collective work.
        self.keep_history = keep_history
        self._history: List[Tuple[float, str, Any, int, str]] = []

    def create(self, key: str, value: Any = None) -> DataItem:
        """Create an item (error if it exists)."""
        if key in self._items:
            raise ConcurrencyError("item {} already exists".format(key))
        item = DataItem(key, value)
        self._items[key] = item
        return item

    def ensure(self, key: str, value: Any = None) -> DataItem:
        """Fetch the item, creating it if missing."""
        if key not in self._items:
            self._items[key] = DataItem(key, value)
        return self._items[key]

    def item(self, key: str) -> DataItem:
        """Fetch an existing item."""
        try:
            return self._items[key]
        except KeyError:
            raise ConcurrencyError("no item named {}".format(key))

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def keys(self) -> List[str]:
        return list(self._items)

    def read(self, key: str, reader: str = "", at: float = 0.0) -> Any:
        """Read an item's current value."""
        item = self.item(key)
        self.reads += 1
        sanitizer = self._sanitizer
        if sanitizer.enabled:
            sanitizer.on_read("{}/{}".format(self.name, key), reader, at)
        return item.value

    def read_versioned(self, key: str, reader: str = "",
                       at: float = 0.0) -> Tuple[Any, int]:
        """Read an item's value and version, reported as :meth:`read`."""
        item = self.item(key)
        self.reads += 1
        sanitizer = self._sanitizer
        if sanitizer.enabled:
            sanitizer.on_read("{}/{}".format(self.name, key), reader, at)
        return item.value, item.version

    def write(self, key: str, value: Any, writer: str = "",
              at: float = 0.0) -> int:
        """Write an item; returns the new version and notifies subscribers."""
        sanitizer = self._sanitizer
        if sanitizer.enabled:
            sanitizer.on_write("{}/{}".format(self.name, key), writer, at)
        item = self.ensure(key)
        item.value = value
        item.version += 1
        item.last_writer = writer
        item.last_write_at = at
        self.writes += 1
        if self.keep_history:
            self._history.append((at, key, value, item.version, writer))
        for subscriber in list(self._subscribers):
            subscriber(key, value, item.version, writer)
        return item.version

    def subscribe(self,
                  callback: Callable[[str, Any, int, str], None]) -> None:
        """Receive every write as it happens."""
        self._subscribers.append(callback)

    def snapshot(self) -> Dict[str, Tuple[Any, int]]:
        """All items as {key: (value, version)}."""
        return {key: (item.value, item.version)
                for key, item in self._items.items()}

    def history(self, key: Optional[str] = None,
                writer: Optional[str] = None
                ) -> List[Tuple[float, str, Any, int, str]]:
        """The public write history (requires ``keep_history``).

        Each entry is ``(at, key, value, version, writer)``; filterable
        by key and/or writer — "who did what, when" at a glance.
        """
        if not self.keep_history:
            raise ConcurrencyError(
                "store {} was created without keep_history".format(
                    self.name))
        return [entry for entry in self._history
                if (key is None or entry[1] == key)
                and (writer is None or entry[4] == writer)]
