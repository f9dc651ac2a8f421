"""Disconnected operation through caching and replay (Coda-style).

The paper (§4.2.2 "The impact of mobility"): *"new techniques will be
required, for example, to cache significant portions of the data on the
mobile computer"* and *"services will take advantage of higher levels of
connection to perform bulk updates, e.g. of cached data."*

:class:`MobileCache` hoards items from a server-side shared store.  While
connected, reads validate against the server and writes write through.
While disconnected, reads are served from the hoard and writes append to a
replay log (optimistic, as in Kistler & Satyanarayanan's Coda).  On
reconnection :meth:`reintegrate` replays the log as one bulk update,
detecting write/write conflicts by version and resolving them by policy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.concurrency.store import SharedStore
from repro.errors import DisconnectedError, MobilityError
from repro.mobility.host import MobileHost
from repro.obs.metrics import Counter
from repro.sim import Environment

SERVER_WINS = "server-wins"
CLIENT_WINS = "client-wins"

#: A replay-log entry: (key, value, cached_version_at_write, written_at).
LogEntry = Tuple[str, Any, int, float]


class MobileCache:
    """A mobile host's hoard of server data, with optimistic replay."""

    def __init__(self, env: Environment, mobile: MobileHost,
                 server_store: SharedStore,
                 conflict_policy: str = SERVER_WINS,
                 transfer_rate: float = 1e6, item_size: int = 4096
                 ) -> None:
        if conflict_policy not in (SERVER_WINS, CLIENT_WINS):
            raise MobilityError(
                "unknown conflict policy: " + conflict_policy)
        if transfer_rate <= 0 or item_size <= 0:
            raise MobilityError(
                "transfer_rate and item_size must be positive")
        self.env = env
        self.mobile = mobile
        self.server = server_store
        self.conflict_policy = conflict_policy
        self.transfer_rate = transfer_rate
        self.item_size = item_size
        #: key -> (value, server version when cached).
        self._cache: Dict[str, Tuple[Any, int]] = {}
        self._replay_log: List[LogEntry] = []
        self.conflicts: List[Tuple[str, Any, Any]] = []
        self.counters = Counter()
        #: Called with (key, server_value, client_value) on each conflict.
        self.on_conflict: Optional[Callable[[str, Any, Any], None]] = None

    # -- hoarding ----------------------------------------------------------------

    def hoard(self, keys: List[str]):
        """Prefetch ``keys`` while connected (generator: takes link time)."""
        if not self.mobile.connected:
            raise DisconnectedError("cannot hoard while disconnected")
        for key in keys:
            yield self.env.timeout(self._transfer_time(1))
            if key in self.server:
                item = self.server.item(key)
                self._cache[key] = (item.value, item.version)
                self.counters.incr("hoarded")

    def cached_keys(self) -> List[str]:
        return sorted(self._cache)

    # -- reads / writes ------------------------------------------------------------

    def read(self, key: str):
        """Read, from the server when connected, the hoard otherwise.

        Generator: connected reads pay one link round trip.
        """
        if self.mobile.connected:
            yield self.env.timeout(self._transfer_time(1))
            if key not in self.server:
                raise MobilityError("no item named {}".format(key))
            item = self.server.item(key)
            self._cache[key] = (item.value, item.version)
            self.counters.incr("reads:server")
            return item.value
        if key in self._cache:
            self.counters.incr("reads:cache")
            return self._cache[key][0]
        self.counters.incr("reads:miss")
        raise DisconnectedError(
            "{} is not hoarded and the host is disconnected".format(key))

    def write(self, key: str, value: Any):
        """Write through when connected; log for replay otherwise."""
        if self.mobile.connected:
            yield self.env.timeout(self._transfer_time(1))
            version = self.server.write(key, value,
                                        writer=self.mobile.name,
                                        at=self.env.now)
            self._cache[key] = (value, version)
            self.counters.incr("writes:through")
            return version
        cached_version = self._cache.get(key, (None, 0))[1]
        self._cache[key] = (value, cached_version)
        self._replay_log.append((key, value, cached_version,
                                 self.env.now))
        self.counters.incr("writes:logged")
        return None

    @property
    def pending_updates(self) -> int:
        """Replay-log length (the bulk update awaiting reconnection)."""
        return len(self._replay_log)

    # -- reintegration ---------------------------------------------------------------

    def reintegrate(self):
        """Replay logged writes as one bulk update (generator).

        Returns ``(applied, conflicted)`` counts.  A log entry conflicts
        when the server version moved past the version the mobile had
        cached when it wrote; resolution follows the conflict policy.
        """
        if not self.mobile.connected:
            raise DisconnectedError("cannot reintegrate while disconnected")
        log, self._replay_log = self._replay_log, []
        if not log:
            return (0, 0)
        # One bulk transfer for the whole log.
        yield self.env.timeout(self._transfer_time(len(log)))
        applied = 0
        conflicted = 0
        for key, value, cached_version, _written_at in log:
            current = self.server.item(key).version \
                if key in self.server else 0
            if current != cached_version:
                conflicted += 1
                self.counters.incr("conflicts")
                server_value = self.server.read(key) \
                    if key in self.server else None
                self.conflicts.append((key, server_value, value))
                if self.on_conflict is not None:
                    self.on_conflict(key, server_value, value)
                if self.conflict_policy == SERVER_WINS:
                    self._cache[key] = (server_value, current)
                    continue
            version = self.server.write(key, value,
                                        writer=self.mobile.name,
                                        at=self.env.now)
            self._cache[key] = (value, version)
            applied += 1
            self.counters.incr("reintegrated")
        return (applied, conflicted)

    # -- internals -------------------------------------------------------------------

    def _transfer_time(self, items: int) -> float:
        bandwidth = max(self.mobile.link.bandwidth, 1.0)
        rate = min(self.transfer_rate, bandwidth)
        return (items * self.item_size * 8.0) / rate
