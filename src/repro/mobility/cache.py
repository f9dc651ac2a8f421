"""Disconnected operation through caching and replay (Coda-style).

The paper (§4.2.2 "The impact of mobility"): *"new techniques will be
required, for example, to cache significant portions of the data on the
mobile computer"* and *"services will take advantage of higher levels of
connection to perform bulk updates, e.g. of cached data."*

A :class:`StoreServer` serves a shared store over RPC, and a
:class:`MobileCache` hoards from it over the mobile's radio link, so a
cut link or a lossy spell acts on each transfer as on any packet.
Online, reads fetch and writes write through.  A failed call falls back
to the hoard or the replay log, as does every operation while
disconnected or while logged writes wait (optimistic, as in Kistler &
Satyanarayanan's Coda).  :meth:`MobileCache.reintegrate` replays the log
one call per entry, and the server answers a repeated op with its first
answer, so no write is lost or applied twice; on a version conflict the
server's value wins.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.concurrency.store import SharedStore
from repro.errors import DisconnectedError, MobilityError
from repro.faults.policies import FaultPolicies, fixed_retry
from repro.mobility.host import MobileHost
from repro.net.network import Network
from repro.net.transport import RpcEndpoint, RpcError
from repro.obs.metrics import Counter

#: A mobile's calls: up to three retries, one second after an attempt's
#: ``RPC_TIMEOUT`` runs out.
CACHE_POLICIES = FaultPolicies(retry=fixed_retry(1.0, 3))

#: A replay-log entry, sent as the ``write`` call's arguments:
#: (op number, key, value, server version the value was written on).
LogEntry = Tuple[int, str, Any, Optional[int]]


class StoreServer:
    """A shared store served to mobile hosts: ``fetch`` and ``write``."""

    def __init__(self, network: Network, host: str,
                 store: SharedStore) -> None:
        self.env = network.env
        self.host = host
        self.store = store
        #: (caller, op) -> the write's first answer.
        self._answers: Dict[Tuple[str, int], tuple] = {}
        self.rpc = RpcEndpoint(network.host(host))
        self.rpc.register("fetch", self._fetch)
        self.rpc.register("write", self._write)

    def _fetch(self, caller: str, key: str) -> Tuple[Any, int]:
        """``(value, version)``; version 0 when there is no such item."""
        if key not in self.store:
            return (None, 0)
        return self.store.read_versioned(key, caller, self.env.now)

    def _write(self, caller: str, entry: LogEntry) -> tuple:
        """``("applied", version)``, or ``("conflict", value, version)``
        when ``base`` is not ``None`` (blind) and not the item's version.
        A repeated op gets its first answer and changes nothing."""
        op, key, value, base = entry
        answer = self._answers.get((caller, op))
        if answer is None:
            current = self._fetch(caller, key) if base is not None else None
            if current is None or current[1] == base:
                answer = ("applied", self.store.write(
                    key, value, writer=caller, at=self.env.now))
            else:
                answer = ("conflict",) + current
            self._answers[caller, op] = answer
        return answer


class MobileCache:
    """A mobile host's hoard of server data, with optimistic replay."""

    def __init__(self, mobile: MobileHost, server: StoreServer) -> None:
        self.mobile = mobile
        self.server = server
        self.rpc = RpcEndpoint(mobile.host, policies=CACHE_POLICIES)
        #: key -> (value, server version it was written on or read at).
        self._cache: Dict[str, Tuple[Any, int]] = {}
        self._replay_log: List[LogEntry] = []
        self._ops = itertools.count(1)
        self.conflicts: List[Tuple[str, Any, Any]] = []
        self.counters = Counter()

    def _call(self, method: str, args: Any):
        return self.rpc.call(self.server.host, method, args)

    def _online(self) -> bool:
        """Connected, and no logged write for a new one to overtake."""
        return self.mobile.connected and not self._replay_log

    # -- hoarding ----------------------------------------------------------------

    def hoard(self, keys: List[str]):
        """Prefetch ``keys`` while online (generator: a call each, up to
        the first that fails)."""
        if not self._online():
            raise DisconnectedError(
                "cannot hoard while disconnected or with writes to replay")
        for key in keys:
            try:
                value, version = yield self._call("fetch", key)
            except RpcError:
                return
            if version:
                self._cache[key] = (value, version)
                self.counters.incr("hoarded")

    def cached_keys(self) -> List[str]:
        return sorted(self._cache)

    # -- reads / writes ------------------------------------------------------------

    def read(self, key: str):
        """Read from the server when online (generator: one call), from
        the hoard otherwise or when the call fails."""
        if self._online():
            try:
                value, version = yield self._call("fetch", key)
            except RpcError:
                pass
            else:
                if not version:
                    raise MobilityError("no item named {}".format(key))
                self._cache[key] = (value, version)
                self.counters.incr("reads:server")
                return value
        if key in self._cache:
            self.counters.incr("reads:cache")
            return self._cache[key][0]
        self.counters.incr("reads:miss")
        raise DisconnectedError(
            "{} is not hoarded and the server is out of reach".format(key))

    def write(self, key: str, value: Any):
        """Write through when online (generator: returns the version);
        log for replay otherwise or when the call fails (``None``)."""
        op = next(self._ops)
        if self._online():
            try:
                answer = yield self._call("write", (op, key, value, None))
            except RpcError:
                pass
            else:
                self._cache[key] = (value, answer[1])
                self.counters.incr("writes:through")
                return answer[1]
        base = self._cache.get(key, (None, 0))[1]
        self._cache[key] = (value, base)
        self._replay_log.append((op, key, value, base))
        self.counters.incr("writes:logged")
        return None

    @property
    def pending_updates(self) -> int:
        """Replay-log length (the bulk update awaiting reconnection)."""
        return len(self._replay_log)

    # -- reintegration ---------------------------------------------------------------

    def reintegrate(self):
        """Replay logged writes in order, one call each (generator).

        Returns ``(applied, conflicted)``.  An entry leaves the log when
        its answer arrives; at the first failed call the replay stops,
        and the rest wait for the next reconnect.  On a conflict the
        server's value wins and the mobile's is kept in ``conflicts``.
        """
        if not self.mobile.connected:
            raise DisconnectedError("cannot reintegrate while disconnected")
        applied = conflicted = 0
        log = self._replay_log
        while log:
            entry = log[0]
            try:
                answer = yield self._call("write", entry)
            except RpcError:
                break
            del log[0]
            key, value = entry[1], entry[2]
            if answer[0] == "applied":
                # The log's later writes to key follow this one.
                log[:] = [(o, k, v, answer[1] if k == key else b)
                          for o, k, v, b in log]
                self._cache[key] = (self._cache[key][0], answer[1])
                applied += 1
                self.counters.incr("reintegrated")
            else:
                self._cache[key] = answer[1:]
                self.conflicts.append((key, answer[1], value))
                conflicted += 1
                self.counters.incr("conflicts")
        return (applied, conflicted)
