"""Group invocation: one call fanned out to every member.

The paper (§4.2.2-iv) singles out *group invocation* — "for example if a
group of cameras are to be started simultaneously in a conference" — and
demands *bounded real-time performance*.  :class:`GroupInvoker` invokes a
method on every member and collects replies under a deadline with a
selectable quorum policy; the result records whether the real-time bound
was met and the per-member latencies.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import GroupError
from repro.net.network import Network
from repro.net.transport import RpcEndpoint
from repro.sim import Event, Store

GROUP_RPC_PORT = 22

QUORUM_ALL = "all"
QUORUM_ANY = "any"
QUORUM_MAJORITY = "majority"


class GroupCallResult:
    """The outcome of one group invocation."""

    def __init__(self, results: Dict[str, Any], errors: Dict[str, str],
                 latencies: Dict[str, float], deadline: float,
                 quorum: str, quorum_met: bool) -> None:
        self.results = results
        self.errors = errors
        self.latencies = latencies
        self.deadline = deadline
        self.quorum = quorum
        self.quorum_met = quorum_met

    @property
    def replied(self) -> int:
        return len(self.results)

    def __repr__(self) -> str:
        return "<GroupCallResult replied={} quorum_met={}>".format(
            self.replied, self.quorum_met)


class GroupInvoker:
    """Client-side fan-out invocation over a member list."""

    def __init__(self, network: Network, caller_node: str,
                 port: int = GROUP_RPC_PORT) -> None:
        self.network = network
        self.env = network.env
        self.caller_node = caller_node
        self.port = port
        self.rpc = RpcEndpoint(network.host(caller_node), port=port)

    def serve(self, node: str) -> RpcEndpoint:
        """Create a server endpoint on ``node`` for group-invoked methods."""
        return RpcEndpoint(self.network.host(node), port=self.port)

    def call(self, members: List[str], method: str, args: Any = None,
             deadline: float = 1.0,
             quorum: str = QUORUM_ALL) -> Event:
        """Invoke ``method`` on every member; fires with GroupCallResult."""
        if quorum not in (QUORUM_ALL, QUORUM_ANY, QUORUM_MAJORITY):
            raise GroupError("unknown quorum policy: " + quorum)
        if not members:
            raise GroupError("group invocation needs at least one member")
        done = self.env.event()
        self.env.process(
            self._call_proc(list(members), method, args, deadline,
                            quorum, done))
        return done

    def _required(self, quorum: str, population: int) -> int:
        if quorum == QUORUM_ALL:
            return population
        if quorum == QUORUM_ANY:
            return 1
        return population // 2 + 1

    def _call_proc(self, members: List[str], method: str, args: Any,
                   deadline: float, quorum: str, done: Event):
        start = self.env.now
        results: Dict[str, Any] = {}
        errors: Dict[str, str] = {}
        latencies: Dict[str, float] = {}
        inbox = Store(self.env)
        for member in members:
            self.env.process(
                self._one_call(member, method, args, deadline, inbox))
        required = self._required(quorum, len(members))
        timer = self.env.timeout(deadline)
        outstanding = set(members)
        while outstanding:
            take = inbox.get()
            fired = yield self.env.any_of([take, timer])
            if take not in fired:
                # Deadline expired first: survivors are late, reported
                # in call order (iterating the set would be hash order).
                take.cancel()
                for member in members:
                    if member in outstanding:
                        errors.setdefault(member, "deadline")
                break
            member, ok, value = take.value
            outstanding.discard(member)
            latencies[member] = self.env.now - start
            if ok:
                results[member] = value
            else:
                errors[member] = value
            if len(results) >= required and quorum != QUORUM_ALL:
                break
        quorum_met = len(results) >= required \
            and all(latency <= deadline for latency in latencies.values())
        done.succeed(GroupCallResult(results, errors, latencies,
                                     deadline, quorum, quorum_met))

    def _one_call(self, member: str, method: str, args: Any,
                  deadline: float, inbox):
        try:
            value = yield self.rpc.call(member, method, args,
                                        timeout=deadline * 10)
            inbox.put((member, True, value))
        except Exception as error:  # noqa: BLE001 - collected per member
            inbox.put((member, False, str(error)))
