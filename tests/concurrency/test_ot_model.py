"""The grid-walking OT cores against the batch-at-a-time loop they
replaced.

``tests/concurrency/ot_model.py`` keeps the old ``xform_sequences``
loop (and the ``isinstance`` ``xform``/``apply_op`` it called).  Both
worlds are driven with the same random interleaving of local edits —
multi-op inserts and deletes as the site builds them, and mixed
batches — server receives in any order across sites, in-order delivery
of acks and remotes, and late joiners at the server's current
revision.  Every returned value (sends, sequenced ops, applied ops),
text, history and revision must be equal in the two worlds, and the
new cores must transform each pair in one ``xform`` call and compute no
half the sequencer throws away.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import ot
from repro.concurrency.ot import Delete, Insert, OTClientCore, OTServerCore

from tests.concurrency import ot_model as model
from tests.lockstep import lockstep

_PICK = st.integers(0, 1000)
_STEPS = st.one_of(
    st.tuples(st.just("edit"), _PICK, st.sampled_from(["insert", "delete"]),
              _PICK, st.integers(1, 3)),
    st.tuples(st.just("mixed"), _PICK,
              st.lists(st.tuples(st.booleans(), _PICK), min_size=1,
                       max_size=4)),
    st.tuples(st.just("server"), _PICK),
    st.tuples(st.just("server"), _PICK),
    st.tuples(st.just("deliver"), _PICK),
    st.tuples(st.just("deliver"), _PICK),
    st.just(("join",)))

#: "late<k>" sorts between the first two, so joiners win some ties and
#: lose others.
SITES = ("ann", "mo", "zed")


def batch(text, step):
    """The ops an edit step makes against ``text``, as the site would."""
    if step[0] == "mixed":
        ops, length = [], len(text)
        for is_insert, pick in step[2]:
            if is_insert or not length:
                ops.append(Insert(pick % (length + 1), "xyzw"[pick % 4]))
                length += 1
            else:
                ops.append(Delete(pick % length))
                length -= 1
        return ops
    _, _, shape, pick, size = step
    if shape == "delete" and text:
        pos = pick % len(text)
        return [Delete(pos)] * min(size, len(text) - pos)
    pos = pick % (len(text) + 1)
    return [Insert(pos + i, ch) for i, ch in enumerate("abc"[:size])]


class _World:
    """One server core, its client cores and the messages between them:
    any sent batch may reach the server next, and each client's acks and
    remotes arrive in order (``OTClientSite`` holds back the rest)."""

    def __init__(self, server_cls, client_cls, initial):
        self.server = server_cls(initial)
        self.client_cls = client_cls
        self.clients = {}
        self.lanes = {}
        self.to_server = []
        self.joined = 0
        for name in SITES:
            self.add(name, initial, 0)

    def add(self, name, text, revision):
        self.clients[name] = self.client_cls(name, text, revision=revision)
        self.lanes[name] = deque()

    def send(self, name, send):
        if send is not None:
            base_rev, ops = send
            self.to_server.append((name, base_rev, ops, list(ops)))
        return send

    def step(self, step):
        kind = step[0]
        if kind in ("edit", "mixed"):
            name = sorted(self.clients)[step[1] % len(self.clients)]
            client = self.clients[name]
            return self.send(name, client.local_edit(batch(client.text,
                                                           step)))
        if kind == "server":
            if not self.to_server:
                return None
            name, base_rev, ops, sent = self.to_server.pop(
                step[1] % len(self.to_server))
            assert ops == sent, "an in-flight payload was written into"
            rev, transformed = self.server.receive(name, base_rev, ops)
            self.lanes[name].append(("ack", rev, None, None))
            for other, lane in self.lanes.items():
                if other != name:
                    lane.append(("remote", rev, name, transformed))
            return rev, transformed
        if kind == "deliver":
            ready = [name for name in sorted(self.lanes) if self.lanes[name]]
            if not ready:
                return None
            name = ready[step[1] % len(ready)]
            what, rev, origin, ops = self.lanes[name].popleft()
            client = self.clients[name]
            if what == "ack":
                return self.send(name, client.server_ack(rev))
            return client.server_remote(rev, origin, ops)
        if self.joined == 2:
            return None
        name = "late{}".format(self.joined)
        self.joined += 1
        self.add(name, self.server.text, self.server.revision)
        return name, self.server.revision

    def pending(self):
        """The next step of a drain, or None once nothing is in flight."""
        if self.to_server:
            return ("server", 0)
        if any(self.lanes.values()):
            return ("deliver", 0)
        return None

    def observe(self):
        return {"text": self.server.text, "history": self.server.history,
                "revision": self.server.revision,
                "clients": {name: (client.text, client.revision,
                                   client.has_unacked)
                            for name, client in self.clients.items()}}


def expected_calls(world, step):
    """``xform`` calls the step may make: both sides of every pair a
    client moves, and at the server every pair but the sequenced side of
    each batch's last op, which nobody reads."""
    kind = step[0]
    if kind == "server" and world.to_server:
        name, base_rev, ops, _ = world.to_server[
            step[1] % len(world.to_server)]
        return sum((2 * len(ops) - 1) * len(other_ops)
                   for _, other_ops in world.server.history[base_rev:])
    if kind == "deliver":
        ready = [name for name in sorted(world.lanes) if world.lanes[name]]
        if ready:
            name = ready[step[1] % len(ready)]
            what, _, _, ops = world.lanes[name][0]
            client = world.clients[name]
            if what == "remote":
                unacked = sum(map(len, client._queue)) + len(
                    client._inflight or ())
                return 2 * len(ops) * unacked
    return 0


@settings(max_examples=200)
@given(st.text("abcdef", max_size=6), st.lists(_STEPS, max_size=60))
def test_grid_cores_equal_the_batch_loop(initial, steps):
    new = _World(OTServerCore, OTClientCore, initial)
    lockstep(new, _World(model.ModelServerCore, model.ModelClientCore,
                         initial), steps, drain=_World.pending,
             budget=(ot, "xform", expected_calls))
    for client in new.clients.values():
        assert client.text == new.server.text
        assert not client.has_unacked
