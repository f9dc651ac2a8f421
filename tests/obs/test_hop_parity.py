"""A traced WAN run reads, row for row, as it did when hops were objects.

``traced_wan_run.jsonl`` is the dump :func:`traced_wan_run` wrote when
every ``net.link`` hop was a ``HopSpan`` the carrier filled in place,
generated at commit c2c4eab.  Since then only two metric rows moved,
when a multicast tree edge joined its source's ``sent`` book (3efb36f+1:
the ``net.node.sent`` row of ``site0.host1``, 6 edges, and ``net.sent``
11 → 17); every span row is as generated.  A hop is now a record
packed into its packet's ``net.transmit`` span and built into a row on
read; the dump must not tell the two apart.
"""

import json
import os

from repro import obs
from repro.net import Network, wan
from repro.net.multicast import MulticastService
from repro.sim import Environment

_FIXTURE = os.path.join(os.path.dirname(__file__), "traced_wan_run.jsonl")


def traced_wan_run(path):
    """A small traced WAN run, as JSONL text: lossy WAN links drop some
    hops, a packet to a router (no host) is dropped after its hops all
    arrive, a multicast tree edge leaves from a relay, three packets at
    one instant queue on one channel, and the run stops while the last
    packet is still on the wire."""
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry), obs.use_tracer(obs.Tracer()) as tracer:
        env = Environment()
        topo = wan(env, sites=3, hosts_per_site=2, site_bandwidth=2e5,
                   loss=0.25, seed=4)
        network = Network(env, topo)
        names = ["site{}.host{}".format(i, j)
                 for i in range(3) for j in range(2)]
        hosts = {name: network.host(name) for name in names}
        service = MulticastService(network)
        group = service.create_group("g")
        for member in ("site1.host0", "site1.host1", "site2.host1"):
            group.join(member)

        def client(env):
            root = tracer.start_span("app.session", at=env.now,
                                     node="site0.host0")
            headers = obs.inject(root, {})
            for i in range(6):
                hosts["site0.host0"].send(names[1 + i % 5], payload=i,
                                          size=400, headers=dict(headers))
                yield env.timeout(0.002)
            for i in range(3):
                hosts["site1.host1"].send("site2.host0", payload=i, size=900)
            hosts["site2.host1"].send("site0.router", payload="x", size=64)
            yield env.timeout(0.05)
            service.send("g", "site0.host1", payload="m", size=300)
            yield env.timeout(0.1)
            root.finish(at=env.now)
            hosts["site2.host0"].send("site0.host1", payload="late",
                                      size=4000)

        env.process(client(env))
        env.run(until=0.17)
        obs.dump_jsonl(path, tracer=tracer, metrics=registry)
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def test_the_dump_matches_the_one_made_when_hops_were_objects(tmp_path):
    with open(_FIXTURE, encoding="utf-8") as handle:
        expected = handle.read()
    assert traced_wan_run(str(tmp_path / "run.jsonl")) == expected


def test_the_pinned_run_holds_every_kind_of_hop():
    with open(_FIXTURE, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    spans = {record["span_id"]: record for record in records
             if record["kind"] == "span"}
    hops = [span for span in spans.values() if span["name"] == "net.link"]

    def transit(hop):
        return spans[hop["parent_id"]]

    assert any(hop["status"] == "dropped" for hop in hops)
    no_host = [span for span in spans.values()
               if span["status"] == "dropped:no-host"]
    assert no_host and all(
        hop["status"] == "ok" and hop["end"] is not None
        for hop in hops if hop["parent_id"] == no_host[0]["span_id"])
    # A multicast tree edge leaves from a relay, not from packet.src.
    assert any(transit(hop)["attributes"]["port"] == 3
               and hop["attributes"]["node"] != transit(hop)["attributes"]
               ["src"] for hop in hops)
    # Queued behind another packet: granted after it was claimed.
    assert any(hop["events"][0]["at"] > hop["start"]
               for hop in hops if "events" in hop)
    # Still on the wire at the stop: unfinished, and never granted...
    assert any(hop["end"] is None and "events" not in hop for hop in hops)
