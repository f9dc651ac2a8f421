"""Mobile field engineers: the MOST-project scenario (§3.3.3, §4.2.2).

A utilities field engineer takes a laptop into the field:

1. hoards job sheets and network maps while docked (FULL connectivity);
2. drives out — PARTIAL radio connectivity with real radio bandwidth;
3. enters a tunnel — DISCONNECTED; reads come from the hoard, work is
   logged optimistically;
4. a disconnection-tolerant QoS contract flags the over-long outage;
5. back in coverage, the replay log reintegrates over the radio, and a
   conflicting office-side edit is detected and resolved.

Every transfer between the laptop and the office server is an RPC over
the laptop's radio link, so it takes that link's time at each level.

Run:  python examples/mobile_engineers.py
"""

from repro.concurrency import SharedStore
from repro.mobility import (
    DisconnectionTolerantContract,
    MobileCache,
    MobileHost,
    StoreServer,
)
from repro.net import ConnectivityLevel, Network, Topology
from repro.sim import Environment


def main() -> None:
    env = Environment()
    topo = Topology(env)
    topo.add_link("depot", "office-server", latency=0.002)
    network = Network(env, topo)

    office = SharedStore("office")
    office.write("job/1042", "replace transformer, substation 7",
                 writer="dispatcher")
    office.write("map/sector-7", "cable routes v3", writer="gis")

    server = StoreServer(network, "office-server", office)
    engineer = MobileHost(network, "laptop", "depot",
                          level=ConnectivityLevel.FULL)
    cache = MobileCache(engineer, server)
    outage_alerts = []
    DisconnectionTolerantContract(
        env, engineer, max_outage=60.0,
        on_violation=lambda outage: outage_alerts.append(
            (env.now, outage)))

    def field_day(env):
        # Docked at the depot: hoard the day's data at LAN speed.
        yield from cache.hoard(["job/1042", "map/sector-7"])
        print("t={:>6.1f}  hoarded: {}".format(env.now,
                                               cache.cached_keys()))

        # On the road: radio only.
        engineer.set_level(ConnectivityLevel.PARTIAL)
        yield env.timeout(30.0)
        job = yield from cache.read("job/1042")
        print("t={:>6.1f}  read job over radio: {!r}".format(env.now,
                                                             job))

        # Into the tunnel: no connectivity for two hours.
        engineer.set_level(ConnectivityLevel.DISCONNECTED)
        print("t={:>6.1f}  entered tunnel (disconnected)".format(env.now))
        yield env.timeout(3600.0)
        job = yield from cache.read("job/1042")  # served from the hoard
        yield from cache.write("job/1042",
                               job + " [DONE: replaced, tested]")
        yield from cache.write("report/1042",
                               "completed 14:30, 2h on site")
        print("t={:>6.1f}  worked offline; {} updates pending".format(
            env.now, cache.pending_updates))
        # Meanwhile the dispatcher reassigns the job (conflict!).
        office.write("job/1042", "reassigned to team B",
                     writer="dispatcher")
        yield env.timeout(3600.0)

        # Out of the tunnel: radio again; bulk reintegration.
        engineer.set_level(ConnectivityLevel.PARTIAL)
        print("t={:>6.1f}  reconnected (partial)".format(env.now))
        applied, conflicted = yield from cache.reintegrate()
        print("t={:>6.1f}  reintegrated: {} applied, {} conflicts"
              .format(env.now, applied, conflicted))

    done = env.process(field_day(env))
    env.run(done)

    print("\noutage alerts (accepted level was 60s):")
    for at, outage in outage_alerts:
        print("  t={:>6.1f}  outage running {:.0f}s".format(at, outage))
    print("\nfinal office state:")
    for key in sorted(office.keys()):
        print("  {} = {!r}".format(key, office.read(key)))
    print("\nconflicts detected for manual review:")
    for key, server_value, client_value in cache.conflicts:
        print("  {}: office kept {!r}, engineer's {!r} preserved "
              "for review".format(key, server_value, client_value))
    print("\ntotal disconnected time: {:.0f}s (longest outage {:.0f}s)"
          .format(engineer.total_disconnected, engineer.longest_outage))


if __name__ == "__main__":
    main()
