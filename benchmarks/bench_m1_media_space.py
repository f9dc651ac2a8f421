"""M1 — media spaces: a door state cuts interruptions, and a glance costs
a fraction of a video wall (§3.3.2).

RAVE's accessibility setting is a media-space office's door: a BUSY
office refuses glances, but its occupant still learns who looked
(reciprocity).  Twelve offices and two common areas sit on a two-site
WAN.  40 glance attempts between random offices land uniformly over a
two-minute window while the share of BUSY offices is swept.  A seed
draws its attempts and its busy order from streams the sweep does not
touch, so the BUSY set at 50 % contains the one at 25 % and a seed's
rows differ only in the swept parameter.

Declared claims, each evaluated per seed:

* ordering — granted glances per attempt fall strictly as the BUSY
  share rises, while the targets receive exactly one reciprocity notice
  per attempt, granted or refused;
* crossover — on-demand glances cost as many link bytes as a standing
  wall between the common areas at 15–22.5 granted glances a minute.
  A glance is one flow for ``GLANCE_S`` seconds and the wall two flows
  for the whole window, so the lines cross at 2 x 60 / ``GLANCE_S`` =
  15 a minute, times the wall's 3 links over a glance's 3 (across
  sites) or 2 (within one); a seed's office pairs set where in that
  range it falls.

On-demand bytes are linear in the glance rate (every granted glance is
the same fixed-length flow), so the crossing is read off one window:
the granted rate times wall bytes over glance bytes.
"""

import functools

from benchmarks._util import check, print_sweep, sweep
from repro.net import Network, wan
from repro.sim import Environment, RandomStreams
from repro.spaces import BUSY, MediaSpace

BUSY_SHARES = (0.0, 0.25, 0.5, 0.75)
SITES = 2
OFFICES_PER_SITE = 6
ATTEMPTS = 40
WINDOW_S = 120.0
GLANCE_S = 8.0
VIDEO_FPS = 2.0            # the byte ratio does not depend on it
CROSSOVER_RANGE = (15.0, 22.5)   # granted glances per minute


def build(env):
    """The community: a common area and six offices per site."""
    network = Network(env, wan(env, sites=SITES,
                               hosts_per_site=OFFICES_PER_SITE + 1))
    space = MediaSpace(network, glance_duration=GLANCE_S,
                       video_rate=VIDEO_FPS)
    offices = []
    for site in range(SITES):
        space.add_node("common-{}".format(site),
                       host="site{}.host0".format(site))
        for j in range(1, OFFICES_PER_SITE + 1):
            name = "office-{}-{}".format(site, j)
            space.add_node(name, host="site{}.host{}".format(site, j))
            offices.append(name)
    return network, space, offices


@functools.lru_cache(maxsize=None)
def wall_bytes():
    """Link bytes of a wall between the common areas over the window
    (the same on every seed: the WAN has no jitter and no loss)."""
    env = Environment()
    network, space, _ = build(env)
    wall = space.video_wall("common-0", "common-1")
    env.run(until=WINDOW_S)
    space.hang_up(wall)
    env.run()
    return network.total_link_bytes()


def run(seed, busy_share):
    env = Environment()
    network, space, offices = build(env)
    streams = RandomStreams(seed)
    order = list(offices)
    streams.stream("busy").shuffle(order)
    for office in order[:round(busy_share * len(offices))]:
        space.set_accessibility(office, BUSY)
    notices = []
    for office in offices:
        space.awareness.subscribe(
            office, notices.append, event_filter=lambda name, event:
            event.action == "glance" and event.artefact == name,
            host=space.node(office).host)
    rng = streams.stream("glances")
    attempts = sorted((rng.uniform(0.0, WINDOW_S), rng.sample(offices, 2))
                      for _ in range(ATTEMPTS))

    def attempt_glances(env):
        for at, (looker, target) in attempts:
            yield env.timeout(at - env.now)
            space.glance(looker, target)

    env.process(attempt_glances(env))
    env.run()
    granted = space.counters["glances_granted"]
    glance_bytes = network.total_link_bytes()
    crossover = (60.0 * granted / WINDOW_S * wall_bytes() / glance_bytes
                 if granted else float("inf"))
    tried = space.counters["glances_attempted"]
    return {"granted/attempt": granted / tried,
            "notices/attempt": len(notices) / tried,
            "crossover": crossover}


def ordering_holds(rows):
    """Granted glances per attempt fall strictly as the BUSY share rises,
    with one reciprocity notice per attempt (rows in sweep order)."""
    granted = [row["granted/attempt"] for row in rows]
    return all(row["notices/attempt"] == 1 for row in rows) and \
        all(a > b for a, b in zip(granted, granted[1:]))


def crossover_holds(rows):
    low, high = CROSSOVER_RANGE
    return all(low <= row["crossover"] <= high for row in rows)


def test_m1_media_space():
    sweeps = sweep(run, BUSY_SHARES)
    print_sweep(
        "M1  glances against the BUSY share ({} attempts, {} offices)".format(
            ATTEMPTS, SITES * OFFICES_PER_SITE),
        "busy share", ["{:.0%}".format(s) for s in BUSY_SHARES], sweeps,
        {"granted/attempt": "granted/attempt",
         "notices/attempt": "notices/attempt",
         "wall crossover (glances/min)": "crossover"})
    check(sweeps, ordering_holds,
          "ordering (granted/attempt falls, notices = attempts)")
    check(sweeps, crossover_holds,
          "crossover (wall = {}–{} glances/min)".format(*CROSSOVER_RANGE))
