"""The design rules as two tables: tombstones keep out what a commit
deleted, contracts hold a rule the code keeps (docs/analysis.md,
"Guards").  A row holds on the tree and fires on its plant."""

import ast
import collections
import functools
import pathlib
import re

import pytest
from hypothesis import settings

ROOT = pathlib.Path(__file__).resolve().parent.parent

# find(root) lists what breaks the rule under root; plant is (path,
# text) that breaks it; each glob of scope must match a file of the tree.
Guard = collections.namedtuple("Guard", "find plant scope", defaults=((),))


@functools.lru_cache(maxsize=None)
def files(root, scope):
    """(relative path, path) of each source file under ``root`` that the
    globs match, not what running or installing leaves behind."""
    found = set()
    for pattern in scope:
        for path in root.glob(pattern):
            rel = path.relative_to(root)
            if path.is_file() and not any(
                    part == "__pycache__" or part.endswith(".egg-info")
                    for part in rel.parts):
                found.add((rel.as_posix(), path))
    return tuple(sorted(found))


@functools.lru_cache(maxsize=None)
def read(path):
    return path.read_text(encoding="utf-8", errors="replace")


@functools.lru_cache(maxsize=None)
def parse(path):
    return ast.parse(read(path), filename=str(path))


def matching_lines(regex, path):
    """(number, line) of each line where a match of ``regex`` starts."""
    text = read(path)
    starts = {text.count("\n", 0, match.start())
              for match in regex.finditer(text)}
    lines = text.split("\n")
    return tuple((start + 1, lines[start]) for start in sorted(starts))


def nodes(root, scope, needle):
    """Each AST node of the files under ``scope`` that ``needle`` matches."""
    return [(rel, node) for rel, path in files(root, scope)
            if re.search(needle, read(path)) for node in ast.walk(parse(path))]


def gone(*paths):
    """Files or directories that stay deleted."""
    return [Guard(lambda root, path=path: [path] * (root / path).exists(),
                  (path, "")) for path in paths]


def grep(pattern, *scope, plant=None, allow=None, lines=range(1), word=False):
    """No line under ``scope`` matches the ``grep -E`` pattern (``grep
    -w`` with ``word``) but the ``path:number:line`` hits ``allow``
    matches; or, given ``lines``, the number of such lines falls in that
    range.  The plant defaults to the pattern's first alternative."""
    regex = re.compile(r"(?<!\w)(?:{})(?!\w)".format(pattern) if word
                       else pattern, re.M)

    def find(root):
        hits = ["{}:{}:{}".format(rel, number, line)
                for rel, path in files(root, scope)
                for number, line in matching_lines(regex, path)]
        hits = [hit for hit in hits if not (allow and re.search(allow, hit))]
        return [] if len(hits) in lines else hits or ["no match: " + pattern]

    plant = plant or re.sub(r"\\(.)", r"\1", pattern.split("|")[0])
    where = scope[0].replace("**/", "").replace("*", "planted")
    return Guard(find, (where, plant), scope)


def one_store(root):
    """No channel class in the kernel (a link direction is the link's
    own); one store, with no capacity or name, and a get with no
    filter."""
    [(_, path)] = files(root, ("src/repro/sim/resources.py",))
    classes = {node.name: node.body for node in parse(path).body
               if isinstance(node, ast.ClassDef)}
    found = ["class Resource"] * ("Resource" in classes)
    for cls, method, banned in (("Store", "__init__", "capacity|name"),
                                ("Store", "get", ".+")):
        [args] = [node.args for node in classes[cls]
                  if getattr(node, "name", None) == method]
        names = [arg.arg for arg in args.args[1:] + args.kwonlyargs]
        names += ["*"] * bool(args.vararg or args.kwarg)
        found += [cls + "." + method + "." + name for name in names
                  if re.fullmatch(banned, name) or name == "*"]
    return found


def probes_come_from_obs(root):
    """No Counter, Tally or TimeSeries is imported from repro.sim (only
    a file whose import from it may name one is parsed)."""
    probes = {"Counter", "Tally", "TimeSeries"}
    return ["{}:{}".format(rel, node.lineno) for rel, node in nodes(
        root, ("src/**/*.py", "tests/**/*.py", "benchmarks/**/*.py"),
        r"repro\.sim[\w.]*\s+import\s[^)]*?\b(Counter|Tally|TimeSeries)\b")
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.sim")
        and probes & {alias.name for alias in node.names}]


def only_conftest_scopes_every_test(root):
    """No autouse fixture but tests/conftest.py's enters use_metrics."""
    return ["{}:{}".format(rel, node.lineno)
            for rel, node in nodes(root, ("tests/**/*.py",), "autouse")
            if rel != "tests/conftest.py" and isinstance(node, ast.FunctionDef)
            and any(keyword.arg == "autouse" for deco in node.decorator_list
                    for keyword in getattr(deco, "keywords", ()))
            and any(isinstance(call, ast.Call) and "use_metrics" == getattr(
                call.func, "id", getattr(call.func, "attr", None))
                for call in ast.walk(node))]


def every_experiment_states_a_claim(root):
    """Each bench but E11, F2 and R1 imports benchmarks._util's check at
    the top and calls it as a statement of a top-level function."""
    silent = []
    for rel, path in files(root, ("benchmarks/bench_*.py",)):
        tree = parse(path)
        imports = any(isinstance(node, ast.ImportFrom)
                      and node.module == "benchmarks._util"
                      and "check" in {alias.name for alias in node.names}
                      for node in tree.body)
        calls = any(isinstance(node, ast.Call) and node.col_offset == 4
                    and getattr(node.func, "id", None) == "check"
                    for node in ast.walk(tree))
        if rel.split("_")[1] not in ("e11", "f2", "r1") and not (
                imports and calls):
            silent.append(rel)
    return silent


SRC, REPRO = "src/**/*.py", "src/repro/**/*.py"
NET, OT = "src/repro/net/network.py", "src/repro/concurrency/ot.py"
KERNEL, MAIN = r"^src/repro/sim/environment\.py", r"^src/repro/__main__\.py:"
EVERYWHERE = ("src/**/*", "tests/**/*", "benchmarks/**/*", "examples/**/*",
              "docs/**/*", ".github/**/*")
ONE_CLI = "docs/observability.md: ### One command line"
READERS = "docs/observability.md: ## Who reads what"
OWNERS = "docs/observability.md: ### A run owns its observers"
METRICS = "docs/observability.md: ## Metrics"
VERDICTS = "DESIGN.md: ### Mechanism verdicts"
OPTIONS = "DESIGN.md: ### Option verdicts"
PERF = "docs/performance.md: "
MOBILE = "DESIGN.md: A mobile's transfers are calls"
AWARE = "DESIGN.md: Awareness is traffic"
DISPLAY = "DESIGN.md: The shared display is traffic"
PROFILE = "docs/analysis.md: ## One hypothesis profile"
HOP = PERF + "### A hop is one event"
TIMELINE = PERF + "A link channel is a timeline of bookings"

TOMBSTONES = {  # (the commit that deleted it, the record): guards
    ("f6edcea", ONE_CLI): gone("src/repro/analysis/workloads.py",
                               "src/repro/obs/demo.py",
                               "src/repro/faults/chaos.py"),
    ("625a217", PERF + "A ladder/calendar queue"): [grep(
        r"insort|_qrun|_qbuckets|_qover|_promote\(|_reanchor",
        "src/repro/sim/**/*.py")],
    ("6694b7b", PERF + "### The journal costs per record"): [grep(
        r"_flight_dispatch|on_dispatch|epoch_events|journal_dispatch",
        "src/**/*")],
    ("4a76a7e", PERF + "#### Who swaps a registry"): [grep(
        r"is not self\._registry|_bound_registry|_all_cells|NullRegistry"
        r"|bind_(counter|histogram|gauge)", SRC)],
    ("4d5d3fa", PERF + "### An RPC is a record"): [grep(
        r"_call_proc|_invoke_proc", "src/repro/net/transport.py",
        "src/repro/node/**/*.py")],
    ("d435fdf+1", PERF + "### An outcome reaches its waiter in the call"): [
        grep(r"_send_proc", "src/repro/net/**/*.py")],
    ("a3ec299", PERF + "### A span is a row"): [grep(r"add_event\(", NET)],
    ("d4fcbfb", READERS): gone("src/repro/obs/report.py") + [
        grep("argparse", "src/repro/obs/divergence.py"),
        grep("BlackBox", SRC)],
    ("6d0237a", "docs/fuzzing.md: ## What the fault search catches"): [
        grep(r"_reduce_targets|REPRO_FUZZ_CORPUS", "src/**/*",
             ".github/workflows/fuzz-nightly.yml"),
        grep("__getattr__", "src/repro/faults/__init__.py"),
        *gone("src/repro/faults/oracles.py")],
    ("feafc4f", "DESIGN.md: Group state transfer"): [grep(
        r"REJOIN_DELAY|rejoin_proc|def unwatch|def forget"
        r"|set_state_provider|joined_state", SRC)],
    ("05455ab", "DESIGN.md: the rows from `LatencySLO` on"): [
        grep(r"def (burn_rate|histogram_count_below|count_below|window_at"
             r"|series|dump_jsonl\(self|finished_spans|by_node|by_actor"
             r"|add_listener|exceeded|link_up|heal|node_restart|run_passes"
             r"|rules_meta|lint_file|resolve_conflict|links_from|thread_of"
             r"|state_snapshot|position_of|set_view|view_of|unit_of"
             r"|spans_conflict|queue_length\(self\)|wait_queue_length"
             r"|is_held|acl_of|capabilities_of|revoke|watch_new_member"
             r"|worst_latency|current_step|objects_in|is_final|move_to"
             r"|move_by|unsubscribe|ends|unregister|has_operation"
             r"|add_observer|total_reserved|trigger|fork)\b", SRC,
             plant="def burn_rate(self):"),
        grep("LatencySLO|Capability|FINAL_STATES|_below", SRC, word=True),
        grep("_listeners", "src/repro/faults/**/*.py"),
        *gone("src/repro/core/matrix.py")],
    ("05455ab", "DESIGN.md: must run without pytest-benchmark"): [
        grep(r"run_once|pedantic|\bbenchmark\b", "benchmarks/**/*.py"),
        grep(r"^test = \[.*(pytest-benchmark|numpy)", "pyproject.toml",
             plant='test = ["numpy"]'),
        grep(r"^test = \[.*\]$", "pyproject.toml", lines=range(1, 2),
             plant="test = []"),
        *gone("bench_tables.txt")],
    ("373092a", VERDICTS): gone(
        "src/repro/toolkit", "src/repro/spaces/virtual.py",
        "src/repro/spaces/rooms.py", "src/repro/hypertext/sepia.py"),
    ("1034e2d", VERDICTS): gone(*("src/repro/" + path for path in (
        "core/viewpoints.py", "workflow/action_workflow.py",
        "mobility/addressing.py", "management/communications.py",
        "awareness/objectstore.py", "awareness/weightings.py"))) + [
        grep(r"weight_multiplier|routing_weight|ViewpointError", SRC)],
    ("5a2dbb3", VERDICTS): gone("src/repro/streams/interfaces.py",
                                "src/repro/workload/sessions.py") + [
        grep(r"Container|put_fast|StorePut|InvitationService"
             r"|GroupStreamBinding|SessionChurn|ChurnEvent|conflict_rate"
             r"|LamportClock|weighted_choice|bounded_normal|awareness_weight"
             r"|awareness_matrix|compatible_with|accept_all|QoSViolation"
             r"|BindingError|StreamInterface|bind_interfaces|LEVEL_WEIGHTS",
             SRC, word=True),
        grep(r"resource\.wait|resource\.queue_depth|store\.wait"
             r"|store\.depth", SRC)],
    ("9592b4a", VERDICTS): [
        grep("Interruption|Interrupt|AllOf|all_of|_target",
             "src/repro/sim/**/*.py", "src/repro/obs/slo.py", word=True),
        grep("def describe", "src/repro/access/**/*.py")],
    ("83c102a", PERF + "### A transform is one call"): [
        grep("transformed, _ = ", OT), grep("def xform_sequences", OT)],
    ("dce6644", METRICS): gone("src/repro/sim/monitor.py") + [grep(
        r"class (HistogramInstrument|GaugeInstrument)\b", SRC,
        plant="class GaugeInstrument:")],
    ("004bd0b", OWNERS): [
        grep(r"(set|enable|disable)_(tracer|tracing|metrics|flight|sanitizer)"
             r"|run_(isolated|workload)|use_schedule_(override)", *EVERYWHERE,
             word=True, plant="enable_" "tracing()"),
        grep(r"\bjournalled\(|import .*\bjournalled\b", *EVERYWHERE,
             plant="journal" "led(spec)")],
    ("271be8b", "EXPERIMENTS.md: F1 is deleted"): gone(
        "benchmarks/bench_f1_spacetime_matrix.py"),
    # Deleted by the commit after c2c4eab.
    ("c2c4eab+1", PERF + "### A hop is a record"): [grep(
        r"def start_hop", SRC)],
    # Deleted by the commit after 3efb36f.
    ("3efb36f+1", PERF + "### What an observed run pays for"): [
        grep(r'set_attribute\("target"', "src/repro/node/runtime.py"),
        grep(r"_pending\.append\(\(", "src/repro/obs/flight.py")],
    # Deleted by the commit after 27d957a: a hook or switch no run set.
    ("27d957a+1", OPTIONS): [
        grep("decide", "src/repro/sessions/floor.py", word=True),
        grep("decision", "src/repro/access/negotiation.py", word=True),
        grep("handler", "src/repro/sessions/sharing.py", word=True),
        grep("on_violation", "src/repro/qos/monitor.py", word=True),
        grep("retention", "src/repro/obs/timeline.py", word=True),
        grep("loopback", "src/repro/net/multicast.py", word=True),
        grep("reserve", "src/repro/core/platform.py", word=True),
        grep("initial_time", SRC, word=True)],
    # Deleted by the commit after 0ba672d: a hop is a row of its own.
    ("0ba672d+1", PERF + "### A finished span is a column row"): [
        grep("HOP_RECORD", SRC),
        grep(r"hops = bytearray\(", SRC, plant="self.hops = bytearray()")],
    # Deleted by the commit after 93ebf67: the cache's own transfer model
    # and the options no run set.
    ("93ebf67+1", MOBILE): [
        grep("_transfer_time", SRC),
        grep("transfer_rate|item_size|conflict_policy|on_conflict",
             "src/repro/mobility/**/*.py", word=True),
        grep("CLIENT_WINS", SRC, word=True),
        grep("profiles", "src/repro/net/radio.py", word=True)],
    # Deleted by the commit after 86d137f: awareness's own delay.
    ("86d137f+1", AWARE): [
        grep("awareness_latency", "src/repro/sessions/session.py"),
        grep("latency", "src/repro/awareness/events.py", word=True)],
    # Deleted by the commit after 9f95924: a receiver reads the header
    # dict in place.
    ("9f95924+1", PERF + "reads its parent's header dict in place"): [
        grep(r"def extract\(", "src/repro/obs/**/*.py")],
    # Deleted by the commit after 7c4affd: the display's own delay and
    # byte book.
    ("7c4affd+1", DISPLAY): [
        grep(name, SRC, "benchmarks/**/*.py", "examples/**/*.py", word=True)
        for name in ("DISPLAY_LATENCY", "display_bytes_sent")],
    # Deleted by the commit after 98daba3: the link owns its channel.
    ("98daba3+1", HOP): [grep(r"Priority(Resource|Request)", SRC,
                              "tests/**/*.py",
                              plant="channel = Priority" "Resource(env)")],
    # Deleted by the commit after 4341b1c: a channel's holder, wait heap
    # and wake-up event.
    ("4341b1c+1", TIMELINE): [grep(
        r"\b_WAKE\b|class Channel\(Event\)|\.(holder|waiting)\b",
        "src/repro/net/**/*.py", plant="_WAKE = (Channel._wake,)")],
}

CONTRACTS = {  # where the rule is stated: guards
    ONE_CLI: [
        grep(r"^\s*(import|from) argparse\b", REPRO, allow=MAIN,
             plant="import argparse"),
        grep(r"^if __name__ == .__main__.:", REPRO, allow=MAIN,
             plant="if __name__ == '__main__':")],
    READERS: [grep(
        r"^\s*(from|import) repro\.(net|node|groups|sessions|qos)\b",
        "src/repro/obs/**/*.py", plant="import repro.net")],
    PERF + "`events_processed` counts pops": [grep(
        r"events_processed *\+?=", REPRO, allow=KERNEL,
        plant="events_processed += 1")],
    PERF + "### The event queue": [
        grep(r"heappush\(self\._queue", REPRO, allow=KERNEL + ":"),
        grep(r"heappush\(self\._queue", "src/repro/sim/environment.py",
             lines=range(1, 2))],
    PERF + "a layer reads its environment's observers": [grep(
        r"get_(metrics|tracer|sanitizer|flight)\(\)", REPRO,
        allow=r"^[^:]+:[0-9]+:def get_"
              r"|^src/repro/(sim/environment|run|sim/rng|obs/export)\.py:"
              r"|^src/repro/workload/(telemetry|chaos)\.py:[0-9]+:"
              r"    ambient = get_tracer\(\)$", plant="get_metrics()")],
    PERF + "### A span is a row": [grep(r"start_span\(|start_transit\(", NET,
                                        lines=range(2))],
    HOP: [grep(r"repro: fast-path", "src/repro/net/**/*.py",
               "src/repro/sim/**/*.py", lines=range(8),
               plant="\n".join(["# repro: fast-path"] * 8))],
    PERF + "Only `obs/span.py` and `obs/tracer.py` read a log's columns": [
        grep(r"\.(rows|ends|txs|sets|set_codes|odd)\b", SRC,
             allow=r"^src/repro/obs/(span|tracer)\.py:",
             plant="ends = tracer.spans.ends")],
    "docs/observability.md: Only `Span.set_attribute` writes span": [grep(
        r"\.attributes\[[^]]*\] *=[^=]|\.attributes\.(update|setdefault)\(",
        SRC, allow=r"^src/repro/obs/span\.py:",
        plant="span.attributes[key] = value")],
    PERF + "The link physics is stated once": [
        grep(r"(?<!self)\._rng\b|\._extra_loss\b|\._latency_scale\b", REPRO,
             allow=r"^src/repro/net/(link|network)\.py:")._replace(plant=(
                 "src/repro/net/multicast.py", "draw = link._rng.random()")),
        grep(r"def (drops_packet|propagation_delay|drop_reason)\b", SRC,
             plant="def propagation_delay(self):")],
    PERF + "### A lock request is one call": [grep(
        r"(get_sanitizer\(\)|env\.sanitizer)\.(on_read|on_write|acquire"
        r"|release|local)\(", REPRO, plant="env.sanitizer.on_read(")],
    MOBILE: [
        grep(r"timeout\(", "src/repro/mobility/cache.py",
             plant="yield self.env.timeout(1.0)"),
        grep(r"\.item\(", "src/repro/mobility/**/*.py",
             plant="self.server.store.item(key)")],
    AWARE: [grep(r"timeout\(", "src/repro/awareness/events.py",
                 plant="self.env.timeout(self.latency, event)")],
    DISPLAY: [grep(r"timeout\(", "src/repro/sessions/sharing.py",
                   plant="yield self.env.timeout(DISPLAY_LATENCY)")],
    PERF + "### A pointer tick is one event": [grep(
        r"\.process\(", "src/repro/sessions/telepointers.py",
        plant="self.env.process(self._publisher(member, serial))")],
    PROFILE: [
        grep(r"(?<![\w.])settings\((?!max_examples=\d+\))", "tests/**/*.py",
             plant="@settings" "(max_examples=10, deadline=None)"),
        grep(r"(register|load)_profile\(", "tests/**/*.py", "src/**/*.py",
             "benchmarks/**/*.py", "examples/**/*.py",
             allow=r"^tests/conftest\.py:",
             plant="settings.load" "_profile('ci')")],
    "docs/analysis.md: ## Tie shuffling": [grep(
        r"(?s)mock\.patch\.object\(.*wraps=|wraps=.*mock\.patch\.object\(",
        "tests/**/*.py", allow=r"^tests/lockstep\.py:",
        plant="mock.patch" ".object(env, 'step', wraps" "=env.step)")],
    "DESIGN.md: Second channel class": [Guard(one_store, (
        "src/repro/sim/resources.py", "class Resource:\n    pass"))],
    METRICS: [Guard(probes_come_from_obs, (
        "tests/planted.py", "from repro.sim import Tally"))],
    OWNERS: [Guard(only_conftest_scopes_every_test, (
        "tests/planted.py", "@pytest.fixture(autouse=True)\ndef fresh():\n"
        "    with use_metrics(None):\n        yield"))],
    "EXPERIMENTS.md: ## Verdicts": [
        grep(r"RandomStreams\([0-9]|seed=[0-9]", *(
            "benchmarks/bench_{}_*.py".format(bench) for bench in
            "a1 a2 a3 a4 a5 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e12 m1 q1".split()),
             plant="RandomStreams(7)"),
        grep("SEEDS|CLAIM_FRACTION", "benchmarks/**/*.py", word=True,
             allow=r"^benchmarks/_util\.py:"),
        Guard(every_experiment_states_a_claim, (
            "benchmarks/bench_z1_planted.py", "def test_z1():\n    pass"))],
}

ROWS = [(guard, record) for (_, record), guards in TOMBSTONES.items()
        for guard in guards] + [(guard, record) for record, guards in
                                CONTRACTS.items() for guard in guards]


@pytest.mark.parametrize("guard, record", ROWS, ids=[
    (guard.plant[1] or guard.plant[0]).split("\n")[0] for guard, _ in ROWS])
def test_the_row_holds_and_fires_on_its_plant(guard, record, tmp_path):
    doc, _, phrase = record.partition(": ")
    assert phrase in read(ROOT / doc)
    assert all(files(ROOT, (pattern,)) for pattern in guard.scope)
    assert guard.find(ROOT) == []
    path, text = guard.plant
    real = ROOT / path
    (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / path).write_text(
        (read(real) if real.is_file() else "") + text + "\n")
    assert guard.find(tmp_path)


def profile_faults(name, profile):
    """What keeps the hypothesis profile ``name`` from drawing the same
    examples on every run of one command, everywhere, with nothing left
    behind."""
    faults = ["database"] * (profile.database is not None)
    faults += ["deadline"] * (profile.deadline is not None)
    faults += ["health checks"] * bool(profile.suppress_health_check)
    return faults + ["random"] * (
        not profile.derandomize and not name.startswith("explore"))


def test_the_loaded_hypothesis_profile_is_the_tree_s():
    assert profile_faults(settings.get_current_profile_name(),
                          settings.default) == []
    assert profile_faults("default", settings.get_profile("default")) == [
        "database", "deadline", "random"]
    assert profile_faults("ci", settings.get_profile("ci")) == [
        "health checks"]
