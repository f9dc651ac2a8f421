"""JSONL export, loading, and reading a dump back with the dashboard CLI."""

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.net import Network, lan
from repro.node import ODPRuntime
from repro.sim import Environment


@pytest.fixture
def traced_run(tmp_path):
    """A small traced two-node run, dumped to JSONL."""
    with obs.use_tracer(obs.Tracer()) as tracer, \
            obs.use_metrics(obs.MetricsRegistry()) as metrics:
        env = Environment()
        net = Network(env, lan(env, hosts=2))
        runtime = ODPRuntime(net, registry_node="host0")
        server = runtime.nucleus("host0")
        client = runtime.nucleus("host1")
        capsule = server.create_capsule()
        obj = server.create_object(capsule, "counter", state={"n": 0})
        obj.operation(
            "incr", lambda caller, state, args: state.__setitem__(
                "n", state["n"] + args) or state["n"])

        def root(env):
            for _ in range(3):
                yield client.invoke(obj.oid, "incr", 1)

        proc = env.process(root(env))
        env.run(proc)
        path = str(tmp_path / "run.jsonl")
        lines = obs.dump_jsonl(path, tracer=tracer, metrics=metrics)
    return path, lines


def test_dump_is_nonempty_parseable_jsonl(traced_run):
    path, lines = traced_run
    assert lines > 0
    with open(path) as handle:
        raw = [line for line in handle if line.strip()]
    assert len(raw) == lines
    records = [json.loads(line) for line in raw]
    kinds = {record["kind"] for record in records}
    assert kinds == {"span", "metric"}


def test_load_round_trips(traced_run):
    path, lines = traced_run
    records = obs.load_jsonl(path)
    assert len(records) == lines
    spans = [r for r in records if r["kind"] == "span"]
    assert any(s["name"] == "node.invoke" for s in spans)
    assert any(s["name"] == "rpc.serve" for s in spans)
    metrics = [r for r in records if r["kind"] == "metric"]
    latency = [m for m in metrics if m["name"] == "rpc.latency"]
    assert latency and latency[0]["summary"]["count"] == 3.0


def test_render_report_tables(traced_run, capsys):
    path, _ = traced_run
    assert main(["dashboard", path]) == 0
    text = capsys.readouterr().out
    for dim in ("node", "link", "op", "object"):
        assert "hot spots by {}".format(dim) in text
    assert "incr" in text and "rpc.serve" in text
    assert "host1" in text


def test_report_cli_main(traced_run, capsys):
    path, _ = traced_run
    assert main(["dashboard", path]) == 0
    captured = capsys.readouterr()
    assert "hot spots by op" in captured.out


def test_windowless_dump_reads_as_one_whole_run_window(traced_run, capsys):
    # No window records: the duration is the spans' time range and the
    # node totals are the dump's own net.node.sent counters.
    path, _ = traced_run
    records = obs.load_jsonl(path)
    sent = {m["labels"]["node"]: m["value"] for m in records
            if m["kind"] == "metric" and m["name"] == "net.node.sent"}
    spans = [r for r in records if r["kind"] == "span"]
    assert main(["dashboard", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["duration"] == max(s["end"] for s in spans) \
        - min(s["start"] for s in spans) > 0
    rows = {row["key"]: row for row in data["tables"]["node"]["rows"]}
    assert sent and {node: rows[node]["total"] for node in sent} == sent
    assert all(row["rate"] > 0 for row in rows.values())
    assert data["tables"]["object"]["rows"][0]["latency"]["count"] >= 3


def test_default_noop_dump_has_no_spans(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    with obs.use_metrics(obs.MetricsRegistry()):
        lines = obs.dump_jsonl(path)
    records = obs.load_jsonl(path)
    assert lines == len(records)
    assert all(record["kind"] == "metric" for record in records)


def test_report_cli_top_clips_tables(traced_run, capsys):
    path, _ = traced_run
    assert main(["dashboard", path, "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "more row(s); raise --top" in out


def test_tolerant_loader_skips_truncated_lines(traced_run):
    path, lines = traced_run
    with open(path) as handle:
        content = handle.read()
    # Simulate a dump cut off mid-write: last line truncated, plus a
    # garbage line injected in the middle.
    rows = content.splitlines()
    rows.insert(len(rows) // 2, "{not json")
    rows[-1] = rows[-1][: len(rows[-1]) // 2]
    with open(path, "w") as handle:
        handle.write("\n".join(rows))
    records, skipped = obs.load_jsonl_tolerant(path)
    assert skipped == 2
    assert len(records) == lines - 1


def test_report_cli_tolerates_truncated_dump(traced_run, capsys):
    path, _ = traced_run
    with open(path) as handle:
        content = handle.read()
    with open(path, "w") as handle:
        handle.write(content[: int(len(content) * 0.8)])
    assert main(["dashboard", path]) == 0
    captured = capsys.readouterr()
    assert "skipped" in captured.err
    assert "hot spots by op" in captured.out


def test_report_cli_rejects_dump_with_no_records(tmp_path, capsys):
    path = str(tmp_path / "garbage.jsonl")
    with open(path, "w") as handle:
        handle.write("not json at all\n{{{\n")
    assert main(["dashboard", path]) == 2
    assert "no parseable records" in capsys.readouterr().err


def test_report_cli_format_json(traced_run, capsys):
    path, _ = traced_run
    assert main(["dashboard", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["spans"] > 0
    ops = {row["key"]: row for row in data["tables"]["op"]["rows"]}
    assert ops["incr"]["latency"]["count"] == 3
    assert "rpc.serve" in ops


def test_report_json_matches_text_counts(traced_run, capsys):
    path, _ = traced_run
    assert main(["dashboard", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert main(["dashboard", path]) == 0
    text = capsys.readouterr().out
    assert text.startswith("{} window(s) covering {:.4g}s, {} span(s)".format(
        data["windows"], data["duration"], data["spans"]))


def test_report_json_is_byte_stable(traced_run, capsys):
    path, _ = traced_run
    assert main(["dashboard", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["dashboard", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_report_cli_unreadable_file_exits_2(tmp_path, capsys):
    assert main(["dashboard", str(tmp_path / "missing.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_meta_record_leads_the_dump(traced_run, tmp_path):
    from repro.obs.export import META_SCHEMA

    path = str(tmp_path / "meta.jsonl")
    with obs.use_metrics(obs.MetricsRegistry()):
        obs.dump_jsonl(path, meta={"workload": "demo", "seed": 7,
                                   "sim_time": [0.0, 4.5]})
    with open(path) as handle:
        first = json.loads(handle.readline())
    assert first == {"kind": "meta", "schema": META_SCHEMA,
                     "workload": "demo", "seed": 7,
                     "sim_time": [0.0, 4.5]}


def test_report_surfaces_meta_line(tmp_path, capsys):
    path = str(tmp_path / "meta.jsonl")
    with obs.use_metrics(obs.MetricsRegistry()) as metrics:
        metrics.counter("ticks").add()
        obs.dump_jsonl(path, metrics=metrics,
                       meta={"workload": "demo", "seed": 7})
    assert main(["dashboard", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("meta: workload=demo seed=7 schema=repro-obs/1")
    assert main(["dashboard", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["meta"]["workload"] == "demo"


def test_metaless_dump_still_loads_and_reports(traced_run, capsys):
    # Dumps written before the meta record existed: no meta line, no
    # meta key surprises, everything else identical.
    path, _ = traced_run
    assert main(["dashboard", path]) == 0
    out = capsys.readouterr().out
    assert not out.startswith("meta:")
    assert "hot spots by op" in out
    assert main(["dashboard", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"] is None


def test_dump_jsonl_appends_timeline_windows(tmp_path):
    from repro.obs.timeline import TimelineRecorder
    from repro.sim import Environment

    with obs.use_metrics(obs.MetricsRegistry()) as metrics:
        env = Environment()
        recorder = TimelineRecorder(env, resolution=1.0)

        def proc(env):
            for _ in range(3):
                yield env.timeout(0.8)
                metrics.counter("ticks").add()

        env.process(proc(env))
        env.run()
        recorder.finish()
        path = str(tmp_path / "mixed.jsonl")
        obs.dump_jsonl(path, metrics=metrics, timeline=recorder)
    records = obs.load_jsonl(path)
    kinds = {record["kind"] for record in records}
    assert "window" in kinds and "metric" in kinds
    windows = [r for r in records if r["kind"] == "window"]
    assert sum(w["counters"].get("ticks", 0) for w in windows) == 3
