"""The dashboard command: workload mode, dump mode, formats, exit codes."""

import json

import pytest

from repro.__main__ import main
from repro.obs import dashboard, profile


def run_main(capsys, argv):
    code = main(["dashboard", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_workload_mode_renders_tables_and_critical_path(capsys):
    code, out, _ = run_main(capsys, [
        "timeline-demo", "--tables", "node,link", "--critical-path"])
    assert code == 0
    assert "hot spots by node" in out
    assert "hot spots by link" in out
    assert "critical-path bottlenecks" in out
    assert "zipf skew (node):" in out
    # Non-empty top-K: at least one node row between header and skew line.
    node_section = out.split("hot spots by node")[1]
    node_rows = node_section.split("zipf skew")[0].strip().splitlines()
    assert len(node_rows) > 2  # rule + header + >=1 data row


def test_same_seed_runs_are_byte_identical(capsys):
    argv = ["timeline-demo", "--tables", "node,op", "--critical-path"]
    _, first, _ = run_main(capsys, argv)
    _, second, _ = run_main(capsys, argv)
    assert first == second
    assert first  # and not trivially empty


def test_dump_mode_reads_mixed_jsonl(tmp_path, capsys):
    from repro import obs
    from repro.obs.timeline import TimelineRecorder
    from repro.sim import Environment

    with obs.use_tracer(obs.Tracer()) as tracer, \
            obs.use_metrics(obs.MetricsRegistry()) as metrics:
        env = Environment()
        recorder = TimelineRecorder(env, resolution=1.0)

        def proc(env):
            for step in range(5):
                with tracer.span("work", env, node="n1", actor="worker"):
                    metrics.counter("net.node.sent", node="n1").add()
                    yield env.timeout(0.7)

        env.process(proc(env), name="worker")
        env.run()
        recorder.finish()
        path = str(tmp_path / "run.jsonl")
        obs.dump_jsonl(path, tracer=tracer, metrics=metrics,
                       timeline=recorder)

    code, out, _ = run_main(capsys, [path, "--tables", "node,actor",
                                     "--critical-path"])
    assert code == 0
    # The dump's own windows, not one whole-run window.
    assert "4 window(s) covering 3.5s" in out
    assert "hot spots by node" in out
    assert "n1" in out and "worker" in out


def test_format_json_is_parseable_and_sorted(capsys):
    code, out, _ = run_main(capsys, [
        "timeline-demo", "--tables", "node",
        "--critical-path", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["windows"] > 0
    assert data["tables"]["node"]["rows"]
    assert data["critical_path"]["bottlenecks"]
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_unknown_dimension_exits_2(capsys):
    code, _, err = run_main(capsys, [
        "timeline-demo", "--tables", "node,galaxy"])
    assert code == 2
    assert "unknown table dimension" in err


def test_unknown_workload_exits_2(capsys):
    # A TARGET that names no workload is read as a dump.
    code, _, err = run_main(capsys, ["no-such-workload"])
    assert code == 2
    assert "cannot read no-such-workload" in err


def test_unreadable_dump_exits_2(tmp_path, capsys):
    code, _, err = run_main(capsys,
                            [str(tmp_path / "missing.jsonl")])
    assert code == 2
    assert "cannot read" in err


def test_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit):
        main(["dashboard"])
    with pytest.raises(SystemExit):
        main(["dashboard", "dump.jsonl", "timeline-demo"])


def test_top_clips_tables(capsys):
    code, out, _ = run_main(capsys, [
        "timeline-demo", "--tables", "op", "--top", "2"])
    assert code == 0
    assert "more row(s); raise --top" in out


@pytest.mark.parametrize("cli, argv", [
    (dashboard, ["timeline-demo", "--tables", "node"]),
    (profile, ["traced-rpc"])])
def test_negative_top_is_rejected_by_name(cli, argv, capsys):
    # Every report with --top parses it one way: a row count, never < 0.
    command = cli.__name__.rsplit(".", 1)[1]
    with pytest.raises(SystemExit) as exit_:
        main([command, *argv, "--top", "-1"])
    assert exit_.value.code == 2
    assert "argument --top: must be >= 0" in capsys.readouterr().err
