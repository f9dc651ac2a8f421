"""Sim-time profiler: aggregation, folded stacks, and the CLI."""

import io
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.obs.profile import SpanProfile, main, render_profile
from repro.sim import Environment


@pytest.fixture
def known_tree():
    """root(0..10) -> child-a(1..4), child-b(5..9 -> leaf(6..8))."""
    tracer = obs.Tracer()
    root = tracer.start_span("root", at=0.0, node="n1")
    a = tracer.start_span("child-a", at=1.0, parent=root, node="n1")
    a.finish(at=4.0)
    b = tracer.start_span("child-b", at=5.0, parent=root, node="n2")
    leaf = tracer.start_span("leaf", at=6.0, parent=b, node="n2")
    leaf.finish(at=8.0)
    b.finish(at=9.0)
    root.finish(at=10.0)
    return SpanProfile.from_tracer(tracer)


class TestAggregation:

    def test_inclusive_and_exclusive_times(self, known_tree):
        rows = known_tree.by_name()
        assert rows["root"]["inclusive"] == 10.0
        # root self time: 10 - (3 + 4) = 3.
        assert rows["root"]["exclusive"] == 3.0
        assert rows["child-a"]["inclusive"] == 3.0
        assert rows["child-a"]["exclusive"] == 3.0
        # child-b self time: 4 - 2 (leaf).
        assert rows["child-b"]["exclusive"] == 2.0
        assert rows["leaf"]["inclusive"] == 2.0

    def test_recursion_does_not_double_count_inclusive(self):
        profile = SpanProfile()
        profile.add({"name": "op", "trace_id": "t1", "span_id": "s1",
                     "parent_id": None, "start": 0.0, "end": 10.0})
        profile.add({"name": "op", "trace_id": "t1", "span_id": "s2",
                     "parent_id": "s1", "start": 2.0, "end": 6.0})
        rows = profile.by_name()
        # The nested same-name span adds exclusive but not inclusive.
        assert rows["op"]["inclusive"] == 10.0
        assert rows["op"]["exclusive"] == 10.0
        assert rows["op"]["count"] == 2

    def test_child_outliving_parent_clamps_exclusive_at_zero(self):
        profile = SpanProfile()
        profile.add({"name": "parent", "trace_id": "t1", "span_id": "s1",
                     "parent_id": None, "start": 0.0, "end": 1.0})
        profile.add({"name": "late", "trace_id": "t1", "span_id": "s2",
                     "parent_id": "s1", "start": 0.5, "end": 5.0})
        rows = profile.by_name()
        assert rows["parent"]["exclusive"] == 0.0

    def test_by_node_groups_on_attribute(self, known_tree):
        rows = known_tree.by_node()
        assert set(rows) == {"n1", "n2"}
        assert rows["n2"]["count"] == 2

    def test_unfinished_spans_are_ignored(self):
        tracer = obs.Tracer()
        tracer.start_span("open", at=0.0)
        profile = SpanProfile.from_tracer(tracer)
        assert len(profile) == 0

    def test_orphans_counted_when_ancestry_evicted(self):
        profile = SpanProfile()
        profile.add({"name": "leaf", "trace_id": "t1", "span_id": "s2",
                     "parent_id": "gone", "start": 0.0, "end": 1.0})
        profile.by_name()
        assert profile.orphans == 1


class TestFolded:

    def test_folded_lines_are_full_stacks_in_microseconds(self, known_tree):
        lines = known_tree.folded()
        assert "root 3000000" in lines
        assert "root;child-a 3000000" in lines
        assert "root;child-b 2000000" in lines
        assert "root;child-b;leaf 2000000" in lines

    def test_folded_is_sorted_and_deterministic(self, known_tree):
        assert known_tree.folded() == sorted(known_tree.folded())

    def test_dump_folded_writes_lines(self, known_tree, tmp_path):
        path = str(tmp_path / "out.folded")
        count = known_tree.dump_folded(path)
        with open(path) as handle:
            assert len(handle.read().splitlines()) == count


class TestActorSpans:

    def test_named_processes_get_actor_run_spans(self):
        with obs.use_tracer(obs.Tracer()) as tracer:
            env = Environment()

            def worker(env):
                yield env.timeout(2.5)

            env.process(worker(env), name="worker-0")
            env.run()
        actors = [s for s in tracer.spans if s.name == "actor.run"]
        assert len(actors) == 1
        assert actors[0].attributes["actor"] == "worker-0"
        assert actors[0].end == 2.5

    def test_unnamed_processes_add_no_spans(self):
        with obs.use_tracer(obs.Tracer()) as tracer:
            env = Environment()

            def worker(env):
                yield env.timeout(1.0)

            env.process(worker(env))
            env.run()
        assert len(tracer.spans) == 0

    def test_profile_attributes_actor_time(self):
        with obs.use_tracer(obs.Tracer()) as tracer:
            env = Environment()

            def worker(env, d):
                yield env.timeout(d)

            env.process(worker(env, 3.0), name="fast")
            env.process(worker(env, 7.0), name="slow")
            env.run()
        rows = SpanProfile.from_tracer(tracer).by_actor()
        assert rows["fast"]["inclusive"] == 3.0
        assert rows["slow"]["inclusive"] == 7.0


class TestCLI:

    def test_cli_runs_workload_and_writes_folded(self, tmp_path, capsys):
        folded = str(tmp_path / "run.folded")
        assert main(["traced-rpc", "--seed", "31", "--top", "5",
                     "--folded", folded]) == 0
        out = capsys.readouterr().out
        assert "simulated time by operation" in out
        assert "simulated time by actor" in out
        with open(folded) as handle:
            lines = handle.read().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_cli_from_dump(self, tmp_path, capsys):
        with obs.use_tracer(obs.Tracer()) as tracer:
            env = Environment()

            def worker(env):
                yield env.timeout(1.0)

            env.process(worker(env), name="w")
            env.run()
            path = str(tmp_path / "run.jsonl")
            with obs.use_metrics(obs.MetricsRegistry()):
                obs.dump_jsonl(path, tracer=tracer)
        assert main([path, "--from-dump"]) == 0
        assert "actor.run" in capsys.readouterr().out

    def test_cli_rejects_unknown_workload(self, capsys):
        assert main(["no-such-workload"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_render_profile_top_clips_rows(self, known_tree):
        out = io.StringIO()
        render_profile(known_tree, out=out, top=1)
        assert "more row(s)" in out.getvalue()


class TestFoldedDiff:
    def _write(self, tmp_path, name, lines):
        path = str(tmp_path / name)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return path

    def test_parse_folded_roundtrip(self, tmp_path):
        from repro.obs.profile import parse_folded
        path = self._write(tmp_path, "run.folded",
                           ["root;child 10", "root;child;leaf 7",
                            "", "root 3"])
        assert parse_folded(path) == {
            "root;child": 10, "root;child;leaf": 7, "root": 3}

    def test_parse_folded_rejects_garbage(self, tmp_path):
        from repro.obs.profile import parse_folded
        path = self._write(tmp_path, "bad.folded",
                           ["root;child ten"])
        with pytest.raises(ValueError):
            parse_folded(path)

    def test_diff_groups_by_leaf_operation(self):
        from repro.obs.profile import diff_folded
        old = {"a;net.link": 10, "b;net.link": 5, "a;rpc.call": 7}
        new = {"c;net.link": 15, "a;rpc.call": 4, "a;gc": 2}
        rows = diff_folded(old, new)
        assert rows["net.link"] == {"old": 15, "new": 15, "delta": 0}
        assert rows["rpc.call"] == {"old": 7, "new": 4, "delta": -3}
        assert rows["gc"] == {"old": 0, "new": 2, "delta": 2}

    def test_render_diff_flags_zero_drift(self):
        from repro.obs.profile import diff_folded, render_diff
        out = io.StringIO()
        render_diff(diff_folded({"a;x": 5}, {"b;x": 5}), out=out)
        assert "no simulated-time drift" in out.getvalue()

    def test_render_diff_totals_nonzero_drift(self):
        from repro.obs.profile import diff_folded, render_diff
        out = io.StringIO()
        render_diff(diff_folded({"x": 5}, {"x": 9}), out=out)
        assert "total drift" in out.getvalue()

    def test_cli_diff(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.folded", ["root;leaf 10"])
        new = self._write(tmp_path, "new.folded", ["root;leaf 10"])
        assert main(["--diff", old, new]) == 0
        captured = capsys.readouterr()
        assert "no simulated-time drift" in captured.out

    def test_cli_diff_runs_without_a_warning(self, tmp_path):
        """The claim workflow's command (bench/README.md): the package
        must not import the module ``-m`` is about to run."""
        old = self._write(tmp_path, "old.folded", ["root;leaf 10"])
        new = self._write(tmp_path, "new.folded", ["root;leaf 12"])
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.obs.profile",
             "--diff", old, new],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        assert "total drift" in run.stdout

    def test_cli_diff_missing_file(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.folded", ["root 1"])
        assert main(["--diff", old, str(tmp_path / "absent.folded")]) == 2

    def test_cli_requires_workload_or_diff(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_cli_folded_dumps_of_one_workload_diff_clean(self, tmp_path,
                                                         capsys):
        """Profile the same workload twice, --diff the folded dumps,
        read zero drift."""
        old = str(tmp_path / "first.folded")
        new = str(tmp_path / "second.folded")
        assert main(["traced-rpc", "--folded", old]) == 0
        assert main(["traced-rpc", "--folded", new]) == 0
        assert main(["--diff", old, new]) == 0
        assert "no simulated-time drift" in capsys.readouterr().out
