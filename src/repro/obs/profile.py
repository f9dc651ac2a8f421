"""Sim-time profiler: where does *simulated* time go?

Wall-clock profilers answer "where does the CPU go"; for a discrete-event
simulation the interesting question is where the *modelled* seconds go —
which operations, nodes and actors account for the latency the users of
the cooperative platform would experience.  :class:`SpanProfile` answers
it from span enter/exit data already collected by the tracer:

* **inclusive** time — a span's full duration (double-counting guarded:
  a span nested under a same-keyed ancestor contributes only to
  exclusive time, so recursion does not inflate totals);
* **exclusive** (self) time — duration minus child spans, clamped at
  zero (children that outlive their parent, e.g. a response packet in
  flight after ``rpc.serve`` finished, cannot drive it negative).

The folded-stacks exporter emits the classic one-line-per-stack format
(``root;child;leaf <µs>``) consumed by ``flamegraph.pl`` and
`speedscope <https://speedscope.app>`_, so a flame graph of simulated
time is one command away::

    PYTHONPATH=src python -m repro.obs.profile traced-rpc \\
        --folded run.folded --top 15

Per-actor accounting comes from the ``actor.run`` spans opened by
``Environment.process(generator, name=...)`` and from any span carrying
an ``actor`` attribute.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs._cli import (
    describe_meta,
    extract_meta,
    load_dump_records,
    render_table,
    row_count,
)
from repro.obs.span import Span

#: Folded-stack values are integer microseconds of simulated time.
MICROSECONDS = 1e6


class _Row:
    """Aggregated inclusive/exclusive time for one profile key."""

    __slots__ = ("key", "count", "inclusive", "exclusive")

    def __init__(self, key: str) -> None:
        self.key = key
        self.count = 0
        self.inclusive = 0.0
        self.exclusive = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "inclusive": self.inclusive,
                "exclusive": self.exclusive}


def _as_record(span: Any) -> Dict[str, Any]:
    """Normalise a :class:`Span` or a JSONL span dict to one shape."""
    if isinstance(span, Span):
        return span.to_dict()
    return span


class SpanProfile:
    """Inclusive/exclusive simulated-time accounting over finished spans.

    Build one from a tracer (:meth:`from_tracer`), a JSONL dump
    (:meth:`from_records`) or incrementally with :meth:`add`; all
    aggregations are recomputed lazily and returned in sorted, stable
    order so profiles of deterministic runs are themselves deterministic.
    """

    def __init__(self) -> None:
        self._spans: List[Dict[str, Any]] = []
        self._prepared = False
        self._by_id: Dict[str, Dict[str, Any]] = {}
        self._exclusive: Dict[str, float] = {}
        #: Spans whose parent was not observed (evicted or unfinished).
        self.orphans = 0

    @classmethod
    def from_tracer(cls, tracer) -> "SpanProfile":
        profile = cls()
        for span in tracer.spans:
            profile.add(span)
        return profile

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, Any]]
                     ) -> "SpanProfile":
        profile = cls()
        for record in records:
            if record.get("kind", "span") == "span":
                profile.add(record)
        return profile

    def add(self, span: Any) -> None:
        """Add one span (unfinished spans are ignored)."""
        record = _as_record(span)
        if record.get("end") is None:
            return
        self._spans.append(record)
        self._prepared = False

    # -- core computation --------------------------------------------------

    def _prepare(self) -> None:
        if self._prepared:
            return
        self._by_id = {record["span_id"]: record for record in self._spans}
        child_time: Dict[str, float] = {}
        self.orphans = 0
        for record in self._spans:
            parent_id = record.get("parent_id")
            if parent_id is not None:
                if parent_id in self._by_id:
                    child_time[parent_id] = child_time.get(parent_id, 0.0) \
                        + (record["end"] - record["start"])
                else:
                    self.orphans += 1
        self._exclusive = {}
        for record in self._spans:
            duration = record["end"] - record["start"]
            self._exclusive[record["span_id"]] = max(
                0.0, duration - child_time.get(record["span_id"], 0.0))
        self._prepared = True

    def _key_of(self, record: Dict[str, Any], by: str) -> Optional[str]:
        if by == "name":
            return record["name"]
        value = record.get("attributes", {}).get(by)
        if value is None and by == "actor" \
                and record["name"] == "actor.run":
            value = record.get("attributes", {}).get("actor")
        return None if value is None else str(value)

    def _has_same_key_ancestor(self, record: Dict[str, Any], by: str,
                               key: str) -> bool:
        parent_id = record.get("parent_id")
        while parent_id is not None:
            parent = self._by_id.get(parent_id)
            if parent is None:
                return False
            if self._key_of(parent, by) == key:
                return True
            parent_id = parent.get("parent_id")
        return False

    def aggregate(self, by: str = "name") -> Dict[str, Dict[str, float]]:
        """Rows keyed by span name (``by="name"``) or a span attribute.

        Exclusive time sums every span with the key; inclusive time only
        sums spans without a same-keyed ancestor, so nesting (recursion,
        an actor's spans under its ``actor.run``) never double-counts.
        """
        self._prepare()
        rows: Dict[str, _Row] = {}
        for record in self._spans:
            key = self._key_of(record, by)
            if key is None:
                continue
            row = rows.get(key)
            if row is None:
                row = rows[key] = _Row(key)
            row.count += 1
            row.exclusive += self._exclusive[record["span_id"]]
            if not self._has_same_key_ancestor(record, by, key):
                row.inclusive += record["end"] - record["start"]
        return {key: rows[key].as_dict() for key in sorted(rows)}

    def by_name(self) -> Dict[str, Dict[str, float]]:
        return self.aggregate("name")

    def by_node(self) -> Dict[str, Dict[str, float]]:
        return self.aggregate("node")

    def by_actor(self) -> Dict[str, Dict[str, float]]:
        return self.aggregate("actor")

    # -- exports -----------------------------------------------------------

    def folded(self) -> List[str]:
        """Folded-stack lines (``a;b;c <µs>``) of exclusive sim time.

        Stacks are span-name paths from the root; spans whose ancestry
        was evicted from the ring buffer start their stack at the first
        retained ancestor.  Zero-weight stacks are dropped.
        """
        self._prepare()
        weights: Dict[str, int] = {}
        for record in self._spans:
            value = int(round(
                self._exclusive[record["span_id"]] * MICROSECONDS))
            if value <= 0:
                continue
            names = [record["name"]]
            parent_id = record.get("parent_id")
            while parent_id is not None:
                parent = self._by_id.get(parent_id)
                if parent is None:
                    break
                names.append(parent["name"])
                parent_id = parent.get("parent_id")
            stack = ";".join(reversed(names))
            weights[stack] = weights.get(stack, 0) + value
        return ["{} {}".format(stack, weights[stack])
                for stack in sorted(weights)]

    def dump_folded(self, path: str) -> int:
        """Write folded stacks to ``path``; returns the line count."""
        lines = self.folded()
        with open(path, "w") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)

    def span_window(self) -> Tuple[float, float]:
        """(earliest start, latest end) over the profiled spans."""
        if not self._spans:
            return (0.0, 0.0)
        return (min(r["start"] for r in self._spans),
                max(r["end"] for r in self._spans))

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return "<SpanProfile spans={}>".format(len(self._spans))


# -- folded-dump diffing ---------------------------------------------------


def parse_folded(path: str) -> Dict[str, int]:
    """Read a folded-stacks dump back into ``{stack: microseconds}``.

    Accepts exactly what :meth:`SpanProfile.dump_folded` writes (and what
    flamegraph.pl consumes): one ``a;b;leaf <integer-µs>`` entry per
    line.  Blank lines are ignored; anything else raises ``ValueError``
    so a truncated dump fails loudly instead of diffing as zeros.
    """
    weights: Dict[str, int] = {}
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            stack, _, value = line.rpartition(" ")
            if not stack or not value.lstrip("-").isdigit():
                raise ValueError(
                    "{}:{}: not a folded-stack line: {!r}".format(
                        path, number, line))
            weights[stack] = weights.get(stack, 0) + int(value)
    return weights


def diff_folded(old: Dict[str, int], new: Dict[str, int]
                ) -> Dict[str, Dict[str, int]]:
    """Per-leaf-operation sim-time deltas between two folded dumps.

    Stacks are grouped by their leaf span name (the operation that
    actually accrued the exclusive time), so the diff survives ancestry
    changes like a span gaining a parent.  Returns
    ``{operation: {"old": µs, "new": µs, "delta": µs}}`` for every
    operation present in either dump.
    """
    def by_leaf(weights: Dict[str, int]) -> Dict[str, int]:
        leaves: Dict[str, int] = {}
        for stack, value in weights.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + value
        return leaves

    old_leaves, new_leaves = by_leaf(old), by_leaf(new)
    return {
        leaf: {
            "old": old_leaves.get(leaf, 0),
            "new": new_leaves.get(leaf, 0),
            "delta": new_leaves.get(leaf, 0) - old_leaves.get(leaf, 0),
        }
        for leaf in sorted(set(old_leaves) | set(new_leaves))
    }


def render_diff(rows: Dict[str, Dict[str, int]], out=None) -> None:
    """Print a folded-dump diff, biggest |delta| first.

    An all-zero delta column is called out explicitly: identical
    simulated-time profiles are the expected proof that a performance
    change did not alter behaviour.
    """
    out = out if out is not None else sys.stdout
    ordered = sorted(rows.items(),
                     key=lambda item: (-abs(item[1]["delta"]), item[0]))
    render_table("simulated time by operation (old vs new)",
                 ["operation", "old (s)", "new (s)", "delta (s)"],
                 [(leaf, row["old"] / MICROSECONDS,
                   row["new"] / MICROSECONDS, row["delta"] / MICROSECONDS)
                  for leaf, row in ordered], out=out)
    total = sum(row["delta"] for row in rows.values())
    if rows and all(row["delta"] == 0 for row in rows.values()):
        out.write("\nno simulated-time drift: the two runs spent sim time "
                  "identically (behaviour preserved)\n")
    else:
        out.write("\ntotal drift: {:+.6g}s simulated\n".format(
            total / MICROSECONDS))


# -- CLI -------------------------------------------------------------------


def render_profile(profile: SpanProfile, out=None,
                   top: Optional[int] = None) -> None:
    """Print the by-operation / by-node / by-actor tables to ``out``."""
    out = out if out is not None else sys.stdout
    start, end = profile.span_window()
    out.write("{} finished spans over [{:.4g}s .. {:.4g}s] simulated\n"
              .format(len(profile), start, end))
    for by, title in (("name", "simulated time by operation"),
                      ("node", "simulated time by node"),
                      ("actor", "simulated time by actor")):
        rows = profile.aggregate(by)
        if not rows:
            continue
        ordered = sorted(rows.items(),
                         key=lambda item: (-item[1]["exclusive"], item[0]))
        render_table(title,
                     [by, "count", "inclusive (s)", "exclusive (s)"],
                     [(key, int(row["count"]), row["inclusive"],
                       row["exclusive"]) for key, row in ordered],
                     out=out, top=top)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Profile simulated time for a registered workload "
                    "(see repro.analysis.workloads) or a JSONL dump.")
    parser.add_argument("workload", nargs="?",
                        help="workload name (see python -m "
                             "repro.analysis.replay --list), or a path to a "
                             "dump_jsonl() file when --from-dump is given; "
                             "not used with --diff")
    parser.add_argument("--seed", type=int, default=31,
                        help="experiment seed (default 31)")
    parser.add_argument("--top", type=row_count, default=None,
                        metavar="N", help="show at most N rows per table")
    parser.add_argument("--folded", metavar="PATH",
                        help="also write folded stacks (flamegraph.pl / "
                             "speedscope input) to PATH")
    parser.add_argument("--from-dump", action="store_true",
                        help="treat the positional argument as a JSONL "
                             "dump instead of a workload name")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two folded dumps (--folded output) "
                             "and print per-operation sim-time deltas; "
                             "an all-zero diff proves two runs spent "
                             "simulated time identically")
    options = parser.parse_args(argv)

    if options.diff:
        old_path, new_path = options.diff
        try:
            old, new = parse_folded(old_path), parse_folded(new_path)
        except (OSError, ValueError) as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return 2
        render_diff(diff_folded(old, new))
        return 0

    if options.workload is None:
        parser.error("a workload (or --diff OLD NEW) is required")

    if options.from_dump:
        records = load_dump_records(options.workload)
        if records is None:
            return 2
        meta_line = describe_meta(extract_meta(records))
        if meta_line is not None:
            print(meta_line)
        profile = SpanProfile.from_records(records)
    else:
        # Imported here: the workload registry pulls in most of the
        # library, which --from-dump users should not have to pay for.
        from repro.analysis.workloads import WORKLOADS

        if options.workload not in WORKLOADS:
            print("error: unknown workload {!r}; known: {}".format(
                options.workload, ", ".join(sorted(WORKLOADS))),
                file=sys.stderr)
            return 2
        from repro.analysis.replay import run_isolated
        from repro.obs.tracer import Tracer
        tracer = Tracer()
        run_isolated(options.workload, options.seed, tracer=tracer)
        profile = SpanProfile.from_tracer(tracer)
        if not len(profile):
            print("note: workload {!r} emitted no finished spans".format(
                options.workload), file=sys.stderr)

    render_profile(profile, top=options.top)
    if options.folded:
        lines = profile.dump_folded(options.folded)
        print("\nwrote {} folded stack(s) to {}".format(
            lines, options.folded))
    return 0


if __name__ == "__main__":
    sys.exit(main())
