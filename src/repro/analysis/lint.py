"""Determinism lint: AST rules that keep the simulator replayable.

Every rule flags a construct that can silently break bit-for-bit
replay of a simulation run.  It runs as the ``lint`` pass of the one
static CLI::

    PYTHONPATH=src python -m repro.analysis.check src/ --passes lint

========  ==============================================================
code      hazard
========  ==============================================================
RPR001    wall-clock read (``time.time()``, ``datetime.now()``, …)
RPR002    RNG constructed or used outside :mod:`repro.sim.rng`
RPR003    iteration over an unordered ``set`` without ``sorted(...)``
RPR004    ``id()``-based ordering, comparison or hashing
RPR005    module-level mutable state (``itertools.count``, dict/list
          literals bound to non-constant names)
RPR006    float ``==`` / ``!=`` on simulated time (``env.now``)
========  ==============================================================

Findings on a line are suppressed by a trailing (or immediately
preceding) comment ``# repro: allow-RPRxxx`` — several codes may be
listed, comma-separated, and prose may follow::

    self._rng = rng or random.Random(0)  # repro: allow-RPR002 (seeded)

Rules are pluggable: registering a new one is decorating a generator of
``(node, message)`` pairs with :func:`rule`.
"""

from __future__ import annotations

import ast
import os
import re
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Set, Tuple)

RuleCheck = Callable[[ast.Module, str], Iterator[Tuple[ast.AST, str]]]

#: Files exempt from RPR002 (the blessed RNG factory itself).
RNG_HOME = "sim/rng.py"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow-((?:RPR\d+)(?:\s*,\s*RPR\d+)*)")


def node_span(node: ast.AST) -> Tuple[int, int]:
    """(first, last) source line of ``node``, decorators included.

    Decorator lines count as part of a ``def``'s span so a suppression
    comment above the decorators still covers a finding anchored at the
    ``def`` line.
    """
    start = getattr(node, "lineno", 0)
    end = getattr(node, "end_lineno", None) or start
    for decorator in getattr(node, "decorator_list", ()):
        start = min(start, decorator.lineno)
    return start, end


class Finding:
    """One analyzer hit: a rule violated at a source location.

    ``line``/``col`` anchor the report; ``suppress_from``/``end_line``
    bound the source span an ``# repro: allow-...`` comment may sit on
    (multi-line statements, decorated defs).  ``function`` is the
    qualname of the enclosing def when the pass knows it.
    """

    __slots__ = ("path", "line", "col", "code", "message", "hint",
                 "end_line", "suppress_from", "function")

    def __init__(self, path: str, line: int, col: int, code: str,
                 message: str, hint: str,
                 end_line: Optional[int] = None,
                 suppress_from: Optional[int] = None,
                 function: Optional[str] = None) -> None:
        self.path = path
        self.line = line
        self.col = col
        self.code = code
        self.message = message
        self.hint = hint
        self.end_line = end_line if end_line is not None else line
        self.suppress_from = suppress_from if suppress_from is not None \
            else line
        self.function = function

    def render(self) -> str:
        return "{}:{}:{}: {} {} [fix: {}]".format(
            self.path, self.line, self.col, self.code, self.message,
            self.hint)

    def to_dict(self) -> Dict[str, Any]:
        data = {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message,
                "hint": self.hint}
        if self.function is not None:
            data["function"] = self.function
        return data

    def suppressed_by(self, allowed: Dict[int, Set[str]]) -> bool:
        """Is this finding waived by an allow-comment in its span?"""
        for lineno in range(self.suppress_from, self.end_line + 1):
            if self.code in allowed.get(lineno, ()):
                return True
        return False

    def __repr__(self) -> str:
        return "<Finding {} {}:{}>".format(self.code, self.path, self.line)


class Rule:
    """A registered lint rule: code, summary, fix-hint and checker."""

    __slots__ = ("code", "summary", "hint", "check")

    def __init__(self, code: str, summary: str, hint: str,
                 check: RuleCheck) -> None:
        self.code = code
        self.summary = summary
        self.hint = hint
        self.check = check

    def run(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node, message in self.check(tree, path):
            start, end = node_span(node)
            yield Finding(path, getattr(node, "lineno", 0),
                          getattr(node, "col_offset", 0) + 1,
                          self.code, message, self.hint,
                          end_line=end, suppress_from=start)

    def __repr__(self) -> str:
        return "<Rule {} {}>".format(self.code, self.summary)


RULES: List[Rule] = []


def rule(code: str, summary: str, hint: str) -> Callable[[RuleCheck],
                                                         RuleCheck]:
    """Register a checker under ``code`` (the pluggable-rule hook)."""
    def decorate(check: RuleCheck) -> RuleCheck:
        RULES.append(Rule(code, summary, hint, check))
        return check
    return decorate


# -- helpers ---------------------------------------------------------------

def _posix(path: str) -> str:
    return path.replace(os.sep, "/")


def call_name(node: ast.AST) -> str:
    """Dotted name of a call target (``""`` when not a simple chain)."""
    if isinstance(node, ast.Call):
        node = node.func
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expr(node: ast.AST) -> bool:
    """Is the expression syntactically an unordered set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _contains_id_call(node: ast.AST) -> bool:
    return any(isinstance(child, ast.Call)
               and isinstance(child.func, ast.Name)
               and child.func.id == "id"
               for child in ast.walk(node))


def _rng_import_aliases(tree: ast.Module) -> Set[str]:
    """Names bound by ``from random import ...`` in this module."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                aliases.add(alias.asname or alias.name)
    return aliases


# -- rules -----------------------------------------------------------------

_WALL_CLOCK_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
    "localtime", "gmtime", "sleep",
}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}


@rule("RPR001", "wall-clock read in simulator code",
      "take timestamps from Environment.now; the sim clock is the only "
      "clock")
def check_wall_clock(tree: ast.Module, path: str
                     ) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        base = node.func.value
        attr = node.func.attr
        if isinstance(base, ast.Name) and base.id == "time" \
                and attr in _WALL_CLOCK_TIME:
            yield node, "time.{}() reads the wall clock".format(attr)
        elif attr in _WALL_CLOCK_DATETIME and (
                (isinstance(base, ast.Name)
                 and base.id in ("datetime", "date"))
                or (isinstance(base, ast.Attribute)
                    and base.attr in ("datetime", "date"))):
            base_name = base.id if isinstance(base, ast.Name) else base.attr
            yield node, "{}.{}() reads the wall clock".format(
                base_name, attr)


@rule("RPR002", "random number source outside sim.rng",
      "draw from a named RandomStreams stream so one experiment seed "
      "governs every subsystem")
def check_foreign_rng(tree: ast.Module, path: str
                      ) -> Iterator[Tuple[ast.AST, str]]:
    if _posix(path).endswith(RNG_HOME):
        return
    aliases = _rng_import_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name.startswith("random."):
            yield node, "{}() bypasses sim.rng.RandomStreams".format(name)
        elif isinstance(node.func, ast.Name) and node.func.id in aliases:
            yield node, ("{}() (imported from random) bypasses "
                         "sim.rng.RandomStreams".format(node.func.id))


#: Builtins whose result does not depend on their argument's iteration
#: order — a set (or hash-ordered materialisation of one) consumed by
#: these is deterministic, so RPR003 must not fire inside them.
_ORDER_INSENSITIVE = {"sorted", "min", "max", "sum", "len", "any", "all",
                      "set", "frozenset"}


def _order_insensitive_nodes(tree: ast.Module) -> Set[int]:
    """ids of nodes nested inside an order-insensitive consumer call.

    Covers the ``sorted(set(...))`` / ``sorted(list(set(...)))`` /
    ``sorted(d.items())`` wrapper family: everything syntactically
    inside ``sorted(...)``'s arguments is exempt from RPR003 because
    the wrapper imposes (or ignores) order.
    """
    exempt: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_INSENSITIVE:
            for arg in node.args:
                for child in ast.walk(arg):
                    exempt.add(id(child))
    return exempt


@rule("RPR003", "iteration over an unordered set",
      "wrap the set in sorted(...) before iterating; set order depends "
      "on PYTHONHASHSEED")
def check_unordered_iteration(tree: ast.Module, path: str
                              ) -> Iterator[Tuple[ast.AST, str]]:
    exempt = _order_insensitive_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_set_expr(node.iter):
            yield node.iter, "for-loop iterates over a set"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter) \
                        and id(generator.iter) not in exempt:  # repro: allow-RPR004 (identity membership, not ordering)
                    yield generator.iter, \
                        "comprehension iterates over a set"
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("list", "tuple", "enumerate") and \
                node.args and _is_set_expr(node.args[0]) and \
                id(node) not in exempt:  # repro: allow-RPR004 (identity membership, not ordering)
            yield node, "{}() materialises a set in hash order".format(
                node.func.id)


@rule("RPR004", "id()-based ordering or hashing",
      "order by a stable attribute (name, sequence number); id() varies "
      "between runs")
def check_id_ordering(tree: ast.Module, path: str
                      ) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = call_name(node)
            is_sorter = (isinstance(node.func, ast.Name)
                         and node.func.id in ("sorted", "min", "max")) \
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort")
            if is_sorter:
                for keyword in node.keywords:
                    if keyword.arg != "key":
                        continue
                    value = keyword.value
                    if (isinstance(value, ast.Name) and value.id == "id") \
                            or _contains_id_call(value):
                        yield node, \
                            "{} ordered by id()".format(name or "sort")
            elif isinstance(node.func, ast.Name) \
                    and node.func.id == "hash" and node.args \
                    and _contains_id_call(node.args[0]):
                yield node, "hash(id(...)) varies between runs"
        elif isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            if any(isinstance(op, ast.Call)
                   and isinstance(op.func, ast.Name)
                   and op.func.id == "id" for op in operands):
                yield node, "comparison of id() values"


_MUTABLE_FACTORIES = {
    "dict", "list", "set", "collections.defaultdict", "defaultdict",
    "collections.deque", "deque", "collections.OrderedDict",
    "OrderedDict", "collections.Counter",
}
_COUNTER_FACTORIES = {"itertools.count", "count", "iter"}


@rule("RPR005", "module-level mutable state",
      "move the state onto the owning object (a per-instance counter) "
      "so experiments in one process stay independent")
def check_module_state(tree: ast.Module, path: str
                       ) -> Iterator[Tuple[ast.AST, str]]:
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
            value = statement.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names or value is None:
            continue
        if all(n.startswith("__") and n.endswith("__") for n in names):
            continue
        name = call_name(value)
        if name in _COUNTER_FACTORIES:
            yield statement, ("module-level {}() leaks state across "
                              "experiments in one process".format(name))
            continue
        if all(n == n.upper() for n in names):
            continue  # UPPER_CASE: constant by convention
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)) \
                or name in _MUTABLE_FACTORIES:
            yield statement, ("module-level mutable {} shared by every "
                              "experiment in the process".format(
                                  "literal" if name == "" else name))


@rule("RPR006", "float equality on simulated time",
      "compare simulated times with <=/>= bounds or an explicit "
      "tolerance")
def check_time_equality(tree: ast.Module, path: str
                        ) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left] + list(node.comparators)
        for operand in operands:
            if isinstance(operand, ast.Attribute) \
                    and operand.attr == "now":
                yield node, "== / != on the float simulation clock"
                break


# -- driving ---------------------------------------------------------------

def suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> codes allowed on that line.

    A suppression comment covers its own line and the line below, so it
    can sit at the end of the flagged statement or on its own just
    above.
    """
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = {code.strip() for code in match.group(1).split(",")}
        allowed.setdefault(lineno, set()).update(codes)
        allowed.setdefault(lineno + 1, set()).update(codes)
    return allowed


def lint_tree(tree: ast.Module, path: str) -> List[Finding]:
    """Run every lint rule over a pre-parsed module (no suppression).

    This is the entry point :mod:`repro.analysis.check` drives so the
    whole-repo analyzer parses each file exactly once; suppression and
    sorting are the caller's job there.
    """
    findings: List[Finding] = []
    for lint_rule in RULES:
        findings.extend(lint_rule.run(tree, path))
    return findings


def syntax_error_finding(path: str, error: SyntaxError) -> Finding:
    """The RPR000 finding for an unparseable file."""
    return Finding(path, error.lineno or 0, error.offset or 0,
                   "RPR000", "file does not parse: {}".format(error.msg),
                   "fix the syntax error")


def lint_source(source: str, path: str,
                respect_suppressions: bool = True) -> List[Finding]:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [syntax_error_finding(path, error)]
    allowed = suppressions(source) if respect_suppressions else {}
    findings = [finding for finding in lint_tree(tree, path)
                if not finding.suppressed_by(allowed)]
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def lint_file(path: str, respect_suppressions: bool = True
              ) -> List[Finding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path, respect_suppressions)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".")
                                 and d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)
