"""Sim-protocol checker: generator actors vs the kernel's contract.

The kernel (:mod:`repro.sim`) drives *actors* — generator functions that
yield :class:`~repro.sim.events.Event` objects and are resumed when the
event fires.  The contract is easy to break silently:

* an ``env.timeout(...)`` whose result is **not yielded** schedules a
  timer nobody waits for — the actor runs on without pausing;
* a **bare** ``yield`` (or a yield of a literal constant) suspends the
  actor forever: the kernel only resumes processes via event callbacks;
* calling ``succeed()`` / ``fail()`` / ``trigger()`` **twice** on the
  same event along one path raises ``SimulationError`` at runtime;
* calling ``env.run()`` / ``env.step()`` from *inside* an actor
  re-enters the event loop — and a ``# repro: fast-path`` marked
  function must not use context-manager resource claims (``with
  ...request()``), whose protocol overhead the marker exists to forbid
  (see ``repro.net.network._Carrier``).

========  =============================================================
code      violation
========  =============================================================
RPR201    event factory result discarded (never yielded)
RPR202    bare ``yield`` / yield of a non-event constant in an actor
RPR203    ``succeed``/``fail``/``trigger`` twice on one event in a path
RPR204    blocking construct in an actor or ``fast-path`` function
========  =============================================================

An *actor* here is a generator whose own body references the simulation
environment (an ``env`` parameter or an ``.env`` attribute); ordinary
iterator generators are exempt.  The ``return``-then-``yield`` idiom
that turns a plain function into a generator (``return`` followed by an
unreachable bare ``yield``) is recognised and allowed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.ir import FunctionInfo, RepoIndex, own_body
from repro.analysis.lint import Finding, call_name, node_span

#: Environment methods returning events an actor must yield.
_EVENT_FACTORIES = {"timeout", "event", "any_of"}

#: Environment methods that re-enter the event loop.
_REENTRANT = {"run", "step"}

#: Event methods that trigger an event (valid at most once).
_TRIGGERS = {"succeed", "fail", "trigger"}

#: ``code -> (summary, hint)``.
RULE_META: Dict[str, Tuple[str, str]] = {
    "RPR201": ("event factory result discarded in an actor",
               "yield the event (or drop the call); an unawaited "
               "timeout never pauses the actor"),
    "RPR202": ("yield of a non-event in an actor",
               "actors must yield Event objects; the kernel never "
               "resumes a process waiting on a bare yield"),
    "RPR203": ("event triggered twice along one path",
               "an event may be succeeded or failed once; create a "
               "fresh event per round"),
    "RPR204": ("blocking construct in an actor or fast-path function",
               "never re-enter the event loop from an actor; fast "
               "paths claim resources explicitly, not via 'with'"),
}


def _references_env(info: FunctionInfo) -> bool:
    args = info.node.args
    params = [arg.arg for arg in
              list(getattr(args, "posonlyargs", [])) + args.args
              + args.kwonlyargs]
    if "env" in params:
        return True
    for node in own_body(info.node):
        if isinstance(node, ast.Name) and node.id == "env":
            return True
        if isinstance(node, ast.Attribute) and node.attr in ("env",
                                                             "_env"):
            return True
    return False


def is_actor(info: FunctionInfo) -> bool:
    """A generator whose own body touches the simulation environment."""
    return info.is_generator and _references_env(info)


def _env_call(parts: List[str], factories) -> bool:
    """Does the dotted call chain hit ``factories`` through ``env``?"""
    return len(parts) >= 2 and parts[-1] in factories \
        and ("env" in parts[:-1] or "_env" in parts[:-1])


def _finding(info: FunctionInfo, node: ast.AST, code: str,
             message: str) -> Finding:
    start, end = node_span(node)
    return Finding(info.path, getattr(node, "lineno", info.lineno),
                   getattr(node, "col_offset", 0) + 1, code, message,
                   RULE_META[code][1], end_line=end,
                   suppress_from=start, function=info.qualname)


# -- RPR201 / RPR202 / RPR204: structural walks ----------------------------

def _check_discarded_events(info: FunctionInfo) -> Iterator[Finding]:
    for node in own_body(info.node):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            parts = call_name(node.value).split(".")
            if _env_call(parts, _EVENT_FACTORIES):
                yield _finding(
                    info, node.value, "RPR201",
                    "{}() result discarded — the actor never waits on "
                    "it".format(".".join(parts)))


def _check_yields(info: FunctionInfo) -> Iterator[Finding]:
    for body in _blocks(info.node):
        previous: Optional[ast.stmt] = None
        for stmt in body:
            if isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, ast.Yield):
                value = stmt.value.value
                if value is None:
                    if not isinstance(previous, ast.Return):
                        yield _finding(
                            info, stmt.value, "RPR202",
                            "bare yield suspends the actor forever")
                elif isinstance(value, ast.Constant):
                    yield _finding(
                        info, stmt.value, "RPR202",
                        "yield of constant {!r} is not an event".format(
                            value.value))
            previous = stmt


def _check_blocking(info: FunctionInfo, actor: bool) -> Iterator[Finding]:
    for node in own_body(info.node):
        if actor and isinstance(node, ast.Call):
            parts = call_name(node).split(".")
            if _env_call(parts, _REENTRANT):
                yield _finding(
                    info, node, "RPR204",
                    "{}() re-enters the event loop from inside an "
                    "actor".format(".".join(parts)))
        if info.fast_path and isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call) \
                        and isinstance(expr.func, ast.Attribute) \
                        and expr.func.attr in ("request", "acquire"):
                    yield _finding(
                        info, expr, "RPR204",
                        "'with ...{}()' claim in a fast-path function; "
                        "claim and release explicitly".format(
                            expr.func.attr))


# -- RPR203: path-sensitive double trigger ---------------------------------

def _check_double_trigger(info: FunctionInfo) -> Iterator[Finding]:
    findings: List[Finding] = []
    reported: set = set()

    def assigned_names(stmt: ast.stmt) -> List[str]:
        names: List[str] = []
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            text = _target_text(target)
            if text:
                names.append(text)
        return names

    def trigger_calls(stmt: ast.stmt) -> List[Tuple[str, ast.Call]]:
        calls: List[Tuple[str, ast.Call]] = []
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _TRIGGERS:
                base = _target_text(node.func.value)
                if base:
                    calls.append((base, node))
        return calls

    def bump(stmt: ast.stmt, counts: Dict[str, int]) -> None:
        for base, node in trigger_calls(stmt):
            counts[base] = counts.get(base, 0) + 1
            key = (getattr(node, "lineno", 0),
                   getattr(node, "col_offset", 0), base)
            if counts[base] == 2 and key not in reported:
                reported.add(key)
                findings.append(_finding(
                    info, node, "RPR203",
                    "'{}' may already be triggered on this path; a "
                    "second {}() raises at runtime".format(
                        base, node.func.attr)))

    def join(first: Optional[Dict[str, int]],
             second: Optional[Dict[str, int]]
             ) -> Optional[Dict[str, int]]:
        if first is None:
            return second
        if second is None:
            return first
        return _merge(first, second)

    def scan(body: List[ast.stmt],
             counts: Dict[str, int]) -> Optional[Dict[str, int]]:
        """Path-sensitive trigger counting.

        Returns the counts flowing past the block, or ``None`` when
        every path through it terminates (``return``/``raise``/
        ``break``/``continue``) — a trigger followed by an exit cannot
        pair with triggers after the block.
        """
        for stmt in body:
            for name in assigned_names(stmt):
                counts[name] = 0
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.Return, ast.Raise, ast.Break,
                                 ast.Continue)):
                bump(stmt, counts)
                return None
            if isinstance(stmt, ast.If):
                merged = join(scan(list(stmt.body), dict(counts)),
                              scan(list(stmt.orelse), dict(counts))
                              if stmt.orelse else dict(counts))
                if merged is None:
                    return None
                counts = merged
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                entry = dict(counts)
                for name in _loop_targets(stmt):
                    entry[name] = 0
                once = scan(list(stmt.body), entry)
                if once is not None:
                    # Second pass over the body: a trigger that does
                    # not exit the loop fires again next iteration.
                    again = dict(once)
                    for name in _loop_targets(stmt):
                        again[name] = 0
                    twice = scan(list(stmt.body), again)
                    counts = _merge(counts,
                                    once if twice is None else twice)
                if stmt.orelse:
                    merged = scan(list(stmt.orelse), dict(counts))
                    if merged is None:
                        return None
                    counts = merged
                continue
            if isinstance(stmt, ast.Try):
                branch = scan(list(stmt.body), dict(counts))
                for handler in stmt.handlers:
                    branch = join(
                        branch, scan(list(handler.body), dict(counts)))
                if branch is not None and stmt.orelse:
                    branch = scan(list(stmt.orelse), branch)
                if stmt.finalbody:
                    final = scan(list(stmt.finalbody),
                                 dict(counts if branch is None
                                      else branch))
                    if branch is None or final is None:
                        return None
                    counts = final
                    continue
                if branch is None:
                    return None
                counts = branch
                continue
            if isinstance(stmt, ast.With):
                inner = scan(list(stmt.body), dict(counts))
                if inner is None:
                    return None
                counts = inner
                continue
            bump(stmt, counts)
        return counts

    scan(list(info.node.body), {})
    return iter(findings)


def _loop_targets(stmt: ast.stmt) -> List[str]:
    """Names rebound by a ``for`` loop header on every iteration."""
    target = getattr(stmt, "target", None)
    if target is None:
        return []
    names: List[str] = []
    for node in ast.walk(target):
        text = _target_text(node)
        if text:
            names.append(text)
    return names


def _merge(first: Dict[str, int],
           second: Dict[str, int]) -> Dict[str, int]:
    merged = dict(first)
    for key, value in second.items():
        merged[key] = max(merged.get(key, 0), value)
    return merged


def _target_text(node: ast.AST) -> str:
    """Dotted text of a simple Name/Attribute chain (else ``""``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# -- pass entry point ------------------------------------------------------

def analyse(index: RepoIndex) -> List[Finding]:
    """Run the protocol checker over every indexed function."""
    findings: List[Finding] = []
    for module in index.modules.values():
        for info in module.functions:
            actor = is_actor(info)
            if actor:
                findings.extend(_check_discarded_events(info))
                findings.extend(_check_yields(info))
                findings.extend(_check_double_trigger(info))
            if actor or info.fast_path:
                findings.extend(_check_blocking(info, actor))
    return findings


def _blocks(func_node: ast.AST) -> Iterator[List[ast.stmt]]:
    """Every statement list in the function's own body."""
    stack: List[ast.AST] = [func_node]
    while stack:
        node = stack.pop()
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if isinstance(body, list) and body \
                    and isinstance(body[0], ast.stmt):
                yield body
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda,
                                      ast.ClassDef)):
                stack.append(child)
