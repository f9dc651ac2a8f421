"""Shared AST index: parse the repo once, analyse it many times.

Both passes of :mod:`repro.analysis.check` (lint and protocol) work
from one :class:`RepoIndex`: each ``.py`` file is parsed exactly once
and its functions, classes, suppression comments and fast-path markers
are tabulated up front.  That is what keeps the analyzer's whole-repo
wall time linear in repo size rather than linear in ``passes × files``.

Terminology used by the passes:

* a **function** is any ``def`` — module-level, method or nested
  (nested functions matter: most simulation actors are closures);
* a **generator** is a function whose *own* body contains ``yield`` /
  ``yield from`` (nested defs do not count);
* a function is **fast-path marked** when a ``# repro: fast-path``
  comment sits on its ``def`` line, a decorator line, or the line
  directly above — the annotation :mod:`repro.analysis.protocol`
  enforces a no-blocking contract on.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.analysis.lint import iter_python_files, node_span, suppressions

_FAST_PATH_RE = re.compile(r"#\s*repro:\s*fast-path")

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def own_body(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own statements, not those of nested scopes.

    Nested ``def`` / ``class`` / ``lambda`` nodes are yielded (so a
    pass can see that they exist) but never descended into — their
    bodies belong to the nested scope's own :class:`FunctionInfo`.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(child))


class FunctionInfo:
    """One ``def`` anywhere in the repo, with its analysis context."""

    __slots__ = ("qualname", "name", "cls", "module", "node", "lineno",
                 "span_start", "is_generator", "fast_path")

    def __init__(self, qualname: str, name: str, cls: Optional[str],
                 module: "ModuleInfo", node: ast.AST) -> None:
        self.qualname = qualname
        self.name = name
        self.cls = cls
        self.module = module
        self.node = node
        self.span_start = node_span(node)[0]
        self.lineno = node.lineno
        self.is_generator = any(
            isinstance(child, (ast.Yield, ast.YieldFrom))
            for child in own_body(node))
        # The marker attaches via the contiguous comment block directly
        # above the def (or a trailing comment on the def line itself).
        lines = module.source.splitlines()
        probe = self.span_start - 1
        while 0 < probe <= len(lines) \
                and lines[probe - 1].lstrip().startswith("#"):
            probe -= 1
        self.fast_path = any(
            line in module.fast_path_lines
            for line in range(probe + 1, self.lineno + 1))

    @property
    def path(self) -> str:
        return self.module.path

    def __repr__(self) -> str:
        return "<FunctionInfo {}>".format(self.qualname)


class ModuleInfo:
    """One parsed source file plus its per-line annotations."""

    __slots__ = ("path", "name", "tree", "source", "functions",
                 "suppressions", "fast_path_lines", "error")

    def __init__(self, path: str, source: str,
                 tree: Optional[ast.Module],
                 error: Optional[SyntaxError] = None) -> None:
        self.path = path
        self.name = module_name(path)
        self.source = source
        self.tree = tree
        self.error = error
        self.functions: List[FunctionInfo] = []
        self.suppressions = suppressions(source)
        self.fast_path_lines: Set[int] = {
            lineno for lineno, line in enumerate(source.splitlines(), 1)
            if _FAST_PATH_RE.search(line)}

    def __repr__(self) -> str:
        return "<ModuleInfo {}>".format(self.name)


def module_name(path: str) -> str:
    """Dotted module name for a file path (``src/`` prefix stripped)."""
    normalized = path.replace(os.sep, "/")
    if normalized.endswith(".py"):
        normalized = normalized[:-3]
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src", "site-packages"):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1:]
            break
    return ".".join(parts)


class RepoIndex:
    """All parsed modules, each with its functions tabulated."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, paths: Iterable[str]) -> "RepoIndex":
        index = cls()
        for path in iter_python_files(paths):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            index.add_source(source, path)
        return index

    def add_source(self, source: str, path: str) -> ModuleInfo:
        """Parse and index one module (the unit tests' entry point)."""
        try:
            tree: Optional[ast.Module] = ast.parse(source, filename=path)
            error: Optional[SyntaxError] = None
        except SyntaxError as exc:
            tree, error = None, exc
        module = ModuleInfo(path, source, tree, error)
        self.modules[path] = module
        if tree is not None:
            self._index_functions(module, tree, module.name, None)
        return module

    def _index_functions(self, module: ModuleInfo, scope: ast.AST,
                         prefix: str, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + "." + child.name
                info = FunctionInfo(qualname, child.name, cls, module,
                                    child)
                module.functions.append(info)
                self._index_functions(module, child, qualname, None)
            elif isinstance(child, ast.ClassDef):
                self._index_functions(module, child,
                                      prefix + "." + child.name,
                                      child.name)
            elif not isinstance(child, ast.Lambda):
                self._index_functions(module, child, prefix, cls)

    def __len__(self) -> int:
        return len(self.modules)

    def __repr__(self) -> str:
        return "<RepoIndex {} modules>".format(len(self.modules))
