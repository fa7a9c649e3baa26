"""Call-graph propagation over the per-function concurrency model.

:mod:`repro.analysis.conc.model` records only what each function does
directly.  The deadlock-relevant facts are transitive: ``submit_many``
never touches ``ServiceMetrics._lock`` itself, but it calls ``admit``
with the batcher lock held and ``admit`` bumps metrics counters, so the
program's lock graph contains ``MicroBatcher._lock ->
ServiceMetrics._lock`` all the same.  This module closes the model over
a name-keyed intra-project call graph:

* ``trans_acquires(f)`` — every lock label ``f`` may take, directly or
  through any callee (fixpoint over the call graph);
* global edges — each function's own nesting edges, plus ``held x
  trans_acquires(callee)`` for every call made under a lock, attributed
  to the call site;
* ``trans_blocking(f)`` — blocking operations reachable from ``f``
  (including condition waits, whose own-lock exemption holds only for
  the lock they release: a caller holding *another* lock still blocks).

The resulting :class:`ProjectAnalysis` is both the backing store for
the REPRO008–REPRO012 lint rules and the oracle the runtime
:class:`~repro.analysis.conc.witness.LockOrderWitness` validates
against: every acquisition edge observed at runtime must appear in
:meth:`ProjectAnalysis.predicted_edges`.
"""

import ast
import os
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from repro.analysis.conc.model import (BlockRecord, FunctionModel,
                                       ProjectModel, Site,
                                       build_project_model)
from repro.analysis.lint.engine import iter_python_files


class GlobalEdge(NamedTuple):
    """One label-level acquisition edge in the whole-program lock graph."""

    src: str
    dst: str
    site: Site
    ascending: bool
    #: Function whose body creates the edge (the caller, for propagated
    #: edges — the site points at the call that reaches the acquire).
    via: str


class BlockingViolation(NamedTuple):
    site: Site
    what: str
    held: Tuple[str, ...]
    via: str


class ProjectAnalysis:
    """The closed (transitive) concurrency model of one file set."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self._trans_acquires: Dict[str, FrozenSet[str]] = {}
        self._trans_blocking: Dict[str, FrozenSet[str]] = {}
        self.edges: Dict[Tuple[str, str], GlobalEdge] = {}
        self.blocking_violations: List[BlockingViolation] = []
        self._close_acquires()
        self._build_edges()
        self._close_blocking()

    # -- fixpoints --------------------------------------------------------
    def _callees(self, fn: FunctionModel) -> Iterable[str]:
        for record in fn.calls:
            if record.callee in self.model.functions:
                yield record.callee

    def _close_acquires(self) -> None:
        acquires = {key: set(fn.acquires)
                    for key, fn in self.model.functions.items()}
        changed = True
        while changed:
            changed = False
            for key, fn in self.model.functions.items():
                mine = acquires[key]
                before = len(mine)
                for callee in self._callees(fn):
                    mine |= acquires[callee]
                if len(mine) != before:
                    changed = True
        self._trans_acquires = {key: frozenset(v)
                                for key, v in acquires.items()}

    def _close_blocking(self) -> None:
        # Descriptions reachable from each function.  Exempt records
        # (a condition wait with nothing *else* held) still propagate:
        # the exemption covers only the lock the wait releases, and a
        # caller may hold a different one.
        blocking = {key: {rec.what for rec in fn.blocking}
                    for key, fn in self.model.functions.items()}
        changed = True
        while changed:
            changed = False
            for key, fn in self.model.functions.items():
                mine = blocking[key]
                before = len(mine)
                for callee in self._callees(fn):
                    mine |= blocking[callee]
                if len(mine) != before:
                    changed = True
        self._trans_blocking = {key: frozenset(v)
                                for key, v in blocking.items()}
        for key, fn in self.model.functions.items():
            for rec in fn.blocking:
                if rec.held and not rec.exempt:
                    self.blocking_violations.append(BlockingViolation(
                        rec.site, rec.what, tuple(sorted(rec.held)), key))
            for call in fn.calls:
                if not call.held or call.callee not in self.model.functions:
                    continue
                reached = self._trans_blocking.get(call.callee, frozenset())
                if reached:
                    what = sorted(reached)[0]
                    self.blocking_violations.append(BlockingViolation(
                        call.site,
                        f"call to {call.callee} (reaches: {what})",
                        tuple(sorted(call.held)), key))

    def _build_edges(self) -> None:
        for key, fn in self.model.functions.items():
            for (src, dst), (site, ascending) in fn.edges.items():
                self._add_edge(GlobalEdge(src, dst, site, ascending, key))
            for call in fn.calls:
                if not call.held or call.callee not in self.model.functions:
                    continue
                callee_fn = self.model.functions[call.callee]
                entry = frozenset(callee_fn.entry_held)
                for dst in self._trans_acquires.get(call.callee, ()):
                    if dst in entry:
                        # The callee expects this lock already held
                        # (@holds): the caller's acquisition is the one
                        # on record, not a re-acquire.
                        continue
                    for src in call.held:
                        self._add_edge(GlobalEdge(
                            src, dst, call.site, False, key))

    def _add_edge(self, edge: GlobalEdge) -> None:
        current = self.edges.get((edge.src, edge.dst))
        # Keep the strictest witness: a non-ascending sighting of an
        # edge we previously saw as ascending must win, or a seeded
        # inversion would hide behind the legal sorted loop.
        if current is None or (current.ascending and not edge.ascending):
            self.edges[(edge.src, edge.dst)] = edge

    # -- queries ----------------------------------------------------------
    def predicted_edges(self) -> Set[Tuple[str, str]]:
        """Label pairs the runtime witness is allowed to observe."""
        return set(self.edges)

    def self_deadlocks(self) -> List[GlobalEdge]:
        """Non-ascending same-label edges: a non-reentrant self-wait."""
        return sorted((edge for (src, dst), edge in self.edges.items()
                       if src == dst and not edge.ascending),
                      key=lambda e: (e.site.path, e.site.line))

    def cycles(self) -> List[List[str]]:
        """Elementary cycles (length >= 2) in the label-level graph.

        Ascending same-label self-edges are the sanctioned shard-sweep
        shape and are excluded; non-ascending ones are reported
        separately by :meth:`self_deadlocks`.
        """
        graph: Dict[str, Set[str]] = {}
        for (src, dst) in self.edges:
            if src == dst:
                continue
            graph.setdefault(src, set()).add(dst)
        cycles: List[List[str]] = []
        seen: Set[Tuple[str, ...]] = set()
        for start in sorted(graph):
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for succ in sorted(graph.get(node, ())):
                    if succ == start and len(path) >= 2:
                        canon = min(tuple(path[i:] + path[:i])
                                    for i in range(len(path)))
                        if canon not in seen:
                            seen.add(canon)
                            cycles.append(path + [start])
                    elif succ not in path and succ > start:
                        # Only explore nodes ordered after the start so
                        # each elementary cycle is found exactly once.
                        stack.append((succ, path + [succ]))
        return cycles

    def edge_for(self, src: str, dst: str) -> Optional[GlobalEdge]:
        return self.edges.get((src, dst))


def analyze_project(model: ProjectModel) -> ProjectAnalysis:
    return ProjectAnalysis(model)


def analyze_files(files: Sequence[Tuple[str, ast.AST]]) -> ProjectAnalysis:
    return ProjectAnalysis(build_project_model(files))


def analyze_paths(paths: Iterable[str]) -> ProjectAnalysis:
    """Parse every ``.py`` under ``paths`` and analyze them as one project."""
    files: List[Tuple[str, ast.AST]] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        files.append((path.replace(os.sep, "/"),
                      ast.parse(source, filename=path)))
    return analyze_files(files)

