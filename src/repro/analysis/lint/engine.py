"""Lint engine: file walking, suppression parsing, rule dispatch.

Linting is two-phase so rules can use whole-project facts (e.g. the set of
frozen result classes) when judging a single file:

1. every file is parsed into a :class:`SourceFile`; each rule's ``scan``
   hook observes all of them and accumulates project-wide context;
2. each rule's ``check`` hook yields :class:`LintViolation` findings per
   file, which the engine filters through ``# repro: noqa`` suppressions.

Suppression syntax, on the offending statement::

    something_flagged()  # repro: noqa[REPRO001]
    something_flagged()  # repro: noqa[REPRO001,REPRO005]
    something_flagged()  # repro: noqa

The bare form suppresses every rule; prefer the targeted form so
unrelated regressions on the same statement still surface.  A
suppression anywhere on a multi-line statement covers the whole
statement — a violation reported on a continuation line is silenced by
a ``noqa`` on the opening line (and vice versa).  Only real comments
count: the marker inside a string literal is inert.
"""

import ast
import io
import os
import re
import tokenize
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

#: ``# repro: noqa`` / ``# repro: noqa[REPRO001,REPRO002]``
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")


class LintViolation(NamedTuple):
    """One finding: where, which rule, and what went wrong."""

    path: str
    line: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"


class SourceFile:
    """A parsed source file plus its suppression map."""

    def __init__(self, path: str, source: str):
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: line -> suppressed rule ids (``None`` means "all rules").
        #: Populated from COMMENT tokens only, so the marker inside a
        #: string literal never suppresses anything.
        self.noqa: Dict[int, Optional[FrozenSet[str]]] = {}
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match:
                ids = match.group(1)
                self.noqa[token.start[0]] = (
                    frozenset(p.strip() for p in ids.split(",") if p.strip())
                    if ids else None
                )
        #: line -> (first, last) line of the smallest simple statement
        #: covering it — a suppression anywhere in that span silences
        #: violations reported anywhere else in it.  Compound statements
        #: contribute their header only (their bodies' own statements
        #: cover the rest), so a ``noqa`` on a ``with``/``if`` line does
        #: not blanket the whole block.
        self._stmt_span: Dict[int, Tuple[int, int]] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt) or node.end_lineno is None:
                continue
            body = getattr(node, "body", None)
            if isinstance(body, list) and body:
                last = max(node.lineno, body[0].lineno - 1)
            else:
                last = node.end_lineno
            for lineno in range(node.lineno, last + 1):
                span = self._stmt_span.get(lineno)
                # Smallest enclosing statement wins (walk order is not
                # guaranteed innermost-last, so compare span widths).
                if span is None or last - node.lineno < span[1] - span[0]:
                    self._stmt_span[lineno] = (node.lineno, last)

    def suppressed(self, line: int, rule_id: str) -> bool:
        first, last = self._stmt_span.get(line, (line, line))
        for lineno in range(first, last + 1):
            if lineno in self.noqa:
                ids = self.noqa[lineno]
                if ids is None or rule_id in ids:
                    return True
        return False


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Every ``.py`` file under ``paths`` (files or directories), in a
    stable order, skipping ``__pycache__`` and ``.git``."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                out.extend(os.path.join(root, f) for f in sorted(files)
                           if f.endswith(".py"))
        elif path.endswith(".py"):
            out.append(path)
    return out


def _run(files: List[SourceFile], rules) -> List[LintViolation]:
    from repro.analysis.lint.rules import RULES
    active = list(RULES if rules is None else rules)
    for rule in active:
        context = {}
        for file in files:
            rule.scan(file, context)
        rule.context = context
    violations: List[LintViolation] = []
    for file in files:
        for rule in active:
            for violation in rule.check(file, rule.context):
                if not file.suppressed(violation.line, violation.rule_id):
                    violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.rule_id))
    return violations


def lint_paths(paths: Iterable[str], rules=None) -> List[LintViolation]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            files.append(SourceFile(path, fh.read()))
    return _run(files, rules)


def lint_source(source: str, path: str = "src/repro/sim/snippet.py",
                rules=None) -> List[LintViolation]:
    """Lint one in-memory snippet as if it lived at ``path``.

    The path decides which rules apply (deterministic zone, hot-function
    catalogue, scheme modules), so tests can aim a snippet at any rule.
    """
    return _run([SourceFile(path, source)], rules)


def format_violations(violations: List[LintViolation]) -> str:
    if not violations:
        return "repro check --static: clean"
    lines = [v.format() for v in violations]
    lines.append(f"{len(violations)} violation(s)")
    return "\n".join(lines)
