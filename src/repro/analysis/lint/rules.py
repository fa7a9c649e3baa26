"""Rule catalogue for ``repro check --static``.

Every rule encodes a discipline this repository depends on for
correctness of the reproduction (determinism, immutability, protocol
conformance) or for the fast-path performance contract established by the
cycle-loop optimisation work (hot-path allocation and counter rules).
Rules carry a stable ID; suppress a finding on its line with
``# repro: noqa[ID]`` (see :mod:`repro.analysis.lint.engine`).

==========  ==========================================================
ID          discipline
==========  ==========================================================
REPRO001    no wall-clock reads inside ``sim/``/``lsq/``/``core/``
REPRO002    no ``random`` module inside ``sim/``/``lsq/``/``core/``
            (use :class:`repro.utils.rng.DeterministicRng`)
REPRO003    no iteration over ``set``s inside the deterministic zone
            (iteration order is not reproducible across processes)
REPRO004    no string-keyed ``CounterSet.bump`` in hot-path functions
            (count in local ints, fold them once per run)
REPRO005    no growable-collection allocation in hot-path functions
            (comprehensions, ``list()``/``dict()``/``set()``, empty
            displays, lambdas)
REPRO006    no post-construction mutation of ``NamedTuple`` / frozen
            dataclass results
REPRO007    scheme classes must conform to the scheme protocol
            (hook names and arities from ``PROTOCOL_HOOKS``), adapter
            classes to the adapter protocol (``SOA_HOOKS``)
==========  ==========================================================
"""

import ast
import re
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.lint.engine import LintViolation, SourceFile
from repro.core.schemes.base import PROTOCOL_HOOKS, SOA_HOOKS

#: Directories (under the ``repro`` package) whose behaviour must be a
#: pure function of (trace, config, seed): simulated state may never read
#: wall clocks, ambient randomness, or unordered-container iteration.
_ZONE_RE = re.compile(r"repro/(sim|lsq|core)/")

#: Functions on the simulator's per-cycle/per-event hot paths, where the
#: cycle-loop fast-path work banned string-keyed counters and growable
#: allocations.  Keyed by path suffix -> set of qualified names.
HOT_FUNCTIONS: Dict[str, Set[str]] = {
    "repro/lsq/queues.py": {
        "sq_forward_search_soa",
        "lq_violation_search_soa",
    },
    # The batched SoA kernel: its fused cycle loop and squash path are
    # the hottest code in the repository.  Construction (``__init__``,
    # ``TraceSoA``, ``LaneView``) is setup and may allocate freely.
    "repro/sim/soa.py": {
        "SoaKernel.run",
        "SoaKernel._squash_from",
        "SoaKernel._free_iq_if_held",
    },
    # The lane walk, the one decoder of a recorded log: a host run's for
    # every lane of its group across seeds, or a forked run's tail for
    # one lane; binding, checkpoints and booking are setup.
    "repro/sim/walk.py": {
        "_Walk.run",
    },
}

_WALLCLOCK_TIME_ATTRS = {
    "time", "perf_counter", "monotonic", "process_time",
    "time_ns", "perf_counter_ns", "monotonic_ns",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}


def _in_zone(path: str) -> bool:
    return _ZONE_RE.search(path) is not None


def _qualname_index(tree: ast.AST) -> List[Tuple[str, ast.AST]]:
    """(qualified name, function node) for every function in the module."""
    out: List[Tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                out.append((name, child))
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


class Rule:
    """Base rule: a stable ID, a one-line summary, scan/check hooks."""

    rule_id = "REPRO000"
    summary = ""

    def __init__(self):
        self.context: dict = {}

    def scan(self, file: SourceFile, context: dict) -> None:
        """Phase 1: accumulate project-wide facts (optional)."""

    def check(self, file: SourceFile, context: dict) -> Iterator[LintViolation]:
        """Phase 2: yield findings for one file."""
        return iter(())

    def violation(self, file: SourceFile, node: ast.AST, message: str) -> LintViolation:
        return LintViolation(file.path, getattr(node, "lineno", 1),
                             self.rule_id, message)


class NoWallClockRule(Rule):
    """No wall-clock reads inside the deterministic zone.

    Simulated behaviour must be a pure function of (trace, config, seed);
    a ``time.time()``/``perf_counter()``/``datetime.now()`` call inside
    ``sim/``, ``lsq/`` or ``core/`` makes runs unreproducible and breaks
    the content-addressed result cache.  Measurement-only uses (timing a
    run for the perf harness) are legitimate — suppress those lines with
    ``# repro: noqa[REPRO001]``.
    """

    rule_id = "REPRO001"
    summary = "no wall-clock reads in sim/, lsq/, core/"

    def check(self, file: SourceFile, context: dict) -> Iterator[LintViolation]:
        if not _in_zone(file.path):
            return
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base, attr = node.value.id, node.attr
                if base == "time" and attr in _WALLCLOCK_TIME_ATTRS:
                    yield self.violation(file, node, f"wall-clock read time.{attr}")
                elif base in ("datetime", "date") and attr in _WALLCLOCK_DATETIME_ATTRS:
                    yield self.violation(file, node, f"wall-clock read {base}.{attr}")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("time", "datetime"):
                    for alias in node.names:
                        if alias.name in (_WALLCLOCK_TIME_ATTRS
                                          | _WALLCLOCK_DATETIME_ATTRS):
                            yield self.violation(
                                file, node,
                                f"imports wall-clock {node.module}.{alias.name}")


class NoAmbientRandomRule(Rule):
    """No ambient randomness inside the deterministic zone.

    All stochastic model behaviour must flow through
    :class:`repro.utils.rng.DeterministicRng` (seeded, stream-split); the
    global ``random`` module (or ``numpy.random``) is shared mutable state
    whose draws depend on import order and other call sites.
    """

    rule_id = "REPRO002"
    summary = "no random module in sim/, lsq/, core/ (use DeterministicRng)"

    def check(self, file: SourceFile, context: dict) -> Iterator[LintViolation]:
        if not _in_zone(file.path):
            return
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("numpy.random"):
                        yield self.violation(file, node,
                                             f"imports ambient RNG {alias.name!r}")
            elif isinstance(node, ast.ImportFrom):
                if node.module and (node.module == "random"
                                    or node.module.startswith("numpy.random")):
                    yield self.violation(file, node,
                                         f"imports from ambient RNG {node.module!r}")
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "random"):
                yield self.violation(file, node,
                                     f"ambient RNG call random.{node.attr}")


class NoSetIterationRule(Rule):
    """No iteration over sets inside the deterministic zone.

    Set iteration order depends on insertion history and (for str keys)
    per-process hash randomisation, so a loop over a set can reorder
    replays, counter folds, or event scheduling between runs.  Membership
    tests are fine; iterate a sorted copy or an insertion-ordered dict
    instead.
    """

    rule_id = "REPRO003"
    summary = "no set iteration in sim/, lsq/, core/"

    def _set_typed(self, file: SourceFile) -> Tuple[Set[str], Set[str]]:
        """Names (locals and ``self.x`` attrs) bound to sets in this file."""
        names: Set[str] = set()
        attrs: Set[str] = set()

        def record(target: ast.AST) -> None:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif (isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self"):
                attrs.add(target.attr)

        def is_set_expr(value) -> bool:
            if isinstance(value, (ast.Set, ast.SetComp)):
                return True
            return (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("set", "frozenset"))

        for node in ast.walk(file.tree):
            if isinstance(node, ast.Assign) and is_set_expr(node.value):
                for target in node.targets:
                    record(target)
            elif isinstance(node, ast.AnnAssign):
                text = ast.dump(node.annotation)
                if "'Set'" in text or "'set'" in text or "'FrozenSet'" in text:
                    record(node.target)
                elif node.value is not None and is_set_expr(node.value):
                    record(node.target)
        return names, attrs

    def check(self, file: SourceFile, context: dict) -> Iterator[LintViolation]:
        if not _in_zone(file.path):
            return
        names, attrs = self._set_typed(file)

        def is_set_iter(expr) -> bool:
            if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                    and expr.func.id in ("set", "frozenset")):
                return True
            if isinstance(expr, ast.Name):
                return expr.id in names
            if (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"):
                return expr.attr in attrs
            return False

        for node in ast.walk(file.tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                if is_set_iter(expr):
                    yield self.violation(
                        file, expr,
                        "iterates a set (nondeterministic order); "
                        "iterate sorted(...) or an ordered dict")


class NoHotPathBumpRule(Rule):
    """No string-keyed counter bumps in hot-path functions.

    ``CounterSet.bump`` hashes a string and touches a defaultdict on every
    call; on per-cycle/per-event paths that cost is measurable.  Hot paths
    count in local ints and fold them into the ``CounterSet`` once per
    run, when the loop ends (``SoaKernel.run``'s closing fold).
    """

    rule_id = "REPRO004"
    summary = "no CounterSet.bump in hot-path functions (count in local ints)"

    def check(self, file: SourceFile, context: dict) -> Iterator[LintViolation]:
        hot = _hot_functions_for(file.path)
        if not hot:
            return
        for qualname, func in _qualname_index(file.tree):
            if qualname not in hot:
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "bump"):
                    yield self.violation(
                        file, node,
                        f"string-keyed bump() inside hot function {qualname}; "
                        f"count in a local int and fold it once per run")


class NoHotPathAllocationRule(Rule):
    """No growable-collection allocation in hot-path functions.

    Comprehensions, ``list()``/``dict()``/``set()`` calls, empty display
    literals and lambdas allocate on every invocation of the function;
    the cycle-loop fast path exists because those allocations dominated
    profiles.  Fixed-size non-empty displays (e.g. a two-element tuple
    result) are allowed.  A deliberate, justified allocation gets a
    ``# repro: noqa[REPRO005]`` with a comment saying why.
    """

    rule_id = "REPRO005"
    summary = "no growable allocation in hot-path functions"

    def check(self, file: SourceFile, context: dict) -> Iterator[LintViolation]:
        hot = _hot_functions_for(file.path)
        if not hot:
            return
        for qualname, func in _qualname_index(file.tree):
            if qualname not in hot:
                continue
            for node in ast.walk(func):
                label = None
                if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                     ast.GeneratorExp)):
                    label = "comprehension"
                elif isinstance(node, ast.Lambda):
                    label = "lambda"
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id in ("list", "dict", "set", "frozenset")):
                    label = f"{node.func.id}() call"
                elif isinstance(node, ast.List) and not node.elts:
                    label = "empty list display"
                elif isinstance(node, ast.Dict) and not node.keys:
                    label = "empty dict display"
                if label is not None:
                    yield self.violation(
                        file, node,
                        f"{label} allocates inside hot function {qualname}")


class NoFrozenMutationRule(Rule):
    """No post-construction mutation of NamedTuple / frozen dataclass results.

    Result records (:class:`repro.lsq.queues.ForwardResult` and friends)
    are immutable by contract; CPython NamedTuples raise on attribute
    assignment only at runtime, and a mutation that "works" (e.g. via a
    shadowing attribute) silently forks the record from its consumers.
    Applies repo-wide: the scan phase collects every NamedTuple subclass
    and ``@dataclass(frozen=True)`` defined in the linted file set.
    """

    rule_id = "REPRO006"
    summary = "no mutation of NamedTuple/frozen dataclass instances"

    def scan(self, file: SourceFile, context: dict) -> None:
        frozen = context.setdefault("frozen_classes", set())
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                name = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else "")
                if name == "NamedTuple":
                    frozen.add(node.name)
            for deco in node.decorator_list:
                if (isinstance(deco, ast.Call)
                        and isinstance(deco.func, ast.Name)
                        and deco.func.id == "dataclass"):
                    for kw in deco.keywords:
                        if (kw.arg == "frozen"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True):
                            frozen.add(node.name)

    def check(self, file: SourceFile, context: dict) -> Iterator[LintViolation]:
        frozen = context.get("frozen_classes", set())
        if not frozen:
            return
        for qualname, func in _qualname_index(file.tree):
            # Intra-function dataflow: names assigned from a frozen-class
            # constructor call, then stored-to through an attribute.
            frozen_locals: Set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    value = node.value
                    if (isinstance(value, ast.Call)
                            and isinstance(value.func, ast.Name)
                            and value.func.id in frozen):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                frozen_locals.add(target.id)
                    else:
                        # Rebinding a tracked name to anything else clears it.
                        for target in node.targets:
                            if (isinstance(target, ast.Name)
                                    and target.id in frozen_locals):
                                frozen_locals.discard(target.id)
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in frozen_locals):
                        yield self.violation(
                            file, target,
                            f"mutates frozen result "
                            f"{target.value.id}.{target.attr} in {qualname}")
            # Self-mutation inside a frozen class's own methods.
            parts = qualname.split(".")
            if len(parts) >= 2 and parts[-2] in frozen and parts[-1] != "__new__":
                for node in ast.walk(func):
                    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                        targets = (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])
                        for target in targets:
                            if (isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"):
                                yield self.violation(
                                    file, target,
                                    f"frozen class {parts[-2]} mutates "
                                    f"self.{target.attr} in {parts[-1]}")


class SchemeProtocolRule(Rule):
    """Scheme and adapter classes must conform to their protocols.

    A scheme meets the pipeline only through the hooks in
    :data:`repro.core.schemes.base.PROTOCOL_HOOKS`, its adapter only
    through those in :data:`~repro.core.schemes.base.SOA_HOOKS`.  A
    subclass defining a hook-shaped method its caller does not know
    (``on_comit``, an extra required parameter) is silently never called
    — the scheme "works" but checks nothing.  Applies to classes in
    ``core/schemes/`` whose bases look like scheme or adapter classes.
    """

    rule_id = "REPRO007"
    summary = "scheme classes must implement the scheme protocol exactly"

    def check(self, file: SourceFile, context: dict) -> Iterator[LintViolation]:
        if "repro/core/schemes/" not in file.path:
            return
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            if node.name == "SoaHooks" or any(n.endswith("SoaHooks") for n in bases):
                protocol, kind = SOA_HOOKS, "adapter"
            elif node.name == "CheckScheme" or any(n.endswith("Scheme") for n in bases):
                protocol, kind = PROTOCOL_HOOKS, "scheme"
            else:
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                name = item.name
                if name.startswith("on_") and name not in protocol:
                    yield self.violation(
                        file, item,
                        f"{node.name}.{name} looks like a {kind} hook but "
                        f"is not in the {kind} protocol (typo?)")
                    continue
                if name not in protocol:
                    continue
                args = item.args
                positional = len(args.posonlyargs) + len(args.args) - 1
                required = positional - len(args.defaults)
                expected = protocol[name]
                if required > expected or positional < expected:
                    yield self.violation(
                        file, item,
                        f"{node.name}.{name} takes {positional} args "
                        f"({required} required); its caller passes "
                        f"{expected}")


def _hot_functions_for(path: str) -> Set[str]:
    for suffix, names in HOT_FUNCTIONS.items():
        if path.endswith(suffix):
            return names
    return set()


RULES = (
    NoWallClockRule(),
    NoAmbientRandomRule(),
    NoSetIterationRule(),
    NoHotPathBumpRule(),
    NoHotPathAllocationRule(),
    NoFrozenMutationRule(),
    SchemeProtocolRule(),
)


def rule_catalogue() -> str:
    """Human-readable rule listing for ``repro check --list-rules``."""
    lines = []
    for rule in RULES:
        lines.append(f"{rule.rule_id}  {rule.summary}")
        doc = (rule.__doc__ or "").strip().splitlines()
        for line in doc[1:]:
            lines.append(f"    {line.strip()}")
        lines.append("")
    return "\n".join(lines).rstrip()
