"""The static lock model: classes, lock identities, per-function facts.

The analyzer assigns every lock a **static identity** ``"Class.attr"``
(the same label the runtime seam ``repro.utils.sync.make_lock`` is given)
and reduces each function to a small summary the rules consume:

* which lock labels it acquires, and with what already held (edges);
* which other project functions it calls, and with what held;
* where it makes catalogued blocking calls, waits on conditions, or
  touches ``_GUARDED_BY`` state.

Lock identity is resolved through **alias chains**: a
``threading.Condition(self._lock)`` shares ``_lock``'s identity, and a
property whose body is ``return self._work`` (``MicroBatcher.admission``)
aliases the condition it returns.  Receiver classes are found by a
lightweight type inference over parameter annotations, ``self.x = ...``
assignments in ``__init__``, dataclass field annotations, container
element types, and constructor calls — enough to resolve chains like
``self.shards[index].batcher.admission`` without a real type checker.

Everything here is **label-level** (instance-insensitive): holding *a*
``MicroBatcher._lock`` satisfies a guard on *any* ``MicroBatcher``
instance's state.  Per-instance order between same-label locks is the
runtime witness's half of the contract; statically, a same-label
multi-acquire is only legal inside a loop over a ``sorted(...)``
iterable (the ascending shard-order admission pattern).
"""

import ast
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

#: Inferred type: ``("instance", class_name)`` or ``("container", elem)``.
Ty = Optional[Tuple[object, ...]]

#: Stdlib classes the model types explicitly (receivers of catalogued
#: blocking / synchronization methods).
_STDLIB_CLASSES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Thread", "threading.Barrier",
    "ExitStack",
}

#: Annotation heads treated as element-typed containers.
_CONTAINER_HEADS = {
    "List", "list", "Sequence", "Iterable", "Iterator", "Tuple", "tuple",
    "Deque", "deque", "Set", "set", "FrozenSet", "frozenset",
}
#: Annotation heads treated as value-typed mappings.
_MAPPING_HEADS = {"Dict", "dict", "Mapping", "OrderedDict", "DefaultDict"}

#: ``(receiver class, method)`` pairs that block the calling thread.
#: ``str.join`` is why this is type-gated — a bare ``.join(`` match would
#: flag every string join.
BLOCKING_METHODS: Dict[Tuple[str, str], str] = {
    ("threading.Thread", "join"): "Thread.join",
    ("threading.Event", "wait"): "Event.wait",
    ("threading.Barrier", "wait"): "Barrier.wait",
    ("ExecutionEngine", "run"): "engine run (process pool / disk I/O)",
}

#: Dotted call paths that block regardless of receiver typing.
BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "time.sleep",
    "subprocess.run": "subprocess.run",
    "subprocess.check_call": "subprocess.check_call",
    "subprocess.check_output": "subprocess.check_output",
    "subprocess.Popen": "subprocess.Popen",
}

#: Bare names that block (file I/O opens touch the disk).
BLOCKING_NAMES: Dict[str, str] = {"open": "open() file I/O"}


class HeldEntry(NamedTuple):
    """One lock the walker believes is held at a program point."""

    label: str          # "MicroBatcher._lock"
    receiver: str       # source text of the owning object ("self", "part")
    ascending: bool     # acquired inside a sorted-iteration loop


class Site(NamedTuple):
    """Where something happened, for reporting."""

    path: str
    line: int


class CallRecord(NamedTuple):
    site: Site
    callee: str                       # project function key
    held: FrozenSet[str]              # labels held at the call


class BlockRecord(NamedTuple):
    site: Site
    what: str                         # human description
    held: FrozenSet[str]
    exempt: bool                      # Condition.wait on the held lock


class WaitRecord(NamedTuple):
    site: Site
    receiver: str
    in_while: bool


class GuardRecord(NamedTuple):
    site: Site
    attr: str                         # accessed attribute
    owner: str                        # owning class
    needed: str                       # guard label required
    held: FrozenSet[str]
    store: bool


class HoldsCallRecord(NamedTuple):
    site: Site
    callee: str                       # "MicroBatcher.admit"
    needed: Tuple[str, ...]           # labels the callee declares held
    held: FrozenSet[str]


class EnvReadRecord(NamedTuple):
    site: Site
    what: str                         # "os.environ[...]" / "os.getenv(...)"


def _attr_path(node: ast.AST) -> Optional[str]:
    """Dotted path of a Name/Attribute chain (``threading.Condition``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ClassModel:
    """Locks, aliases, guards, and attribute types of one class."""

    def __init__(self, name: str, path: str, node: ast.ClassDef) -> None:
        self.name = name
        self.path = path
        self.node = node
        #: Attributes that *are* base locks (own a lock identity).
        self.lock_attrs: Set[str] = set()
        #: Attributes that are Conditions (waitable).
        self.condition_attrs: Set[str] = set()
        #: attr -> attr alias steps (condition -> its lock, property ->
        #: the attribute its body returns).
        self.aliases: Dict[str, str] = {}
        #: Declared state ownership: attr -> guarding lock attr.
        self.guarded_by: Dict[str, str] = {}
        #: Inferred ``self.attr`` types.
        self.attr_types: Dict[str, Ty] = {}
        self.methods: Dict[str, ast.FunctionDef] = {}
        #: method -> lock attrs declared held by ``@holds(...)``.
        self.holds: Dict[str, Tuple[str, ...]] = {}
        self.properties: Set[str] = set()
        self.classmethods: Set[str] = set()

    def resolve_attr(self, attr: str) -> str:
        """Follow the alias chain to the base attribute."""
        seen = set()
        while attr in self.aliases and attr not in seen:
            seen.add(attr)
            attr = self.aliases[attr]
        return attr

    def lock_label(self, attr: str) -> Optional[str]:
        base = self.resolve_attr(attr)
        if base in self.lock_attrs:
            return f"{self.name}.{base}"
        return None

    def is_condition(self, attr: str) -> bool:
        if attr in self.condition_attrs:
            return True
        seen = set()
        while attr in self.aliases and attr not in seen:
            seen.add(attr)
            attr = self.aliases[attr]
            if attr in self.condition_attrs:
                return True
        return False


class FunctionModel:
    """Everything the rules need to know about one function."""

    def __init__(self, key: str, path: str, node: ast.AST,
                 cls: Optional[str]) -> None:
        self.key = key
        self.path = path
        self.node = node
        self.cls = cls
        self.entry_held: Tuple[str, ...] = ()
        #: Labels acquired directly in this body.
        self.acquires: Set[str] = set()
        #: (held label, acquired label) -> (site, ascending).
        self.edges: Dict[Tuple[str, str], Tuple[Site, bool]] = {}
        #: Same-label multi-acquires outside the sorted-loop pattern.
        self.order_violations: List[Tuple[Site, str]] = []
        self.calls: List[CallRecord] = []
        self.blocking: List[BlockRecord] = []
        self.waits: List[WaitRecord] = []
        self.guard_accesses: List[GuardRecord] = []
        self.holds_calls: List[HoldsCallRecord] = []


class ProjectModel:
    """All classes and functions of the analyzed file set."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassModel] = {}
        self.functions: Dict[str, FunctionModel] = {}
        self.env_reads: List[EnvReadRecord] = []


# ---------------------------------------------------------------------------
# class collection (pass 1)
# ---------------------------------------------------------------------------

def _is_lock_ctor(value: ast.AST) -> bool:
    """``threading.Lock()`` / ``threading.RLock()`` / ``make_lock(...)``."""
    if not isinstance(value, ast.Call):
        return False
    path = _attr_path(value.func)
    return path in ("threading.Lock", "threading.RLock", "make_lock",
                    "sync.make_lock")


def _condition_ctor_arg(value: ast.AST) -> Optional[Tuple[bool, Optional[str]]]:
    """``threading.Condition(...)`` -> (is_condition, aliased self attr)."""
    if not isinstance(value, ast.Call):
        return None
    if _attr_path(value.func) not in ("threading.Condition", "Condition"):
        return None
    if value.args:
        arg = value.args[0]
        if (isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
                and arg.value.id == "self"):
            return True, arg.attr
        return True, None
    return True, None


def _decorator_names(node: ast.FunctionDef) -> List[str]:
    out = []
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        path = _attr_path(target)
        if path is not None:
            out.append(path)
    return out


def _holds_attrs(node: ast.FunctionDef) -> Optional[Tuple[str, ...]]:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        if _attr_path(deco.func) in ("holds", "sync.holds"):
            attrs = []
            for arg in deco.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    attrs.append(arg.value)
            return tuple(attrs)
    return None


def _collect_class(node: ast.ClassDef, path: str) -> ClassModel:
    cm = ClassModel(node.name, path, node)
    for item in node.body:
        if isinstance(item, ast.Assign):
            # class-level: _GUARDED_BY = {...}
            for target in item.targets:
                if (isinstance(target, ast.Name)
                        and target.id == "_GUARDED_BY"
                        and isinstance(item.value, ast.Dict)):
                    for key, value in zip(item.value.keys, item.value.values):
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)
                                and isinstance(value, ast.Constant)
                                and isinstance(value.value, str)):
                            cm.guarded_by[key.value] = value.value
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            # dataclass fields: ``batcher: MicroBatcher``
            cm.attr_types.setdefault(item.target.id,
                                     ("annotation", item.annotation))
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not isinstance(item, ast.FunctionDef):
                continue
            cm.methods[item.name] = item
            decos = _decorator_names(item)
            if "property" in decos:
                cm.properties.add(item.name)
                # A property whose body is ``return self.X`` aliases X.
                for stmt in item.body:
                    if (isinstance(stmt, ast.Return)
                            and isinstance(stmt.value, ast.Attribute)
                            and isinstance(stmt.value.value, ast.Name)
                            and stmt.value.value.id == "self"):
                        cm.aliases[item.name] = stmt.value.attr
            if "classmethod" in decos:
                cm.classmethods.add(item.name)
            held = _holds_attrs(item)
            if held is not None:
                cm.holds[item.name] = held
            if item.name == "__init__":
                _collect_init(cm, item)
    return cm


def _collect_init(cm: ClassModel, init: ast.FunctionDef) -> None:
    """Lock/condition/alias/type facts from ``self.X = ...`` in __init__."""
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            continue
        attr, value = target.attr, stmt.value
        if _is_lock_ctor(value):
            cm.lock_attrs.add(attr)
            cm.attr_types[attr] = ("instance", "threading.Lock")
            continue
        cond = _condition_ctor_arg(value)
        if cond is not None:
            cm.condition_attrs.add(attr)
            cm.attr_types[attr] = ("instance", "threading.Condition")
            _, aliased = cond
            if aliased is not None:
                cm.aliases[attr] = aliased
            else:
                # A bare Condition owns its own lock; give it identity.
                cm.lock_attrs.add(attr)
            continue
        cm.attr_types.setdefault(attr, ("expr", value, init))


# ---------------------------------------------------------------------------
# type inference
# ---------------------------------------------------------------------------

class _Types:
    """Lightweight expression typing against the collected classes."""

    def __init__(self, classes: Dict[str, ClassModel]) -> None:
        self.classes = classes

    # -- annotations ------------------------------------------------------
    def from_annotation(self, node: Optional[ast.AST]) -> Ty:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Name):
            return self._named(node.id)
        if isinstance(node, ast.Attribute):
            path = _attr_path(node)
            if path in _STDLIB_CLASSES:
                return ("instance", path)
            return self._named(node.attr)
        if isinstance(node, ast.Subscript):
            head = node.value
            head_name = (head.id if isinstance(head, ast.Name)
                         else head.attr if isinstance(head, ast.Attribute)
                         else None)
            elems = self._slice_elems(node)
            if head_name == "Optional" and elems:
                return self.from_annotation(elems[0])
            if head_name in _MAPPING_HEADS and elems:
                return ("container", self.from_annotation(elems[-1]))
            if head_name in _CONTAINER_HEADS and elems:
                return ("container", self.from_annotation(elems[0]))
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return (self.from_annotation(node.left)
                    or self.from_annotation(node.right))
        return None

    def _named(self, name: str) -> Ty:
        if name in self.classes:
            return ("instance", name)
        if f"threading.{name}" in _STDLIB_CLASSES:
            return ("instance", f"threading.{name}")
        if name in _STDLIB_CLASSES:
            return ("instance", name)
        if any(recv == name for recv, _ in BLOCKING_METHODS):
            # Receivers in the blocking catalogue stay recognizable even
            # when the analyzed file set does not include their module
            # (an ``engine: "ExecutionEngine"`` annotation must gate
            # ``.run`` regardless of whether exec/ is in scope).
            return ("instance", name)
        return None

    @staticmethod
    def _slice_elems(node: ast.Subscript) -> List[ast.AST]:
        inner = node.slice
        if isinstance(inner, ast.Tuple):
            return list(inner.elts)
        return [inner]

    # -- attribute types --------------------------------------------------
    def attr_ty(self, cls: str, attr: str) -> Ty:
        cm = self.classes.get(cls)
        if cm is None:
            return None
        raw = cm.attr_types.get(attr)
        if raw is not None:
            kind = raw[0]
            if kind == "instance" or kind == "container":
                return raw
            if kind == "annotation":
                return self.from_annotation(raw[1])  # type: ignore[arg-type]
            if kind == "expr":
                value, init = raw[1], raw[2]
                env = self._param_env(init, cls)  # type: ignore[arg-type]
                resolved = self.infer(value, env, cls)  # type: ignore[arg-type]
                cm.attr_types[attr] = resolved if resolved is not None else None
                return resolved
        # property with a return annotation
        if attr in cm.properties:
            fn = cm.methods.get(attr)
            if fn is not None and fn.returns is not None:
                return self.from_annotation(fn.returns)
            aliased = cm.aliases.get(attr)
            if aliased is not None:
                return self.attr_ty(cls, aliased)
        return None

    def _param_env(self, fn: ast.FunctionDef, cls: Optional[str]) -> Dict[str, Ty]:
        env: Dict[str, Ty] = {}
        args = list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
        for arg in args:
            env[arg.arg] = self.from_annotation(arg.annotation)
        if cls is not None and args:
            env[args[0].arg] = ("instance", cls)
        return env

    # -- expressions ------------------------------------------------------
    def infer(self, expr: ast.AST, env: Dict[str, Ty],
              self_cls: Optional[str]) -> Ty:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer(expr.value, env, self_cls)
            if base is not None and base[0] == "instance":
                name = base[1]
                if isinstance(name, str) and name in self.classes:
                    return self.attr_ty(name, expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            base = self.infer(expr.value, env, self_cls)
            if base is not None and base[0] == "container":
                elem = base[1]
                return elem if isinstance(elem, tuple) else None
            return None
        if isinstance(expr, ast.IfExp):
            return (self.infer(expr.body, env, self_cls)
                    or self.infer(expr.orelse, env, self_cls))
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            inner = dict(env)
            for gen in expr.generators:
                iter_ty = self.infer(gen.iter, inner, self_cls)
                if isinstance(gen.target, ast.Name):
                    inner[gen.target.id] = (
                        iter_ty[1] if (iter_ty is not None
                                       and iter_ty[0] == "container"
                                       and isinstance(iter_ty[1], tuple))
                        else None)
            return ("container", self.infer(expr.elt, inner, self_cls))
        if isinstance(expr, ast.Call):
            return self._call_ty(expr, env, self_cls)
        return None

    def _call_ty(self, call: ast.Call, env: Dict[str, Ty],
                 self_cls: Optional[str]) -> Ty:
        func = call.func
        path = _attr_path(func)
        if path in ("threading.Lock", "threading.RLock", "make_lock",
                    "sync.make_lock"):
            return ("instance", "threading.Lock")
        if path in _STDLIB_CLASSES:
            return ("instance", path)
        if isinstance(func, ast.Name):
            if func.id in self.classes:
                return ("instance", func.id)
            if func.id == "cls" and self_cls is not None:
                return ("instance", self_cls)
            if func.id in ("sorted", "list", "tuple"):
                if call.args:
                    arg_ty = self.infer(call.args[0], env, self_cls)
                    if arg_ty is not None and arg_ty[0] == "container":
                        return arg_ty
                return None
            return None
        if isinstance(func, ast.Attribute):
            # ClassName.classmethod(...) or receiver.method(...)
            recv: Ty = None
            if isinstance(func.value, ast.Name) and func.value.id in self.classes:
                recv = ("instance", func.value.id)
            else:
                recv = self.infer(func.value, env, self_cls)
            if recv is not None and recv[0] == "instance":
                name = recv[1]
                if isinstance(name, str) and name in self.classes:
                    method = self.classes[name].methods.get(func.attr)
                    if method is not None and method.returns is not None:
                        return self.from_annotation(method.returns)
        return None


def elem_ty(ty: Ty) -> Ty:
    """Element type of a container type, else None."""
    if ty is not None and ty[0] == "container" and isinstance(ty[1], tuple):
        return ty[1]
    return None
# ---------------------------------------------------------------------------
# function body analysis (pass 2)
# ---------------------------------------------------------------------------

#: Loop context of a statement: ``None`` outside any ``for``; inside one,
#: ``True`` iff the loop provably iterates an ascending-sorted iterable.
LoopCtx = Optional[bool]


class _FunctionWalker:
    """Walks one function's statements threading the held-lock state.

    The walk is block-sequential: a ``with <lock>:`` holds for its body, a
    ``stack.enter_context(<lock>)`` holds for the remainder of the
    enclosing block (the ExitStack owns the release), and branches are
    walked with copies of the held list so a branch-local acquisition
    does not leak past its join point.
    """

    def __init__(self, model: FunctionModel, types: _Types,
                 classes: Dict[str, ClassModel]) -> None:
        self.fn = model
        self.types = types
        self.classes = classes
        self.cls = model.cls
        #: Names of local ExitStack variables.
        self.stacks: Set[str] = set()
        #: Local names provably bound to ascending-sorted iterables.
        self.sorted_names: Set[str] = set()
        #: Local name -> source text it aliases (receiver display).
        self.alias_text: Dict[str, str] = {}
        #: Local names bound fresh from a constructor (not yet shared).
        self.fresh: Set[str] = set()
        self.env: Dict[str, Ty] = {}

    # -- entry ------------------------------------------------------------
    def run(self) -> None:
        node = self.fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        cm = self.classes.get(self.cls) if self.cls else None
        self.env = self.types._param_env(node, self.cls)
        held: List[HeldEntry] = []
        if cm is not None:
            for attr in cm.holds.get(node.name, ()):
                label = cm.lock_label(attr)
                if label is not None:
                    held.append(HeldEntry(label, "self", False))
        self.fn.entry_held = tuple(entry.label for entry in held)
        self.walk_block(node.body, held, in_while=False, loop=None)

    def site(self, node: ast.AST) -> Site:
        return Site(self.fn.path, getattr(node, "lineno", 1))

    def held_labels(self, held: List[HeldEntry]) -> FrozenSet[str]:
        return frozenset(entry.label for entry in held)

    # -- lock expression resolution ---------------------------------------
    def lock_ref(self, expr: ast.AST) -> Optional[Tuple[str, str]]:
        """(label, receiver text) when ``expr`` denotes a known lock."""
        if not isinstance(expr, ast.Attribute):
            return None
        base_ty = self.types.infer(expr.value, self.env, self.cls)
        if base_ty is None or base_ty[0] != "instance":
            return None
        name = base_ty[1]
        if not isinstance(name, str) or name not in self.classes:
            return None
        label = self.classes[name].lock_label(expr.attr)
        if label is None:
            return None
        return label, self.receiver_text(expr.value)

    def condition_ref(self, expr: ast.AST) -> Optional[Tuple[str, Optional[str]]]:
        """(receiver text, lock label) when ``expr`` is a Condition attr."""
        if not isinstance(expr, ast.Attribute):
            return None
        base_ty = self.types.infer(expr.value, self.env, self.cls)
        if base_ty is None or base_ty[0] != "instance":
            return None
        name = base_ty[1]
        if not isinstance(name, str) or name not in self.classes:
            return None
        cm = self.classes[name]
        if not cm.is_condition(expr.attr):
            return None
        return self.receiver_text(expr), cm.lock_label(expr.attr)

    def receiver_text(self, expr: ast.AST) -> str:
        try:
            text = ast.unparse(expr)
        except Exception:
            return "<?>"
        # Substitute simple local aliases so receivers read in terms of
        # the structure they came from (``batcher`` ->
        # ``self.shards[index].batcher``).
        root = text.split(".", 1)
        if root[0] in self.alias_text:
            text = self.alias_text[root[0]] + (
                "." + root[1] if len(root) > 1 else "")
        return text

    # -- acquisition ------------------------------------------------------
    def acquire(self, node: ast.AST, label: str, receiver: str,
                held: List[HeldEntry], *, ascending: bool,
                looped: bool) -> HeldEntry:
        """Record one acquisition of ``label`` against ``held``."""
        site = self.site(node)
        self.fn.acquires.add(label)
        for entry in held:
            self.add_edge(entry.label, label, site,
                          ascending=ascending and entry.ascending)
        if looped:
            # A held-extending acquire inside a ``for`` takes the same
            # label once per iteration — a same-label nesting by
            # construction, legal only when the loop is sorted-ascending.
            self.add_edge(label, label, site, ascending=ascending)
        return HeldEntry(label, receiver, ascending)

    def add_edge(self, src: str, dst: str, site: Site, *,
                 ascending: bool) -> None:
        if src == dst and not ascending:
            self.fn.order_violations.append((site, src))
            return
        current = self.fn.edges.get((src, dst))
        if current is None or (current[1] and not ascending):
            self.fn.edges[(src, dst)] = (site, ascending)

    # -- statements -------------------------------------------------------
    def walk_block(self, stmts: Sequence[ast.stmt], held: List[HeldEntry],
                   *, in_while: bool, loop: LoopCtx) -> None:
        for stmt in stmts:
            self.walk_stmt(stmt, held, in_while=in_while, loop=loop)

    def walk_stmt(self, stmt: ast.stmt, held: List[HeldEntry], *,
                  in_while: bool, loop: LoopCtx) -> None:
        if isinstance(stmt, ast.With):
            self.walk_with(stmt, held, in_while=in_while, loop=loop)
            return
        if isinstance(stmt, ast.For):
            self.walk_expr(stmt.iter, held, loop=loop)
            body_loop: LoopCtx = self.is_sorted_expr(stmt.iter)
            self.bind_target(stmt.target,
                             elem_ty(self.types.infer(stmt.iter, self.env,
                                                      self.cls)))
            body_held = list(held)
            self.walk_block(stmt.body, body_held, in_while=in_while,
                            loop=body_loop)
            # enter_context acquisitions made inside the loop stay held
            # after it (the ExitStack owns them).
            held.extend(body_held[len(held):])
            self.walk_block(stmt.orelse, list(held), in_while=in_while,
                            loop=loop)
            return
        if isinstance(stmt, ast.While):
            self.walk_expr(stmt.test, held, loop=loop)
            self.walk_block(stmt.body, list(held), in_while=True, loop=loop)
            self.walk_block(stmt.orelse, list(held), in_while=in_while,
                            loop=loop)
            return
        if isinstance(stmt, ast.If):
            self.walk_expr(stmt.test, held, loop=loop)
            self.walk_block(stmt.body, list(held), in_while=in_while,
                            loop=loop)
            self.walk_block(stmt.orelse, list(held), in_while=in_while,
                            loop=loop)
            return
        if isinstance(stmt, ast.Try):
            self.walk_block(stmt.body, list(held), in_while=in_while,
                            loop=loop)
            for handler in stmt.handlers:
                self.walk_block(handler.body, list(held), in_while=in_while,
                                loop=loop)
            self.walk_block(stmt.orelse, list(held), in_while=in_while,
                            loop=loop)
            self.walk_block(stmt.finalbody, list(held), in_while=in_while,
                            loop=loop)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Nested defs execute later (threads, tickets): analyzed
            # separately with an empty held set by the project builder.
            return
        if isinstance(stmt, ast.Assign):
            self.walk_expr(stmt.value, held, loop=loop)
            value_ty = self.types.infer(stmt.value, self.env, self.cls)
            for target in stmt.targets:
                # Subscript/attribute-chain targets read their base
                # objects (``self._executing[key] = t`` touches
                # ``_executing``): walk them for guarded loads too.
                self.walk_expr(target, held, loop=loop)
                self.note_store(target, held)
                self.bind_target(target, value_ty)
                if isinstance(target, ast.Name):
                    self.note_assign(target.id, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.walk_expr(stmt.value, held, loop=loop)
            self.walk_expr(stmt.target, held, loop=loop)
            self.note_store(stmt.target, held)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.types.from_annotation(
                    stmt.annotation)
                if stmt.value is not None:
                    self.note_assign(stmt.target.id, stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            self.walk_expr(stmt.value, held, loop=loop)
            # ``x += 1`` both reads and writes the target.
            self.note_load(stmt.target, held)
            self.note_store(stmt.target, held)
            return
        if isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self.walk_expr(stmt.value, held, loop=loop)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.walk_expr(stmt.exc, held, loop=loop)
            return
        if isinstance(stmt, ast.Assert):
            self.walk_expr(stmt.test, held, loop=loop)
            return
        # Imports, pass, break, continue, global, delete: nothing tracked.

    def walk_with(self, stmt: ast.With, held: List[HeldEntry], *,
                  in_while: bool, loop: LoopCtx) -> None:
        body_held = list(held)
        for item in stmt.items:
            expr = item.context_expr
            self.walk_expr(expr, body_held, loop=loop)
            ref = self.lock_ref(expr)
            if ref is not None:
                label, receiver = ref
                # ``with`` releases at block end, so even inside a loop
                # iterations never nest: looped=False.
                body_held.append(self.acquire(
                    expr, label, receiver, body_held,
                    ascending=loop is True, looped=False))
                continue
            if (isinstance(expr, ast.Call)
                    and _attr_path(expr.func) in ("ExitStack",
                                                  "contextlib.ExitStack")
                    and isinstance(item.optional_vars, ast.Name)):
                self.stacks.add(item.optional_vars.id)
        self.walk_block(stmt.body, body_held, in_while=in_while, loop=loop)

    def bind_target(self, target: ast.AST, ty: Ty) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = ty
            self.fresh.discard(target.id)
            self.alias_text.pop(target.id, None)
            self.sorted_names.discard(target.id)
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                self.bind_target(elt, None)

    def note_assign(self, name: str, value: ast.AST) -> None:
        if self.is_sorted_expr(value):
            self.sorted_names.add(name)
        if isinstance(value, ast.Call):
            func = value.func
            if (isinstance(func, ast.Name)
                    and (func.id in self.classes or func.id == "cls")):
                self.fresh.add(name)
        if isinstance(value, (ast.Attribute, ast.Subscript)):
            try:
                self.alias_text[name] = ast.unparse(value)
            except Exception:
                pass

    def is_sorted_expr(self, expr: ast.AST) -> bool:
        """Provably ascending: ``sorted(...)`` without ``reverse=True``,
        or a local name bound to one."""
        if isinstance(expr, ast.Name):
            return expr.id in self.sorted_names
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                and expr.func.id == "sorted"):
            for kw in expr.keywords:
                if kw.arg == "reverse":
                    return (isinstance(kw.value, ast.Constant)
                            and kw.value.value is False)
            return True
        return False

    # -- expressions ------------------------------------------------------
    def walk_expr(self, expr: ast.AST, held: List[HeldEntry], *,
                  loop: LoopCtx) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self.visit_call(node, held, loop=loop)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                self.note_load(node, held)
                self.note_property_read(node, held)

    def note_property_read(self, node: ast.Attribute,
                           held: List[HeldEntry]) -> None:
        """A property access runs code: model it as a call, so a property
        that takes a lock contributes edges like any other callee."""
        base_ty = self.types.infer(node.value, self.env, self.cls)
        if base_ty is None or base_ty[0] != "instance":
            return
        name = base_ty[1]
        if (isinstance(name, str) and name in self.classes
                and node.attr in self.classes[name].properties):
            self.fn.calls.append(CallRecord(
                self.site(node), f"{name}.{node.attr}",
                self.held_labels(held)))

    def visit_call(self, call: ast.Call, held: List[HeldEntry], *,
                   loop: LoopCtx) -> None:
        func = call.func
        path = _attr_path(func)
        site = self.site(call)
        labels = self.held_labels(held)
        # name-level blocking calls
        if path in BLOCKING_CALLS:
            self.fn.blocking.append(
                BlockRecord(site, BLOCKING_CALLS[path], labels, False))
            return
        if isinstance(func, ast.Name) and func.id in BLOCKING_NAMES:
            self.fn.blocking.append(
                BlockRecord(site, BLOCKING_NAMES[func.id], labels, False))
            return
        if not isinstance(func, ast.Attribute):
            if isinstance(func, ast.Name):
                # Possibly a module-level project function.
                self.fn.calls.append(CallRecord(site, func.id, labels))
            return
        # stack.enter_context(<lock>) — held until the stack unwinds.
        if (func.attr == "enter_context"
                and isinstance(func.value, ast.Name)
                and func.value.id in self.stacks and call.args):
            ref = self.lock_ref(call.args[0])
            if ref is not None:
                label, receiver = ref
                held.append(self.acquire(
                    call.args[0], label, receiver, held,
                    ascending=loop is True, looped=loop is not None))
            return
        # <lock>.acquire() / <lock>.release()
        if func.attr in ("acquire", "release"):
            ref = self.lock_ref(func.value)
            if ref is not None:
                label, receiver = ref
                if func.attr == "acquire":
                    held.append(self.acquire(
                        func.value, label, receiver, held,
                        ascending=loop is True, looped=loop is not None))
                else:
                    for i in range(len(held) - 1, -1, -1):
                        if held[i].label == label:
                            del held[i]
                            break
                return
        # Condition.wait / wait_for
        if func.attr in ("wait", "wait_for"):
            cond = self.condition_ref(func.value)
            if cond is not None:
                receiver, lock_label = cond
                self.fn.waits.append(WaitRecord(
                    site, receiver, self._inside_while(call)))
                other = labels - ({lock_label} if lock_label else frozenset())
                # Waiting on a condition releases that condition's own
                # lock; it only blocks *other* held locks.
                self.fn.blocking.append(BlockRecord(
                    site, f"Condition.wait on {receiver}", labels,
                    exempt=not other))
                return
        # type-gated blocking methods (Thread.join, Event.wait, engine.run)
        recv_ty = self.types.infer(func.value, self.env, self.cls)
        if recv_ty is not None and recv_ty[0] == "instance":
            recv_name = recv_ty[1]
            if isinstance(recv_name, str):
                desc = BLOCKING_METHODS.get((recv_name, func.attr))
                if desc is not None:
                    self.fn.blocking.append(
                        BlockRecord(site, desc, labels, False))
                    return
                if recv_name in self.classes:
                    cm = self.classes[recv_name]
                    if func.attr in cm.methods:
                        self.fn.calls.append(CallRecord(
                            site, f"{recv_name}.{func.attr}", labels))
                        needed = cm.holds.get(func.attr)
                        if needed:
                            need_labels = tuple(
                                label for label in
                                (cm.lock_label(a) for a in needed)
                                if label is not None)
                            self.fn.holds_calls.append(HoldsCallRecord(
                                site, f"{recv_name}.{func.attr}",
                                need_labels, labels))

    def _inside_while(self, call: ast.Call) -> bool:
        """Whether ``call`` sits (at any depth) inside a ``while`` of this
        function — the re-checked-predicate shape REPRO010 demands."""
        node = self.fn.node
        stack: List[Tuple[ast.AST, bool]] = [(node, False)]
        while stack:
            current, in_while = stack.pop()
            here = in_while or isinstance(current, ast.While)
            for child in ast.iter_child_nodes(current):
                if child is call:
                    return here
                if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda))
                        and child is not node):
                    continue
                stack.append((child, here))
        return False

    # -- guarded state ----------------------------------------------------
    def note_load(self, node: ast.AST, held: List[HeldEntry]) -> None:
        self._note_access(node, held, store=False)

    def note_store(self, node: ast.AST, held: List[HeldEntry]) -> None:
        self._note_access(node, held, store=True)
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._note_access(elt, held, store=True)

    def _note_access(self, node: ast.AST, held: List[HeldEntry],
                     store: bool) -> None:
        if not isinstance(node, ast.Attribute):
            return
        base_ty = self.types.infer(node.value, self.env, self.cls)
        if base_ty is None or base_ty[0] != "instance":
            return
        name = base_ty[1]
        if not isinstance(name, str) or name not in self.classes:
            return
        cm = self.classes[name]
        guard = cm.guarded_by.get(node.attr)
        if guard is None:
            return
        label = cm.lock_label(guard)
        if label is None:
            return
        # A local just built from the constructor is not yet visible to
        # any other thread; __init__ publishing ``self`` is the same
        # exemption.
        if isinstance(node.value, ast.Name):
            if node.value.id in self.fresh:
                return
            fn_node = self.fn.node
            if (isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn_node.name == "__init__" and fn_node.args.args
                    and node.value.id == fn_node.args.args[0].arg):
                return
        self.fn.guard_accesses.append(GuardRecord(
            self.site(node), node.attr, name, label,
            self.held_labels(held), store))


# ---------------------------------------------------------------------------
# project assembly
# ---------------------------------------------------------------------------

def _iter_functions(tree: ast.AST) -> Iterable[Tuple[str, Optional[str],
                                                     ast.FunctionDef]]:
    """(key, owning class, node) for every def, including nested ones."""

    def visit(node: ast.AST, cls: Optional[str],
              prefix: str) -> Iterable[Tuple[str, Optional[str],
                                             ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name, f"{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                key = f"{prefix}{child.name}"
                yield key, cls, child
                # Nested defs run on other threads (drain workers, ticket
                # jobs): analyzed with an empty held set, no receiver.
                yield from visit(child, None, f"{key}.<locals>.")
            else:
                yield from visit(child, cls, prefix)

    yield from visit(tree, None, "")


def build_project_model(files: Sequence[Tuple[str, ast.AST]]) -> ProjectModel:
    """Two passes over (path, tree) pairs: classes first, then bodies."""
    project = ProjectModel()
    for path, tree in files:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                cm = _collect_class(node, path)
                project.classes.setdefault(cm.name, cm)
    types = _Types(project.classes)
    for path, tree in files:
        # Every environment read, wherever it hides (REPRO011 is scope-,
        # not lock-based, so a flat walk suffices).
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and _attr_path(node.func) in ("os.getenv",
                                                  "os.environ.get")):
                project.env_reads.append(EnvReadRecord(
                    Site(path, node.lineno),
                    f"{_attr_path(node.func)}(...)"))
            elif (isinstance(node, ast.Subscript)
                  and _attr_path(node.value) == "os.environ"):
                project.env_reads.append(EnvReadRecord(
                    Site(path, node.lineno), "os.environ[...]"))
        for key, cls, fn_node in _iter_functions(tree):
            if key in project.functions:
                # Same qualname in two files: keep the first — the call
                # graph is name-keyed, and collisions are rare and benign.
                continue
            model = FunctionModel(key, path, fn_node, cls)
            _FunctionWalker(model, types, project.classes).run()
            project.functions[key] = model
    return project
