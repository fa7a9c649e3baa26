"""Trace container: the dynamic instruction stream of one workload."""

from typing import Iterable, Iterator, List, Optional, Sequence

from repro.errors import TraceError
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass


class Trace:
    """An ordered list of micro-ops plus workload metadata.

    The simulator fetches sequentially through the list; a squash rewinds
    the fetch index, so one ``Trace`` supports replay and misprediction
    recovery without any bookkeeping of its own.

    :meth:`freeze` makes a trace read-only (``ops`` becomes a tuple and
    :meth:`append`/:meth:`extend` raise): generated traces are frozen
    because the setup memo shares one instance across every run of the
    same workload content.
    """

    def __init__(self, name: str, ops: Optional[List[MicroOp]] = None,
                 group: str = "INT") -> None:
        self.name = name
        self.group = group  # "INT" or "FP", the paper's reporting groups
        self.ops: Sequence[MicroOp] = ops if ops is not None else []

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, idx: int) -> MicroOp:
        return self.ops[idx]

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.ops)

    def freeze(self) -> "Trace":
        """Make this trace read-only in place and return it."""
        self.ops = tuple(self.ops)
        return self

    def _mutable_ops(self) -> List[MicroOp]:
        ops = self.ops
        if not isinstance(ops, list):
            raise TraceError(f"trace {self.name!r} is frozen (shared, read-only)")
        return ops

    def append(self, op: MicroOp) -> None:
        self._mutable_ops().append(op)

    def extend(self, ops: Iterable[MicroOp]) -> None:
        self._mutable_ops().extend(ops)

    def mix(self) -> dict:
        """Instruction-mix fractions by class name (diagnostics)."""
        counts = {}
        for op in self.ops:
            counts[op.cls.name] = counts.get(op.cls.name, 0) + 1
        total = len(self.ops) or 1
        return {name: count / total for name, count in sorted(counts.items())}


def validate_trace(trace: Trace) -> None:
    """Validate every micro-op and cross-op invariants of a trace.

    Beyond per-op checks this enforces that branches are the only ops with
    branch metadata consumers rely on, and that the trace is non-empty.
    """
    if len(trace) == 0:
        raise TraceError(f"trace {trace.name!r} is empty")
    if trace.group not in ("INT", "FP"):
        raise TraceError(f"trace group must be INT or FP, got {trace.group!r}")
    for i, op in enumerate(trace.ops):
        try:
            op.validate()
        except TraceError as exc:
            raise TraceError(f"{trace.name}[{i}]: {exc}") from exc
        if op.taken and op.cls != InstrClass.BRANCH:
            raise TraceError(f"{trace.name}[{i}]: non-branch marked taken")
