"""Dynamic (in-flight) instruction state.

A :class:`DynInstr` is one fetched instance of a trace micro-op.  The same
micro-op can be in flight multiple times across replays; each instance gets
a fresh, strictly increasing ``seq`` — the *age* that every mechanism in the
paper compares (YLA registers, end-check register, squash points).
"""

import enum
from typing import List, Optional

from repro.isa.instruction import MicroOp


class InstrState(enum.IntEnum):
    DISPATCHED = 0   # in ROB/IQ, waiting for operands
    READY = 1        # operands available, waiting for issue bandwidth
    ISSUED = 2       # executing / waiting on memory
    COMPLETED = 3    # result produced, waiting for in-order commit
    COMMITTED = 4
    SQUASHED = 5


class DynInstr:
    """One in-flight instance of a micro-op, with full pipeline bookkeeping."""

    __slots__ = (
        "uop",
        "trace_idx",
        "seq",
        "state",
        "fp_side",
        # static facts copied out of the micro-op once at fetch; plain
        # slots, because property dispatch is measurable on the hot paths
        "is_load",
        "is_store",
        "is_branch",
        "addr",
        "size",
        # dependence tracking
        "pending_ops",
        "pending_data",
        "consumers",
        # timing
        "fetch_cycle",
        "issue_cycle",
        "complete_cycle",
        "resolve_cycle",
        "commit_cycle",
        # memory behaviour
        "speculative_issue",
        "safe",
        "forward_store_seq",
        "rejections",
        "true_violation_store",
        "true_violation_pc",
        "replay_generation",
        "guard_bypass",
        "inv_marked",
        # DMDC store state
        "unsafe_store",
        "window_end",
        # branch state
        "pred_snapshot",
        "mispredicted",
        # bookkeeping
        "in_iq",
    )

    def __init__(self, uop: MicroOp, trace_idx: int, seq: int, fp_side: bool):
        self.uop = uop
        self.trace_idx = trace_idx
        self.seq = seq
        self.state = InstrState.DISPATCHED
        self.fp_side = fp_side
        self.is_load = uop.is_load
        self.is_store = uop.is_store
        self.is_branch = uop.is_branch
        self.addr = uop.mem_addr
        self.size = uop.mem_size
        self.pending_ops = self.pending_data = self.rejections = 0
        self.replay_generation = 0
        self.consumers: List = []
        self.fetch_cycle = self.issue_cycle = -1
        self.complete_cycle = self.resolve_cycle = self.commit_cycle = -1
        self.forward_store_seq = -1
        self.true_violation_store = self.true_violation_pc = -1
        self.window_end = -1
        self.speculative_issue = self.safe = self.guard_bypass = False
        self.inv_marked = self.unsafe_store = self.mispredicted = False
        self.in_iq = False
        self.pred_snapshot: Optional[tuple] = None

    # Convenience passthroughs -------------------------------------------
    @property
    def resolved(self) -> bool:
        """A memory op's address is resolved once it has issued through the AGU."""
        return self.resolve_cycle >= 0

    @property
    def squashed(self) -> bool:
        return self.state == InstrState.SQUASHED

    def __repr__(self) -> str:
        return (
            f"<DynInstr seq={self.seq} {self.uop.cls.name} state={self.state.name}"
            f" pc={self.uop.pc:#x}>"
        )
