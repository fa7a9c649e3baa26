"""Structural invariant checking for the pipeline.

:func:`check_invariants` inspects a live :class:`~repro.sim.processor.
Processor` and raises :class:`~repro.errors.SimulationError` on any
violated structural property.  The checks are independent of the timing
model — they express what a correct out-of-order machine can never do.
They inspect the object loop's state (``Processor.step``), which the test
suite steps as the reference the SoA kernel is compared against
(``tests/object_loop.py`` checks them every N cycles).
"""

from typing import List

from repro.backend.dyninst import InstrState
from repro.errors import SimulationError
from repro.sim.processor import Processor


def check_invariants(proc: Processor) -> None:
    """Raise on the first violated structural invariant."""
    _check_age_order(proc)
    _check_queue_membership(proc)
    _check_iq_accounting(proc)
    _check_register_accounting(proc)
    _check_rename_consistency(proc)
    _check_commit_boundary(proc)


def _ages(entries) -> List[int]:
    return [e.seq for e in entries]


def _check_age_order(proc: Processor) -> None:
    """ROB, LQ and SQ are age-ordered queues."""
    for name, ring in (("ROB", proc.rob), ("LQ", proc.lq.ring), ("SQ", proc.sq.ring)):
        ages = _ages(ring)
        if ages != sorted(ages):
            raise SimulationError(f"{name} not age-ordered: {ages}")


def _check_queue_membership(proc: Processor) -> None:
    """Every LQ/SQ entry is an un-squashed memory op present in the ROB."""
    rob_seqs = set(_ages(proc.rob))
    for load in proc.lq.ring:
        if not load.is_load or load.squashed or load.seq not in rob_seqs:
            raise SimulationError(f"stale LQ entry {load}")
    for store in proc.sq.ring:
        if not store.is_store or store.squashed or store.seq not in rob_seqs:
            raise SimulationError(f"stale SQ entry {store}")


def _check_iq_accounting(proc: Processor) -> None:
    """Issue-queue occupancy counters match the instructions that hold slots."""
    int_held = sum(1 for e in proc.rob if e.in_iq and not e.fp_side)
    fp_held = sum(1 for e in proc.rob if e.in_iq and e.fp_side)
    if int_held != proc.iq_int_count or fp_held != proc.iq_fp_count:
        raise SimulationError(
            f"IQ accounting drift: counted {proc.iq_int_count}/{proc.iq_fp_count}, "
            f"held {int_held}/{fp_held}"
        )
    if proc.iq_int_count > proc.config.iq_int or proc.iq_fp_count > proc.config.iq_fp:
        raise SimulationError("IQ over capacity")


def _check_register_accounting(proc: Processor) -> None:
    """Physical registers in flight equal those missing from the free lists."""
    int_used = sum(
        1 for e in proc.rob if e.uop.dst is not None and e.uop.dst < 32
    )
    fp_used = sum(
        1 for e in proc.rob if e.uop.dst is not None and e.uop.dst >= 32
    )
    int_free_expected = proc.regs_int.total - 32 - int_used
    fp_free_expected = proc.regs_fp.total - 32 - fp_used
    if proc.regs_int.free != int_free_expected or proc.regs_fp.free != fp_free_expected:
        raise SimulationError(
            f"register leak: free {proc.regs_int.free}/{proc.regs_fp.free}, "
            f"expected {int_free_expected}/{fp_free_expected}"
        )


def _check_rename_consistency(proc: Processor) -> None:
    """The rename table points at the youngest in-flight writer of each reg."""
    youngest = {}
    for entry in proc.rob:
        if entry.uop.dst is not None:
            youngest[entry.uop.dst] = entry
    for reg, producer in proc.rename.items():
        if producer.squashed:
            raise SimulationError(f"rename[{reg}] points at squashed {producer}")
        if youngest.get(reg) is not producer:
            raise SimulationError(
                f"rename[{reg}] is {producer}, youngest writer is {youngest.get(reg)}"
            )


def _check_commit_boundary(proc: Processor) -> None:
    """Nothing in the ROB has committed; everything committed left the ROB."""
    for entry in proc.rob:
        if entry.state == InstrState.COMMITTED:
            raise SimulationError(f"committed instruction still in ROB: {entry}")
        if entry.state == InstrState.SQUASHED:
            raise SimulationError(f"squashed instruction still in ROB: {entry}")
