"""Structural invariants of the SoA kernel's pipeline state.

:func:`check_invariants` inspects a live :class:`~repro.sim.soa.SoaKernel`
(its age-ordered slot queues, slot columns, issue-queue counts, register
free lists and rename table) and raises
:class:`~repro.errors.SimulationError` on any violated structural
property.  The checks are independent of the timing model: they express
what a correct out-of-order machine can never do.  The shadow-oracle
sanitizer (:mod:`repro.analysis.sanitizer`) runs them at every retire, so
the kernel that produces the numbers is the kernel they check.
"""

from repro.errors import SimulationError
from repro.sim.soa import _ST_COMMITTED, _ST_SQUASHED


def check_invariants(k) -> None:
    """Raise on the first violated structural invariant of kernel ``k``.

    The sanitizer calls it at every retire, so it walks the ROB once.
    """
    seq_ = k.seq
    state_ = k.state
    icyc_ = k.icyc
    fp_ = k.fp
    tidx_ = k.tidx
    tdst = k.t.dst
    pbits = k.pbits
    # The ROB is age-ordered and holds no committed or squashed
    # instruction.  Count what the live ones hold: IQ entries (not yet
    # issued), physical registers, and the youngest in-flight writer of
    # each architectural register.
    iq_held = [0, 0]    # int, fp
    regs_held = [0, 0]  # int, fp
    youngest = {}
    last = -1
    for slot in k.rob:
        seq = seq_[slot]
        if seq <= last:
            _disorder("ROB", k.rob, seq_)
        last = seq
        st = state_[slot]
        if st == _ST_COMMITTED or st == _ST_SQUASHED:
            kind = "committed" if st == _ST_COMMITTED else "squashed"
            raise SimulationError(
                f"{kind} instruction still in ROB: slot {slot} seq {seq}")
        if icyc_[slot] < 0:
            iq_held[fp_[slot]] += 1
        dst = tdst[tidx_[slot]]
        if dst >= 0:
            regs_held[dst >= 32] += 1
            youngest[dst] = seq << pbits | slot

    # The LQ and SQ are age-ordered, and every slot in them is a live
    # load/store in the ROB.
    in_rob = set(k.rob)
    for name, queue, is_kind in (("LQ", k.lq, k.isld), ("SQ", k.sq, k.isst)):
        last = -1
        for slot in queue:
            seq = seq_[slot]
            if seq <= last:
                _disorder(name, queue, seq_)
            last = seq
            if not is_kind[slot] or slot not in in_rob:
                raise SimulationError(f"stale {name} entry: slot {slot} seq {seq}")

    # Issue-queue occupancy counts match the instructions holding entries.
    if iq_held != [k.iq_int, k.iq_fp]:
        raise SimulationError(
            f"IQ accounting drift: counted {k.iq_int}/{k.iq_fp}, "
            f"held {iq_held[0]}/{iq_held[1]}")
    if k.iq_int > k.iq_int_cap or k.iq_fp > k.iq_fp_cap:
        raise SimulationError("IQ over capacity")

    # Physical registers in flight are those missing from the free lists.
    int_free = k.regs_int.total - 32 - regs_held[0]
    fp_free = k.regs_fp.total - 32 - regs_held[1]
    if k.regs_int.free != int_free or k.regs_fp.free != fp_free:
        raise SimulationError(
            f"register leak: free {k.regs_int.free}/{k.regs_fp.free}, "
            f"expected {int_free}/{fp_free}")

    # The rename table maps each register to its youngest in-flight
    # writer, and nothing else (-1).
    rename = k.rename
    if (len(rename) - rename.count(-1) != len(youngest)
            or any(rename[reg] != enc for reg, enc in youngest.items())):
        for reg, enc in enumerate(rename):
            if enc != youngest.get(reg, -1):
                raise SimulationError(
                    f"rename[{reg}] is {enc}, youngest writer is "
                    f"{youngest.get(reg, -1)}")


def _disorder(name: str, queue, seq_) -> None:
    ages = [seq_[slot] for slot in queue]
    raise SimulationError(f"{name} not age-ordered: {ages}")
