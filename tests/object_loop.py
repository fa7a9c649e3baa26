"""The per-cycle object loop: the reference the SoA kernel is tested against.

``Processor.run`` always steps the SoA kernel.  The object loop
(``Processor.step`` and its stages) steps every cycle over
:class:`~repro.backend.dyninst.DynInstr` objects and skips nothing; the
equivalence tests reach it only through these helpers.
"""

from repro.errors import SimulationError
from repro.sim.processor import Processor
from repro.sim.validate import check_invariants


def run_object_loop(processor, max_instructions, max_cycles=None,
                    check_every=0):
    """``processor.run(max_instructions, max_cycles)`` on the object loop.

    With ``check_every`` N, the structural invariants are checked after
    every N-th cycle.  Sets ``kernel_used`` to ``"object"``.
    """
    if max_cycles is None:
        max_cycles = max(200_000, max_instructions * 60)
    target = min(max_instructions, len(processor.trace))
    processor._commit_target = target
    processor.kernel_used = "object"
    while processor.committed < target:
        processor.step()
        if check_every and processor.cycle % check_every == 0:
            check_invariants(processor)
        if processor.cycle > max_cycles:
            raise SimulationError(
                f"no forward progress: {processor.committed}/{target} "
                f"committed after {processor.cycle} cycles on "
                f"{processor.trace.name}")
    processor.scheme.finalize(processor.cycle)
    return processor._build_result()


def run_trace_object_loop(config, trace, max_instructions=None, seed=1,
                          prewarm=True):
    """:func:`repro.sim.runner.run_trace` on the object loop."""
    processor = Processor(config, trace, seed=seed)
    if prewarm:
        processor.prewarm()
    budget = max_instructions if max_instructions is not None else len(trace)
    return run_object_loop(processor, budget)
