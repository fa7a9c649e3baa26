"""The documented advanced surface of ``repro.api``.

Everything here is supported but sharp-edged: direct pipeline access,
hand-built traces, and the engine plumbing most callers never need.
Import them from here; :mod:`repro.api` does not re-export them.

* :class:`Trace`, :class:`MicroOp`, :class:`InstrClass` — hand-built
  instruction streams for :func:`simulate_trace`;
* :class:`Processor` — the cycle-level pipeline itself;
* :func:`small_config` — the deliberately tiny test machine;
* :class:`RunRequest`, :class:`ExecutionEngine`, :class:`EngineOptions`,
  :func:`get_engine`, :func:`use_engine` — the shared execution engine
  (see ``docs/simulator.md``).
"""

from typing import Optional, Union

from repro.exec import (
    EngineOptions,
    ExecutionEngine,
    RunRequest,
    get_engine,
    use_engine,
)
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from repro.isa.trace import Trace
from repro.sim.config import MachineConfig, SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.result import SimulationResult

__all__ = [
    "EngineOptions",
    "ExecutionEngine",
    "InstrClass",
    "MicroOp",
    "Processor",
    "RunRequest",
    "Trace",
    "get_engine",
    "simulate_trace",
    "small_config",
    "use_engine",
]


def simulate_trace(trace: Trace,
                   scheme: Union[str, SchemeConfig] = "conventional",
                   config: Optional[MachineConfig] = None,
                   *,
                   instructions: Optional[int] = None,
                   seed: int = 1) -> SimulationResult:
    """Run a hand-built :class:`Trace` directly on the pipeline.

    Trace-level runs bypass the engine/cache (a hand-built trace has no
    canonical content address) — for the cached path, define a
    :class:`~repro.workloads.WorkloadSpec` and use :func:`repro.api.run`.
    """
    if isinstance(scheme, str):
        scheme = SchemeConfig.from_label(scheme)
    machine = (config if config is not None
               else small_config(wrongpath_loads=False)).with_scheme(scheme)
    processor = Processor(machine, trace, seed=seed)
    return processor.run(instructions if instructions is not None else len(trace))
