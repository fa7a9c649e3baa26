"""Design-space autopilot: declarative grids -> engine/service -> report.

The pipeline (see ``docs/sweeps.md``):

* :class:`GridSpec` (:mod:`repro.sweeps.grid`) — declarative axes +
  constraints + presets, expanding deterministically into canonical
  design points through the one point codec (:mod:`repro.sweeps.points`,
  also the grammar of the HTTP service);
* :func:`run_sweep` (:mod:`repro.sweeps.orchestrator`) — executes a grid
  through one executor (:mod:`repro.sweeps.fanout`) on a list of
  workers: the local :class:`~repro.exec.engine.ExecutionEngine`, a
  running sharded service, or a pool of either, streaming to a
  resumable JSONL :class:`SweepLedger` with cache-hit/dedup accounting;
* :class:`SweepReport` (:mod:`repro.sweeps.report`) — pivots a completed
  ledger into paper-figure-style tables and a schema-gated
  machine-readable artifact.

``repro sweep`` is the CLI face of all three.
"""

from repro.sweeps.grid import (
    PRESETS,
    SCHEME_AXES,
    GridError,
    GridExpansion,
    GridSpec,
    get_preset,
)
from repro.sweeps.ledger import LedgerError, SweepLedger, read_ledger
from repro.sweeps.orchestrator import (
    SweepAccounting,
    SweepError,
    SweepOutcome,
    run_sweep,
)
from repro.sweeps.points import (
    NAMED_CONFIGS,
    PointSpecError,
    canonical_point,
    normalize_point,
    point_for_request,
)
from repro.sweeps.report import (
    ReportError,
    SweepReport,
    report_from_ledger,
    validate_report_payload,
)
from repro.sweeps.result import SweepResult, WorkerStats

__all__ = [
    "NAMED_CONFIGS",
    "PRESETS",
    "SCHEME_AXES",
    "GridError",
    "GridExpansion",
    "GridSpec",
    "LedgerError",
    "PointSpecError",
    "ReportError",
    "SweepAccounting",
    "SweepError",
    "SweepLedger",
    "SweepOutcome",
    "SweepReport",
    "SweepResult",
    "WorkerStats",
    "canonical_point",
    "get_preset",
    "normalize_point",
    "point_for_request",
    "read_ledger",
    "report_from_ledger",
    "run_sweep",
    "validate_report_payload",
]
