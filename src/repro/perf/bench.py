"""Throughput benchmark for the cycle loop.

Measures committed instructions per wall-clock second for every
dependence-checking scheme over a fixed workload mix, and writes the
machine-readable ``BENCH_simulator.json`` used to track simulator
performance across commits.

Methodology (see ``docs/performance.md``):

* only :meth:`Processor.run` is timed (``SimulationResult.sim_seconds``) —
  trace generation and the functional prewarm exercise unchanged code and
  would dilute the cycle-loop signal;
* each (workload, scheme) pair is simulated once after a small untimed
  warm-up run that settles the interpreter;
* the figure of merit per scheme is total committed instructions divided
  by total simulated seconds across the mix (a weighted harmonic mean of
  the per-workload rates, so slow workloads are not averaged away);
* every row is a **fresh simulation** — the bench never consults the
  execution engine's result cache, so throughput can never be inflated
  by cache hits — and the payload records the effective performance
  knobs (``REPRO_PARALLEL``, cache enablement) because the
  numbers are meaningless without that provenance.

``aggregate_instr_per_sec`` stays sim-time-only (the tracked figure);
``aggregate_instr_per_sec_wall`` divides by true wall time including
trace generation and prewarm, for capacity planning.
"""

import json
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.config import CONFIG2, SCHEME_LABELS, MachineConfig, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import TRACE_TAIL_SLACK, instruction_budget, run_many
from repro.sim.setup_memo import SETUP_MEMO

#: Default output file, at the repository root by convention.
BENCH_FILENAME = "BENCH_simulator.json"

#: The default mix: two integer and two floating-point stand-ins spanning
#: cache-friendly (gzip, equake) and cache-hostile (mcf, twolf) behaviour.
DEFAULT_MIX = ("gzip", "mcf", "twolf", "equake")

#: CI smoke mix: one cheap workload, the two headline schemes.
QUICK_MIX = ("gzip", "mcf")

#: Scheme configurations benchmarked, label -> SchemeConfig — the full
#: canonical matrix, decoded through the one label codec.
FULL_SCHEMES: Tuple[Tuple[str, SchemeConfig], ...] = tuple(
    (label, SchemeConfig.from_label(label)) for label in SCHEME_LABELS
)

QUICK_SCHEMES: Tuple[Tuple[str, SchemeConfig], ...] = tuple(
    (label, SchemeConfig.from_label(label)) for label in ("conventional", "dmdc")
)


def _git_sha(cwd: Optional[str] = None) -> str:
    """The commit of the checkout holding ``cwd`` (this module's by
    default), with ``-dirty`` appended when tracked files differ from
    it: a payload from a modified tree does not name its parent."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40",
             "--match=^"],
            capture_output=True, text=True, timeout=10,
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _machine_info() -> Dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _effective_knobs() -> Dict:
    """Provenance: every performance knob in effect for this run.

    The bench itself runs processors directly (no engine, no cache), but
    a payload compared against engine-driven numbers needs the engine's
    effective settings on record too.
    """
    from repro.exec.options import CACHE_ENABLE_ENV, PARALLEL_ENV, EngineOptions

    options = EngineOptions.from_env()
    tracked = (PARALLEL_ENV, CACHE_ENABLE_ENV)
    return {
        # repro: noqa[REPRO011] — this function *is* the knob recorder:
        # it reads the raw environment precisely to report what was set.
        "engine_cache_enabled": options.cache_enabled,
        "engine_workers": options.resolve_workers(),
        "env": {name: os.environ[name] for name in tracked  # repro: noqa[REPRO011]
                if os.environ.get(name) is not None},
    }


def _bench_one(config: MachineConfig, trace, budget: int, seed: int,
               repeats: int = 1) -> Dict:
    """Time one (config, trace) pair; best sim-time over ``repeats``.

    Repeats re-run a *fresh, identical* simulation and keep the fastest
    timing: the simulated outcome is deterministic, so repeats only
    reject scheduler/VM noise — they can never change the result whose
    throughput is being reported.
    """
    best = None
    for _ in range(max(1, repeats)):
        candidate = Processor(config, trace, seed=seed)
        candidate.prewarm()
        attempt = candidate.run(budget)
        if best is None or attempt.sim_seconds < best[0].sim_seconds:
            best = (attempt, candidate)
    result, processor = best
    total_cycles = result.cycles
    return {
        "instructions": result.committed,
        "cycles": total_cycles,
        "sim_seconds": result.sim_seconds,
        # instructions_per_second already guards sim_seconds <= 0 (a
        # clock too coarse to resolve the run) by answering 0.0.
        "instr_per_sec": result.instructions_per_second,
        "ipc": result.ipc,
        # The route the row's processor took: "soa" unless it replayed
        # a lane.
        "kernel": processor.kernel_used,
        "fast_forwarded_cycles": processor.fast_forwarded_cycles,
        "fast_forward_fraction": (
            processor.fast_forwarded_cycles / total_cycles if total_cycles else 0.0
        ),
    }


def _bench_batch(budget: int, seed: int) -> Dict:
    """Measure ``run_many`` batch amortization over eight design points.

    The same (scheme, workload) sweep is executed twice from cold —
    once as independent :func:`repro.sim.runner.run_workload` calls
    (each paying its own trace generation, prewarm and kernel-buffer
    allocation), once through one :func:`run_many` batch — and the
    payload records both wall times plus a bit-identity check between
    the two result sets.  The setup memo is emptied before every
    timed call, so neither side is served by the other's setup.
    """
    from repro.exec.request import RunRequest
    from repro.sim.runner import run_workload
    from repro.workloads import get_workload

    labels = ("conventional", "storesets", "dmdc", "value")
    requests = [
        RunRequest(CONFIG2.with_scheme(SchemeConfig.from_label(label)),
                   name, budget, seed)
        for label in labels for name in QUICK_MIX
    ]

    start = time.perf_counter()
    singles = []
    for request in requests:
        SETUP_MEMO.clear()
        singles.append(run_workload(
            request.config, get_workload(request.workload),
            max_instructions=request.budget, seed=request.seed))
    wall_individual = time.perf_counter() - start

    SETUP_MEMO.clear()
    start = time.perf_counter()
    batched = run_many(requests)
    wall_run_many = time.perf_counter() - start

    return {
        "points": len(requests),
        "instructions_per_run": budget,
        "design_points": [request.describe() for request in requests],
        "wall_seconds_individual": wall_individual,
        "wall_seconds_run_many": wall_run_many,
        "batch_speedup_wall": (
            wall_individual / wall_run_many if wall_run_many else 0.0),
        "sim_seconds_individual": sum(r.sim_seconds for r in singles),
        "sim_seconds_run_many": sum(r.sim_seconds for r in batched),
        "identical_results": (
            [r.to_dict() for r in singles] == [r.to_dict() for r in batched]),
    }


def run_bench(
    instructions: Optional[int] = None,
    quick: bool = False,
    workloads: Optional[Sequence[str]] = None,
    seed: int = 1,
    progress=None,
    repeats: int = 1,
) -> Dict:
    """Run the benchmark suite; return the ``BENCH_simulator.json`` payload.

    ``progress``, when given, is called with one status string per
    completed (workload, scheme) pair.  ``repeats`` re-times each pair
    that many times and keeps the fastest (see :func:`_bench_one`) — the
    committed payload uses ``repeats=3`` so a noisy co-tenant cannot
    masquerade as a simulator regression.
    """
    from repro.workloads import get_workload

    budget = instructions if instructions is not None else instruction_budget()
    if quick:
        budget = min(budget, 4_000)
    mix = tuple(workloads) if workloads else (QUICK_MIX if quick else DEFAULT_MIX)
    schemes = QUICK_SCHEMES if quick else FULL_SCHEMES

    # Untimed interpreter warm-up on the cheapest pair.
    warm_trace = get_workload(mix[0]).generate(
        min(budget, 3_000) + TRACE_TAIL_SLACK)
    _bench_one(CONFIG2.with_scheme(schemes[0][1]), warm_trace,
               min(budget, 3_000), seed)

    traces = {name: get_workload(name).generate(budget + TRACE_TAIL_SLACK)
              for name in mix}
    wall_start = time.perf_counter()
    scheme_rows: Dict[str, Dict] = {}
    for label, scheme_cfg in schemes:
        config = CONFIG2.with_scheme(scheme_cfg)
        per_workload: Dict[str, Dict] = {}
        total_instr = 0
        total_cycles = 0
        total_seconds = 0.0
        scheme_wall_start = time.perf_counter()
        for name in mix:
            row = _bench_one(config, traces[name], budget, seed, repeats)
            per_workload[name] = row
            total_instr += row["instructions"]
            total_cycles += row["cycles"]
            total_seconds += row["sim_seconds"]
            if progress is not None:
                progress(f"{label:12s} {name:8s} {row['instr_per_sec']:>10.0f} instr/s")
        scheme_wall = time.perf_counter() - scheme_wall_start
        scheme_rows[label] = {
            "instructions": total_instr,
            "cycles": total_cycles,
            "sim_seconds": total_seconds,
            "wall_seconds": scheme_wall,
            "instr_per_sec": total_instr / total_seconds if total_seconds else 0.0,
            "wall_instr_per_sec": total_instr / scheme_wall if scheme_wall else 0.0,
            "per_workload": per_workload,
        }

    agg_instr = sum(r["instructions"] for r in scheme_rows.values())
    agg_seconds = sum(r["sim_seconds"] for r in scheme_rows.values())
    wall_seconds = time.perf_counter() - wall_start

    batch = _bench_batch(min(budget, 4_000), seed)

    return {
        "schema": 3,
        "kind": "simulator-throughput",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "machine": _machine_info(),
        "config": "config2",
        "instructions_per_run": budget,
        "seed": seed,
        "quick": quick,
        "repeats": max(1, repeats),
        "workloads": list(mix),
        "knobs": _effective_knobs(),
        "wall_seconds": wall_seconds,
        "schemes": scheme_rows,
        "batch": batch,
        "aggregate_instr_per_sec": agg_instr / agg_seconds if agg_seconds else 0.0,
        # Honest end-to-end rate over wall time (trace generation and
        # prewarm included) — no cache to hide behind, by construction.
        "aggregate_instr_per_sec_wall": (
            agg_instr / wall_seconds if wall_seconds else 0.0),
    }


def write_bench(payload: Dict, path: str = BENCH_FILENAME) -> str:
    """Write the benchmark payload as stable, diff-friendly JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def validate_payload(payload: Dict) -> List[str]:
    """Sanity-check a benchmark payload; return a list of problems (CI)."""
    problems = []
    for key in ("schema", "git_sha", "machine", "workloads", "schemes",
                "aggregate_instr_per_sec", "instructions_per_run", "knobs"):
        if key not in payload:
            problems.append(f"missing key: {key}")
    if payload.get("schema", 0) >= 3:
        batch = payload.get("batch")
        if not batch:
            problems.append("missing run_many batch row")
        else:
            if batch.get("points", 0) < 8:
                problems.append("batch row covers fewer than 8 design points")
            if not batch.get("identical_results", False):
                problems.append("batch results diverge from individual runs")
    for label, row in payload.get("schemes", {}).items():
        if row.get("instructions", 0) <= 0:
            problems.append(f"scheme {label}: no instructions committed")
        if row.get("instr_per_sec", 0) <= 0:
            problems.append(f"scheme {label}: non-positive throughput")
        if not row.get("per_workload"):
            problems.append(f"scheme {label}: missing per-workload rows")
        for name, sub in (row.get("per_workload") or {}).items():
            if sub.get("sim_seconds", 0) <= 0:
                problems.append(
                    f"scheme {label}/{name}: sim_seconds not resolved "
                    "(clock too coarse?)")
            if payload.get("schema", 0) >= 3 and "kernel" not in sub:
                problems.append(
                    f"scheme {label}/{name}: missing kernel provenance")
    return problems
