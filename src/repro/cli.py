"""Command-line interface: ``python -m repro <command>``.

``run``, ``compare``, ``check``, ``profile`` and ``timeline`` are shells
over :mod:`repro.api`: each parses its flags, calls one api verb and
prints what it returns, so the CLI, scripts and the examples reach every
result by one route (``run`` and ``compare`` through the engine and its
disk result cache).

Commands:

``workloads``
    List the 26 synthetic SPEC CPU2000 stand-ins and their key parameters.
``configs``
    Show the paper's three machine configurations (Table 1).
``run``
    Simulate one workload under one scheme/config; print the summary (and
    optionally the full counter dump as JSON).
``compare``
    Run the conventional baseline and DMDC side by side with the energy
    verdict.
``experiment``
    Regenerate one table/figure of the paper by id (see ``--list``), or
    every registered artifact in one planned, deduplicated, cached sweep
    (``--all``).
``trace``
    Generate, save, load, and inspect binary traces.
``timeline``
    Render an ASCII pipeline timeline of the last instructions of a
    profiled run.
``profile``
    Run one workload with full observability attached and print the
    cycle/structure attribution report, top replay sites, and a recent
    pipeline timeline; exits non-zero if the event-derived attribution
    fails to reconcile with the counter totals (``docs/observability.md``).
``bench``
    Measure simulator throughput (committed instructions per second) for
    every scheme over a fixed workload mix; write ``BENCH_simulator.json``.
``check``
    Correctness tooling (see ``docs/correctness.md``): ``--static`` runs
    the repo-specific AST lint pass, ``--concurrency`` the concurrency
    discipline rules, ``--sanitize`` the shadow-oracle memory-ordering
    sanitizer over scheme/workload sweeps; with none of them, all three
    run.
``serve``
    Long-lived JSON-over-HTTP simulation service (see ``docs/service.md``):
    batched, deduplicating, backpressured access to the execution engine
    for streams of small design-point queries; ``--shards N`` runs N
    engine shards routed by content-address hash.
``sweep``
    The design-space autopilot (see ``docs/sweeps.md``): run a declarative
    grid (``--preset`` or ``--axis NAME=V1,V2,...``) through the local
    engine or a running service (``--service``), streaming results to a
    resumable JSONL ledger, then print the cache-hit accounting block and
    the paper-figure-style report.
"""

import argparse
import json
import os
import sys
import time

from repro import api
from repro.errors import ConfigError
from repro.isa.serialize import load_trace_file, save_trace_file
from repro.sim.config import CONFIG1, CONFIG2, CONFIG3, SchemeConfig
from repro.stats.report import format_table
from repro.workloads import SUITE, get_workload

CONFIGS = {"config1": CONFIG1, "config2": CONFIG2, "config3": CONFIG3}


def _scheme_from_args(args) -> SchemeConfig:
    """Decode ``--scheme`` through the canonical label codec, then overlay
    any explicitly-passed modifier flags."""
    from dataclasses import replace

    try:
        scheme = SchemeConfig.from_label(args.scheme)
    except ConfigError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    overrides = {}
    if args.yla_registers is not None:
        overrides["yla_registers"] = args.yla_registers
    if args.bloom_entries is not None:
        overrides["bloom_entries"] = args.bloom_entries
    if args.local:
        overrides["local"] = True
    if args.coherence:
        overrides["coherence"] = True
    if args.no_safe_loads:
        overrides["safe_loads"] = False
    if args.checking_queue is not None:
        overrides["checking_queue_entries"] = args.checking_queue
    if args.store_sets:
        overrides["store_sets"] = True
    return replace(scheme, **overrides) if overrides else scheme


def _add_scheme_args(parser) -> None:
    parser.add_argument("--scheme", default="conventional", metavar="LABEL",
                        help="canonical scheme label: a kind (conventional, "
                             "yla, bloom, dmdc, garg, value, storesets) plus "
                             "optional suffixes, e.g. dmdc-local, "
                             "dmdc-queue8, yla-regs16 (SchemeConfig.from_label)")
    parser.add_argument("--yla-registers", type=int, default=None)
    parser.add_argument("--bloom-entries", type=int, default=None)
    parser.add_argument("--local", action="store_true",
                        help="local DMDC windows (Section 4.4)")
    parser.add_argument("--coherence", action="store_true",
                        help="enable coherent DMDC / coherent baseline")
    parser.add_argument("--no-safe-loads", action="store_true",
                        help="disable safe-load detection (ablation)")
    parser.add_argument("--checking-queue", type=int, default=None,
                        metavar="N", help="use an N-entry checking queue")
    parser.add_argument("--store-sets", action="store_true",
                        help="enable store-set dependence prediction")
    parser.add_argument("--config", default="config2", choices=sorted(CONFIGS))
    parser.add_argument("--instructions", "-n", type=int, default=12_000)
    parser.add_argument("--invalidation-rate", type=float, default=0.0,
                        metavar="R", help="invalidations per 1000 cycles")
    parser.add_argument("--seed", type=int, default=1)


def cmd_workloads(args) -> int:
    rows = []
    for name, workload in SUITE.items():
        spec = workload.spec
        rows.append([
            name, spec.group, f"{spec.working_set_kb} KB",
            f"{spec.load_fraction:.0%}/{spec.store_fraction:.0%}",
            f"{spec.branch_fraction:.0%}",
            f"{spec.store_addr_dep_load:.1%}",
        ])
    print(format_table(
        ["workload", "group", "working set", "ld/st", "branches", "pointer stores"],
        rows, title="Synthetic SPEC CPU2000 stand-in suite"))
    return 0


def cmd_configs(args) -> int:
    rows = []
    for name, cfg in CONFIGS.items():
        rows.append([
            name, cfg.rob_size, f"{cfg.iq_int}/{cfg.iq_fp}",
            f"{cfg.lq_size}/{cfg.sq_size}",
            f"{cfg.regs_int}/{cfg.regs_fp}", cfg.checking_table,
        ])
    print(format_table(
        ["config", "ROB", "IQ int/fp", "LQ/SQ", "regs int/fp", "checking table"],
        rows, title="Machine configurations (paper Table 1)"))
    return 0


def _point(args) -> dict:
    """The api keywords of the design point the scheme flags name."""
    rate = args.invalidation_rate
    return {"scheme": _scheme_from_args(args), "config": args.config,
            "instructions": args.instructions, "seed": args.seed,
            "overrides": {"invalidation_rate": rate} if rate else None}


def cmd_run(args) -> int:
    try:
        result = api.run(args.workload, **_point(args))
    except ConfigError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "workload": result.workload,
            "config": result.config_name,
            "scheme": result.scheme_name,
            "summary": result.summary(),
            "counters": result.counters.as_dict(),
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(f"{result.workload} on {result.config_name} under {result.scheme_name}:")
    for key, value in result.summary().items():
        print(f"  {key:26s} {value:.4g}" if isinstance(value, float)
              else f"  {key:26s} {value}")
    return 0


def cmd_compare(args) -> int:
    try:
        report = api.compare(
            args.workload, scheme=SchemeConfig(kind="dmdc", local=args.local),
            config=args.config, instructions=args.instructions)
    except ConfigError as exc:
        print(f"repro compare: {exc}", file=sys.stderr)
        return 2
    print(report.table())
    print(report.verdict())
    return 0


def _engine_progress(done: int, total: int, request, source: str) -> None:
    width = len(str(total))
    print(f"  [{done:>{width}}/{total}] {source:5s} {request.workload_name} "
          f"on {request.config.name}:{request.config.scheme.kind}",
          file=sys.stderr)


def _engine_options(args):
    """Explicit engine options from CLI flags (env vars remain defaults)."""
    from repro.exec import EngineOptions

    return EngineOptions.from_env(
        cache_enabled=False if args.no_cache else None,
        max_workers=args.jobs,
    )


def cmd_experiment_all(args, engine) -> int:
    from repro.experiments.registry import run_all

    start = time.perf_counter()
    before = dict(engine.stats.summary())
    engine.progress = _engine_progress
    try:
        rendered = run_all(budget=args.budget, engine=engine)
    finally:
        engine.progress = None

    for exp_id, _, text in rendered:
        print(text)
        print()
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{exp_id}.txt"), "w") as fh:
                fh.write(text + "\n")
    if args.out:
        print(f"wrote {len(rendered)} artifacts to {args.out}", file=sys.stderr)

    after = engine.stats.summary()
    planned, unique, disk_hits, executed = (
        int(after[key] - before[key])
        for key in ("requested", "unique", "disk_hits", "executed"))
    hit_rate = 100.0 * disk_hits / unique if unique else 0.0
    print(f"engine: {planned} design points across {len(rendered)} experiments "
          f"-> {unique} unique ({planned - unique} duplicates folded)",
          file=sys.stderr)
    print(f"engine: {disk_hits} disk cache hits, {executed} simulated; "
          f"cache hit rate {hit_rate:.1f}%; "
          f"total {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    from repro.exec import get_engine, use_engine
    from repro.experiments.registry import EXPERIMENTS, run_experiment
    if args.list or (not args.id and not args.all):
        for exp in EXPERIMENTS.values():
            print(f"  {exp.id:16s} {exp.paper_artifact}")
        return 0
    if not args.all and args.id not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; use --list", file=sys.stderr)
        return 2
    try:
        engine = get_engine(_engine_options(args))
        if args.all:
            return cmd_experiment_all(args, engine)
        with use_engine(engine):
            _, text = run_experiment(args.id, budget=args.budget)
    except ConfigError as exc:
        print(f"repro experiment: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


def cmd_trace(args) -> int:
    if args.inspect:
        trace = load_trace_file(args.inspect)
        print(f"{trace.name}: {len(trace)} micro-ops, group {trace.group}")
        for cls, frac in trace.mix().items():
            print(f"  {cls:8s} {frac:.1%}")
        return 0
    trace = get_workload(args.workload).generate(args.instructions)
    n = save_trace_file(trace, args.out)
    print(f"wrote {len(trace)} micro-ops ({n} bytes) to {args.out}")
    return 0


def cmd_report(args) -> int:
    from repro.reporting import write_report
    text = write_report(args.results, args.out)
    if not args.out:
        print(text)
    else:
        print(f"wrote report to {args.out}")
    return 0


def cmd_bench(args) -> int:
    from repro.perf import run_bench, write_bench
    from repro.perf.bench import validate_payload

    payload = run_bench(
        instructions=args.instructions,
        quick=args.quick,
        workloads=args.workload or None,
        seed=args.seed,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
        repeats=args.repeats,
    )
    problems = validate_payload(payload)
    if problems:
        for problem in problems:
            print(f"bench: {problem}", file=sys.stderr)
        return 1
    rows = [
        [label, row["instructions"], f"{row['sim_seconds']:.2f}",
         f"{row['instr_per_sec']:,.0f}"]
        for label, row in payload["schemes"].items()
    ]
    print(format_table(
        ["scheme", "instructions", "seconds", "instr/s"], rows,
        title=f"Simulator throughput ({', '.join(payload['workloads'])})"))
    skipped = sum(sub["fast_forwarded_cycles"]
                  for row in payload["schemes"].values()
                  for sub in row["per_workload"].values())
    cycles = sum(row["cycles"] for row in payload["schemes"].values())
    print(f"aggregate: {payload['aggregate_instr_per_sec']:,.0f} instr/s "
          f"({skipped / cycles if cycles else 0.0:.1%} of cycles "
          "fast-forwarded)")
    path = write_bench(payload, args.out or "BENCH_simulator.json")
    print(f"wrote {path}")
    return 0


def _lint_payload(violations, rules) -> dict:
    """JSON shape for one lint pass: findings plus per-rule accounting.

    ``by_rule`` counts every active rule (zeroes included) so a consumer
    can tell "rule ran and found nothing" from "rule did not run".
    """
    by_rule = {rule.rule_id: 0 for rule in rules}
    for violation in violations:
        by_rule[violation["rule_id"]] = by_rule.get(violation["rule_id"], 0) + 1
    return {
        "violations": violations,
        "count": len(violations),
        "by_rule": by_rule,
        "active_rules": sorted(rule.rule_id for rule in rules),
    }


def cmd_check(args) -> int:
    from repro.analysis.conc import CONC_RULES, conc_rule_catalogue
    from repro.analysis.lint import (
        LintViolation,
        format_violations,
        rule_catalogue,
    )
    from repro.analysis.lint.rules import RULES
    from repro.analysis.sanitizer import format_report
    from repro.api import _FILTERING_SCHEMES

    if args.list_rules:
        print(rule_catalogue())
        print()
        print(conc_rule_catalogue())
        return 0

    only = [name for name in ("static", "concurrency", "sanitize")
            if getattr(args, name)]
    try:
        checked = api.check(
            args.paths or None,
            static=not only or args.static,
            concurrency=not only or args.concurrency,
            sanitize=not only or args.sanitize,
            schemes=args.scheme, workloads=args.workload,
            instructions=args.instructions, config=args.config,
            seed=args.seed, strict=args.strict)
    except ConfigError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2

    if args.json:
        payload = {half: _lint_payload(checked[half], rules)
                   for half, rules in (("static", RULES),
                                       ("concurrency", CONC_RULES))
                   if half in checked}
        if "sanitize" in checked:
            payload["sanitize"] = checked["sanitize"]
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for half in ("static", "concurrency"):
            if half in checked:
                violations = [LintViolation(**v) for v in checked[half]]
                print(format_violations(violations).replace(
                    "--static", f"--{half}", 1))
        for entry in checked.get("sanitize", ()):
            inactive = (entry["label"] in _FILTERING_SCHEMES
                        and entry["filtered_searches"] == 0)
            note = " [NO FILTERING ACTIVITY]" if inactive else ""
            print(f"{entry['workload']:>8s}/{entry['label']:<12s} "
                  f"{format_report(entry)}{note}")
        if checked["ok"]:
            print("repro check: OK")
    return 0 if checked["ok"] else 1


def cmd_serve(args) -> int:
    from repro.exec import EngineOptions
    from repro.service import ServiceConfig, serve

    options = EngineOptions.from_env(
        cache_enabled=False if args.no_cache else None,
        cache_dir=args.cache_dir,
        max_workers=args.jobs,
        shards=args.shards,
    )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batch_window=args.batch_window / 1000.0,
        request_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        engine_options=options,
    )
    return serve(config, verbose=args.verbose)


def _parse_axis_value(token: str):
    """CLI axis token -> int, float, or string (in that order)."""
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def _sweep_spec(args):
    """Build the GridSpec named by the CLI flags."""
    from repro.sweeps import GridError, GridSpec, get_preset

    if args.preset and args.axis:
        raise GridError("give --preset or --axis grids, not both")
    if args.preset:
        spec = get_preset(args.preset)
        if args.baseline:
            spec.baseline = args.baseline
        return spec
    axes = {}
    for item in args.axis or []:
        if "=" not in item:
            raise GridError(
                f"bad --axis {item!r}; expected NAME=V1,V2,...")
        name, _, values = item.partition("=")
        axes[name.strip()] = [_parse_axis_value(v)
                              for v in values.split(",") if v.strip()]
    if args.scheme:
        axes.setdefault("scheme", list(args.scheme))
    if args.workload:
        axes.setdefault("workload", list(args.workload))
    if not axes:
        raise GridError(
            "nothing to sweep: give --preset NAME (see --list-presets) "
            "or --axis/--scheme/--workload")
    base = {"config": args.config, "seed": args.seed}
    if args.instructions is not None:
        base["instructions"] = args.instructions
    return GridSpec(axes=axes, base=base, baseline=args.baseline,
                    name=args.name)


def _service_client(endpoint: str, args):
    """A retrying ServiceClient for one ``[HOST:]PORT`` endpoint."""
    from repro.service import RetryPolicy, ServiceClient

    host, _, port = endpoint.strip().rpartition(":")
    if not port.isdigit():
        raise ConfigError(
            f"bad service endpoint {endpoint.strip()!r}; expected [HOST:]PORT")
    return ServiceClient(
        host=host or "127.0.0.1", port=int(port), timeout=args.timeout,
        retry=RetryPolicy(max_total_wait=args.max_retry_wait))


def cmd_sweep(args) -> int:
    from repro.errors import ReproError
    from repro.sweeps import PRESETS, run_sweep, validate_report_payload

    if args.list_presets:
        rows = []
        for name, factory in sorted(PRESETS.items()):
            spec = factory()
            expansion = spec.expand()
            axes = ", ".join(f"{axis}[{len(values)}]"
                             for axis, values in spec.axes.items())
            rows.append([name, len(expansion), axes,
                         spec.baseline or "-"])
        print(format_table(["preset", "points", "axes", "baseline"], rows,
                           title="Sweep presets"))
        return 0

    client = None
    engine = None
    workers = None
    try:
        spec = _sweep_spec(args)
        if args.workers:
            if args.service:
                print("repro sweep: pass --workers or --service, not both",
                      file=sys.stderr)
                return 2
            spec_text = args.workers.strip()
            # A plain integer is a local pool size; anything with a
            # comma or colon is a service endpoint list (a single bare
            # port must be written HOST:PORT or PORT, — to fan out to
            # one service, prefer --service PORT anyway).
            if spec_text.isdigit():
                workers = int(spec_text)
                from repro.exec import get_engine
                engine = get_engine(_engine_options(args))
            else:
                workers = [_service_client(endpoint, args)
                           for endpoint in spec_text.split(",")
                           if endpoint.strip()]
        elif args.service:
            client = _service_client(args.service, args)
        else:
            from repro.exec import get_engine
            engine = get_engine(_engine_options(args))

        def progress(done, total, point, source):
            if args.quiet:
                return
            width = len(str(total))
            workload = point["workload"]
            name = workload if isinstance(workload, str) else workload["name"]
            print(f"  [{done:>{width}}/{total}] {source:7s} "
                  f"{point['scheme']} / {name}", file=sys.stderr)

        outcome = run_sweep(spec, engine=engine, client=client,
                            ledger=args.ledger, chunk=args.chunk,
                            progress=progress, limit=args.limit,
                            workers=workers)
    except ReproError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2

    print(outcome.accounting.format_block())
    if not outcome.complete:
        print(f"sweep incomplete: {len(outcome.entries)}/"
              f"{len(outcome.points)} points done"
              + (f"; re-run with --ledger {outcome.ledger_path} to resume"
                 if outcome.ledger_path else ""))

    report = None
    if outcome.complete and not args.no_report:
        report = outcome.report()
        print()
        print(report.render())

    if args.json_out:
        payload = {
            "schema": 1,
            "complete": outcome.complete,
            "accounting": outcome.accounting.as_dict(),
            "report": report.to_dict() if report is not None else None,
        }
        if report is not None:
            problems = validate_report_payload(payload["report"])
            if problems:
                for problem in problems:
                    print(f"repro sweep: report schema: {problem}",
                          file=sys.stderr)
                return 1
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    # Quarantined points fail the command; a --limit stop does not.
    return 1 if outcome.accounting.failed else 0


def cmd_timeline(args) -> int:
    report = api.profile(args.workload, **_point(args),
                         timeline_capacity=args.rows * 4)
    print(report.timeline(args.rows, args.width))
    return 0


def cmd_profile(args) -> int:
    point = _point(args)
    if args.quick:
        point["instructions"] = min(args.instructions, 4_000)
    report = api.profile(args.workload, **point,
                         ring_capacity=args.events, jsonl_path=args.jsonl,
                         timeline_capacity=max(args.rows * 4, 64))
    if args.json:
        json.dump(report.to_dict(include_events=args.dump_events),
                  sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(report.render(top=args.top, timeline_rows=args.rows,
                            timeline_width=args.width))
    if args.jsonl:
        print(f"wrote {report.recorder.events_emitted} events to {args.jsonl}",
              file=sys.stderr)
    if not report.ok:
        for line in report.attribution.mismatches():
            print(f"profile: reconciliation mismatch {line.name}: "
                  f"events={line.from_events} counters={line.from_counters}",
                  file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DMDC (MICRO 2006) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the synthetic suite")
    sub.add_parser("configs", help="show Table 1 machine configurations")

    p = sub.add_parser("run", help="simulate one workload")
    p.add_argument("workload")
    _add_scheme_args(p)
    p.add_argument("--json", action="store_true", help="dump counters as JSON")

    p = sub.add_parser("compare", help="baseline vs DMDC on one workload")
    p.add_argument("workload")
    p.add_argument("--config", default="config2", choices=sorted(CONFIGS))
    p.add_argument("--instructions", "-n", type=int, default=12_000)
    p.add_argument("--local", action="store_true")

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--all", action="store_true",
                   help="plan the union of every experiment's design points "
                        "and regenerate all artifacts in one deduplicated, "
                        "cached sweep")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the disk result cache for this invocation")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="simulation worker processes (0 = serial; "
                        "default min(cpus, 12))")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="with --all, also write each rendered artifact to "
                        "DIR/<id>.txt")

    p = sub.add_parser("trace", help="generate or inspect binary traces")
    p.add_argument("--workload", default="gzip")
    p.add_argument("--instructions", "-n", type=int, default=10_000)
    p.add_argument("--out", default="trace.dmdc")
    p.add_argument("--inspect", metavar="FILE")

    p = sub.add_parser("report", help="assemble benchmark results into markdown")
    p.add_argument("--results", default="benchmarks/results")
    p.add_argument("--out", default=None)

    p = sub.add_parser("timeline", help="render an ASCII pipeline timeline")
    p.add_argument("workload")
    _add_scheme_args(p)
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--width", type=int, default=100)

    p = sub.add_parser(
        "profile", help="cycle/structure attribution profile of one run")
    p.add_argument("workload")
    _add_scheme_args(p)
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: cap the budget at 4000 instructions")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="replay sites to list (default %(default)s)")
    p.add_argument("--rows", type=int, default=24,
                   help="timeline rows (default %(default)s)")
    p.add_argument("--width", type=int, default=100,
                   help="timeline width in cycles (default %(default)s)")
    p.add_argument("--events", type=int, default=4096, metavar="N",
                   help="in-memory event ring capacity (default %(default)s)")
    p.add_argument("--jsonl", default=None, metavar="FILE",
                   help="also append every event to FILE as JSON lines")
    p.add_argument("--json", action="store_true",
                   help="emit the attribution report as JSON")
    p.add_argument("--dump-events", action="store_true",
                   help="with --json, include the retained event ring")

    p = sub.add_parser(
        "check", help="lint pass + concurrency analysis + sanitizer")
    p.add_argument("--static", action="store_true",
                   help="run only the AST lint pass")
    p.add_argument("--concurrency", action="store_true",
                   help="run only the concurrency discipline analysis "
                        "(REPRO008-REPRO012)")
    p.add_argument("--sanitize", action="store_true",
                   help="run only the shadow-oracle sanitizer sweep")
    p.add_argument("--list-rules", action="store_true",
                   help="print the lint rule catalogue and exit")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src)")
    p.add_argument("--scheme", action="append", metavar="LABEL",
                   help="sanitize only LABEL (repeatable; default: the "
                        "full nine-scheme matrix)")
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="sanitize on NAME (repeatable; default: gzip, mcf)")
    # Default budget chosen so the sweep actually crosses a true ordering
    # violation (mcf's first premature load lands before 6k instructions);
    # a sweep that never sees a violation proves soundness vacuously.
    p.add_argument("--instructions", "-n", type=int, default=6_000)
    p.add_argument("--config", default="config2", choices=sorted(CONFIGS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--strict", action="store_true",
                   help="raise on the first sanitizer defect")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "serve", help="run the batched, backpressured simulation service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8351,
                   help="TCP port (0 = ephemeral; the bound address is "
                        "printed on startup)")
    p.add_argument("--max-queue", type=int, default=256, metavar="N",
                   help="admission bound: max design points pending + "
                        "executing before 429 (default %(default)s)")
    p.add_argument("--max-batch", type=int, default=64, metavar="N",
                   help="max design points per engine batch")
    p.add_argument("--batch-window", type=float, default=5.0, metavar="MS",
                   help="micro-batch accumulation window in milliseconds")
    p.add_argument("--timeout", type=float, default=120.0, metavar="S",
                   help="per-request wait before answering 503")
    p.add_argument("--drain-timeout", type=float, default=60.0, metavar="S",
                   help="SIGTERM drain bound in seconds")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="simulation worker processes (split across shards)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="engine shards; design points route to shards by "
                        "content-address hash (default: REPRO_SHARDS or 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="run without the disk result cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="disk result cache location")
    p.add_argument("--verbose", action="store_true",
                   help="log every request to stderr")

    p = sub.add_parser(
        "sweep", help="design-space autopilot: declarative grid -> report")
    p.add_argument("--preset", default=None, metavar="NAME",
                   help="run a named preset grid (see --list-presets)")
    p.add_argument("--list-presets", action="store_true",
                   help="list preset grids and exit")
    p.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                   help="add a grid axis (repeatable): point fields "
                        "(workload, scheme, config, instructions, seed), "
                        "scheme knobs (table, regs, gran, queue, entries), "
                        "or any MachineConfig field (width, lq_size, ...)")
    p.add_argument("--scheme", action="append", metavar="LABEL",
                   help="shorthand for --axis scheme=... (repeatable)")
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="shorthand for --axis workload=... (repeatable)")
    p.add_argument("--config", default="config2", choices=sorted(CONFIGS))
    p.add_argument("--instructions", "-n", type=int, default=None,
                   help="committed-instruction budget per point "
                        "(default: the codec's 12000)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--baseline", default=None, metavar="LABEL",
                   help="inject LABEL once per machine slice and report "
                        "speedups/energy against it")
    p.add_argument("--name", default="grid",
                   help="grid name for the ledger header and report")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="stream results to FILE (JSONL); re-running with "
                        "the same grid resumes, skipping completed points")
    p.add_argument("--service", default=None, metavar="[HOST:]PORT",
                   help="execute through a running `repro serve` instance "
                        "instead of the local engine")
    p.add_argument("--workers", default=None, metavar="N|HOST:PORT,...",
                   help="fan the sweep out: an integer runs a local pool "
                        "of N single-slot engine processes; a comma list "
                        "of [HOST:]PORT endpoints partitions points "
                        "across several `repro serve` instances (the "
                        "ledger stays byte-identical to a 1-worker run)")
    p.add_argument("--timeout", type=float, default=120.0, metavar="S",
                   help="with --service/--workers: per-request HTTP timeout")
    p.add_argument("--max-retry-wait", type=float, default=120.0,
                   metavar="S",
                   help="total backpressure budget: cumulative seconds a "
                        "saturated service (429 + Retry-After) may keep "
                        "one point waiting before the sweep gives up")
    p.add_argument("--chunk", type=int, default=64, metavar="N",
                   help="largest batch a worker is handed (one engine "
                        "run or one service request)")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="simulate at most N missing points this invocation "
                        "(the ledger makes the rest resumable)")
    p.add_argument("--json-out", default=None, metavar="FILE",
                   help="write the machine-readable report artifact "
                        "(schema-validated) to FILE")
    p.add_argument("--no-report", action="store_true",
                   help="skip the paper-figure-style report")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress lines")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the disk result cache for this invocation")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="simulation worker processes")

    p = sub.add_parser("bench", help="measure simulator throughput")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: fewer workloads/schemes, small budget")
    p.add_argument("--instructions", "-n", type=int, default=None,
                   help="committed-instruction budget per run "
                        "(default: REPRO_INSTRUCTIONS or 12000)")
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="benchmark only NAME (repeatable; default: the mix)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=1,
                   help="timings per (workload, scheme) pair, keeping the "
                        "fastest (committed payloads use 3)")
    p.add_argument("--out", default=None,
                   help="output JSON path (default: BENCH_simulator.json)")

    return parser


_COMMANDS = {
    "workloads": cmd_workloads,
    "configs": cmd_configs,
    "run": cmd_run,
    "compare": cmd_compare,
    "experiment": cmd_experiment,
    "trace": cmd_trace,
    "report": cmd_report,
    "timeline": cmd_timeline,
    "profile": cmd_profile,
    "bench": cmd_bench,
    "check": cmd_check,
    "serve": cmd_serve,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
