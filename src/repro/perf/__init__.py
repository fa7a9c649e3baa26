"""Performance benchmarking (the ``repro bench`` subcommand).

:mod:`repro.perf.bench` measures raw simulator throughput per scheme over
a fixed workload mix and writes ``BENCH_simulator.json``.  The service's
end-to-end load is the benchmark's ``service-mixed`` workload
(``e2ebench/``).
"""

from repro.perf.bench import (
    BENCH_FILENAME,
    DEFAULT_MIX,
    QUICK_MIX,
    run_bench,
    write_bench,
)

__all__ = [
    "BENCH_FILENAME",
    "DEFAULT_MIX",
    "QUICK_MIX",
    "run_bench",
    "write_bench",
]
