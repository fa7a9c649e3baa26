"""One experiment module per table/figure of the paper's evaluation.

Every module declares its design points once, in ``sweep(**params) ->
{label: point}``, reduces their results with ``summarize(results,
**params)`` into a plain dict of rows (JSON-friendly), and prints the
table the paper prints with ``render(data) -> str``.
:mod:`repro.experiments.registry` names the paper artifacts and is the one
runner that turns sweeps into engine requests.  The benchmark harness
under ``benchmarks/`` is a thin wrapper around it; EXPERIMENTS.md records
paper-vs-measured for each artifact.
"""
