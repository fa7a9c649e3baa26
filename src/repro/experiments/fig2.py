"""Figure 2: LQ searches filtered vs number and interleaving of YLA registers.

Paper result: with one YLA register 71% (INT) / 80% (FP) of stores are
safe; with 8 quad-word-interleaved registers 95-98%.  Quad-word
interleaving beats cache-line interleaving (16 line-interleaved registers
roughly match 4 quad-word ones).
"""

from typing import Dict, List

from repro.experiments.common import group_means
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

REGISTER_COUNTS = (1, 2, 4, 8, 16)
GRANULARITIES = {"quad-word": 8, "cache-line": 128}


def sweep(register_counts=REGISTER_COUNTS) -> Dict:
    configs = {}
    for label, gran in GRANULARITIES.items():
        for n in register_counts:
            scheme = SchemeConfig(kind="yla", yla_registers=n, yla_granularity=gran)
            configs[f"{label}:{n}"] = CONFIG2.with_scheme(scheme)
    return configs


def summarize(results: Dict, register_counts=REGISTER_COUNTS) -> Dict:
    """Sweep YLA register count x interleaving over the full suite."""
    rows: List[Dict] = []
    for label, gran in GRANULARITIES.items():
        for n in register_counts:
            summary = group_means(
                results[f"{label}:{n}"], lambda r: 100.0 * r.safe_store_fraction
            )
            for group, stats in summary.items():
                rows.append({
                    "interleaving": label,
                    "registers": n,
                    "group": group,
                    "filtered_mean": stats["mean"],
                    "filtered_min": stats["min"],
                    "filtered_max": stats["max"],
                })
    return {"experiment": "fig2", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            row["group"],
            row["interleaving"],
            row["registers"],
            f"{row['filtered_mean']:.1f}%",
            f"{row['filtered_min']:.1f}%",
            f"{row['filtered_max']:.1f}%",
        ]
        for row in sorted(
            data["rows"], key=lambda r: (r["group"], r["interleaving"], r["registers"])
        )
    ]
    return format_table(
        ["group", "interleaving", "#YLA", "filtered(mean)", "min", "max"],
        table_rows,
        title="Figure 2 - percentage of LQ searches filtered by YLA registers",
    )
