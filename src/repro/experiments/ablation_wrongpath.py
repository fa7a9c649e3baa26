"""Ablation: wrong-path load corruption of the YLA registers (Section 3).

Wrong-path loads push YLA registers forward; the paper's remedy resets
each register to the branch's age at recovery.  This ablation sweeps the
wrong-path intensity (mean loads issued per misprediction shadow) and
reports the YLA filtering rate: corruption should cost filtering
effectiveness monotonically, and the effect should be larger for INT
codes (more mispredictions) — evidence that the reset remedy matters.
"""

from typing import Dict

from repro.experiments.common import group_means
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

INTENSITIES = (0.0, 1.0, 4.0, 8.0)


def sweep(intensities=INTENSITIES, config=CONFIG2) -> Dict:
    scheme = SchemeConfig(kind="yla", yla_registers=8)
    points = {}
    for mean in intensities:
        cfg = config.with_scheme(scheme).with_overrides(
            wrongpath_loads=mean > 0, wrongpath_mean_loads=max(mean, 0.1)
        )
        points[f"wp:{mean}"] = cfg
    return points


def summarize(results: Dict, intensities=INTENSITIES, **_) -> Dict:
    """Sweep wrong-path load intensity under 8-register YLA filtering."""
    rows = []
    for mean in intensities:
        summary = group_means(
            results[f"wp:{mean}"], lambda r: 100.0 * r.safe_store_fraction
        )
        for group, stats in sorted(summary.items()):
            rows.append({
                "intensity": mean,
                "group": group,
                "filtered_mean": stats["mean"],
                "filtered_min": stats["min"],
            })
    return {"experiment": "ablation_wrongpath", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"], f"{r['intensity']:g}",
            f"{r['filtered_mean']:.1f}%", f"{r['filtered_min']:.1f}%",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["intensity"]))
    ]
    return format_table(
        ["group", "wrong-path loads/mispredict", "filtered (mean)", "worst workload"],
        table_rows,
        title="Ablation - YLA corruption by wrong-path loads (with reset remedy)",
    )
