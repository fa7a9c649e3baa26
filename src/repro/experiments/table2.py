"""Tables 2 and 4 and surrounding Section 6.2.2 statistics: checking windows.

Paper result (global DMDC, config2): a checking window spans ~33
instructions, contains ~10 loads of which ~3.6 (INT) / 4.1 (FP) are safe;
the processor spends ~10% (INT) / ~2.5% (FP) of cycles in checking mode;
~57% (INT) / 63% (FP) of windows hold a single unsafe store; overall 81%
(INT) / 94% (FP) of loads are safe.

Table 4 is this collector under *local* DMDC.  Paper result: local
windows are 13-25% shorter than global ones (25.3 vs 33.6 instructions
for INT, 28.9 vs 33.0 for FP) and contain proportionally fewer loads; the
safe-load share inside windows shrinks faster.
"""

from typing import Dict

from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table


def sweep(local: bool = False, config=CONFIG2) -> Dict:
    return {"dmdc": config.with_scheme(SchemeConfig(kind="dmdc", local=local))}


def summarize(results: Dict, local: bool = False, **_) -> Dict:
    """Measure checking-window shape under DMDC on the full suite."""
    groups: Dict[str, Dict[str, list]] = {}
    for result in results["dmdc"].values():
        bucket = groups.setdefault(result.group, {
            "instrs": [], "loads": [], "safe_loads": [],
            "checking": [], "single_store": [], "safe_load_frac": [],
        })
        if result.window_instrs.count:
            bucket["instrs"].append(result.mean_window_instrs)
            bucket["loads"].append(result.mean_window_loads)
            bucket["safe_loads"].append(result.mean_window_safe_loads)
            bucket["single_store"].append(100.0 * result.single_unsafe_store_window_fraction)
        bucket["checking"].append(100.0 * result.checking_cycle_fraction)
        bucket["safe_load_frac"].append(100.0 * result.safe_load_fraction)
    rows = []
    for group, bucket in sorted(groups.items()):
        def avg(key):
            vals = bucket[key]
            return sum(vals) / len(vals) if vals else 0.0
        rows.append({
            "group": group,
            "instructions": avg("instrs"),
            "loads": avg("loads"),
            "safe_loads": avg("safe_loads"),
            "checking_cycles_pct": avg("checking"),
            "single_unsafe_store_pct": avg("single_store"),
            "overall_safe_loads_pct": avg("safe_load_frac"),
        })
    return {"experiment": "table4" if local else "table2", "local": local, "rows": rows}


def render(data: Dict) -> str:
    which = "Table 4 (local DMDC)" if data["local"] else "Table 2 (global DMDC)"
    table_rows = [
        [
            r["group"],
            f"{r['instructions']:.1f}",
            f"{r['loads']:.1f}",
            f"{r['safe_loads']:.2f}",
            f"{r['checking_cycles_pct']:.1f}%",
            f"{r['single_unsafe_store_pct']:.0f}%",
            f"{r['overall_safe_loads_pct']:.0f}%",
        ]
        for r in data["rows"]
    ]
    return format_table(
        ["group", "instructions", "loads", "safe loads", "% cycles checking",
         "% single-store windows", "% safe loads overall"],
        table_rows,
        title=f"{which} - checking-window statistics",
    )
