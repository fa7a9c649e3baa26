"""Section 6.2.2 safe-load claims.

Paper result: 81% (INT) / 94% (FP) of loads are safe; without the
safe-load circuit false replays roughly double for INT applications
(average reduction 52%, up to 97%) and drop ~20% for FP.
"""

from typing import Dict

from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table


def sweep(config=CONFIG2) -> Dict:
    return {
        "with": config.with_scheme(SchemeConfig(kind="dmdc", safe_loads=True)),
        "without": config.with_scheme(SchemeConfig(kind="dmdc", safe_loads=False)),
    }


def summarize(results: Dict, **_) -> Dict:
    """Global DMDC with and without the safe-load optimisation."""
    groups: Dict[str, Dict[str, list]] = {}
    for name, with_safe in results["with"].items():
        without = results["without"][name]
        bucket = groups.setdefault(with_safe.group, {
            "safe_frac": [], "false_with": [], "false_without": [],
        })
        bucket["safe_frac"].append(100.0 * with_safe.safe_load_fraction)
        bucket["false_with"].append(with_safe.false_replays_per_minstr)
        bucket["false_without"].append(without.false_replays_per_minstr)
    rows = []
    for group, bucket in sorted(groups.items()):
        n = len(bucket["safe_frac"])
        fw = sum(bucket["false_with"]) / n
        fo = sum(bucket["false_without"]) / n
        rows.append({
            "group": group,
            "safe_load_pct": sum(bucket["safe_frac"]) / n,
            "false_with": fw,
            "false_without": fo,
            "reduction_pct": 100.0 * (1 - fw / fo) if fo else 0.0,
        })
    return {"experiment": "safe_loads", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"],
            f"{r['safe_load_pct']:.0f}%",
            f"{r['false_with']:.1f}",
            f"{r['false_without']:.1f}",
            f"{r['reduction_pct']:.0f}%",
        ]
        for r in data["rows"]
    ]
    return format_table(
        ["group", "% safe loads", "false replays/Minstr (with)",
         "false replays/Minstr (without)", "reduction from safe loads"],
        table_rows,
        title="Section 6.2.2 - effect of safe-load detection",
    )
