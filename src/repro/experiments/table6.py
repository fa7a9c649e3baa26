"""Table 6: the impact of external invalidations on coherent DMDC.

Paper result (config2, coherent DMDC, injected random invalidations):

=====================================  =====  =====  =====  =====
invalidations per 1000 cycles              0      1     10    100
% cycles in checking mode (INT)         10.0   10.3   12.2   23.2
relative checking-window size (INT)      1.0   1.01   1.11   1.37
relative false-replay rate (INT)         1.0    1.1   1.47   4.59
slowdown % (INT)                        0.31   0.34   0.46   1.36
=====================================  =====  =====  =====  =====

(FP analogous, with lower absolute checking time.)  Up to ~10/1000 cycles
the design absorbs the traffic; at 1 per 10 cycles it shows stress but
stays near 1% slowdown.
"""

from typing import Dict, List

from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

INVALIDATION_RATES = (0.0, 1.0, 10.0, 100.0)


def sweep(rates=INVALIDATION_RATES, config=CONFIG2) -> Dict:
    coherent = SchemeConfig(kind="dmdc", coherence=True)
    points = {"base": config}
    for rate in rates:
        points[f"inv:{rate}"] = config.with_scheme(coherent).with_overrides(
            invalidation_rate=rate
        )
    return points


def summarize(results: Dict, rates=INVALIDATION_RATES, **_) -> Dict:
    """Sweep injected invalidation rates under coherent DMDC."""
    rows: List[Dict] = []
    per_group_ref: Dict[str, Dict[str, float]] = {}
    for rate in rates:
        groups: Dict[str, Dict[str, list]] = {}
        for name, base in results["base"].items():
            r = results[f"inv:{rate}"][name]
            bucket = groups.setdefault(base.group, {
                "checking": [], "window": [], "false": [], "slow": [],
            })
            bucket["checking"].append(100.0 * r.checking_cycle_fraction)
            bucket["window"].append(r.mean_window_instrs)
            bucket["false"].append(r.false_replays_per_minstr)
            bucket["slow"].append(100.0 * (r.cycles / base.cycles - 1))
        for group, bucket in sorted(groups.items()):
            def avg(key):
                vals = bucket[key]
                return sum(vals) / len(vals) if vals else 0.0
            stats = {
                "checking": avg("checking"),
                "window": avg("window"),
                "false": avg("false"),
                "slow": avg("slow"),
            }
            ref = per_group_ref.setdefault(group, stats)
            rows.append({
                "group": group,
                "rate": rate,
                "checking_pct": stats["checking"],
                "rel_window": stats["window"] / ref["window"] if ref["window"] else 0.0,
                "rel_false_replays": stats["false"] / ref["false"] if ref["false"] else
                (1.0 if rate == rates[0] else float("inf")),
                "slowdown": stats["slow"],
            })
    return {"experiment": "table6", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"],
            f"{r['rate']:g}",
            f"{r['checking_pct']:.1f}%",
            f"{r['rel_window']:.2f}",
            f"{r['rel_false_replays']:.2f}",
            f"{r['slowdown']:+.2f}%",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["rate"]))
    ]
    return format_table(
        ["group", "inv/1000cyc", "% cycles checking", "rel. window size",
         "rel. false replays", "slowdown"],
        table_rows,
        title="Table 6 - coherent DMDC under injected invalidations",
    )
