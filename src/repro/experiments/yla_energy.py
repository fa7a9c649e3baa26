"""Section 6.1 energy claim: YLA filtering alone saves ~32.4% of LQ energy
(~1.7% processor-wide) with no performance impact."""

from typing import Dict

from repro.energy.model import EnergyModel
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table


def sweep() -> Dict:
    return {
        "baseline": CONFIG2,
        "yla": CONFIG2.with_scheme(SchemeConfig(kind="yla", yla_registers=8)),
    }


def summarize(results: Dict) -> Dict:
    """Baseline vs 8-register YLA filtering on config2, full suite."""
    model = EnergyModel(CONFIG2)
    rows = []
    groups = {"INT": {"lq": [], "total": [], "slow": []},
              "FP": {"lq": [], "total": [], "slow": []}}
    for name, base in results["baseline"].items():
        filt = results["yla"][name]
        e_base = model.evaluate(base)
        e_filt = model.evaluate(filt)
        bucket = groups[base.group]
        bucket["lq"].append(100.0 * (1 - e_filt.lq / e_base.lq))
        bucket["total"].append(100.0 * (1 - e_filt.total / e_base.total))
        bucket["slow"].append(100.0 * (filt.cycles / base.cycles - 1))
    for group, bucket in groups.items():
        if not bucket["lq"]:
            continue
        n = len(bucket["lq"])
        rows.append({
            "group": group,
            "lq_savings": sum(bucket["lq"]) / n,
            "total_savings": sum(bucket["total"]) / n,
            "slowdown": sum(bucket["slow"]) / n,
        })
    return {"experiment": "yla_energy", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [r["group"], f"{r['lq_savings']:.1f}%", f"{r['total_savings']:.2f}%", f"{r['slowdown']:+.2f}%"]
        for r in data["rows"]
    ]
    return format_table(
        ["group", "LQ energy savings", "processor-wide savings", "slowdown"],
        table_rows,
        title="Section 6.1 - energy effect of 8-register YLA filtering alone",
    )
