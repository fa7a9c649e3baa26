"""Section 7 quantified: DMDC vs the related-work design space.

Runs the full suite under every checking design the paper discusses and
compares the cost of implementing the LQ's functionality:

* conventional associative LQ (baseline);
* YLA-filtered LQ (Section 3 alone);
* DMDC (the contribution);
* the age-hash table of Garg et al. [11] that DMDC improves upon;
* naive value-based checking of Cain & Lipasti [5] (no LQ, but every
  committed load re-reads the cache).

Expected shape: DMDC and value-based slash LQ-structure energy, but
value-based pays with memory bandwidth (its "LQ" energy is cache
re-accesses) and Garg pays with unfiltered table traffic and heavier
flush-from-store replays.
"""

from typing import Dict

from repro.energy.model import EnergyModel
from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

SCHEMES = {
    "conventional": SchemeConfig(kind="conventional"),
    "yla": SchemeConfig(kind="yla", yla_registers=8),
    "dmdc": SchemeConfig(kind="dmdc"),
    "garg": SchemeConfig(kind="garg"),
    "value": SchemeConfig(kind="value"),
}


def sweep(config=CONFIG2) -> Dict:
    return {name: config.with_scheme(scheme) for name, scheme in SCHEMES.items()}


def summarize(results: Dict, config=CONFIG2) -> Dict:
    """Compare every scheme on LQ energy, replays, and slowdown."""
    model = EnergyModel(config)
    base_energy = {name: model.evaluate(r) for name, r in results["conventional"].items()}
    rows = []
    for scheme_name in SCHEMES:
        groups: Dict[str, Dict[str, list]] = {}
        for wl_name, result in results[scheme_name].items():
            energy = model.evaluate(result)
            base = base_energy[wl_name]
            base_run = results["conventional"][wl_name]
            bucket = groups.setdefault(result.group, {
                "lq_rel": [], "total_rel": [], "slow": [], "replays": [],
                "reexec": [],
            })
            bucket["lq_rel"].append(100.0 * energy.lq / base.lq)
            bucket["total_rel"].append(100.0 * energy.total / base.total)
            bucket["slow"].append(100.0 * (result.cycles / base_run.cycles - 1))
            bucket["replays"].append(result.replays_per_minstr)
            bucket["reexec"].append(result.counters["dcache.reexecutions"])
        for group, bucket in sorted(groups.items()):
            n = len(bucket["lq_rel"])
            rows.append({
                "scheme": scheme_name,
                "group": group,
                "lq_energy_rel": sum(bucket["lq_rel"]) / n,
                "total_energy_rel": sum(bucket["total_rel"]) / n,
                "slowdown": sum(bucket["slow"]) / n,
                "replays_per_minstr": sum(bucket["replays"]) / n,
            })
    return {"experiment": "related_work", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"], r["scheme"],
            f"{r['lq_energy_rel']:.1f}%",
            f"{r['total_energy_rel']:.1f}%",
            f"{r['slowdown']:+.2f}%",
            f"{r['replays_per_minstr']:.0f}",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["scheme"]))
    ]
    return format_table(
        ["group", "scheme", "LQ energy (vs baseline)", "total energy",
         "slowdown", "replays/Minstr"],
        table_rows,
        title="Section 7 - DMDC vs related-work checking designs",
    )
