"""Extension: store-set dependence prediction on top of DMDC.

The paper argues prediction is unnecessary at SPEC violation rates ("true
store-load replays are very rare ... prediction and replay prevention
mechanisms seem unnecessary").  This experiment quantifies that claim by
running DMDC with and without a Chrysos-Emer store-set predictor on (a)
the normal suite and (b) an engineered alias-heavy stress workload:
prediction should be a wash on (a) and suppress most true replays on (b).
"""

from typing import Dict

from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table
from repro.workloads import WorkloadSpec

STRESS = WorkloadSpec(
    name="alias-stress", conflict_per_kinstr=5.0,
    store_addr_dep_load=0.2, rmw_fraction=0.15, seed=41,
)

_VARIANTS = (("off", SchemeConfig(kind="dmdc")),
             ("on", SchemeConfig(kind="dmdc", store_sets=True)))


def sweep(config=CONFIG2) -> Dict:
    suite = {variant: config.with_scheme(scheme) for variant, scheme in _VARIANTS}
    stress = {f"stress:{variant}": (config.with_scheme(scheme), (STRESS,))
              for variant, scheme in _VARIANTS}
    return {**suite, **stress}


def summarize(results: Dict, **_) -> Dict:
    """DMDC with/without store-set prediction, suite + stress workload."""
    rows = []
    for variant in ("off", "on"):
        groups: Dict[str, Dict[str, list]] = {}
        for result in results[variant].values():
            bucket = groups.setdefault(result.group, {"true": [], "slow": []})
            bucket["true"].append(result.per_minstr("replay.true"))
        for group, bucket in sorted(groups.items()):
            n = len(bucket["true"])
            rows.append({
                "workload": f"suite-{group}",
                "store_sets": variant,
                "true_replays": sum(bucket["true"]) / n,
            })
    # Engineered stress case.
    for variant in ("off", "on"):
        result = results[f"stress:{variant}"][STRESS.name]
        rows.append({
            "workload": "alias-stress",
            "store_sets": variant,
            "true_replays": result.per_minstr("replay.true"),
        })
    return {"experiment": "ablation_storesets", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [r["workload"], r["store_sets"], f"{r['true_replays']:.1f}"]
        for r in sorted(data["rows"], key=lambda r: (r["workload"], r["store_sets"]))
    ]
    return format_table(
        ["workload", "store-set prediction", "true replays/Minstr"],
        table_rows,
        title="Extension - store-set prediction vs true replays under DMDC",
    )
