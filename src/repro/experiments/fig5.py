"""Figure 5: slowdown of global vs local DMDC across configurations.

Paper result: both variants stay within ~0.5% average slowdown; the local
version's *worst-case* per-application slowdown is noticeably lower,
especially for FP applications.
"""

from typing import Dict, List, Optional

from repro.sim.config import CONFIG1, CONFIG2, CONFIG3, SchemeConfig
from repro.stats.report import format_table

CONFIG_SET = {"config1": CONFIG1, "config2": CONFIG2, "config3": CONFIG3}


def sweep(configs: Optional[Dict] = None) -> Dict:
    configs = configs if configs is not None else CONFIG_SET
    points = {}
    for cname, config in configs.items():
        points[f"{cname}:base"] = config
        points[f"{cname}:global"] = config.with_scheme(SchemeConfig(kind="dmdc", local=False))
        points[f"{cname}:local"] = config.with_scheme(SchemeConfig(kind="dmdc", local=True))
    return points


def summarize(results: Dict, configs: Optional[Dict] = None) -> Dict:
    """Baseline vs global vs local DMDC on each configuration."""
    configs = configs if configs is not None else CONFIG_SET
    rows: List[Dict] = []
    for cname in configs:
        for variant in ("global", "local"):
            groups = {"INT": [], "FP": []}
            for name, base in results[f"{cname}:base"].items():
                dmdc = results[f"{cname}:{variant}"][name]
                groups[base.group].append(100.0 * (dmdc.cycles / base.cycles - 1))
            for group, vals in groups.items():
                if not vals:
                    continue
                rows.append({
                    "config": cname,
                    "variant": variant,
                    "group": group,
                    "slowdown_mean": sum(vals) / len(vals),
                    "slowdown_worst": max(vals),
                })
    return {"experiment": "fig5", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["config"], r["group"], r["variant"],
            f"{r['slowdown_mean']:+.2f}%", f"{r['slowdown_worst']:+.2f}%",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["config"], r["group"], r["variant"]))
    ]
    return format_table(
        ["config", "group", "variant", "mean slowdown", "worst slowdown"],
        table_rows,
        title="Figure 5 - global vs local DMDC slowdown",
    )
