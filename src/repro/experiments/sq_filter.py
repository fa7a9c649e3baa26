"""Section 3 extension: age-based filtering for the *store* queue.

Paper result: about 20% of loads are older than every in-flight store and
can skip the SQ forwarding search using a single oldest-store-age
register.  (The paper measures the opportunity but leaves the design to
future work; we implement the filter behind ``SchemeConfig.sq_filter``.)
"""

from typing import Dict

from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table


def sweep(config=CONFIG2) -> Dict:
    return {"dmdc": config.with_scheme(SchemeConfig(kind="dmdc", sq_filter=True))}


def summarize(results: Dict, **_) -> Dict:
    """Measure the fraction of SQ searches removed by age filtering."""
    groups: Dict[str, list] = {}
    for result in results["dmdc"].values():
        filtered = result.counters["sq.searches_filtered_age"]
        total = filtered + result.counters["sq.searches"]
        if total:
            groups.setdefault(result.group, []).append(100.0 * filtered / total)
    rows = [
        {
            "group": group,
            "filtered_mean": sum(vals) / len(vals),
            "filtered_min": min(vals),
            "filtered_max": max(vals),
        }
        for group, vals in sorted(groups.items())
    ]
    return {"experiment": "sq_filter", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["group"],
            f"{r['filtered_mean']:.1f}%",
            f"{r['filtered_min']:.1f}%",
            f"{r['filtered_max']:.1f}%",
        ]
        for r in data["rows"]
    ]
    return format_table(
        ["group", "SQ searches filtered (mean)", "min", "max"],
        table_rows,
        title="Section 3 - SQ-search filtering by an oldest-store-age register",
    )
