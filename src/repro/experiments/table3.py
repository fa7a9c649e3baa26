"""Tables 3 and 5: breakdown of false replays by approximation.

Every DMDC replay of a load with no real violation is classified by which
approximation triggered it:

* **address match** -- the load really overlaps a marked store but issued
  *after* the store resolved (timing approximation).  ``X``: the load lies
  in that store's own checking window; ``Y``: it was only checked because
  windows merged.
* **hashing conflict** -- the load's quad word merely hashes to a marked
  entry.  It may have issued before or after the marking store.

Paper result (config2, per million committed instructions): INT 168 total
(65% addr/X, 22% addr/Y, 11% hash/before); FP 35 total.

Table 5 is this classifier under *local* DMDC.  Paper result: local DMDC
reduces false replays from 168 to 134 per Minstr (INT) and 35.4 to 23.7
(FP), mostly by mitigating merged-window (Y) replays.
"""

from typing import Dict

from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.result import FALSE_REPLAY_CATEGORIES
from repro.stats.report import format_table

_LABELS = {
    "replay.false.addr.X": ("address match", "after store (X: in window)"),
    "replay.false.addr.Y": ("address match", "after store (Y: merged windows)"),
    "replay.false.hash.before": ("hashing conflict", "before store"),
    "replay.false.hash.X": ("hashing conflict", "after store (X: in window)"),
    "replay.false.hash.Y": ("hashing conflict", "after store (Y: merged windows)"),
    "replay.false.inv": ("invalidation", "promoted INV entry"),
}


def sweep(local: bool = False, config=CONFIG2) -> Dict:
    return {"dmdc": config.with_scheme(SchemeConfig(kind="dmdc", local=local))}


def summarize(results: Dict, local: bool = False, **_) -> Dict:
    """Classify false replays per million instructions, INT vs FP."""
    groups: Dict[str, Dict[str, list]] = {}
    for result in results["dmdc"].values():
        bucket = groups.setdefault(result.group, {c: [] for c in FALSE_REPLAY_CATEGORIES})
        bucket.setdefault("true", []).append(result.per_minstr("replay.true"))
        bucket.setdefault("total_false", []).append(result.false_replays_per_minstr)
        for cat in FALSE_REPLAY_CATEGORIES:
            bucket[cat].append(result.per_minstr(cat))
    rows = []
    for group, bucket in sorted(groups.items()):
        def avg(key):
            vals = bucket.get(key, [])
            return sum(vals) / len(vals) if vals else 0.0
        total = avg("total_false") or 1e-12
        for cat in FALSE_REPLAY_CATEGORIES:
            kind, timing = _LABELS[cat]
            rows.append({
                "group": group,
                "kind": kind,
                "timing": timing,
                "per_minstr": avg(cat),
                "share": 100.0 * avg(cat) / total,
            })
        rows.append({
            "group": group, "kind": "total", "timing": "(all false replays)",
            "per_minstr": avg("total_false"), "share": 100.0,
        })
        rows.append({
            "group": group, "kind": "true", "timing": "(real violations)",
            "per_minstr": avg("true"), "share": float("nan"),
        })
    return {"experiment": "table5" if local else "table3", "local": local, "rows": rows}


def render(data: Dict) -> str:
    which = "Table 5 (local DMDC)" if data["local"] else "Table 3 (global DMDC)"
    table_rows = []
    for r in data["rows"]:
        share = "" if r["share"] != r["share"] else f"{r['share']:.0f}%"
        table_rows.append(
            [r["group"], r["kind"], r["timing"], f"{r['per_minstr']:.1f}", share]
        )
    return format_table(
        ["group", "cause", "timing", "replays/Minstr", "share"],
        table_rows,
        title=f"{which} - false replay breakdown",
    )
