"""Section 6.2.3: associative checking queue vs hash table.

Paper result: a 2K-entry checking table produces roughly as many replays
as a 16-entry associative checking queue on average (individual
applications diverge wildly).  The queue trades hash-conflict replays for
overflow replays.
"""

from typing import Dict

from repro.sim.config import CONFIG2, SchemeConfig
from repro.stats.report import format_table

QUEUE_SIZES = (4, 8, 16, 32)


def sweep(queue_sizes=QUEUE_SIZES, config=CONFIG2) -> Dict:
    points = {"table": config.with_scheme(SchemeConfig(kind="dmdc"))}
    for size in queue_sizes:
        points[f"queue:{size}"] = config.with_scheme(
            SchemeConfig(kind="dmdc", checking_queue_entries=size)
        )
    return points


def summarize(results: Dict, **_) -> Dict:
    """Replay rates: hash table (2K) vs associative queues of several sizes."""
    rows = []
    for key, by_workload in results.items():
        groups: Dict[str, list] = {}
        overflow: Dict[str, list] = {}
        for result in by_workload.values():
            groups.setdefault(result.group, []).append(result.false_replays_per_minstr)
            overflow.setdefault(result.group, []).append(result.per_minstr("replay.overflow"))
        for group in sorted(groups):
            vals = groups[group]
            rows.append({
                "backend": key,
                "group": group,
                "false_replays": sum(vals) / len(vals),
                "overflow_replays": sum(overflow[group]) / len(overflow[group]),
            })
    return {"experiment": "checking_queue", "rows": rows}


def render(data: Dict) -> str:
    table_rows = [
        [
            r["backend"], r["group"],
            f"{r['false_replays']:.1f}", f"{r['overflow_replays']:.1f}",
        ]
        for r in sorted(data["rows"], key=lambda r: (r["group"], r["backend"]))
    ]
    return format_table(
        ["backend", "group", "false replays/Minstr", "overflow replays/Minstr"],
        table_rows,
        title="Section 6.2.3 - checking table vs associative checking queue",
    )
