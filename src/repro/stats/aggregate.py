"""Aggregation of per-workload metrics.

The paper's per-group averages with min/max ranges (the "I-beams" in
Figure 2) come from :func:`repro.experiments.common.group_means`; this
module keeps the geometric mean used for speedup aggregation.
"""

from typing import Iterable


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (used for speedup aggregation)."""
    vals = list(values)
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        if v <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= v
    return product ** (1.0 / len(vals))
