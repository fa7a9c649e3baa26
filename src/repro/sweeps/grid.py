"""Declarative design-space grids: :class:`GridSpec` -> canonical points.

A grid is an ordered mapping of axes to value lists, plus per-point
defaults, optional include/exclude predicates, and an optional baseline
scheme injected once per distinct machine slice.  Expansion is fully
deterministic: axes combine by :func:`itertools.product` in declaration
order (the last axis varies fastest), every combination is rendered
through the one point codec (:mod:`repro.sweeps.points`), and duplicate
design points collapse onto their first occurrence by content address.

Axis vocabulary (an axis name is resolved in this order):

* point fields — ``workload``, ``scheme``, ``config``, ``instructions``,
  ``seed``;
* scheme knobs, spelled as their canonical label tokens — ``table``
  (checking-table entries), ``regs`` (YLA registers), ``gran`` (YLA
  interleaving granularity, bytes), ``queue`` (checking-queue entries),
  ``entries`` (Bloom filter entries);
* any :class:`MachineConfig` field (``width``, ``lq_size``,
  ``invalidation_rate``, ...) — routed into the point's ``overrides``.

Predicates receive one flat ``{axis/base name: value}`` dict per
combination and prune it before any request is built, so constraint
logic (e.g. "skip table>=4096 at width 4") costs nothing.

``PRESETS`` holds the named grids of the paper's figure sweeps plus the
committed demo/CI grids; ``repro sweep --preset NAME`` runs them.
"""

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.exec.request import RunRequest
from repro.sim.config import MachineConfig, SchemeConfig
from repro.sweeps.points import (
    PointSpecError,
    machine_overrides,
    normalize_point,
    parse_scheme,
    point_for_request,
    slice_id,
)
from repro.workloads import SyntheticWorkload, WorkloadSpec

__all__ = [
    "PRESETS",
    "SCHEME_AXES",
    "GridError",
    "GridExpansion",
    "GridSpec",
    "get_preset",
]

#: Scheme-knob axes, spelled exactly as the canonical label codec spells
#: them (``dmdc-table512-regs4`` has ``table=512, regs=4``).
SCHEME_AXES: Dict[str, str] = {
    "table": "table_entries",
    "regs": "yla_registers",
    "gran": "yla_granularity",
    "queue": "checking_queue_entries",
    "entries": "bloom_entries",
}

_POINT_AXES = ("workload", "scheme", "config", "instructions", "seed")
_MACHINE_AXES = frozenset(
    f.name for f in dataclass_fields(MachineConfig)
    if f.name not in ("name", "scheme"))

Predicate = Callable[[Dict[str, Any]], bool]


class GridError(ReproError):
    """A grid specification is malformed (bad axis name, empty axis, ...)."""


def _check_axis(name: str, values: Sequence[Any]) -> None:
    if name not in _POINT_AXES and name not in SCHEME_AXES \
            and name not in _MACHINE_AXES:
        raise GridError(
            f"unknown axis {name!r}; axes are point fields {_POINT_AXES}, "
            f"scheme knobs {tuple(SCHEME_AXES)}, or MachineConfig fields")
    if not isinstance(values, (list, tuple)) or not values:
        raise GridError(f"axis {name!r} needs a non-empty list of values")


@dataclass
class GridExpansion:
    """The deterministic rendering of one :class:`GridSpec`.

    ``points[i]``, ``requests[i]`` and ``keys[i]`` describe the same
    design point; baseline points (if any) sit at the tail, one per
    distinct machine slice.  The accounting fields say how the raw
    product was pruned: ``raw_points`` combinations, minus ``excluded``
    (predicates), minus ``collapsed`` (content-address duplicates),
    plus ``baseline_added``.
    """

    name: str
    points: List[Dict[str, Any]]
    requests: List[RunRequest]
    keys: List[str]
    raw_points: int
    excluded: int
    collapsed: int
    baseline_added: int

    def __len__(self) -> int:
        return len(self.points)

    def digest(self) -> str:
        """Content identity of the expansion, for ledger headers.

        Built from the points' cache keys, so it covers the grid shape
        AND the simulator source fingerprint: a ledger written by a
        different simulator (or grid) can never be silently resumed.
        """
        blob = json.dumps({"name": self.name, "keys": self.keys},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class GridSpec:
    """A declarative design-space grid (see the module docstring).

    ``axes`` maps axis name -> list of values, combined in declaration
    order with the last axis varying fastest.  ``base`` supplies
    per-point defaults in the same vocabulary.  ``include`` keeps only
    combinations it accepts; ``exclude`` drops the ones it accepts
    (both optional, both receive the flat ``{name: value}`` dict).
    ``baseline`` names a scheme injected once per distinct machine
    slice (workload x config x budget x seed x overrides) so reports
    always have a denominator.
    """

    axes: Dict[str, Sequence[Any]]
    base: Dict[str, Any] = field(default_factory=dict)
    include: Optional[Predicate] = None
    exclude: Optional[Predicate] = None
    baseline: Optional[str] = None
    name: str = "grid"

    def __post_init__(self) -> None:
        self.axes = dict(self.axes)
        if not self.axes:
            raise GridError("a grid needs at least one axis")
        for axis, values in self.axes.items():
            _check_axis(axis, values)
        for key in self.base:
            if key != "overrides" and key not in _POINT_AXES \
                    and key not in SCHEME_AXES and key not in _MACHINE_AXES:
                raise GridError(f"unknown base field {key!r}")
        if self.baseline is not None:
            parse_scheme(self.baseline)  # fail fast on a bad label

    # -- expansion ---------------------------------------------------------
    def _render(self, ctx: Dict[str, Any]) -> Dict[str, Any]:
        """One flat axis/base assignment -> point payload."""
        if "workload" not in ctx:
            raise GridError("no 'workload' axis or base value")
        workload = ctx["workload"]
        if isinstance(workload, SyntheticWorkload):
            workload = workload.spec
        scheme = parse_scheme(ctx.get("scheme", "conventional"))
        knobs = {SCHEME_AXES[axis]: ctx[axis]
                 for axis in SCHEME_AXES if axis in ctx}
        for field_name, value in knobs.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise GridError(
                    f"scheme knob {field_name} needs a positive int, "
                    f"got {value!r}")
        if knobs:
            scheme = replace(scheme, **knobs)
        overrides = dict(ctx.get("overrides") or {})
        overrides.update({name: ctx[name] for name in _MACHINE_AXES
                          if name in ctx})
        payload: Dict[str, Any] = {
            "workload": workload,
            "scheme": scheme.label(),
            "config": ctx.get("config", "config2"),
        }
        if overrides:
            payload["overrides"] = overrides
        if "instructions" in ctx:
            payload["instructions"] = ctx["instructions"]
        if "seed" in ctx:
            payload["seed"] = ctx["seed"]
        return payload

    def expand(self) -> GridExpansion:
        """Render the grid into canonical, deduplicated design points."""
        names = list(self.axes)
        seen: Dict[str, int] = {}
        points: List[Dict[str, Any]] = []
        requests: List[RunRequest] = []
        keys: List[str] = []
        raw = excluded = collapsed = 0
        slices: Dict[str, Dict[str, Any]] = {}
        for combo in itertools.product(*(self.axes[n] for n in names)):
            raw += 1
            ctx = {**self.base, **dict(zip(names, combo))}
            if (self.include is not None and not self.include(ctx)) \
                    or (self.exclude is not None and self.exclude(ctx)):
                excluded += 1
                continue
            try:
                request = normalize_point(self._render(ctx))
            except PointSpecError as exc:
                raise GridError(f"grid {self.name!r}: {exc}") from None
            key = request.cache_key()
            if key in seen:
                collapsed += 1
                continue
            seen[key] = len(points)
            points.append(point_for_request(request))
            requests.append(request)
            keys.append(key)
            if self.baseline is not None:
                slices.setdefault(slice_id(points[-1]), points[-1])
        baseline_added = 0
        if self.baseline is not None:
            label = parse_scheme(self.baseline).label()
            for point in slices.values():
                base_point = dict(point)
                base_point["scheme"] = label
                request = normalize_point(base_point)
                key = request.cache_key()
                if key in seen:
                    continue
                seen[key] = len(points)
                points.append(point_for_request(request))
                requests.append(request)
                keys.append(key)
                baseline_added += 1
        return GridExpansion(self.name, points, requests, keys,
                             raw, excluded, collapsed, baseline_added)

    def digest(self) -> str:
        return self.expand().digest()

    # -- the legacy kwargs vocabulary --------------------------------------
    @classmethod
    def from_kwargs(cls,
                    workloads: Sequence[Union[str, WorkloadSpec,
                                              SyntheticWorkload]],
                    schemes: Sequence[Union[str, SchemeConfig]] =
                    ("conventional", "dmdc"),
                    config: Union[str, MachineConfig] = "config2",
                    *,
                    instructions: Optional[int] = None,
                    seed: int = 1,
                    overrides: Optional[Dict[str, Any]] = None,
                    baseline: Optional[str] = None,
                    name: str = "sweep") -> "GridSpec":
        """The ``repro.api.sweep(workloads, schemes, ...)`` vocabulary.

        Scheme-major like the historical kwargs form: ``scheme`` is the
        first (slowest-varying) axis, ``workload`` the second, so points
        expand in exactly the order legacy callers submitted them.
        """
        if instructions is None:
            from repro.sim.runner import instruction_budget
            instructions = instruction_budget()
        merged = dict(overrides or {})
        if isinstance(config, MachineConfig):
            try:
                derived = machine_overrides(config)
            except PointSpecError as exc:
                raise GridError(str(exc)) from None
            derived.update(merged)
            merged = derived
            config = config.name
        base: Dict[str, Any] = {"config": config,
                                "instructions": instructions, "seed": seed}
        if merged:
            base["overrides"] = merged
        return cls(axes={"scheme": list(schemes),
                         "workload": list(workloads)},
                   base=base, baseline=baseline, name=name)


# -- named presets ---------------------------------------------------------
def _demo64() -> GridSpec:
    """The committed >=64-point demo: scheme x table size x YLA count."""
    return GridSpec(
        name="demo64",
        axes={
            "scheme": ["dmdc", "dmdc-local"],
            "table": [512, 1024, 2048, 4096],
            "regs": [1, 2, 4, 8],
            "workload": ["gzip", "mcf"],
        },
        base={"config": "config2", "instructions": 3000, "seed": 1},
        baseline="conventional",
    )


def _ci_smoke() -> GridSpec:
    """A tiny grid for CI: four DMDC points + one baseline, ~seconds."""
    return GridSpec(
        name="ci-smoke",
        axes={
            "scheme": ["dmdc"],
            "table": [256, 512],
            "regs": [2, 4],
            "workload": ["gzip"],
        },
        base={"config": "config2", "instructions": 1200, "seed": 1},
        baseline="conventional",
    )


def _yla_filtering() -> GridSpec:
    """Paper Figs. 5-7 territory: YLA register count x interleaving."""
    return GridSpec(
        name="yla-filtering",
        axes={
            "scheme": ["yla"],
            "regs": [1, 2, 4, 8, 16],
            "gran": [8, 128],
            "workload": ["gzip", "mcf", "parser", "vortex"],
        },
        base={"config": "config2", "instructions": 12_000, "seed": 1},
        baseline="conventional",
    )


def _table_ablation() -> GridSpec:
    """Checking-table capacity sweep for global vs local DMDC."""
    return GridSpec(
        name="table-ablation",
        axes={
            "scheme": ["dmdc", "dmdc-local"],
            "table": [256, 512, 1024, 2048, 4096],
            "workload": ["gzip", "mcf"],
        },
        base={"config": "config2", "instructions": 12_000, "seed": 1},
        baseline="conventional",
    )


def _width_scaling() -> GridSpec:
    """Machine width x scheme (the compare_widths.py study, scaled up).

    Excludes the 16-wide conventional point on config1: the narrow
    machine cannot feed it, and the slot documents how constraint
    predicates prune a grid.
    """
    return GridSpec(
        name="width-scaling",
        axes={
            "scheme": ["conventional", "dmdc"],
            "width": [4, 8, 16],
            "config": ["config1", "config2"],
            "workload": ["gzip", "mcf"],
        },
        base={"instructions": 12_000, "seed": 1},
        exclude=lambda ctx: ctx["width"] == 16 and ctx["config"] == "config1",
    )


PRESETS: Dict[str, Callable[[], GridSpec]] = {
    "demo64": _demo64,
    "ci-smoke": _ci_smoke,
    "yla-filtering": _yla_filtering,
    "table-ablation": _table_ablation,
    "width-scaling": _width_scaling,
}


def get_preset(name: str) -> GridSpec:
    """A fresh :class:`GridSpec` for a named preset grid."""
    if name not in PRESETS:
        raise GridError(
            f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    return PRESETS[name]()
