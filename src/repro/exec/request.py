"""Canonical simulation requests with stable content hashes.

A :class:`RunRequest` names one design point — machine configuration,
workload, instruction budget, seed — and hashes it (together with a
fingerprint of the simulator's own source) into a content-address.  Two
requests with the same key are guaranteed to produce the same
:class:`~repro.sim.result.SimulationResult`, which is what makes
deduplication and disk caching sound.
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Union

from repro.sim.config import MachineConfig
from repro.workloads import SyntheticWorkload, WorkloadSpec, get_workload

#: Bump when the request-hash or result-serialization format changes
#: incompatibly; stale cache entries then simply stop matching.
CACHE_SCHEMA_VERSION = 1

#: Top-level entries of the ``repro`` package that cannot influence a
#: simulation result, and therefore stay out of the source fingerprint —
#: editing the CLI, an experiment's rendering, a lint rule under
#: ``analysis/``, the bench harness, the HTTP service, the ``repro.api``
#: facade, or the sweep autopilot must not invalidate every cached run.
_NON_SIMULATION_PARTS = frozenset({
    "experiments", "exec", "analysis", "perf", "service", "api",
    "sweeps", "cli.py", "__main__.py", "reporting.py",
})


def fingerprint_tree(root: Path) -> str:
    """Digest of every simulation-relevant source file under ``root``.

    Split from :func:`simulator_fingerprint` so the exclusion policy can
    be exercised on synthetic trees in tests.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts[0] in _NON_SIMULATION_PARTS:
            continue
        digest.update(str(rel).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@lru_cache(maxsize=1)
def simulator_fingerprint() -> str:
    """Digest of every source file the simulator's output depends on.

    Baked into each cache key, so any change to the model invalidates old
    cached results automatically — no manual version bumping.
    """
    import repro

    return fingerprint_tree(Path(repro.__file__).parent)


@dataclass(frozen=True)
class RunRequest:
    """One simulation design point: (machine, workload, budget, seed).

    ``workload`` is either a suite workload name or an explicit
    :class:`~repro.workloads.WorkloadSpec` for out-of-suite workloads.
    """

    config: MachineConfig
    workload: Union[str, WorkloadSpec]
    budget: int
    seed: int = 1

    @property
    def workload_name(self) -> str:
        return self.workload if isinstance(self.workload, str) else self.workload.name

    def resolve_workload(self) -> SyntheticWorkload:
        if isinstance(self.workload, str):
            return get_workload(self.workload)
        return SyntheticWorkload(self.workload)

    def describe(self) -> str:
        """Human-readable job identity for progress lines and errors."""
        return (
            f"workload={self.workload_name!r} config={self.config.name!r} "
            f"scheme={self.config.scheme.kind!r} budget={self.budget} seed={self.seed}"
        )

    def cache_key(self) -> str:
        """Stable sha256 content-address of this design point."""
        return self._cache_key

    # Computed once per instance and kept in ``__dict__``, outside the
    # dataclass fields, so ``__eq__``/``__hash__`` never see it: one
    # service request asks for its key at every layer it crosses.
    @cached_property
    def _cache_key(self) -> str:
        workload = (
            self.workload if isinstance(self.workload, str) else asdict(self.workload)
        )
        blob = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "sim": simulator_fingerprint(),
                "config": self.config.cache_key(),
                "workload": workload,
                "budget": self.budget,
                "seed": self.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()
