"""Disk-backed content-addressed result cache.

Entries are JSON files named by the request's content hash, stored under
the configured cache directory (default ``~/.cache/repro``; see
:mod:`repro.exec.options` for the environment knobs).  Because the hash
covers the machine configuration, workload, budget, seed, serialization
schema, *and* a fingerprint of the simulator source, a stale entry can
never be returned — changing the model changes every key.  Writes are
atomic (tmp file + rename) so concurrent processes can share one cache.
"""

import json
import os
from pathlib import Path
from typing import Optional

from repro.exec.options import CACHE_DIR_ENV, CACHE_ENABLE_ENV, EngineOptions
from repro.exec.request import CACHE_SCHEMA_VERSION, RunRequest
from repro.sim.result import SimulationResult

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_ENABLE_ENV",
    "ResultCache",
    "cache_enabled",
    "default_cache",
    "default_cache_dir",
]


def default_cache_dir() -> Path:
    return EngineOptions.from_env().resolve_cache_dir()


def cache_enabled() -> bool:
    return EngineOptions.from_env().cache_enabled


def default_cache() -> Optional["ResultCache"]:
    """The environment-configured cache, or ``None`` when disabled."""
    return EngineOptions.from_env().build_cache()


class ResultCache:
    """Content-addressed store of serialized :class:`SimulationResult`s."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.root / "results" / key[:2] / f"{key}.json"

    def get(self, request: RunRequest, key: Optional[str] = None) -> Optional[SimulationResult]:
        """The cached result for ``request``, or ``None`` on any miss.

        Unreadable, corrupt, or schema-incompatible entries count as
        misses — the cache is an accelerator, never a failure source —
        and so does an entry stored for a different request (its
        ``request`` line is not ``request.describe()``), so a result
        filed under the wrong key is never served.
        """
        path = self.path_for(key if key is not None else request.cache_key())
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (payload.get("schema") != CACHE_SCHEMA_VERSION
                or payload.get("request") != request.describe()):
            return None
        try:
            return SimulationResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, request: RunRequest, result: SimulationResult,
            key: Optional[str] = None) -> Path:
        path = self.path_for(key if key is not None else request.cache_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "request": request.describe(),
            "result": result.to_dict(),
        }
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("results/*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("results/*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
