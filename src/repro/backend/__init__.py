"""Out-of-order back-end structures: functional units, register files."""

from repro.backend.resources import FunctionalUnits, PhysRegFile

__all__ = ["FunctionalUnits", "PhysRegFile"]
