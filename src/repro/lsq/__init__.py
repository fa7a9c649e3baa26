"""Load/store queue searches over the SoA kernel's slot columns."""
