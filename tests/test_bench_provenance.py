"""Provenance and validation of the ``repro bench`` payload.

A throughput number without the knobs that produced it is noise: the
payload must record the cycle kernel (requested globally, engaged per
row) and the cycles each row fast-forwarded, the engine's
environment-derived settings, and honest wall-clock rates alongside the
sim-time figure of merit.
"""

from repro.perf.bench import run_bench, validate_payload

#: One tiny quick run shared by every test in this module.
_PAYLOAD = None


def _payload():
    global _PAYLOAD
    if _PAYLOAD is None:
        _PAYLOAD = run_bench(quick=True, instructions=1_200)
    return _PAYLOAD


def test_payload_validates_clean():
    assert validate_payload(_payload()) == []


def test_knobs_provenance_recorded():
    knobs = _payload()["knobs"]
    assert knobs["kernel"] in ("soa", "object")
    assert isinstance(knobs["engine_cache_enabled"], bool)
    assert knobs["engine_workers"] >= 1
    assert isinstance(knobs["env"], dict)


def test_per_row_fastpath_flag():
    """Every per-workload row says which kernel *its* processor engaged
    and how many cycles it fast-forwarded — the effective state, not just
    the requested kernel."""
    payload = _payload()
    for label, row in payload["schemes"].items():
        for name, sub in row["per_workload"].items():
            # No tracer or sanitizer in the bench, so every row engages
            # the requested kernel.
            assert sub["kernel"] == payload["knobs"]["kernel"], (label, name)
            assert 0 <= sub["fast_forwarded_cycles"] < sub["cycles"]
            assert sub["fast_forward_fraction"] == (
                sub["fast_forwarded_cycles"] / sub["cycles"])


def test_wall_rates_present_and_not_inflated():
    """The wall-time rate includes trace generation and prewarm, so it can
    never exceed the sim-time-only figure of merit."""
    payload = _payload()
    assert payload["aggregate_instr_per_sec_wall"] > 0
    assert (payload["aggregate_instr_per_sec_wall"]
            <= payload["aggregate_instr_per_sec"])
    for row in payload["schemes"].values():
        assert row["wall_seconds"] >= row["sim_seconds"]
        assert 0 < row["wall_instr_per_sec"] <= row["instr_per_sec"]


def test_validate_flags_missing_provenance():
    payload = {
        "schema": 3, "git_sha": "x", "machine": {}, "workloads": [],
        "instructions_per_run": 1, "aggregate_instr_per_sec": 1.0,
        "knobs": {},
        "schemes": {
            "dmdc": {
                "instructions": 10, "instr_per_sec": 1.0,
                "per_workload": {"gzip": {"sim_seconds": 0.0}},
            },
        },
    }
    problems = validate_payload(payload)
    assert "knobs missing kernel provenance" in problems
    assert "scheme dmdc/gzip: missing kernel provenance" in problems
    assert any("sim_seconds" in p for p in problems)
