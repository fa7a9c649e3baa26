"""Provenance and validation of the ``repro bench`` payload.

A throughput number without the knobs that produced it is noise: the
payload must record the route each row took and the cycles it
fast-forwarded, the engine's
environment-derived settings, and honest wall-clock rates alongside the
sim-time figure of merit.
"""

import shutil
import subprocess

import pytest

from repro.perf.bench import _git_sha, run_bench, validate_payload

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
    assert isinstance(knobs["engine_cache_enabled"], bool)
    assert knobs["engine_workers"] >= 1
    assert isinstance(knobs["env"], dict)


def test_per_row_fastpath_flag():
    """Every per-workload row says which route *its* processor took and
    how many cycles it fast-forwarded."""
    payload = _payload()
    for label, row in payload["schemes"].items():
        for name, sub in row["per_workload"].items():
            # The bench runs each point alone, so every row steps the
            # kernel.
            assert sub["kernel"] == "soa", (label, name)
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
    assert "scheme dmdc/gzip: missing kernel provenance" in problems
    assert any("sim_seconds" in p for p in problems)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_sha_marks_a_modified_tree(tmp_path):
    """A payload generated from uncommitted sources must not name their
    parent commit as if it were them."""
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "one")
    git("tag", "v1")
    head = git("rev-parse", "HEAD")
    assert _git_sha(str(tmp_path)) == head
    (tmp_path / "a.py").write_text("x = 2\n")
    assert _git_sha(str(tmp_path)) == head + "-dirty"
    git("commit", "-q", "-am", "two")
    assert _git_sha(str(tmp_path)) == git("rev-parse", "HEAD")
