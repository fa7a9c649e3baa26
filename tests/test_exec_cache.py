"""Request hashing, result serialization, and the disk result cache."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exec.cache import ResultCache
from repro.exec.request import CACHE_SCHEMA_VERSION, RunRequest, simulator_fingerprint
from repro.sim.config import CONFIG2, MachineConfig, SchemeConfig, small_config
from repro.sim.result import SimulationResult
from repro.sim.runner import run_workload
from repro.stats.counters import CounterSet, Histogram
from repro.workloads import get_workload


def _tiny_result() -> SimulationResult:
    config = small_config(wrongpath_loads=False)
    return run_workload(config, get_workload("gzip"), max_instructions=900)


class TestSerializationRoundTrip:
    def test_counter_set(self):
        c = CounterSet()
        c.bump("a", 3)
        c.bump("b.c", 7)
        again = CounterSet.from_dict(json.loads(json.dumps(c.as_dict())))
        assert again == c
        assert CounterSet() == CounterSet.from_dict({"zeroed": 0})

    def test_histogram(self):
        h = Histogram()
        h.add(3, 2)
        h.add(11)
        again = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert again == h
        assert again.mean == h.mean and again.count == h.count

    def test_simulation_result_round_trips_exactly(self):
        result = _tiny_result()
        payload = json.loads(json.dumps(result.to_dict()))
        again = SimulationResult.from_dict(payload)
        assert again == result
        assert again.summary() == result.summary()
        assert again.false_replay_breakdown() == result.false_replay_breakdown()


def _perturbed(value, name):
    """A different-but-valid value for a config field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2 if value else 64
    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, str):
        return "dmdc" if name == "kind" else value + "x"
    if value is None:
        return 512
    return value


class TestCacheKey:
    def test_stable_within_process(self):
        req = RunRequest(CONFIG2, "gzip", 5000, 1)
        assert req.cache_key() == RunRequest(CONFIG2, "gzip", 5000, 1).cache_key()

    def test_stable_across_processes(self):
        req = RunRequest(CONFIG2, "gzip", 5000, 1)
        src = Path(repro.__file__).resolve().parents[1]
        script = (
            "from repro.exec.request import RunRequest\n"
            "from repro.sim.config import CONFIG2\n"
            "print(RunRequest(CONFIG2, 'gzip', 5000, 1).cache_key())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == req.cache_key()

    def test_every_machine_field_changes_key(self):
        base = RunRequest(CONFIG2, "gzip", 5000, 1).cache_key()
        for f in dataclasses.fields(MachineConfig):
            if f.name == "scheme":
                continue
            value = getattr(CONFIG2, f.name)
            changed = CONFIG2.with_overrides(**{f.name: _perturbed(value, f.name)})
            key = RunRequest(changed, "gzip", 5000, 1).cache_key()
            assert key != base, f"MachineConfig.{f.name} did not affect the key"

    def test_every_scheme_field_changes_key(self):
        scheme = SchemeConfig()
        base = RunRequest(CONFIG2.with_scheme(scheme), "gzip", 5000, 1).cache_key()
        for f in dataclasses.fields(SchemeConfig):
            value = getattr(scheme, f.name)
            changed = dataclasses.replace(scheme, **{f.name: _perturbed(value, f.name)})
            key = RunRequest(CONFIG2.with_scheme(changed), "gzip", 5000, 1).cache_key()
            assert key != base, f"SchemeConfig.{f.name} did not affect the key"

    def test_workload_budget_seed_change_key(self):
        base = RunRequest(CONFIG2, "gzip", 5000, 1)
        assert RunRequest(CONFIG2, "vpr", 5000, 1).cache_key() != base.cache_key()
        assert RunRequest(CONFIG2, "gzip", 6000, 1).cache_key() != base.cache_key()
        assert RunRequest(CONFIG2, "gzip", 5000, 2).cache_key() != base.cache_key()

    def test_fingerprint_is_part_of_key(self, monkeypatch):
        base = RunRequest(CONFIG2, "gzip", 5000, 1).cache_key()
        monkeypatch.setattr("repro.exec.request.simulator_fingerprint",
                            lambda: "different-sim")
        assert RunRequest(CONFIG2, "gzip", 5000, 1).cache_key() != base

    def test_fingerprint_shape(self):
        fp = simulator_fingerprint()
        assert isinstance(fp, str) and len(fp) == 16


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        req = RunRequest(small_config(wrongpath_loads=False), "gzip", 900, 1)
        assert cache.get(req) is None
        result = _tiny_result()
        cache.put(req, result)
        assert len(cache) == 1
        assert cache.get(req) == result

    def test_respects_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.root == tmp_path / "envcache"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        req = RunRequest(small_config(wrongpath_loads=False), "gzip", 900, 1)
        cache.put(req, _tiny_result())
        path = cache.path_for(req.cache_key())
        path.write_text("{not json")
        assert cache.get(req) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        req = RunRequest(small_config(wrongpath_loads=False), "gzip", 900, 1)
        cache.put(req, _tiny_result())
        path = cache.path_for(req.cache_key())
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(req) is None

    def test_entry_for_another_request_is_a_miss(self, tmp_path):
        """A conventional host's entry filed under a YLA point's key (the
        failure a filter-lane mix-up would persist) is never served."""
        cache = ResultCache(tmp_path)
        config = small_config(wrongpath_loads=False)
        host = RunRequest(config, "gzip", 900, 1)
        lane = RunRequest(config.with_scheme(SchemeConfig(kind="yla")),
                          "gzip", 900, 1)
        cache.put(host, _tiny_result(), key=lane.cache_key())
        assert cache.path_for(lane.cache_key()).exists()
        assert cache.get(lane) is None
        cache.put(lane, _tiny_result())
        assert cache.get(lane) == _tiny_result()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        req = RunRequest(small_config(wrongpath_loads=False), "gzip", 900, 1)
        cache.put(req, _tiny_result())
        assert cache.clear() == 1
        assert len(cache) == 0
