"""The deduplicating executor, the cross-experiment planner, and the
engine-backed ``run_suite`` helpers."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.exec.cache import ResultCache
from repro.exec.engine import ExecutionEngine, by_lane_group, worker_count
from repro.exec.planner import plan_experiments, run_all, union_requests
from repro.exec.request import RunRequest
from repro.sim.config import SchemeConfig, small_config

BUDGET = 700


def _req(workload="gzip", seed=1, **overrides):
    return RunRequest(small_config(wrongpath_loads=False, **overrides),
                      workload, BUDGET, seed)


def _scheme_req(kind, workload="gzip", seed=1, **scheme):
    config = small_config(wrongpath_loads=False).with_scheme(
        SchemeConfig(kind=kind, **scheme))
    return RunRequest(config, workload, BUDGET, seed)


@pytest.fixture
def engine(tmp_path):
    with ExecutionEngine(cache=ResultCache(tmp_path / "cache"), max_workers=1) as eng:
        yield eng


class TestDedupeAndCaching:
    def test_duplicates_run_once(self, engine):
        requests = [_req(), _req("swim"), _req(), _req()]
        results = engine.run(requests)
        assert engine.stats.requested == 4
        assert engine.stats.unique == 2
        assert engine.stats.executed == 2
        assert results[0] == results[2] == results[3]
        assert results[1].workload == "swim"

    def test_memo_serves_repeat_batches(self, engine):
        engine.run([_req()])
        engine.run([_req()])
        assert engine.stats.executed == 1
        assert engine.stats.memo_hits == 1

    def test_disk_cache_survives_engine_restart(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as first:
            cold = first.run([_req()])[0]
        with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as second:
            warm = second.run([_req()])[0]
            assert second.stats.executed == 0
            assert second.stats.disk_hits == 1
        assert warm == cold

    def test_no_cache_means_every_engine_simulates(self, tmp_path):
        with ExecutionEngine(cache=None, max_workers=1) as first:
            first.run([_req()])
            assert first.stats.executed == 1
        with ExecutionEngine(cache=None, max_workers=1) as second:
            second.run([_req()])
            assert second.stats.executed == 1

    def test_progress_reports_every_unique_point(self, engine):
        seen = []
        engine.progress = lambda done, total, request, source: seen.append(
            (done, total, request.workload_name, source))
        engine.run([_req(), _req(), _req("swim")])
        assert len(seen) == 2
        assert {s[3] for s in seen} == {"run"}
        engine.run([_req()])
        assert seen[-1][3] == "memo"


class TestLaneGroupOrder:
    def test_pool_slices_keep_lane_groups_together(self):
        """A (scheme, workload) grid is regrouped so each workload's
        conventional, YLA, Bloom and DMDC points sit side by side; other
        points keep their order, and within a group request order is
        kept."""
        grid = [(f"k{i}", _scheme_req(kind, workload))
                for i, (kind, workload) in enumerate(
                    (kind, workload)
                    for kind in ("yla", "dmdc", "conventional", "bloom")
                    for workload in ("gzip", "swim"))]
        ordered = by_lane_group(grid)
        assert sorted(ordered) == sorted(grid)
        assert [(r.config.scheme.kind, r.workload) for _, r in ordered] == [
            ("yla", "gzip"), ("dmdc", "gzip"), ("conventional", "gzip"),
            ("bloom", "gzip"),
            ("yla", "swim"), ("dmdc", "swim"), ("conventional", "swim"),
            ("bloom", "swim")]

    def test_lane_groups_need_equal_seed_and_machine(self):
        points = [("a", _scheme_req("yla")), ("b", _req(seed=2)),
                  ("c", _scheme_req("bloom", sq_filter=True)), ("d", _req()),
                  ("e", _scheme_req("bloom"))]
        assert [key for key, _ in by_lane_group(points)] == [
            "a", "d", "e", "b", "c"]


class TestErrorContext:
    def test_serial_failure_names_the_job(self, engine):
        with pytest.raises(SimulationError, match="no-such-workload.*small"):
            engine.run([_req("no-such-workload")])

    def test_parallel_failure_names_the_job(self, tmp_path):
        with ExecutionEngine(cache=None, max_workers=2) as engine:
            with pytest.raises(SimulationError, match="no-such-workload"):
                engine.run([_req(), _req("no-such-workload")])

    def test_worker_count_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "many")
        with pytest.raises(ConfigError, match="REPRO_PARALLEL.*'many'"):
            worker_count()

    def test_worker_count_zero_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert worker_count() == 1


class TestPlanner:
    @pytest.fixture(autouse=True)
    def _small_suite(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS_PER_GROUP", "1")
        monkeypatch.setenv("REPRO_PARALLEL", "0")

    def test_shared_points_fold_in_union(self):
        # table2 (global DMDC suite) is a strict subset of safe_loads'
        # "with safe loads" sweep: identical configs, workloads, budget.
        plans = plan_experiments(["table2", "safe_loads"], budget=BUDGET)
        assert {p.id for p in plans} == {"table2", "safe_loads"}
        planned = sum(len(p.requests) for p in plans)
        union = union_requests(plans)
        keys = {r.cache_key() for r in union}
        assert len(union) == len(keys)
        suite_size = len(plans[0].requests)
        assert planned == 3 * suite_size
        assert len(union) == 2 * suite_size

    def test_every_experiment_declares_a_plan(self):
        plans = plan_experiments(budget=BUDGET)
        assert len(plans) == 17
        for plan in plans:
            assert plan.requests, f"{plan.id} planned no design points"

    def test_run_all_simulates_each_unique_point_once(self, tmp_path):
        with ExecutionEngine(cache=ResultCache(tmp_path / "c"), max_workers=1) as engine:
            rendered = run_all(["table2", "safe_loads"], budget=BUDGET, engine=engine)
            union = union_requests(plan_experiments(["table2", "safe_loads"],
                                                    budget=BUDGET))
            assert engine.stats.executed == len(union)
            assert {r[0] for r in rendered} == {"table2", "safe_loads"}
            for _, _, text in rendered:
                assert text.strip()

    def test_cached_rerun_is_identical_and_simulation_free(self, tmp_path):
        cache_dir = tmp_path / "c"
        with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as cold:
            first = run_all(["table2"], budget=BUDGET, engine=cold)
        with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as warm:
            second = run_all(["table2"], budget=BUDGET, engine=warm)
            assert warm.stats.executed == 0
            assert warm.stats.hit_rate == 1.0
        assert first[0][2] == second[0][2]  # byte-identical rendering


class TestSuiteHelpers:
    def test_run_suite_many_shares_engine_batches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        from repro.experiments.common import run_suite, run_suite_many

        config = small_config(wrongpath_loads=False)
        with ExecutionEngine(cache=ResultCache(tmp_path / "c"), max_workers=1) as eng:
            from repro.exec.engine import use_engine

            with use_engine(eng):
                single = run_suite(config, budget=BUDGET, workloads=["gzip", "swim"])
                many = run_suite_many({"a": config, "b": config}, budget=BUDGET,
                                      workloads=["gzip", "swim"])
            # 2 + 4 requests, but only 2 unique design points ever ran.
            assert eng.stats.executed == 2
            assert many["a"]["gzip"] == single["gzip"]
            assert many["b"]["swim"] == single["swim"]
