"""The deduplicating executor and the experiment runner that plans and
runs every paper artifact through it."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.exec.cache import ResultCache
from repro.exec.engine import ExecutionEngine, lane_slices, use_engine, worker_count
from repro.exec.request import RunRequest
from repro.experiments.registry import EXPERIMENTS, plan, run_all, run_experiment
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
        (ordered,) = lane_slices(grid, 1)
        assert sorted(ordered) == sorted(grid)
        assert [(r.config.scheme.kind, r.workload) for _, r in ordered] == [
            ("yla", "gzip"), ("dmdc", "gzip"), ("conventional", "gzip"),
            ("bloom", "gzip"),
            ("yla", "swim"), ("dmdc", "swim"), ("conventional", "swim"),
            ("bloom", "swim")]

    def test_pool_slices_are_cut_only_between_lane_groups(self):
        """Slices of about equal size never part a lane group, even when
        an equal cut would."""
        grid = [(f"k{i}", _scheme_req(kind, workload))
                for i, (workload, kind) in enumerate(
                    (workload, kind)
                    for workload in ("gzip", "swim", "mcf")
                    for kind in ("conventional", "yla", "dmdc"))]
        slices = lane_slices(grid, 2)
        assert [[key for key, _ in part] for part in slices] == [
            [f"k{i}" for i in range(6)], [f"k{i}" for i in range(6, 9)]]
        assert lane_slices(grid, 1) == [grid]
        assert len(lane_slices(grid, 9)) == 3

    def test_one_lane_group_runs_in_process(self, runs, cold_memo):
        """A host and its lane (``repro compare``) are one lane group: a
        2-worker engine runs them as one in-process batch instead of
        starting its pool and stepping two loops."""
        points = [_scheme_req("conventional", "twolf"),
                  _scheme_req("dmdc", "twolf")]
        with ExecutionEngine(cache=None, max_workers=2) as engine:
            engine.run(points)
            assert engine._pool is None
        assert [label for label, _ in runs] == ["conventional", "dmdc"]
        assert runs[0][1] == "soa" and runs[1][1] in ("lane", "fork")

    def test_lane_groups_name_the_seed_only_with_the_injector_on(self):
        """Points of any seed share a group: the seed only draws
        wrong-path loads, which each lane draws itself.  Injected
        invalidations let the seed reach timing, so then it splits
        groups.  The machine (here ``sq_filter``) always does."""
        points = [("a", _scheme_req("yla")), ("b", _req(seed=2)),
                  ("c", _scheme_req("bloom", sq_filter=True)), ("d", _req()),
                  ("e", _scheme_req("bloom"))]
        assert [key for key, _ in lane_slices(points, 1)[0]] == [
            "a", "b", "d", "e", "c"]
        injected = [(key, _req(seed=seed, invalidation_rate=10.0))
                    for key, seed in (("f", 1), ("g", 2), ("h", 1))]
        assert [key for key, _ in lane_slices(injected, 1)[0]] == ["f", "h", "g"]


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


def _union(exp_ids):
    """Deduplicated union of the experiments' planned requests."""
    union = {}
    for exp_id in exp_ids:
        for _, request in plan(exp_id, BUDGET):
            union.setdefault(request.cache_key(), request)
    return union


class _PlannedOnly:
    """An engine stand-in that refuses any request outside a fixed set of keys."""

    def __init__(self, inner, keys):
        self.inner, self.keys = inner, keys

    def run(self, requests):
        unplanned = [r.describe() for r in requests if r.cache_key() not in self.keys]
        assert not unplanned, f"unplanned requests: {unplanned}"
        return self.inner.run(requests)


class TestPlanner:
    @pytest.fixture(autouse=True)
    def _small_suite(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS_PER_GROUP", "1")
        monkeypatch.setenv("REPRO_PARALLEL", "0")

    def test_shared_points_fold_in_union(self):
        # table2 (global DMDC suite) is a strict subset of safe_loads'
        # "with safe loads" sweep: identical configs, workloads, budget.
        suite_size = len(plan("table2", BUDGET))
        assert len(plan("safe_loads", BUDGET)) == 2 * suite_size
        assert len(_union(["table2", "safe_loads"])) == 2 * suite_size

    def test_every_artifact_renders_from_its_plan_alone(self, tmp_path):
        union = _union(EXPERIMENTS)
        with ExecutionEngine(cache=ResultCache(tmp_path / "c"), max_workers=1) as engine:
            engine.run(list(union.values()))
            strict = _PlannedOnly(engine, set(union))
            with use_engine(strict):
                rendered = {exp_id: run_experiment(exp_id, budget=BUDGET)[1]
                            for exp_id in EXPERIMENTS}
            assert engine.stats.executed == len(union)
            assert [(exp_id, text) for exp_id, _, text
                    in run_all(budget=BUDGET, engine=strict)] == list(rendered.items())
            assert engine.stats.executed == len(union)
        assert len(rendered) == 17
        assert all(text.strip() for text in rendered.values())

    def test_run_all_simulates_each_unique_point_once(self, tmp_path):
        with ExecutionEngine(cache=ResultCache(tmp_path / "c"), max_workers=1) as engine:
            rendered = run_all(["table2", "safe_loads"], budget=BUDGET, engine=engine)
            assert engine.stats.executed == len(_union(["table2", "safe_loads"]))
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

    @pytest.mark.parametrize("budget", [-5, 0, 1_000_001])
    def test_budget_outside_the_point_codec_range_is_rejected(self, budget):
        with ExecutionEngine(cache=None, max_workers=1) as engine:
            with pytest.raises(ConfigError, match="experiment budget"):
                run_all(["table2"], budget=budget, engine=engine)
            assert engine.stats.requested == 0
