"""The batched ``run_many`` entry point.

``run_many`` amortizes trace generation and SoA kernel-buffer allocation
across a batch of design points.  The contract it must keep while doing
so: results come back in request order, each one bit-identical to
running that request alone, with no RNG or kernel state leaking between
batch elements — and the batch path must not perturb the engine's
content-addressed caching.
"""

from repro.exec.cache import ResultCache
from repro.exec.engine import ExecutionEngine
from repro.exec.request import RunRequest
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.runner import run_many, run_workload
from repro.workloads import get_workload

BUDGET = 1_200


def _req(label="conventional", workload="gzip", seed=1, budget=BUDGET):
    return RunRequest(CONFIG2.with_scheme(SchemeConfig.from_label(label)),
                      workload, budget, seed)


def _solo(request):
    return run_workload(request.config, get_workload(request.workload),
                        max_instructions=request.budget, seed=request.seed)


def test_results_match_requests_in_order():
    """A mixed batch (schemes x workloads x seeds, so traces and kernel
    buffers are shared across elements) returns one result per request,
    in order, each bit-identical to an individual run."""
    requests = [
        _req("conventional", "gzip", seed=1),
        _req("dmdc", "mcf", seed=2),
        _req("dmdc", "gzip", seed=1),
        _req("storesets", "mcf", seed=1),
        _req("conventional", "gzip", seed=3),
    ]
    batch = run_many(requests)
    assert len(batch) == len(requests)
    for request, result in zip(requests, batch):
        assert result.to_dict() == _solo(request).to_dict()


def test_seeds_do_not_leak_between_elements():
    """Two same-seed runs bracketing a different-seed run must agree
    exactly: each element gets a fresh Processor and RNG stream even
    though they share a trace and kernel buffers.  dmdc on mcf is
    seed-sensitive (the seed drives wrong-path load injection, which
    perturbs YLA state), so the middle run really is different."""
    requests = [_req("dmdc", "mcf", seed=11),
                _req("dmdc", "mcf", seed=12),
                _req("dmdc", "mcf", seed=11)]
    first, middle, again = run_many(requests)
    assert first.to_dict() == again.to_dict()
    assert first.to_dict() != middle.to_dict()


def test_budget_none_uses_environment_default(monkeypatch):
    from repro.sim.runner import INSTRUCTIONS_ENV

    monkeypatch.setenv(INSTRUCTIONS_ENV, "1000")
    result = run_many([_req(budget=None)])[0]
    assert result.committed == 1_000


def test_cache_keys_unchanged_by_batching(tmp_path):
    """Batch execution must not change design-point identity: a point
    simulated through the engine's batched path is found again under the
    same key by a fresh engine (disk hit, no re-simulation)."""
    requests = [_req("conventional", "gzip"), _req("dmdc", "gzip")]
    keys_before = [request.cache_key() for request in requests]

    cache_dir = tmp_path / "cache"
    with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as first:
        cold = first.run(requests)
        assert first.stats.executed == 2
    assert [request.cache_key() for request in requests] == keys_before

    with ExecutionEngine(cache=ResultCache(cache_dir), max_workers=1) as second:
        warm = second.run(requests)
        assert second.stats.executed == 0
        assert second.stats.disk_hits == 2
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]


def test_same_name_different_spec_gets_its_own_trace():
    """A custom WorkloadSpec that reuses a suite name must run on its own
    trace inside a batch, not on the suite workload's: batch traces are
    keyed by workload content, never by name."""
    from repro.workloads import WorkloadSpec

    custom = WorkloadSpec(name="gzip", working_set_kb=8192, load_fraction=0.35)
    config = CONFIG2.with_scheme(SchemeConfig.from_label("dmdc"))
    suite_point = RunRequest(config, "gzip", 3_000, 1)
    custom_point = RunRequest(config, custom, 3_000, 1)
    suite_result, custom_result = run_many([suite_point, custom_point])
    solo = run_workload(config, custom_point.resolve_workload(),
                        max_instructions=3_000, seed=1)
    assert custom_result.to_dict() == solo.to_dict()
    assert custom_result.to_dict() != suite_result.to_dict()
