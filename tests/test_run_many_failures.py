"""Failure paths of the engine's batched execution (``run_many``).

Two contracts under test:

* **serial fallback** — when an in-process ``run_many`` batch dies, the
  engine re-runs the batch one request at a time, so every healthy
  batch-mate still completes (and is memoized) and the error names the
  exact design point that poisoned the batch;
* **pool dispatch** — the contiguous-slice path attributes a worker
  failure to the slice's jobs, including the hard case where the worker
  *process* dies outright rather than raising.
"""

import multiprocessing
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import SimulationError
from repro.exec.engine import ExecutionEngine
from repro.exec.request import RunRequest
from repro.sim.config import small_config

BUDGET = 700


def _req(workload="gzip", seed=1, **overrides):
    return RunRequest(small_config(wrongpath_loads=False, **overrides),
                      workload, BUDGET, seed)


def _crash_batch(requests):
    """Replacement for ``_execute_batch`` that kills the worker process
    dead — no exception, no cleanup, exactly like a segfault or OOM kill."""
    os._exit(13)


class BreaksOnSecondSubmit:
    """Pool stand-in whose second ``submit`` finds the pool broken, as
    when a child dies while the engine is still submitting slices."""

    def __init__(self):
        self.submitted = 0
        self.shut_down = False

    def submit(self, fn, *args):
        self.submitted += 1
        if self.submitted == 2:
            raise BrokenProcessPool("a child process terminated abruptly")
        return Future()

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


class TestSerialFallback:
    def test_poisoned_batch_falls_back_per_request(self):
        """One bad element must not take its batch-mates down: the good
        points complete (and memoize) before the poison is reported."""
        good, poisoned = _req("gzip"), _req("no-such-workload")
        with ExecutionEngine(cache=None, max_workers=1) as engine:
            with pytest.raises(SimulationError,
                               match="no-such-workload") as excinfo:
                engine.run([good, poisoned])
            # The per-request retry names the poisoned point alone, not
            # the whole batch (the pool path's "within batch [...]" form).
            assert "simulation failed for" in str(excinfo.value)
            assert "within batch" not in str(excinfo.value)
            # The healthy batch-mate was executed and memoized on the way.
            assert engine.stats.executed == 1
            result = engine.run([good])[0]
            assert engine.stats.memo_hits == 1
            assert engine.stats.executed == 1  # no re-simulation
            assert result.workload == "gzip"

    def test_fallback_result_matches_clean_batch(self):
        """The per-request fallback path produces bit-identical results
        to an undisturbed batch (same seed discipline either way)."""
        good = _req("swim", seed=5)
        with ExecutionEngine(cache=None, max_workers=1) as clean:
            expected = clean.run([good])[0]
        with ExecutionEngine(cache=None, max_workers=1) as engine:
            with pytest.raises(SimulationError):
                engine.run([good, _req("no-such-workload")])
            assert engine.run([good])[0] == expected


class TestPoolDispatch:
    def test_contiguous_slices_preserve_order_and_results(self):
        """Five unique points over two workers split into ceil-sized
        contiguous slices; results must come back request-ordered and
        bit-identical to the serial path."""
        requests = [_req(workload, seed=seed)
                    for workload, seed in [("gzip", 1), ("gzip", 2),
                                           ("swim", 1), ("mcf", 1),
                                           ("mcf", 2)]]
        with ExecutionEngine(cache=None, max_workers=1) as serial:
            expected = serial.run(requests)
        with ExecutionEngine(cache=None, max_workers=2) as pooled:
            actual = pooled.run(requests)
            assert pooled.stats.executed == len(requests)
        assert actual == expected

    def test_offload_forces_pool_for_singleton_batches(self):
        """The sharded service's ``offload`` flag: even a one-point batch
        runs on a worker process, and the answer is still bit-identical
        to the in-process path."""
        request = _req("gzip", seed=9)
        with ExecutionEngine(cache=None, max_workers=1) as inprocess:
            expected = inprocess.run([request])[0]
        with ExecutionEngine(cache=None, max_workers=1,
                             offload=True) as offloaded:
            actual = offloaded.run([request])[0]
            assert offloaded.stats.executed == 1
        assert actual == expected

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the crash stub reaches workers by fork "
                               "inheritance")
    def test_worker_crash_names_the_slice_jobs(self, monkeypatch):
        """A worker that dies without raising (os._exit) must surface as
        SimulationError naming the slice's jobs, not hang or leak a
        broken pool into later runs."""
        monkeypatch.setattr("repro.exec.engine._execute_batch", _crash_batch)
        requests = [_req("gzip", seed=seed) for seed in range(4)]
        with ExecutionEngine(cache=None, max_workers=2) as engine:
            with pytest.raises(SimulationError,
                               match="within batch") as excinfo:
                engine.run(requests)
            assert "gzip" in str(excinfo.value)
        # A fresh engine (new pool) is unaffected by the crashed one.
        monkeypatch.undo()
        with ExecutionEngine(cache=None, max_workers=2) as engine:
            results = engine.run(requests)
            assert len(results) == 4

    def test_broken_pool_during_submit_names_the_slice_jobs(self):
        """``submit`` itself raising ``BrokenProcessPool`` surfaces as the
        same SimulationError as a failure seen while waiting, and the
        broken pool is dropped so the next run builds a fresh one."""
        requests = [_req("gzip", seed=seed) for seed in range(4)]
        pool = BreaksOnSecondSubmit()
        with ExecutionEngine(cache=None, max_workers=2) as engine:
            engine._pool = pool
            with pytest.raises(SimulationError,
                               match="within batch") as excinfo:
                engine.run(requests)
            message = str(excinfo.value)
            # Two slices of two: the second one (seeds 2 and 3) broke.
            assert "seed=2" in message and "seed=3" in message
            assert "seed=0" not in message
            assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
            assert pool.shut_down and engine._pool is None
            assert len(engine.run(requests)) == 4
            assert engine._pool is not pool
