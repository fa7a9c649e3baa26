"""Exact result digests: every suite workload under every scheme label.

``tests/golden_digests.json`` pins the sha256 of each point's
``SimulationResult.to_dict()`` (config2, seed 1, 1000 committed
instructions) for two sets of points:

* all 26 suite workloads x the nine :data:`SCHEME_LABELS`;
* the four coherent-DMDC invalidation rates of Table 6
  (``repro.experiments.table6.sweep``, 0/1/10/100 per 1000 cycles).

Any change to simulated behaviour changes a digest, so the file is the
gate for refactors of the cycle loops: it must stay byte-identical. Every
point must also run on the SoA kernel, so the digests pin the code that
plain runs actually take.  Run one at a time, a YLA or Bloom point
filters inline on the kernel; a
second test runs each workload's nine labels as one ``run_many`` batch,
where those points, and the verdict lanes (storesets, the dmdc labels,
garg) of a squash-free host, are lanes of the conventional point's run.

To rebuild the file after a deliberate behaviour change, call
:func:`regenerate` from a Python prompt with ``src`` on the path.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.exec.request import RunRequest
from repro.experiments.table6 import INVALIDATION_RATES, sweep as _sweep
from repro.sim.config import CONFIG2, SCHEME_LABELS, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import TRACE_TAIL_SLACK, run_many
from repro.sim.setup_memo import SETUP_MEMO, SetupBatch
from repro.sim.soa import SoaKernel
from repro.workloads import SUITE

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
BUDGET = 1_000
SEED = 1


def _configs():
    """Point label -> machine config, in a fixed order."""
    configs = {label: CONFIG2.with_scheme(SchemeConfig.from_label(label))
               for label in SCHEME_LABELS}
    sweep = _sweep(INVALIDATION_RATES, CONFIG2)
    for rate in INVALIDATION_RATES:
        configs[f"table6-inv:{rate}"] = sweep[f"inv:{rate}"]
    return configs


def result_digest(result) -> str:
    """sha256 of the result's canonical JSON, without ``sim_seconds``."""
    payload = result.to_dict()
    payload.pop("sim_seconds", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_workload_points(workload: str):
    """``{point: (digest, kernel_used)}`` for one workload's 13 points."""
    setup = SetupBatch()
    trace, ident = setup.trace(SUITE[workload], BUDGET + TRACE_TAIL_SLACK)
    out = {}
    for label, config in _configs().items():
        processor = Processor(config, trace, seed=SEED)
        setup.prewarm(processor, ident)
        result = processor.run(BUDGET)
        out[f"{workload}/{label}"] = (result_digest(result),
                                      processor.kernel_used)
    return out


def regenerate(path: Path = GOLDEN_PATH) -> None:
    """Rewrite the golden file from the current simulator."""
    digests = {}
    for workload in SUITE:
        for point, (digest, _) in run_workload_points(workload).items():
            digests[point] = digest
    payload = {"config": CONFIG2.name, "seed": SEED, "budget": BUDGET,
               "digests": digests}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_point(golden):
    assert (golden["config"], golden["seed"], golden["budget"]) == (
        CONFIG2.name, SEED, BUDGET)
    expected = {f"{w}/{label}" for w in SUITE for label in _configs()}
    assert set(golden["digests"]) == expected
    assert len(expected) == 26 * (len(SCHEME_LABELS) + len(INVALIDATION_RATES))


@pytest.mark.parametrize("workload", sorted(SUITE))
def test_digests_match_on_the_kernel(golden, workload):
    points = run_workload_points(workload)
    mismatched = [p for p, (digest, _) in points.items()
                  if golden["digests"][p] != digest]
    assert not mismatched, f"digest changed: {mismatched}"
    off_kernel = [p for p, (_, kernel) in points.items() if kernel != "soa"]
    assert not off_kernel, f"ran on the object loop: {off_kernel}"


#: Cycle loops the 26 nine-label batches step in total: per workload the
#: conventional host and ``value``, plus every verdict lane whose host
#: or own run replays.
BATCH_LOOPS = 69


@pytest.fixture(scope="module")
def batches():
    """``{workload: (labels whose batch run stepped the cycle loop, the
    batch's results by label)}``: each workload's nine labels through one
    ``run_many``."""
    out = {}
    original = SoaKernel.run
    loops = []

    def counting_run(kernel, target, max_cycles):
        loops.append(kernel.p.config.scheme.label())
        return original(kernel, target, max_cycles)

    # No host run an earlier test left in the memo may serve a batch.
    SETUP_MEMO.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SoaKernel, "run", counting_run)
        for workload in sorted(SUITE):
            loops.clear()
            requests = [RunRequest(CONFIG2.with_scheme(SchemeConfig.from_label(label)),
                                   workload, BUDGET, SEED)
                        for label in SCHEME_LABELS]
            results = dict(zip(SCHEME_LABELS, run_many(requests)))
            out[workload] = (list(loops), results)
    return out


@pytest.mark.parametrize("workload", sorted(SUITE))
def test_digests_match_as_one_batch(golden, batches, workload):
    """The nine labels through one ``run_many``: yla and bloom always
    replay the conventional point's recorded run; storesets, the dmdc
    labels and garg replay it too unless a replay (the host's or their
    own) makes them step their own loop.  Every result still matches
    its digest."""
    loops, results = batches[workload]
    mismatched = [label for label, result in results.items()
                  if golden["digests"][f"{workload}/{label}"] != result_digest(result)]
    assert not mismatched, f"digest changed: {mismatched}"
    assert "yla" not in loops and "bloom" not in loops
    assert loops[:1] == ["conventional"] and "value" in loops
    host_replays = results["conventional"].counters["replays"]
    needless = [label for label in loops
                if label not in ("conventional", "value")
                and host_replays == 0 and results[label].counters["replays"] == 0]
    assert not needless, f"verdict lanes stepped the loop: {needless}"
    assert len(loops) == len(set(loops)), loops


def test_batches_step_the_pinned_number_of_loops(batches):
    assert sum(len(loops) for loops, _ in batches.values()) == BATCH_LOOPS
