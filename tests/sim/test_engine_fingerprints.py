"""Bit-identical regression gate for the optimized engine hot path.

Every optimization of the simulation engine (lazy scheduling passes,
estimate-version memoization, allocation fast paths, raw-heap draining, …)
is admissible only if it is *behaviorally invisible*: each reference slice
in :mod:`tests.sim.engine_reference` must still produce the exact
``SimResult.fingerprint()`` recorded in ``tests/data/engine_fingerprints.json``
before the optimizations landed.  The digest covers per-job summaries and
per-attempt records via ``float.hex()``, so even a last-bit float deviation
or a reordered attempt fails the gate.

The observer-attached variant pins a second invariant: observability is
passive.  Wiring a (counting) observer into the run must not perturb the
simulation — same digest with the observer on and off.

If a PR *intends* to change engine behavior, regenerate the digests with
``PYTHONPATH=src python tests/sim/record_engine_fingerprints.py`` and call
the change out in the PR description.
"""

import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro.obs import CounterObserver
from repro.sim.batch import fast_lane_eligible, simulate_batch

from tests.numeric_profile import numeric_profile
from tests.sim.engine_reference import (
    REFERENCE_SLICES,
    run_slice,
    slice_batch_config,
    slice_workload,
)

_DATA_PATH = Path(__file__).resolve().parents[1] / "data" / "engine_fingerprints.json"
RECORDED = json.loads(_DATA_PATH.read_text(encoding="utf-8"))["fingerprints"]


def test_every_reference_slice_is_recorded():
    assert set(RECORDED) == set(REFERENCE_SLICES)


@pytest.mark.parametrize("name", sorted(REFERENCE_SLICES))
def test_fingerprint_matches_recorded(name):
    result = run_slice(REFERENCE_SLICES[name])
    assert result.fingerprint() == RECORDED[name], (
        f"slice {name!r} diverged from the recorded seed fingerprint — an "
        f"engine change altered simulation behavior (regenerate the recording "
        f"only if the change is intended)\n{numeric_profile()}"
    )


@pytest.mark.parametrize("name", sorted(REFERENCE_SLICES))
def test_batched_single_lane_matches_recorded(name):
    """Every slice through simulate_batch (K=1) reproduces the recorded
    digest — whichever lane (array fast lane or engine lane) the
    configuration routes to."""
    spec = REFERENCE_SLICES[name]
    config = slice_batch_config(spec)
    result = simulate_batch(slice_workload(spec), [config])[0]
    lane = "fast" if fast_lane_eligible(config) else "engine"
    assert result.fingerprint() == RECORDED[name], (
        f"slice {name!r} diverged through the batched {lane} lane — the "
        f"batched engine is only admissible while bit-identical to scalar"
        f"\n{numeric_profile()}"
    )


def _slices_by_load():
    groups = defaultdict(list)
    for name, spec in REFERENCE_SLICES.items():
        groups[spec.load].append(name)
    return sorted(groups.items())


@pytest.mark.parametrize("load,names", _slices_by_load())
def test_batched_merged_lanes_match_recorded(load, names):
    """All same-workload slices as ONE batch, run lane after lane: mixed
    estimators, policies, fault injection and timeline sampling must each
    still land on their recorded scalar digest."""
    names = sorted(names)
    specs = [REFERENCE_SLICES[name] for name in names]
    workload = slice_workload(specs[0])
    results = simulate_batch(
        workload, [slice_batch_config(spec) for spec in specs]
    )
    for name, result in zip(names, results):
        assert result.fingerprint() == RECORDED[name], (
            f"slice {name!r} diverged inside a merged K={len(names)} batch "
            f"(load {load})\n{numeric_profile()}"
        )


@pytest.mark.parametrize(
    "name",
    # One slice per policy/feature family keeps the observer pass cheap while
    # still covering every code path an observer hooks into.
    ["fig5-fcfs-successive", "fig5-sjf-none", "fig5-backfilling-successive",
     "faults-fcfs-successive"],
)
def test_observer_does_not_perturb_fingerprint(name):
    observer = CounterObserver()
    result = run_slice(REFERENCE_SLICES[name], observer=observer)
    assert result.fingerprint() == RECORDED[name], (
        f"slice {name!r} changed digest with an observer attached — "
        f"observability must be passive\n{numeric_profile()}"
    )
    assert observer.snapshot()  # the observer did actually see events
