"""The cache's results version follows the recorded outputs.

A :class:`~repro.experiments.cache.SweepCache` entry carries
:data:`~repro.experiments.cache.RESULTS_VERSION`, and an entry of another
version is a miss.  That only protects anyone if the version moves when the
simulator's outputs move.  The outputs are pinned in three places: the
engine fingerprints, the synthetic trace digests and the e2e benchmark's
workload digests.  This test hashes all three and compares the hash with
:data:`~repro.experiments.cache.RESULTS_DIGEST`, so re-recording any of
them without bumping the version fails here.
"""

import hashlib
import json
from pathlib import Path

from repro.experiments.cache import RESULTS_DIGEST, RESULTS_VERSION, SweepCache
from repro.experiments.parallel import run_sweep
from repro.experiments.specs import RunSpec, WorkloadSpec
from tests.workload.test_trace_digests import RECORDED as TRACE_DIGESTS

ROOT = Path(__file__).resolve().parents[2]


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def recorded_outputs_digest() -> str:
    """SHA-256 over the three recorded digest tables, in canonical JSON.

    Only the tables count: reformatting a file or editing its comment moves
    nothing.
    """
    engine = json.loads((ROOT / "tests/data/engine_fingerprints.json").read_text())
    e2e = json.loads((ROOT / "benchmarks/e2e/digests.json").read_text())
    h = hashlib.sha256()
    for table in (engine["fingerprints"], TRACE_DIGESTS, e2e):
        h.update(_canonical(table))
        h.update(b"\n")
    return h.hexdigest()


def test_recorded_outputs_match_the_results_version():
    digest = recorded_outputs_digest()
    assert digest == RESULTS_DIGEST, (
        "the recorded outputs (tests/data/engine_fingerprints.json, "
        "tests/workload/test_trace_digests.py, benchmarks/e2e/digests.json) "
        f"changed: bump RESULTS_VERSION (now {RESULTS_VERSION}) in "
        "src/repro/experiments/cache.py so cached points of the old code "
        f"become misses, and set RESULTS_DIGEST to {digest!r}"
    )


def test_entry_of_another_results_version_is_a_miss(tmp_path):
    spec = RunSpec(workload=WorkloadSpec(n_jobs=200, load=0.5))
    run_sweep([spec], cache=SweepCache(tmp_path))
    entry = tmp_path / f"{spec.cache_key()}.json"
    doc = json.loads(entry.read_text())
    assert doc["results"] == RESULTS_VERSION
    assert run_sweep([spec], cache=SweepCache(tmp_path)).n_cache_hits == 1

    doc["results"] = RESULTS_VERSION + 1
    entry.write_text(json.dumps(doc))
    cache = SweepCache(tmp_path)
    report = run_sweep([spec], cache=cache)
    assert report.n_cache_hits == 0 and cache.misses == 1
    # The recomputed point overwrote the stale entry.
    assert json.loads(entry.read_text())["results"] == RESULTS_VERSION
