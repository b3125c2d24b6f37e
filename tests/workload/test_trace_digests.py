"""Pin the synthetic generator's exact output with recorded digests.

Every trace the experiments, the sweep cache and the engine fingerprints
see comes from :func:`repro.workload.synthetic.generate_trace`, so a change
to the generator that moves a single RNG draw silently changes every
downstream number.  Each case below hashes the generated trace's columns
(name, dtype and raw bytes, in ``COLUMN_FIELDS`` order) and compares the
SHA-256 against a literal recorded from the generator before its per-group
loop was vectorized.

Print the current digests (ONLY to record an intended, understood change
to the trace) with::

    PYTHONPATH=src python tests/workload/test_trace_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.workload.columns import COLUMN_FIELDS
from repro.workload.lanl_cm5 import lanl_cm5_like
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace

from tests.numeric_profile import numeric_profile


def trace_digest(workload) -> str:
    """SHA-256 over every column's name, dtype and bytes."""
    columns = workload.as_columns()
    h = hashlib.sha256()
    for name, _ in COLUMN_FIELDS:
        arr = getattr(columns, name)
        h.update(name.encode())
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _variant(n_jobs: int, **changes) -> SyntheticTraceConfig:
    return dataclasses.replace(SyntheticTraceConfig.lanl_cm5(n_jobs), **changes)


#: case id -> (config, seed).  n_jobs=7 leaves a one-job group budget next
#: to the six full-machine jobs.
CASES = {
    "lanl-7-s0": (SyntheticTraceConfig.lanl_cm5(7), 0),
    "lanl-7-s1": (SyntheticTraceConfig.lanl_cm5(7), 1),
    "lanl-300-s0": (SyntheticTraceConfig.lanl_cm5(300), 0),
    "lanl-300-s1": (SyntheticTraceConfig.lanl_cm5(300), 1),
    "lanl-300-s2": (SyntheticTraceConfig.lanl_cm5(300), 2),
    "lanl-2000-s0": (SyntheticTraceConfig.lanl_cm5(2000), 0),
    "lanl-2000-s1": (SyntheticTraceConfig.lanl_cm5(2000), 1),
    "lanl-20000-s0": (SyntheticTraceConfig.lanl_cm5(20000), 0),
    "unclustered-2000-s3": (_variant(2000, cluster_in_time=False), 3),
    "no-diurnal-2000-s4": (_variant(2000, diurnal=False), 4),
    "no-full-machine-1500-s5": (_variant(1500, n_full_machine_jobs=0), 5),
    "small-groups-3000-s6": (_variant(3000, max_group_size=25), 6),
}

RECORDED = {
    "lanl-7-s0": (
        "882ee2e53ec6f3bdd807df30fa12b0ed"
        "36274e895cafff62898fe345cd6556fb"
    ),
    "lanl-7-s1": (
        "ad96954f7f847174530dad759655038c"
        "d57a92e7a14e8a3c83613d674cdc7be0"
    ),
    "lanl-300-s0": (
        "7832dbaf1710facab03472d7ceb55abf"
        "63d8cdb906fdcc3292c94064d25840b4"
    ),
    "lanl-300-s1": (
        "5786c78b1f024dac0954c8740176f2bb"
        "e7f179747c17cae3321daf7406de59bf"
    ),
    "lanl-300-s2": (
        "776c7b49b0577c5d78c7f82eb6553805"
        "018ba4fb733fea3d2109515cebc48048"
    ),
    "lanl-2000-s0": (
        "50cae80a716b877c642f3e360810a49f"
        "72950bc0ca43480e9a1ad489cced2797"
    ),
    "lanl-2000-s1": (
        "0bf30fcb34032e5becbe53251f31cf8d"
        "bca4024940d99faf289138517a33867f"
    ),
    "lanl-20000-s0": (
        "80a8e4226e39866132ff87c30bb4ea3a"
        "aab92b3d89b74f67cef511f6008030d1"
    ),
    "unclustered-2000-s3": (
        "1b7e6b0587060a4192de13cd4350be22"
        "fcff3bc6f782a92a3ad06577765b239d"
    ),
    "no-diurnal-2000-s4": (
        "6e7fcb6018d07f08ca506caaf6229e7e"
        "8b71906bd73ead48034402f509ebc586"
    ),
    "no-full-machine-1500-s5": (
        "3ba05aff4f5bd74b6c33f6d9494a6fc2"
        "eaafa6a161e2958316b62c000fe192c8"
    ),
    "small-groups-3000-s6": (
        "c1d9c384cb961bde1ccb418e269446e4"
        "d7ba7545dc959e9ef44488a4f3c568ba"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_recorded_digest(case):
    config, seed = CASES[case]
    workload = generate_trace(config, rng=seed)
    assert len(workload) == config.n_jobs
    assert trace_digest(workload) == RECORDED[case], numeric_profile()


def test_lanl_cm5_like_is_the_default_config():
    # The public entry point must hash like the explicit config it wraps.
    assert (
        trace_digest(lanl_cm5_like(n_jobs=2000, seed=0)) == RECORDED["lanl-2000-s0"]
    ), numeric_profile()


if __name__ == "__main__":
    for case in sorted(CASES):
        config, seed = CASES[case]
        print(f'    "{case}": "{trace_digest(generate_trace(config, rng=seed))}",')
