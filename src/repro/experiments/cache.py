"""On-disk result cache for sweep points.

Every headline sweep is a grid of *deterministic* simulation runs: a
:class:`~repro.experiments.specs.RunSpec` fully determines its
:class:`~repro.experiments.runner.SweepPoint`.  The cache exploits that —
key = SHA-256 of the canonicalized spec plus the workload fingerprint
(:meth:`RunSpec.cache_key`), value = the point's fields as JSON (floats
round-trip exactly through ``repr``, so a cache hit is byte-identical to a
recomputation).

Layout: one ``<key>.json`` file per point under the cache directory, written
atomically (temp file + rename) so concurrent sweeps sharing a directory
never observe a torn entry.  Corrupt or schema-mismatched entries are
treated as misses and overwritten, and so are entries written by code whose
recorded outputs differ (:data:`RESULTS_VERSION`).  The cache is also the
sweep's only resume store: a killed sweep re-run over the same directory
recomputes only the points it had not written.

The directory comes from the ``REPRO_CACHE_DIR`` environment variable (see
:meth:`SweepCache.from_env`) or an explicit path; the CLI exposes
``--cache-dir`` and ``--no-cache``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

from repro.experiments.runner import SweepPoint
from repro.experiments.specs import RunSpec

#: Bump when SweepPoint's fields change so stale entries self-invalidate.
_SCHEMA_VERSION = 1

#: The simulator's outputs this cache's entries were computed by.  Bump it
#: whenever a change moves recorded outputs (the engine fingerprints, the
#: trace digests, the e2e benchmark digests): an entry of another version
#: is a miss, so no point computed by older code is served.  Keys do not
#: move, so the service's sweep keys and run ids stay put.
RESULTS_VERSION = 1

#: SHA-256 of the recorded outputs :data:`RESULTS_VERSION` was cut against;
#: ``tests/experiments/test_results_version.py`` recomputes it, and fails
#: with a reminder to bump the version when it differs.
RESULTS_DIGEST = (
    "2b0717546cb113fabcc02e9a9ab6986a"
    "6305b2fdbcbd0274e7f97792fcb89778"
)

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class SweepCache:
    """A directory of memoized sweep points, with hit/miss accounting."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_env(cls) -> Optional["SweepCache"]:
        """The cache named by ``REPRO_CACHE_DIR``, or None when unset."""
        directory = os.environ.get(CACHE_DIR_ENV)
        return cls(directory) if directory else None

    def _path(self, spec: RunSpec) -> Path:
        return self.directory / f"{spec.cache_key()}.json"

    def get(self, spec: RunSpec) -> Optional[SweepPoint]:
        """The cached point for ``spec``, or None (counted as a miss)."""
        path = self._path(spec)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if (
                not isinstance(doc, dict)
                or doc.get("version") != _SCHEMA_VERSION
                or doc.get("results") != RESULTS_VERSION
            ):
                raise ValueError("schema or results version mismatch")
            point = SweepPoint(**doc["point"])
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return point

    def put(self, spec: RunSpec, point: SweepPoint) -> None:
        """Store ``point`` under ``spec``'s key (atomic replace)."""
        doc = {
            "version": _SCHEMA_VERSION,
            "results": RESULTS_VERSION,
            "spec": spec.canonical(),
            "point": asdict(point),
        }
        fd, tmp = tempfile.mkstemp(
            dir=str(self.directory), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, self._path(spec))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


def resolve_cache(
    enabled: bool = True, directory: Optional[Union[str, Path]] = None
) -> Optional[SweepCache]:
    """The cache the CLI flags select: explicit directory wins, then
    ``REPRO_CACHE_DIR``; ``enabled=False`` (``--no-cache``) disables both."""
    if not enabled:
        return None
    if directory:
        return SweepCache(directory)
    return SweepCache.from_env()
