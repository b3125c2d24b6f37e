#!/usr/bin/env python
"""Multi-resource estimation via coordinate descent (the §2.3 extension).

The paper notes Algorithm 1 is single-resource: reducing several resources
at once makes failures ambiguous ("it would be difficult to know which of
these resources causes the algorithm to terminate").  The coordinate-descent
generalization probes one resource at a time, so blame is unambiguous.

This example estimates memory, disk, and license counts for two job classes
with very different over-provisioning profiles, and shows the per-resource
safe values converging toward actual usage.  It drives the estimator alone,
one submission at a time: the simulator models memory only, as every
experiment in the paper does.

Run:  python examples/multi_resource.py
"""

from repro.cluster import CapacityLadder
from repro.core import CoordinateDescentEstimator, MultiResourceTask


def main() -> None:
    # Two job classes; requests vs actual usage per resource.
    classes = {
        "render-farm": dict(
            requested={"mem": 32.0, "disk": 2048.0, "licenses": 8.0},
            used={"mem": 5.0, "disk": 1900.0, "licenses": 1.0},
        ),
        "fluid-sim": dict(
            requested={"mem": 24.0, "disk": 512.0, "licenses": 4.0},
            used={"mem": 20.0, "disk": 60.0, "licenses": 4.0},
        ),
    }

    estimator = CoordinateDescentEstimator(
        alpha=2.0,
        beta=0.0,
        # Memory is machine-quantized; disk and licenses are continuous/integers.
        ladders={"mem": CapacityLadder([4.0, 8.0, 16.0, 24.0, 32.0])},
    )

    print("submission-by-submission estimation (one resource probed per step):\n")
    for name, spec in classes.items():
        task = MultiResourceTask(group=name, **spec)
        print(f"job class {name!r}: requested {spec['requested']}, actually uses {spec['used']}")
        for step in range(1, 13):
            requirement = estimator.estimate(task)
            succeeded = all(requirement[r] >= task.used[r] for r in task.used)
            estimator.observe(task, requirement, succeeded)
            pretty = ", ".join(f"{r}={v:g}" for r, v in sorted(requirement.items()))
            print(f"  step {step:>2d}: {pretty}  -> {'ok' if succeeded else 'FAIL'}")
        safe = estimator.safe_vector(name)
        print(f"  converged safe requirement: "
              + ", ".join(f"{r}={v:g}" for r, v in sorted(safe.items())))
        savings = {
            r: 1 - safe[r] / spec["requested"][r] for r in safe
        }
        print("  reclaimed: " + ", ".join(f"{r} {s:.0%}" for r, s in sorted(savings.items())))
        print()


if __name__ == "__main__":
    main()
