"""A single cluster node.

The paper models a node by the capacity of the resources that can make a job
fail when insufficient — chiefly memory (§1.1).  ``Machine`` carries the
memory capacity in MB; extra resource capacities can ride along in the
``resources`` mapping for the multi-resource extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.util.validation import check_positive


@dataclass(frozen=True)
class Machine:
    """One node: an identifier plus its memory capacity (MB).

    ``resources`` holds additional named capacities (e.g. ``{"disk": 2048}``)
    used by the multi-resource estimators; memory stays a first-class field
    because it is the resource every experiment in the paper exercises.
    """

    machine_id: int
    mem: float
    resources: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("mem", self.mem)
        for name, cap in self.resources.items():
            check_positive(f"resources[{name!r}]", cap)

    def capacity(self, resource: str = "mem") -> float:
        """Capacity of a named resource ('mem' or a key of ``resources``)."""
        if resource == "mem":
            return self.mem
        try:
            return self.resources[resource]
        except KeyError:
            raise KeyError(
                f"machine {self.machine_id} has no resource {resource!r}"
            ) from None
