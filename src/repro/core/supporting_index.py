"""Supporting-index policies: full form, compact form and the adaptive d+ form.

The server must decide *how much* index detail to ship alongside the result
objects.  Section 4 of the paper compares three choices:

* **FPRO** — ship the full form of every accessed node (an exact page copy);
* **CPRO** — ship the normal compact form, i.e. only the partition-tree cut
  the remainder query actually touched;
* **APRO** — ship the ``d+``-level compact form where ``d`` adapts to the
  client's recently reported false-miss rate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class IndexForm(enum.Enum):
    """Which representation of an accessed node the server ships."""

    FULL = "full"
    COMPACT = "compact"
    ADAPTIVE = "adaptive"


@dataclass(slots=True)
class SupportingIndexPolicy:
    """The server-side policy for building the supporting index ``Ir``.

    ``depth`` is only meaningful for :attr:`IndexForm.ADAPTIVE`; it is the
    current ``d`` of the ``d+``-level compact form and is updated by the
    :class:`~repro.core.adaptive.AdaptiveDepthController`.
    """

    form: IndexForm = IndexForm.ADAPTIVE
    depth: int = 1
    max_depth: int = 16

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be non-negative")

    def effective_depth(self, partition_tree_height: int) -> int:
        """The expansion depth to use for a node with the given partition-tree height."""
        if self.form is IndexForm.FULL:
            return partition_tree_height
        if self.form is IndexForm.COMPACT:
            return 0
        return min(self.depth, partition_tree_height)

    @property
    def uses_partition_trees(self) -> bool:
        """Whether the server traversal should walk the binary partition trees."""
        return self.form is not IndexForm.FULL

    @staticmethod
    def full() -> "SupportingIndexPolicy":
        """The FPRO policy."""
        return SupportingIndexPolicy(form=IndexForm.FULL)

    @staticmethod
    def compact() -> "SupportingIndexPolicy":
        """The CPRO policy."""
        return SupportingIndexPolicy(form=IndexForm.COMPACT)

    @staticmethod
    def adaptive(initial_depth: int = 1) -> "SupportingIndexPolicy":
        """The APRO policy with the given initial ``d``."""
        return SupportingIndexPolicy(form=IndexForm.ADAPTIVE, depth=initial_depth)
