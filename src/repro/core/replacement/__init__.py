"""Cache replacement policies for the constrained proactive cache.

* :class:`GRD3Policy` — the paper's efficient 2-approximation (Definition 5.1).
* :class:`GRD2Policy` — the EBRS-based greedy it is proved equivalent to.
* :class:`GRD1Policy` — plain benefit/size greedy ignoring the constraint
  (used for the approximation-bound experiments only).
* :class:`LRUPolicy`, :class:`MRUPolicy`, :class:`FARPolicy` — the comparison
  policies of Figure 10, adapted to only evict leaf items so that the
  descendants constraint is respected.
"""

from repro.core.replacement.base import EvictableStore, EvictionContext, ReplacementPolicy
from repro.core.replacement.lru import LRUPolicy, MRUPolicy
from repro.core.replacement.far import FARPolicy
from repro.core.replacement.grd import GRD1Policy, GRD2Policy, GRD3Policy

__all__ = [
    "EvictableStore",
    "EvictionContext",
    "ReplacementPolicy",
    "LRUPolicy",
    "MRUPolicy",
    "FARPolicy",
    "GRD1Policy",
    "GRD2Policy",
    "GRD3Policy",
]


def make_policy(name: str) -> ReplacementPolicy:
    """Create a policy by its name as used in the paper ("LRU", "FAR", "GRD3", ...)."""
    registry = {
        "LRU": LRUPolicy,
        "MRU": MRUPolicy,
        "FAR": FARPolicy,
        "GRD1": GRD1Policy,
        "GRD2": GRD2Policy,
        "GRD3": GRD3Policy,
    }
    try:
        return registry[name.upper()]()
    except KeyError as exc:
        raise ValueError(f"unknown replacement policy {name!r}; "
                         f"choose from {sorted(registry)}") from exc
