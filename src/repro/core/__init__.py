"""Proactive caching — the paper's primary contribution.

The package is organised around the three-stage processing flow of Figure 3:

1. :class:`~repro.core.client.ClientQueryProcessor` executes the query over
   the :class:`~repro.core.cache.ProactiveCache` (Algorithm 1) and, if it
   cannot finish locally, builds a :class:`~repro.core.remainder.RemainderQuery`.
2. :class:`~repro.core.server.ServerQueryProcessor` resumes the execution
   from the shipped frontier and returns the remaining result objects plus a
   supporting index in full / compact / ``d+``-level form
   (:mod:`repro.core.supporting_index`).
3. The client returns ``R = Rs ∪ Rr`` and inserts the response into the
   cache, which evicts with one of the replacement policies in
   :mod:`repro.core.replacement` (GRD3 by default).

:mod:`repro.core.handles` states the client/server seam of stage 2 as a
type (:class:`~repro.core.handles.ServerHandle`), :mod:`repro.core.adaptive`
implements the fmr-driven adaptation of the compact-form depth ``d`` and
:mod:`repro.core.cost_model` the response-time and hit-rate accounting of
Section 4.1.
"""

from repro.core.items import CacheEntry, CachedIndexNode, CachedObject, FrontierTarget, TargetKind
from repro.core.cache import ProactiveCache
from repro.core.client import ClientQueryProcessor, ClientExecution
from repro.core.handles import LocalServerHandle, ServerHandle
from repro.core.remainder import RemainderQuery
from repro.core.server import ServerQueryProcessor, ServerResponse, IndexNodeSnapshot, ObjectDelivery
from repro.core.supporting_index import IndexForm, SupportingIndexPolicy
from repro.core.adaptive import AdaptiveDepthController
from repro.core.cost_model import QueryCost, ResponseTimeModel

__all__ = [
    "CacheEntry",
    "CachedIndexNode",
    "CachedObject",
    "FrontierTarget",
    "TargetKind",
    "ProactiveCache",
    "ClientQueryProcessor",
    "ClientExecution",
    "RemainderQuery",
    "ServerHandle",
    "LocalServerHandle",
    "ServerQueryProcessor",
    "ServerResponse",
    "IndexNodeSnapshot",
    "ObjectDelivery",
    "IndexForm",
    "SupportingIndexPolicy",
    "AdaptiveDepthController",
    "QueryCost",
    "ResponseTimeModel",
]
