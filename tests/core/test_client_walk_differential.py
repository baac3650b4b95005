"""The inlined range / kNN walks against the element-at-a-time walks they replaced.

``client_reference.py`` keeps ``_execute_range`` / ``_execute_knn`` as they
were before PR 19.  Here both run over twin caches — cold, warm, partially
evicted, bearing super entries, and stale after server-side updates — and
must agree on everything Algorithm 1 produces: the saved objects, the
frontier *in order* with every target field equal (kNN priorities compared
with ``==``: they travel to the server and order its queue), ``k_remaining``,
``blocked_cached_objects``, ``examined_elements``, and afterwards the hit
count and last-access stamp of every cached item.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.cache import ProactiveCache
from repro.core.client import ClientQueryProcessor
from repro.core.items import TargetKind
from repro.core.supporting_index import SupportingIndexPolicy
from repro.geometry import Point, Rect
from repro.workload.queries import KNNQuery, RangeQuery

from tests.core.client_reference import reference_execute_knn, reference_execute_range
from tests.core.test_join_differential import (
    MODEL,
    churn,
    clone,
    hit_accounting,
    make_server,
    run_query,
    warm_client,
)


@pytest.fixture(scope="module")
def server():
    return make_server()


def random_query(rng):
    x, y = rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8)
    if rng.random() < 0.5:
        return RangeQuery(window=Rect(x, y, x + rng.uniform(0.02, 0.3),
                                      y + rng.uniform(0.02, 0.3)))
    return KNNQuery(point=Point(x, y), k=rng.randrange(1, 25))


def fields(frontier):
    return [[dataclasses.astuple(target) for target in item] for item in frontier]


def assert_walks_agree(cache, client, server, query):
    """One query on ``cache`` (inlined) and on its twin (reference)."""
    twin, reference = clone(cache, server)
    cache.tick()
    twin.tick()
    inlined = client._execute_knn(query) if isinstance(query, KNNQuery) \
        else client._execute_range(query)
    walked = reference_execute_knn(reference, query) if isinstance(query, KNNQuery) \
        else reference_execute_range(reference, query)
    assert list(inlined.saved_objects.items()) == list(walked.saved_objects.items())
    assert fields(inlined.frontier) == fields(walked.frontier)
    assert inlined.k_remaining == walked.k_remaining
    assert inlined.blocked_cached_objects == walked.blocked_cached_objects
    assert inlined.examined_elements == walked.examined_elements
    assert inlined.complete == walked.complete
    assert hit_accounting(cache) == hit_accounting(twin)
    return inlined


def kinds(execution):
    return {target.kind for item in execution.frontier for target in item}


def test_cold_cache_ships_the_root(server):
    cache = ProactiveCache(capacity_bytes=10_000_000, size_model=MODEL)
    client = ClientQueryProcessor(cache, root_id=server.root_id, root_mbr=server.root_mbr)
    for query in (RangeQuery(window=Rect(0.2, 0.2, 0.5, 0.5)),
                  KNNQuery(point=Point(0.4, 0.6), k=7)):
        cold = assert_walks_agree(cache, client, server, query)
        assert [t.node_id for item in cold.frontier for t in item] == [server.root_id]
    # A window off the root's MBR is answered (empty) without a walk.
    assert assert_walks_agree(cache, client, server,
                              RangeQuery(window=Rect(5.0, 5.0, 6.0, 6.0))).complete


def test_fully_cached_tree_answers_locally(server):
    cache = ProactiveCache(capacity_bytes=10_000_000, size_model=MODEL)
    client = ClientQueryProcessor(cache, root_id=server.root_id, root_mbr=server.root_mbr)
    run_query(cache, client, server, RangeQuery(window=Rect(0.0, 0.0, 1.0, 1.0)),
              SupportingIndexPolicy.full())
    for query in (RangeQuery(window=Rect(0.1, 0.3, 0.6, 0.7)),
                  KNNQuery(point=Point(0.5, 0.5), k=15),
                  KNNQuery(point=Point(0.5, 0.5), k=len(server.tree.objects) + 5)):
        warm = assert_walks_agree(cache, client, server, query)
        assert warm.complete and warm.saved_objects


@pytest.mark.parametrize("seed", range(10))
def test_warm_and_partially_evicted_caches(server, seed):
    """Roomy caches mostly hit; tight ones have evicted objects under cached
    leaves and leaves under cached parents, so every target kind ships."""
    rng = random.Random(600 + seed)
    cache, client = warm_client(server, rng, queries=rng.randrange(2, 14),
                                capacity=rng.choice((15_000, 40_000, 10_000_000)))
    shipped = set()
    for _ in range(10):
        query = random_query(rng)
        shipped |= kinds(assert_walks_agree(cache, client, server, query))
        run_query(cache, client, server, query)
    assert shipped, "some query must leave a frontier"


@pytest.mark.parametrize("form", ("compact", "adaptive"))
def test_super_entries_in_the_cached_cut(server, form):
    """Compact forms collapse untouched regions into super entries; a later
    query reaching one sets it aside (range) or queues it by MINDIST (kNN),
    and cached objects popped behind one become confirm-only targets."""
    rng = random.Random(form)
    policy = getattr(SupportingIndexPolicy, form)()
    cache = ProactiveCache(capacity_bytes=10_000_000, size_model=MODEL)
    client = ClientQueryProcessor(cache, root_id=server.root_id, root_mbr=server.root_mbr)
    shipped, blocked = set(), 0
    for _ in range(14):
        query = random_query(rng)
        execution = assert_walks_agree(cache, client, server, query)
        shipped |= kinds(execution)
        blocked += execution.blocked_cached_objects
        run_query(cache, client, server, query, policy)
    assert TargetKind.SUPER in shipped
    assert blocked, "some kNN must pop a cached object behind a missing element"


@pytest.mark.parametrize("seed", range(5))
def test_stale_caches_after_update_batches(seed):
    """No consistency protocol: the cache names deleted objects, freed pages
    and codes of rebuilt partition trees, and lists moved objects twice."""
    rng = random.Random(700 + seed)
    server = make_server(count=400, seed=40 + seed)
    cache, client = warm_client(server, rng, queries=8,
                                capacity=rng.choice((40_000, 10_000_000)))
    for _ in range(3):
        churn(server, rng, events=25)
        for _ in range(4):
            query = random_query(rng)
            client.root_id, client.root_mbr = server.root_id, server.root_mbr
            assert_walks_agree(cache, client, server, query)
            run_query(cache, client, server, query)
