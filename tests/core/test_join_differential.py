"""The batched join against the pair-at-a-time walks it replaced.

``join_reference.py`` keeps the walks of PR 15's HEAD.  Here both run on
real bulk-loaded trees, over seeded random remainder frontiers of every
shape the protocol allows, and must agree on everything a client can
observe: the deliveries (with the parent each object is attached to), the
access recorder (which nodes, which bases, which expanded codes, in which
order — the order snapshots ship and are inserted in) and ``examined``.

The one licensed difference: when a frontier reaches the same (object,
node) pair through two different second sides, the old walk's seen-set
dropped the second arrival and the batched kernel walks it again, so
``examined`` may exceed the reference there (never fall below it).
Algorithm 1 over a consistent cache never builds such a frontier; stale
client state and hand-made seed lists can.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cache import ProactiveCache
from repro.core.client import ClientQueryProcessor
from repro.core.items import CachedIndexNode, CachedObject, FrontierTarget
from repro.core.remainder import RemainderQuery
from repro.core.replacement import make_policy
from repro.core.server import ServerQueryProcessor
from repro.core.supporting_index import SupportingIndexPolicy
from repro.geometry import Point, Rect
from repro.rtree import SizeModel, bulk_load_str
from repro.sharding import build_sharded_state
from repro.sim.config import SimulationConfig
from repro.updates import DatasetUpdater
from repro.updates.stream import UpdateEvent
from repro.workload.queries import JoinQuery, KNNQuery, RangeQuery

from tests.conftest import make_records
from tests.core.join_reference import reference_execute_join, reference_kernel

MODEL = SizeModel(page_bytes=256)
POLICIES = {"adaptive": SupportingIndexPolicy.adaptive, "compact": SupportingIndexPolicy.compact,
            "full": SupportingIndexPolicy.full}


def make_server(count=500, seed=11):
    tree = bulk_load_str(make_records(count, seed=seed), size_model=MODEL)
    return ServerQueryProcessor(tree, size_model=MODEL)


@pytest.fixture(scope="module")
def server():
    return make_server()


# --------------------------------------------------------------------------- #
# running one query through both kernels
# --------------------------------------------------------------------------- #
def observed(handle, servers, query, remainder, policy):
    """Everything one ``execute`` shows: the response and each access recorder."""
    recorders = []
    originals = [(s, s._build_snapshots) for s in servers]
    for s, build in originals:
        def spy(recorder, policy, build=build):
            recorders.append([(node_id, sorted(record.bases), sorted(record.expanded),
                               record.full_access) for node_id, record in recorder.items()])
            return build(recorder, policy)
        s._build_snapshots = spy
    try:
        response = handle.execute(query, remainder, policy)
    finally:
        for s, _ in originals:
            del s._build_snapshots
    return {
        "deliveries": [(d.record.object_id, d.parent_node_id, d.confirm_only)
                       for d in response.deliveries],
        "snapshots": [(s.node_id, s.level, s.parent_id,
                       sorted((e.code, e.mbr, e.child_id, e.object_id) for e in s.elements))
                      for s in response.index_snapshots],
        "recorders": recorders,
        "pages": response.accessed_node_count,
        "examined": response.examined_elements,
    }


def both_kernels(monkeypatch, handle, servers, query, remainder, policy):
    batched = observed(handle, servers, query, remainder, policy)
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.server.join_pairs", reference_kernel)
        patch.setattr("repro.sharding.router.join_pairs", reference_kernel)
        walked = observed(handle, servers, query, remainder, policy)
    return batched, walked


def assert_same(batched, walked, exact_examined=True):
    assert batched["examined"] >= walked["examined"]
    if exact_examined:
        assert batched["examined"] == walked["examined"]
    for part in ("deliveries", "recorders", "snapshots", "pages"):
        assert batched[part] == walked[part], part


# --------------------------------------------------------------------------- #
# frontier material
# --------------------------------------------------------------------------- #
def random_join(rng, span=0.35):
    x, y = rng.uniform(0.0, 1.0 - span), rng.uniform(0.0, 1.0 - span)
    return JoinQuery(window=Rect(x, y, x + rng.uniform(0.1, span), y + rng.uniform(0.1, span)),
                     threshold=rng.choice((0.005, 0.01, 0.02, 0.04)))


def targets_of(server, window):
    """Node, super-entry and object targets of the tree, those near ``window`` first."""
    nodes, supers, objects = [], [], []
    for node in server.tree.all_nodes():
        if not node.entries:
            continue
        nodes.append(FrontierTarget.for_node(node.node_id, node.mbr()))
        pt = server.partition_tree_for(node.node_id)
        supers.extend(FrontierTarget.for_super(node.node_id, code, pt.mbrs[code])
                      for code in pt.subsets if code and not pt.is_leaf_code(code))
        if node.level == 0:
            objects.extend(FrontierTarget.for_object(entry.object_id, entry.mbr, node.node_id)
                           for entry in node.entries)
    for pool in (nodes, supers, objects):
        pool.sort(key=lambda target: not target.mbr.intersects(window))
    return nodes, supers, objects


def pick(rng, pool):
    """Mostly a target near the window, sometimes any."""
    near = max(1, len(pool) // 4)
    return pool[rng.randrange(near)] if rng.random() < 0.8 else rng.choice(pool)


def warm_client(server, rng, queries=6, capacity=60_000):
    """A client whose cache holds what a few range / kNN queries shipped."""
    cache = ProactiveCache(capacity_bytes=capacity, size_model=MODEL,
                           replacement_policy=make_policy("GRD3"))
    client = ClientQueryProcessor(cache, root_id=server.root_id, root_mbr=server.root_mbr)
    for _ in range(queries):
        x, y = rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8)
        query = (RangeQuery(window=Rect(x, y, x + 0.15, y + 0.15)) if rng.random() < 0.6
                 else KNNQuery(point=Point(x, y), k=rng.randrange(3, 12)))
        run_query(cache, client, server, query)
    return cache, client


def run_query(cache, client, server, query, policy=None):
    cache.tick()
    client.root_id, client.root_mbr = server.root_id, server.root_mbr
    execution = client.execute(query)
    if execution.complete:
        return execution, None
    response = server.execute(query, execution.remainder(),
                              policy or SupportingIndexPolicy.adaptive())
    for snapshot in response.index_snapshots:
        cache.insert_node_snapshot(
            CachedIndexNode(snapshot.node_id, snapshot.level,
                            {e.code: e for e in snapshot.elements}), snapshot.parent_id)
    for delivery in response.deliveries:
        record = delivery.record
        cache.insert_object(CachedObject(record.object_id, record.mbr, record.size_bytes),
                            delivery.parent_node_id)
    return execution, response


def churn(server, rng, events=40):
    """Delete, insert and move objects: what makes shipped targets stale."""
    updater = DatasetUpdater(server.tree, server)
    live = sorted(server.tree.objects)
    next_id = max(live) + 1
    batch = []
    for index in range(events):
        kind = rng.choice(("insert", "delete", "modify"))
        x, y = rng.random() * 0.99, rng.random() * 0.99
        mbr = Rect(x, y, min(1.0, x + 0.002), min(1.0, y + 0.002))
        if kind == "insert":
            batch.append(UpdateEvent(index, 0.0, "insert", next_id, mbr, 1000))
            next_id += 1
        elif kind == "delete":
            batch.append(UpdateEvent(index, 0.0, "delete", live.pop(rng.randrange(len(live)))))
        else:
            batch.append(UpdateEvent(index, 0.0, "modify", rng.choice(live), mbr, 1000))
    updater.apply_batch(batch)


# --------------------------------------------------------------------------- #
# the server kernel
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("form", sorted(POLICIES))
def test_fresh_root_pair(monkeypatch, server, form):
    rng = random.Random(form)
    for _ in range(6):
        assert_same(*both_kernels(monkeypatch, server, [server], random_join(rng, 0.6),
                                  None, POLICIES[form]()))


@pytest.mark.parametrize("seed", range(8))
def test_frontiers_of_a_warm_client(monkeypatch, server, seed):
    """What Algorithm 1 really ships: super entries, missing nodes and objects
    against the root, cached objects against the missing."""
    rng = random.Random(seed)
    cache, client = warm_client(server, rng)
    shipped = 0
    for _ in range(4):
        query = random_join(rng)
        cache.tick()
        remainder = client.execute(query).remainder()
        if remainder is not None:
            shipped += 1
            assert_same(*both_kernels(monkeypatch, server, [server], query, remainder,
                                      SupportingIndexPolicy.adaptive()))
    assert shipped, "a warm cache still leaves some join a frontier"


@pytest.mark.parametrize("seed", range(10))
def test_overlapping_and_duplicate_seeds_on_one_second_side(monkeypatch, server, seed):
    """Ancestors beside their descendants, super entries beside their node,
    objects beside their leaf, everything twice — against one second side."""
    rng = random.Random(100 + seed)
    query = random_join(rng, 0.5)
    nodes, supers, objects = targets_of(server, query.window)
    second = pick(rng, nodes + supers) if seed % 3 else pick(rng, objects)
    firsts = [pick(rng, pool) for pool in (nodes, supers, objects) for _ in range(6)]
    frontier = [(first, second) for first in firsts + rng.sample(firsts, 6)]
    rng.shuffle(frontier)
    assert_same(*both_kernels(monkeypatch, server, [server], query,
                              RemainderQuery(query=query, frontier=frontier),
                              SupportingIndexPolicy.adaptive()))


@pytest.mark.parametrize("seed", range(12))
def test_arbitrary_seed_pairs(monkeypatch, server, seed):
    """Any pairing, lone targets, both orientations of a pair.  Second sides
    overlap here, so ``examined`` may exceed the reference (module docstring)."""
    rng = random.Random(200 + seed)
    query = random_join(rng, 0.5)
    pools = targets_of(server, query.window)
    frontier = []
    for _ in range(rng.randrange(4, 30)):
        first, second = pick(rng, rng.choice(pools)), pick(rng, rng.choice(pools))
        frontier.append(rng.choice(((first, second), (second, first), (first,))))
    frontier += rng.sample(frontier, 3)
    assert_same(*both_kernels(monkeypatch, server, [server], query,
                              RemainderQuery(query=query, frontier=frontier),
                              POLICIES[rng.choice(sorted(POLICIES))]()),
                exact_examined=False)


@pytest.mark.parametrize("seed", range(6))
def test_stale_targets_after_an_update_batch(monkeypatch, seed):
    """Frontiers shipped from before a batch: deleted objects, freed pages,
    codes of rebuilt partition trees, objects that moved under another leaf."""
    rng = random.Random(300 + seed)
    server = make_server(count=400, seed=seed)
    cache, client = warm_client(server, rng, queries=8)
    query = random_join(rng, 0.5)
    nodes, supers, objects = targets_of(server, query.window)
    synthetic = [(pick(rng, rng.choice((nodes, supers, objects))), nodes[0])
                 for _ in range(12)]
    churn(server, rng)
    cache.tick()
    shipped = client.execute(query).remainder()
    for frontier in [synthetic] + ([] if shipped is None else [shipped.frontier]):
        assert_same(*both_kernels(monkeypatch, server, [server], query,
                                  RemainderQuery(query=query, frontier=frontier),
                                  SupportingIndexPolicy.adaptive()),
                    exact_examined=False)


# --------------------------------------------------------------------------- #
# the same kernel behind the router
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", (3, 4))
def test_the_routers_virtual_root(monkeypatch, shards):
    state = build_sharded_state(SimulationConfig.scaled(query_count=5, object_count=900),
                                shards, "grid")
    try:
        router = state.router
        servers = [shard.server for shard in router.shards]
        rng = random.Random(shards)
        for _ in range(3):
            # A fresh query enters through the virtual root ...
            assert_same(*both_kernels(monkeypatch, router, servers, random_join(rng, 0.6),
                                      None, SupportingIndexPolicy.adaptive()))
        # ... a warm client's frontier mixes it with per-shard targets.
        cache, client = warm_client(router, rng, capacity=200_000)
        for _ in range(4):
            query = random_join(rng, 0.5)
            cache.tick()
            remainder = client.execute(query).remainder()
            if remainder is not None:
                assert_same(*both_kernels(monkeypatch, router, servers, query, remainder,
                                          SupportingIndexPolicy.adaptive()))
    finally:
        state.close()


# --------------------------------------------------------------------------- #
# the client walk
# --------------------------------------------------------------------------- #
def clone(cache, server):
    twin = ProactiveCache.from_state_dict(cache.state_dict(), size_model=MODEL)
    return twin, ClientQueryProcessor(twin, root_id=server.root_id, root_mbr=server.root_mbr)


def hit_accounting(cache):
    return {key: (state.hit_queries, state.last_access) for key, state in cache.items.items()}


def assert_client_walks_agree(cache, client, server, query):
    twin, reference = clone(cache, server)
    cache.tick()
    twin.tick()
    batched = client.execute(query)
    walked = reference_execute_join(reference, query)
    assert sorted(batched.saved_objects) == sorted(walked.saved_objects)
    assert batched.saved_objects == walked.saved_objects
    assert batched.frontier == walked.frontier          # the multiset, in the walk's order
    assert batched.examined_elements == walked.examined_elements
    assert hit_accounting(cache) == hit_accounting(twin)
    return batched


@pytest.mark.parametrize("seed", range(8))
def test_client_join_matches_the_pairwise_walk(server, seed):
    rng = random.Random(400 + seed)
    cache, client = warm_client(server, rng, queries=rng.randrange(1, 12),
                                capacity=rng.choice((20_000, 80_000, 10_000_000)))
    complete = 0
    for _ in range(6):
        query = random_join(rng)
        complete += assert_client_walks_agree(cache, client, server, query).complete
        run_query(cache, client, server, query)     # the join's answer warms the cache too
    assert complete < 6, "some joins must leave a frontier"


def test_client_join_on_a_cold_and_on_a_complete_cache(server):
    query = JoinQuery(window=Rect(0.2, 0.2, 0.6, 0.6), threshold=0.02)
    cache = ProactiveCache(capacity_bytes=10_000_000, size_model=MODEL)
    client = ClientQueryProcessor(cache, root_id=server.root_id, root_mbr=server.root_mbr)
    cold = assert_client_walks_agree(cache, client, server, query)
    assert [tuple(t.node_id for t in item) for item in cold.frontier] == [(server.root_id,) * 2]
    # A range query over a wider window ships every object the join can see.
    run_query(cache, client, server, RangeQuery(window=Rect(0.1, 0.1, 0.7, 0.7)),
              SupportingIndexPolicy.full())
    warm = assert_client_walks_agree(cache, client, server, query)
    assert warm.complete and warm.saved_objects


@pytest.mark.parametrize("seed", range(5))
def test_client_join_over_a_stale_cache(seed):
    """No consistency protocol: after updates the cache lists moved objects
    twice and names pages and codes the server has since rebuilt."""
    rng = random.Random(500 + seed)
    server = make_server(count=400, seed=20 + seed)
    cache, client = warm_client(server, rng, queries=8, capacity=10_000_000)
    for _ in range(3):
        churn(server, rng, events=25)
        for _ in range(3):
            query = random_join(rng)
            client.root_id, client.root_mbr = server.root_id, server.root_mbr
            assert_client_walks_agree(cache, client, server, query)
            run_query(cache, client, server, query)
