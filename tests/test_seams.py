"""Who satisfies which seam: the structural protocols, checked at runtime.

The seams between the tiers are ``typing.Protocol`` classes
(:mod:`repro.core.handles`, :class:`repro.rtree.tree.TreeView`,
:class:`repro.updates.applier.Updater`,
:class:`repro.core.replacement.base.EvictableStore`); implementers do not inherit from
them, so nothing but mypy and this file notices one drifting off its seam.
``isinstance`` against a ``runtime_checkable`` protocol checks member
*presence* on the instance — signatures are mypy's half of the gate.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.core.cache import ProactiveCache
from repro.core.handles import (
    LocalServerHandle,
    ServerHandle,
    TreeView,
    VersionPin,
)
from repro.core.replacement import EvictableStore, GRD3Policy
from repro.net.client import RemoteSessionClient
from repro.net.fleet import make_endpoint
from repro.net.server import ReproServer, ServerThread
from repro.sharding import ShardedUpdater, build_sharded_state
from repro.sharding.result_cache import FactStore
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_shared_state
from repro.storage import StorageBackend
from repro.updates import DatasetUpdater, Updater, VersionRegistry

BASE = SimulationConfig.scaled(query_count=4, object_count=300)


@pytest.fixture(scope="module")
def deployments():
    """One of each server: single, sharded, and a socket in front of one."""
    shared = build_shared_state(BASE)
    sharded = build_sharded_state(BASE, 3)
    with tempfile.TemporaryDirectory(prefix="repro-seams-") as workdir:
        thread = ServerThread(ReproServer(shared.server, shared.size_model),
                              "uds", path=f"{workdir}/server.sock")
        thread.start()
        remote = RemoteSessionClient(make_endpoint(thread), shared.size_model,
                                     client_name="seams")
        try:
            yield shared, sharded, remote
        finally:
            remote.close()
            thread.stop()
    sharded.close()


def test_all_three_servers_are_server_handles(deployments):
    shared, sharded, remote = deployments
    for server in (shared.server, sharded.router, remote):
        assert isinstance(server, ServerHandle), type(server).__name__


def test_exactly_the_in_process_servers_are_local_handles(deployments):
    shared, sharded, remote = deployments
    assert isinstance(shared.server, LocalServerHandle)
    assert isinstance(sharded.router, LocalServerHandle)
    assert not isinstance(remote, LocalServerHandle)
    for member in ("tree", "registry", "partition_tree_for"):
        assert not hasattr(remote, member), member


def test_both_trees_are_tree_views(deployments):
    shared, sharded, _ = deployments
    for tree in (shared.tree, sharded.view, shared.server.tree,
                 sharded.router.tree):
        assert isinstance(tree, TreeView), type(tree).__name__
    assert not isinstance(shared.tree.store, TreeView)


def test_both_updaters_are_updaters_and_pin_their_servers(deployments):
    shared, sharded, _ = deployments
    for updater in (DatasetUpdater(shared.tree, shared.server),
                    ShardedUpdater(sharded.router)):
        assert isinstance(updater, Updater), type(updater).__name__
        assert isinstance(updater.server, LocalServerHandle)
        assert isinstance(updater.tree, TreeView)
        assert updater.server.registry is updater.registry
    assert isinstance(VersionRegistry(), VersionPin)
    assert not isinstance(shared.server, Updater)


def test_both_grd3_stores_are_evictable_stores():
    """The client's cache and the router's fact store: GRD3 serves both."""
    for store in (ProactiveCache(1_000, replacement_policy=GRD3Policy()),
                  FactStore(1_000)):
        assert isinstance(store, EvictableStore), type(store).__name__
        assert EvictableStore not in type(store).__mro__
    assert not isinstance(GRD3Policy(), EvictableStore)


def test_no_implementer_inherits_from_its_protocol(deployments):
    """A ``Protocol`` base would change the MRO of hot-path classes."""
    shared, sharded, remote = deployments
    protocols = {ServerHandle, LocalServerHandle, TreeView, VersionPin, Updater}
    for instance in (shared.server, sharded.router, remote, shared.tree,
                     sharded.view, DatasetUpdater(shared.tree, shared.server),
                     ShardedUpdater(sharded.router), VersionRegistry()):
        assert not protocols & set(type(instance).__mro__), type(instance)


def test_a_partial_storage_backend_cannot_be_instantiated():
    """The storage seam is an ABC: its own abstract methods are the gate."""
    class HalfBackend(StorageBackend):
        def allocate(self, level):
            return None

        def get(self, node_id):
            return None

    with pytest.raises(TypeError, match="abstract"):
        HalfBackend()
