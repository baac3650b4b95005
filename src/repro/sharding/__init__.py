"""Sharded multi-server deployments: partitioner, shard servers, router.

The single proactive-caching server of the paper is this reproduction's
scalability ceiling: one R-tree, one query processor, one machine.  This
package threads a horizontal execution tier between the clients and the
server kernels:

* :mod:`repro.sharding.partitioner` — spatial partitioners (uniform grid /
  kd-split) emitting per-shard object slices and regions;
* :mod:`repro.sharding.shard` — one R-tree + query processor + storage
  backend per shard, with globally disjoint page-id ranges;
* :mod:`repro.sharding.router` — the scatter-gather
  :class:`ShardRouter`: plans range / kNN / join queries across shards
  (MBR overlap pruning, a global k-th-best bound for kNN, the one join
  kernel routed across shards) and merges one client-visible response, so the
  proactive sessions and the cache layer run unchanged;
* :mod:`repro.sharding.updater` — routes dynamic dataset updates to their
  owning shard under one shared version registry;
* :mod:`repro.sharding.storage` — one ``.rpro`` file per shard plus a
  manifest, reopenable read-only, copy-on-write or durable (a write-ahead
  log per shard, packed per shard);
* :mod:`repro.sharding.state` — builds or reopens whole deployments.

Equivalence contract: a one-shard deployment is *byte-identical* to the
single server (same ids, same responses, same page counts); an N-shard
deployment returns *result-identical* answers with per-shard page reads
rolled up into the ordinary cost accounting.  See ``docs/sharding.md``.
"""

from repro.sharding.partitioner import PARTITIONER_METHODS, ShardPlan, make_plan
from repro.sharding.result_cache import (
    DEFAULT_CACHE_BYTES,
    PartitionResultCache,
)
from repro.sharding.router import (
    ShardRouter,
    ShardStats,
    ShardedTreeView,
)
from repro.sharding.shard import (
    NODE_ID_STRIDE,
    ShardServer,
    build_shard,
    build_shards,
    shard_index_for_node,
)
from repro.sharding.state import (
    ShardedServerState,
    build_sharded_state,
    save_sharded_state,
)
from repro.sharding.storage import (
    MANIFEST_NAME,
    load_shards,
    pack_shards,
    read_manifest,
    save_shards,
    shard_wal_summaries,
)
from repro.sharding.updater import ShardedUpdater
from repro.sim.config import config_meta

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "MANIFEST_NAME",
    "NODE_ID_STRIDE",
    "PARTITIONER_METHODS",
    "PartitionResultCache",
    "ShardPlan",
    "ShardRouter",
    "ShardServer",
    "ShardStats",
    "ShardedServerState",
    "ShardedTreeView",
    "ShardedUpdater",
    "build_shard",
    "build_shards",
    "build_sharded_state",
    "config_meta",
    "load_shards",
    "make_plan",
    "pack_shards",
    "read_manifest",
    "save_shards",
    "save_sharded_state",
    "shard_index_for_node",
    "shard_wal_summaries",
]
