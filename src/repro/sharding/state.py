"""Building (or reopening) a whole sharded deployment from a configuration.

:func:`build_sharded_state` is the sharded sibling of
:func:`repro.sim.runner.build_shared_state`: it generates the deterministic
dataset once, partitions it, builds one :class:`ShardServer` per slice (or
reopens a saved shard-store directory) and wires the
:class:`~repro.sharding.router.ShardRouter` over them.  What identifies a
dataset — and so what a reopened manifest must match — is defined once,
beside :class:`~repro.sim.config.SimulationConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.rtree.sizes import SizeModel
from repro.sharding.partitioner import ShardPlan, make_plan
from repro.sharding.router import ShardRouter, ShardedTreeView
from repro.sharding.shard import ShardServer, build_shards
from repro.sharding.storage import load_shards, save_shards
from repro.sim.config import SimulationConfig, dataset_records, meta_mismatches
from repro.storage.backend import StorageError


def _check_manifest(config: SimulationConfig, shards: int, partitioner: str,
                    manifest: Dict, directory: str) -> None:
    """Reject a shard store that contradicts the requested configuration."""
    problems = []
    if manifest["shards"] != shards:
        problems.append(f"shards: store={manifest['shards']} "
                        f"requested={shards}")
    if manifest["partitioner"] != partitioner:
        problems.append(f"partitioner: store={manifest['partitioner']!r} "
                        f"requested={partitioner!r}")
    problems.extend(meta_mismatches(config, manifest.get("meta", {})))
    if problems:
        raise StorageError(
            f"{directory} was written for a different sharded configuration "
            f"({'; '.join(problems)}); rerun with matching flags or re-save "
            f"the shards")


@dataclass
class ShardedServerState:
    """Everything one sharded deployment consists of."""

    shards: List[ShardServer]
    plan: ShardPlan
    router: ShardRouter

    @property
    def view(self) -> ShardedTreeView:
        """The client-facing tree facade (``objects`` / ``store`` routing)."""
        return self.router.tree

    @property
    def size_model(self) -> SizeModel:
        return self.router.size_model

    def shard_summary(self, partitioner: str = "grid") -> Dict:
        """The fleet-facing routing summary block of this deployment.

        The *single* assembly point for every deployment of the fleet
        pipeline, so counter keys cannot drift between transports (the
        net-vs-inproc equivalence tests compare these dicts wholesale).
        Always includes the result-cache counters — zero for cache-off
        runs — so downstream consumers see a stable key set.
        """
        summary = dict(self.router.stats.summary())
        summary["shards"] = len(self.shards)
        summary["partitioner"] = (partitioner or "grid").lower()
        summary["objects_per_shard"] = [shard.object_count
                                        for shard in self.shards]
        cache = self.router.result_cache
        summary["router_cache"] = cache is not None
        summary["cache_hits"] = cache.hits if cache is not None else 0
        summary["cache_misses"] = cache.misses if cache is not None else 0
        summary["cache_probes"] = cache.probes if cache is not None else 0
        return summary

    def close(self) -> None:
        """Release every shard's storage backend."""
        for shard in self.shards:
            shard.close()


def build_sharded_state(config: SimulationConfig, shards: int, partitioner: str = "grid",
                        store_dir: Optional[str] = None,
                        writable: bool = False,
                        durable: bool = False) -> ShardedServerState:
    """Build a sharded deployment for ``config``.

    In-memory by default: the dataset is generated once, partitioned, and
    every slice bulk-loaded into its shard's offset id range.  With
    ``store_dir`` the shards are reopened from their ``.rpro`` files
    instead (copy-on-write when ``writable``; through per-shard write-ahead
    logs when ``durable``); a store whose manifest contradicts the
    configuration is rejected.
    """
    if durable and store_dir is None:
        raise ValueError("durable sharded mode needs a shard-store "
                         "directory to log to")
    if store_dir is not None:
        shard_servers, plan, manifest = load_shards(store_dir,
                                                    writable=writable,
                                                    durable=durable)
        try:
            _check_manifest(config, shards, (partitioner or "grid").lower(),
                            manifest, store_dir)
        except StorageError:
            for shard in shard_servers:
                shard.close()
            raise
    else:
        records = dataset_records(config)
        plan = make_plan(records, shards, method=partitioner)
        size_model = SizeModel(page_bytes=config.page_bytes)
        shard_servers = build_shards(plan, size_model=size_model)
    router = ShardRouter(shard_servers, plan)
    return ShardedServerState(shards=shard_servers, plan=plan, router=router)


def save_sharded_state(state: ShardedServerState, directory: str,
                       meta: Optional[Dict] = None) -> Dict:
    """Checkpoint every shard of ``state`` into ``directory``."""
    return save_shards(state.shards, state.plan, directory, meta=meta)
