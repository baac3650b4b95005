"""Simulation configuration (Table 6.1) and its laptop-scale variants."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.datasets import make_dataset
from repro.rtree.entry import ObjectRecord
from repro.workload.generator import QueryMix


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulation run.

    The defaults of :meth:`paper` follow Table 6.1 of the paper; the
    :meth:`scaled` variants shrink the dataset and query count so a
    pure-Python run finishes in seconds.  They keep the cache *fraction*
    but widen the query extent (``window_area`` 2e-3 against Table 6.1's
    1e-6), so one result is a far larger share of the cache than in the
    paper.
    """

    # Dataset.
    dataset_name: str = "NE"
    object_count: int = 4_000
    mean_object_bytes: int = 10_240
    zipf_theta: float = 0.8
    dataset_seed: int = 7

    # Index.
    page_bytes: int = 1_024

    # Mobility / arrival.
    mobility_model: str = "RAN"
    speed: float = 0.0002
    think_time_mean: float = 50.0
    mobility_seed: int = 13

    # Workload.
    query_count: int = 400
    window_area: float = 2e-3
    k_max: int = 5
    join_distance: float = 0.01
    join_window_area: Optional[float] = None
    query_mix: QueryMix = field(default_factory=QueryMix)
    workload_seed: int = 29

    # Cache.
    cache_fraction: float = 0.01
    explicit_cache_bytes: Optional[int] = None
    replacement_policy: str = "GRD3"

    # Proactive caching / adaptation.
    index_form: str = "adaptive"
    initial_depth: int = 1
    sensitivity: float = 0.2
    adapt_report_period: int = 25

    # Channel.
    bandwidth_bps: float = 384_000.0
    fixed_rtt_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.object_count <= 0:
            raise ValueError("object_count must be positive")
        if not self.cache_fraction > 0:
            raise ValueError(f"cache_fraction must be positive, got "
                             f"{self.cache_fraction!r}")
        from repro.core.replacement import make_policy
        make_policy(self.replacement_policy)  # refuses an unknown name

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #
    @staticmethod
    def paper() -> "SimulationConfig":
        """The paper's Table 6.1 settings at full scale.

        123 593 NE objects and 10 000 queries: one Figure-6 panel (three
        models) takes about 24 s, about 4 s of it dataset and index setup.
        """
        return SimulationConfig(
            dataset_name="NE",
            object_count=123_593,
            page_bytes=4_096,
            speed=0.0001,
            think_time_mean=50.0,
            query_count=10_000,
            window_area=1e-6,
            k_max=5,
            join_distance=5e-5,
            cache_fraction=0.01,
            sensitivity=0.2,
            bandwidth_bps=384_000.0,
        )

    @staticmethod
    def scaled(query_count: int = 400, object_count: int = 4_000,
               seed: int = 7) -> "SimulationConfig":
        """Laptop-scale defaults used by the benchmarks and examples."""
        return SimulationConfig(query_count=query_count, object_count=object_count,
                                dataset_seed=seed)

    @staticmethod
    def tiny(query_count: int = 60, object_count: int = 600,
             seed: int = 7) -> "SimulationConfig":
        """Very small configuration for fast unit / integration tests."""
        return SimulationConfig(query_count=query_count, object_count=object_count,
                                dataset_seed=seed, adapt_report_period=10)

    # ------------------------------------------------------------------ #
    # derived values
    # ------------------------------------------------------------------ #
    def dataset_bytes(self) -> int:
        """Approximate total dataset size in bytes."""
        return self.object_count * self.mean_object_bytes

    def cache_bytes(self) -> int:
        """The cache budget ``|C|`` in bytes."""
        if self.explicit_cache_bytes is not None:
            return self.explicit_cache_bytes
        return max(1, int(self.dataset_bytes() * self.cache_fraction))

    def effective_join_window_area(self) -> float:
        """The join neighbourhood window area (defaults to 4x the range window)."""
        if self.join_window_area is not None:
            return self.join_window_area
        return 4.0 * self.window_area

    def with_overrides(self, **overrides: object) -> "SimulationConfig":
        """A copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)

    def as_table(self) -> Dict[str, str]:
        """A printable parameter table mirroring Table 6.1."""
        return {
            "dataset": f"{self.dataset_name} ({self.object_count} objects)",
            "spd": f"{self.speed}",
            "think time": f"{self.think_time_mean}s",
            "Area_wnd": f"{self.window_area}",
            "Dist_join": f"{self.join_distance}",
            "K_max": f"{self.k_max}",
            "bandwidth": f"{self.bandwidth_bps / 1000:.0f}Kbps",
            "|C|": f"{self.cache_fraction:.1%} ({self.cache_bytes()} bytes)",
            "|o|": f"{self.mean_object_bytes} bytes",
            "theta": f"{self.zipf_theta}",
            "s": f"{self.sensitivity:.0%}",
            "queries": f"{self.query_count}",
            "page size": f"{self.page_bytes} bytes",
            "mobility": self.mobility_model,
            "replacement": self.replacement_policy,
        }


#: Stored meta key (``.rpro`` header, shard manifest) -> the configuration
#: attribute it must match when the store is reopened.
_DATASET_META_FIELDS = {
    "dataset": "dataset_name",
    "object_count": "object_count",
    "dataset_seed": "dataset_seed",
    "page_bytes": "page_bytes",
    "mean_object_bytes": "mean_object_bytes",
    "zipf_theta": "zipf_theta",
}


def config_meta(config: SimulationConfig) -> Dict:
    """The dataset-identity meta block recorded in stores built from ``config``."""
    return {key: getattr(config, attribute)
            for key, attribute in _DATASET_META_FIELDS.items()}


def meta_mismatches(config: SimulationConfig, meta: Dict) -> List[str]:
    """One ``key: store=… config=…`` line per stored key contradicting ``config``.

    Only keys actually present in ``meta`` are checked (stores written
    outside the CLI may carry none), so a mismatch always means the caller
    mixed dataset flags between save time and load time.
    """
    return [f"{key}: store={meta[key]!r} config={getattr(config, attribute)!r}"
            for key, attribute in _DATASET_META_FIELDS.items()
            if key in meta and meta[key] != getattr(config, attribute)]


def dataset_records(config: SimulationConfig) -> List[ObjectRecord]:
    """The deterministic record list of ``config`` (single dataset build)."""
    return make_dataset(config.dataset_name, config.object_count,
                        seed=config.dataset_seed,
                        mean_object_bytes=config.mean_object_bytes,
                        zipf_theta=config.zipf_theta)
