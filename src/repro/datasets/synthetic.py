"""Synthetic stand-ins for the NE (postal zones) and RD (roads) datasets."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional

from repro.datasets.zipf import ZipfSizeGenerator
from repro.geometry import Point, Rect
from repro.rtree.entry import ObjectRecord


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of a synthetic dataset build."""

    name: str
    object_count: int
    seed: int = 7
    mean_object_bytes: int = 10_240
    zipf_theta: float = 0.8


def generate_ne_like(object_count: int, seed: int = 7, cluster_count: int = 40,
                     mean_object_bytes: int = 10_240, zipf_theta: float = 0.8) -> List[ObjectRecord]:
    """Generate an NE-like dataset: small rectangles in Gaussian urban clusters.

    Postal zones concentrate around metropolitan areas; we emulate that with a
    mixture of Gaussian clusters of varying spread plus a thin uniform
    background, all clipped to the unit square.
    """
    rng = random.Random(seed)
    sizes = ZipfSizeGenerator(mean_bytes=mean_object_bytes, theta=zipf_theta, rng=rng)
    centers = [(rng.random(), rng.random(), rng.uniform(0.01, 0.06))
               for _ in range(cluster_count)]
    weights = [rng.uniform(0.5, 2.0) for _ in range(cluster_count)]
    total_weight = sum(weights)
    # The first cluster whose running weight sum reaches ``pick``.  The sums
    # are accumulated left to right like a linear scan would, so the pick is
    # the same; ``sum`` may round differently, so ``pick`` can exceed the
    # last running sum, and then no cluster is drawn.
    running = list(accumulate(weights))
    records: List[ObjectRecord] = []
    for object_id in range(object_count):
        if rng.random() < 0.05:
            cx, cy = rng.random(), rng.random()
        else:
            cluster = bisect_left(running, rng.uniform(0, total_weight))
            if cluster < cluster_count:
                mx, my, spread = centers[cluster]
                cx = rng.gauss(mx, spread)
                cy = rng.gauss(my, spread)
            else:
                cx = cy = 0.5
        center = Point(cx, cy).clamped(0.001, 0.999)
        half_w = rng.uniform(0.00005, 0.0015)
        half_h = rng.uniform(0.00005, 0.0015)
        mbr = Rect.from_center(center, 2 * half_w, 2 * half_h).clamped_unit()
        records.append(ObjectRecord(object_id=object_id, mbr=mbr, size_bytes=sizes.sample()))
    return records


def generate_rd_like(object_count: int, seed: int = 11, road_count: int = 60,
                     mean_object_bytes: int = 10_240, zipf_theta: float = 0.8) -> List[ObjectRecord]:
    """Generate an RD-like dataset: short segments chained along polylines.

    Road segments are elongated and highly correlated along their parent
    polyline; we emulate that by random-walking ``road_count`` polylines
    across the unit square and emitting one object per step.
    """
    rng = random.Random(seed)
    sizes = ZipfSizeGenerator(mean_bytes=mean_object_bytes, theta=zipf_theta, rng=rng)
    records: List[ObjectRecord] = []
    object_id = 0
    per_road = max(1, object_count // road_count)
    while object_id < object_count:
        x, y = rng.random(), rng.random()
        heading = rng.uniform(0, 2 * math.pi)
        for _ in range(per_road):
            if object_id >= object_count:
                break
            heading += rng.gauss(0.0, 0.35)
            step = rng.uniform(0.001, 0.004)
            nx = min(max(x + step * math.cos(heading), 0.0), 1.0)
            ny = min(max(y + step * math.sin(heading), 0.0), 1.0)
            mbr = Rect(min(x, nx), min(y, ny), max(x, nx), max(y, ny))
            if mbr.area() <= 0.0:
                mbr = mbr.buffered(1e-5).clamped_unit()
            records.append(ObjectRecord(object_id=object_id, mbr=mbr,
                                        size_bytes=sizes.sample()))
            object_id += 1
            x, y = nx, ny
    return records


def generate_uniform(object_count: int, seed: int = 3,
                     mean_object_bytes: int = 10_240, zipf_theta: float = 0.8) -> List[ObjectRecord]:
    """A uniform point-like dataset (used by tests and ablations)."""
    rng = random.Random(seed)
    sizes = ZipfSizeGenerator(mean_bytes=mean_object_bytes, theta=zipf_theta, rng=rng)
    records: List[ObjectRecord] = []
    for object_id in range(object_count):
        center = Point(rng.random(), rng.random())
        mbr = Rect.from_center(center, 0.0005, 0.0005).clamped_unit()
        records.append(ObjectRecord(object_id=object_id, mbr=mbr, size_bytes=sizes.sample()))
    return records


def make_dataset(name: str, object_count: int, seed: Optional[int] = None,
                 mean_object_bytes: int = 10_240, zipf_theta: float = 0.8) -> List[ObjectRecord]:
    """Dataset factory keyed by the paper's dataset names.

    ``name`` is one of ``"NE"``, ``"RD"`` or ``"UNIFORM"`` (case-insensitive).
    """
    key = name.upper()
    if key == "NE":
        return generate_ne_like(object_count, seed=seed if seed is not None else 7,
                                mean_object_bytes=mean_object_bytes, zipf_theta=zipf_theta)
    if key == "RD":
        return generate_rd_like(object_count, seed=seed if seed is not None else 11,
                                mean_object_bytes=mean_object_bytes, zipf_theta=zipf_theta)
    if key == "UNIFORM":
        return generate_uniform(object_count, seed=seed if seed is not None else 3,
                                mean_object_bytes=mean_object_bytes, zipf_theta=zipf_theta)
    raise ValueError(f"unknown dataset {name!r}; expected 'NE', 'RD' or 'UNIFORM'")
