"""Tests for the synthetic dataset generators and the Zipf size model."""

import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    ZipfSizeGenerator,
    generate_ne_like,
    generate_rd_like,
    generate_uniform,
    make_dataset,
)
from repro.geometry import Rect


# --------------------------------------------------------------------------- #
# Zipf sizes
# --------------------------------------------------------------------------- #
def _samples(generator, count):
    return [generator.sample() for _ in range(count)]


def test_zipf_mean_close_to_target():
    generator = ZipfSizeGenerator(mean_bytes=10_240, theta=0.8, rng=random.Random(1))
    samples = _samples(generator, 4_000)
    assert statistics.mean(samples) == pytest.approx(10_240, rel=0.25)


def test_zipf_sizes_are_positive_and_bounded_below():
    generator = ZipfSizeGenerator(mean_bytes=2_000, min_bytes=256, rng=random.Random(2))
    assert all(size >= 256 for size in _samples(generator, 500))


def test_zipf_is_skewed():
    generator = ZipfSizeGenerator(mean_bytes=10_240, theta=0.8, rng=random.Random(3))
    samples = _samples(generator, 2_000)
    assert statistics.median(samples) < statistics.mean(samples) * 1.05
    assert max(samples) > 2 * statistics.mean(samples)


def test_zipf_invalid_parameters():
    with pytest.raises(ValueError):
        ZipfSizeGenerator(mean_bytes=0)
    with pytest.raises(ValueError):
        ZipfSizeGenerator(mean_bytes=100, theta=2.5)


def test_zipf_deterministic_with_seeded_rng():
    a = _samples(ZipfSizeGenerator(rng=random.Random(7)), 50)
    b = _samples(ZipfSizeGenerator(rng=random.Random(7)), 50)
    assert a == b


# --------------------------------------------------------------------------- #
# spatial generators
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("generator", [generate_ne_like, generate_rd_like, generate_uniform])
def test_generators_produce_requested_count_in_unit_square(generator):
    records = generator(300, seed=5)
    assert len(records) == 300
    assert len({r.object_id for r in records}) == 300
    unit = Rect.unit()
    for record in records:
        assert unit.contains(record.mbr)
        assert record.size_bytes > 0


def test_generators_are_deterministic():
    assert [r.mbr for r in generate_ne_like(100, seed=9)] == \
        [r.mbr for r in generate_ne_like(100, seed=9)]
    assert [r.mbr for r in generate_ne_like(100, seed=9)] != \
        [r.mbr for r in generate_ne_like(100, seed=10)]


def test_ne_like_is_clustered_compared_to_uniform():
    """NE-like data concentrates in clusters: nearest-neighbour distances shrink."""
    def mean_nn_distance(records, sample=80):
        rng = random.Random(0)
        picked = rng.sample(records, sample)
        total = 0.0
        for record in picked:
            best = min(record.mbr.center().distance_to(other.mbr.center())
                       for other in records if other.object_id != record.object_id)
            total += best
        return total / sample

    clustered = generate_ne_like(600, seed=2)
    uniform = generate_uniform(600, seed=2)
    assert mean_nn_distance(clustered) < mean_nn_distance(uniform)


def test_rd_like_segments_are_elongated_or_thin():
    records = generate_rd_like(200, seed=4)
    sides = [(r.mbr.width, r.mbr.height) for r in records]
    assert all(max(w, h) <= 0.01 for w, h in sides)


def test_make_dataset_factory():
    assert len(make_dataset("NE", 50)) == 50
    assert len(make_dataset("rd", 50)) == 50
    assert len(make_dataset("Uniform", 50)) == 50
    with pytest.raises(ValueError):
        make_dataset("TIGER", 50)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_generator_property_count_and_ids(count):
    records = generate_ne_like(count, seed=1)
    assert sorted(r.object_id for r in records) == list(range(count))


def test_rd_like_never_emits_zero_area_mbrs():
    # The road-walk can produce an axis-aligned (degenerate) step; the
    # generator buffers those slivers to positive area.  Regression for the
    # FLT01 rewrite of the degeneracy test from == 0.0 to <= 0.0.
    records = generate_rd_like(400, seed=5)
    assert all(record.mbr.area() > 0.0 for record in records)
