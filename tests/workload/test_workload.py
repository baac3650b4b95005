"""Tests for query generation, the k-ramp schedule and trace serialisation."""

import pytest

from repro.geometry import Point, Rect
from repro.workload import (
    JoinQuery,
    KNNQuery,
    KnnRampSchedule,
    QueryGenerator,
    QueryMix,
    QueryTrace,
    QueryType,
    RangeQuery,
    TraceRecord,
)


ANCHOR = Point(0.5, 0.5)


# --------------------------------------------------------------------------- #
# generator
# --------------------------------------------------------------------------- #
def test_range_query_centred_near_anchor_with_expected_area():
    generator = QueryGenerator(window_area=1e-3, seed=1)
    for _ in range(50):
        query = generator.range_query(ANCHOR)
        assert query.window.contains_point(ANCHOR)
        assert 0.3e-3 <= query.window.area() <= 1.6e-3


def test_range_query_clamped_at_borders():
    generator = QueryGenerator(window_area=1e-2, seed=2)
    query = generator.range_query(Point(0.001, 0.999))
    assert Rect.unit().contains(query.window)


def test_knn_query_k_bounds_and_override():
    generator = QueryGenerator(k_max=5, seed=3)
    ks = {generator.knn_query(ANCHOR).k for _ in range(200)}
    assert ks <= set(range(1, 6))
    assert len(ks) > 1
    assert generator.knn_query(ANCHOR, k=9).k == 9


def test_join_query_parameters():
    generator = QueryGenerator(window_area=1e-3, join_distance=0.02, seed=4)
    query = generator.join_query(ANCHOR)
    assert query.threshold == 0.02
    assert query.window.area() == pytest.approx(4e-3, rel=0.05)


def test_mix_weights_respected():
    generator = QueryGenerator(mix=QueryMix(range_=0.0, knn=1.0, join=0.0), seed=5)
    queries = [generator.next_query(ANCHOR) for _ in range(50)]
    assert all(isinstance(q, KNNQuery) for q in queries)


def test_mixed_workload_contains_all_types():
    generator = QueryGenerator(seed=6)
    types = {generator.next_query(ANCHOR).query_type for _ in range(200)}
    assert types == {QueryType.RANGE, QueryType.KNN, QueryType.JOIN}


def test_generator_deterministic_per_seed():
    a = QueryGenerator(seed=8)
    b = QueryGenerator(seed=8)
    for _ in range(20):
        assert a.next_query(ANCHOR) == b.next_query(ANCHOR)


def test_invalid_generator_parameters():
    with pytest.raises(ValueError):
        QueryGenerator(window_area=0.0)
    with pytest.raises(ValueError):
        QueryGenerator(k_max=0)
    with pytest.raises(ValueError):
        QueryMix(range_=-1.0)
    with pytest.raises(ValueError):
        QueryMix(range_=0.0, knn=0.0, join=0.0)


# --------------------------------------------------------------------------- #
# k-ramp schedule
# --------------------------------------------------------------------------- #
def test_knn_ramp_endpoints_and_midpoint():
    schedule = KnnRampSchedule(total_queries=1_000, k_high=10, k_low=1)
    assert schedule.k_at(0) == 10
    assert schedule.k_at(499) in (1, 2)
    assert schedule.k_at(999) in (9, 10)


def test_knn_ramp_monotone_down_then_up():
    schedule = KnnRampSchedule(total_queries=200)
    first_half = [schedule.k_at(i) for i in range(0, 100)]
    second_half = [schedule.k_at(i) for i in range(100, 200)]
    assert all(a >= b for a, b in zip(first_half, first_half[1:]))
    assert all(a <= b for a, b in zip(second_half, second_half[1:]))


def test_knn_ramp_out_of_range_indices_clamped():
    schedule = KnnRampSchedule(total_queries=100)
    assert schedule.k_at(-5) == schedule.k_at(0)
    assert schedule.k_at(1_000) == schedule.k_at(99)


def test_knn_ramp_validation():
    with pytest.raises(ValueError):
        KnnRampSchedule(total_queries=1)
    with pytest.raises(ValueError):
        KnnRampSchedule(total_queries=100, k_high=2, k_low=5)


# --------------------------------------------------------------------------- #
# trace
# --------------------------------------------------------------------------- #
def _sample_trace():
    trace = QueryTrace()
    trace.append(TraceRecord(index=0, position=Point(0.1, 0.2), think_time=12.5,
                             query=RangeQuery(window=Rect(0.1, 0.1, 0.2, 0.2))))
    trace.append(TraceRecord(index=1, position=Point(0.3, 0.4), think_time=3.0,
                             query=KNNQuery(point=Point(0.3, 0.4), k=4)))
    trace.append(TraceRecord(index=2, position=Point(0.5, 0.6), think_time=88.0,
                             query=JoinQuery(window=Rect(0.4, 0.4, 0.6, 0.6), threshold=0.05)))
    return trace


def test_trace_indexing_and_iteration():
    trace = _sample_trace()
    assert trace[1].query.k == 4
    assert [record.index for record in trace] == [0, 1, 2]
