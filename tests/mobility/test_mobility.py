"""Tests for the RAN / DIR mobility models and the Poisson arrival process."""

import math
import statistics

import pytest

from repro.mobility import (
    DirectedMovementModel,
    PoissonThinkTime,
    RandomWaypointModel,
    make_mobility_model,
)


@pytest.mark.parametrize("model_cls", [RandomWaypointModel, DirectedMovementModel])
def test_positions_stay_in_unit_square(model_cls):
    model = model_cls(speed=0.01, seed=3)
    for _ in range(500):
        position = model.advance(30.0)
        assert 0.0 <= position.x <= 1.0
        assert 0.0 <= position.y <= 1.0


@pytest.mark.parametrize("model_cls", [RandomWaypointModel, DirectedMovementModel])
def test_speed_bounds_displacement(model_cls):
    model = model_cls(speed=0.001, seed=5)
    previous = model.position
    for _ in range(200):
        current = model.advance(10.0)
        # Maximum displacement is bounded by 1.5x speed x elapsed time.
        assert previous.distance_to(current) <= 0.001 * 1.5 * 10.0 + 1e-9
        previous = current


@pytest.mark.parametrize("model_cls", [RandomWaypointModel, DirectedMovementModel])
def test_trajectory_is_deterministic_per_seed(model_cls):
    a = model_cls(speed=0.01, seed=11)
    b = model_cls(speed=0.01, seed=11)
    for _ in range(50):
        assert a.advance(20.0) == b.advance(20.0)


@pytest.mark.parametrize("model_cls", [RandomWaypointModel, DirectedMovementModel])
def test_zero_elapsed_time_keeps_position(model_cls):
    model = model_cls(speed=0.01, seed=1)
    start = model.position
    assert model.advance(0.0) == start


def test_invalid_speed_rejected():
    with pytest.raises(ValueError):
        RandomWaypointModel(speed=0.0)


def test_directed_movement_has_lower_locality_than_random_waypoint():
    """DIR drifts away steadily; RAN revisits: mean displacement over the same
    horizon should be at least as large under DIR (the paper's rationale for
    DIR being the harder model for caching)."""
    def total_path_spread(model, steps=60, dt=50.0):
        points = [model.advance(dt) for _ in range(steps)]
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return statistics.pstdev(xs) + statistics.pstdev(ys)

    speed = 0.0005
    ran = RandomWaypointModel(speed=speed, seed=9, max_pause_seconds=0.0)
    dir_ = DirectedMovementModel(speed=speed, seed=9, max_pause_seconds=0.0)
    # Not a strict inequality in every run, so use a generous tolerance.
    assert total_path_spread(dir_) >= 0.3 * total_path_spread(ran)


def test_make_mobility_model_factory():
    assert isinstance(make_mobility_model("RAN", speed=0.01), RandomWaypointModel)
    assert isinstance(make_mobility_model("dir", speed=0.01), DirectedMovementModel)
    with pytest.raises(ValueError):
        make_mobility_model("TELEPORT", speed=0.01)


def test_poisson_think_time_mean():
    arrival = PoissonThinkTime(mean_seconds=50.0, seed=7)
    samples = [arrival.sample() for _ in range(5_000)]
    assert statistics.mean(samples) == pytest.approx(50.0, rel=0.1)
    assert all(s >= 0 for s in samples)


def test_poisson_stream_and_validation():
    arrival = PoissonThinkTime(mean_seconds=10.0, seed=1)
    stream = arrival.stream()
    assert next(stream) >= 0.0
    with pytest.raises(ValueError):
        PoissonThinkTime(mean_seconds=0.0)
