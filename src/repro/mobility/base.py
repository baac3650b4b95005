"""Mobility-model interface."""

from __future__ import annotations

import abc

from repro.geometry import Point


class MobilityModel(abc.ABC):
    """A client trajectory inside the unit square.

    The simulation advances the model in variable time steps (the think time
    between queries); :meth:`advance` returns the client's new position.
    """

    def __init__(self, speed: float, start: Point = Point(0.5, 0.5)) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.speed = speed
        self.position = start

    @abc.abstractmethod
    def advance(self, elapsed_seconds: float) -> Point:
        """Move the client for ``elapsed_seconds`` and return the new position."""
