"""The wireless channel: a 384 Kbps 3G link shared by uplink and downlink."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost_model import ResponseTimeModel
from repro.network.messages import as_int_bytes


@dataclass
class WirelessChannel:
    """Byte-accurate transmission model of the client's wireless link.

    The paper assumes a 384 Kbps 3G channel and states that wireless
    communication dominates both latency and energy, so the channel exposes
    transmission delays (via :class:`ResponseTimeModel`) and cumulative byte
    counters used for the uplink / downlink metrics.
    """

    bandwidth_bps: float = 384_000.0
    fixed_rtt_seconds: float = 0.0
    # Exact int byte counters, so totals compare with == against the cost
    # model's byte sums.
    uplink_bytes_total: int = 0
    downlink_bytes_total: int = 0

    @property
    def timing(self) -> ResponseTimeModel:
        """The response-time model for this channel."""
        return ResponseTimeModel(bandwidth_bps=self.bandwidth_bps,
                                 fixed_rtt_seconds=self.fixed_rtt_seconds)

    def send_uplink(self, num_bytes: int) -> float:
        """Account for an uplink transmission; returns its delay in seconds."""
        self.uplink_bytes_total += as_int_bytes(num_bytes)
        return self.timing.uplink_delay(num_bytes)

    def send_downlink(self, num_bytes: int) -> float:
        """Account for a downlink transmission; returns its delay in seconds."""
        self.downlink_bytes_total += as_int_bytes(num_bytes)
        return num_bytes * self.timing.seconds_per_byte
