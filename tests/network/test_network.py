"""Tests for the wireless channel model and its byte accounting."""

import pytest

from repro.network import WirelessChannel


def test_channel_delay_matches_bandwidth():
    channel = WirelessChannel(bandwidth_bps=384_000.0)
    # 48 KB/s effective throughput: 48,000 bytes take one second.
    assert channel.send_downlink(48_000) == pytest.approx(1.0)
    assert channel.send_uplink(0) == 0.0


def test_channel_accumulates_bytes():
    channel = WirelessChannel()
    channel.send_uplink(100)
    channel.send_uplink(50)
    channel.send_downlink(2_000)
    assert channel.uplink_bytes_total == 150
    assert channel.downlink_bytes_total == 2_000


def test_channel_rejects_negative_bytes():
    channel = WirelessChannel()
    with pytest.raises(ValueError):
        channel.send_uplink(-1)
    with pytest.raises(ValueError):
        channel.send_downlink(-1)


def test_channel_fixed_rtt_applied_to_uplink():
    channel = WirelessChannel(bandwidth_bps=384_000.0, fixed_rtt_seconds=0.1)
    assert channel.send_uplink(4_800) == pytest.approx(0.1 + 0.1)


def test_byte_counts_are_ints_end_to_end():
    """Regression: the channel used to accumulate whatever it was fed, so
    its totals could only be compared with approx.  It now normalises to
    exact ints."""
    channel = WirelessChannel()
    channel.send_uplink(100.0)     # integral floats are normalised
    channel.send_downlink(5_000)
    assert isinstance(channel.uplink_bytes_total, int)
    assert isinstance(channel.downlink_bytes_total, int)
    with pytest.raises(ValueError, match="integral"):
        channel.send_uplink(0.5)
    with pytest.raises(ValueError, match="integral"):
        channel.send_downlink(10.25)


def test_channel_totals_equal_cost_sums_on_a_real_trace():
    """Send every message of a simulated session through the channel and
    require exact (==) agreement with the cost model's byte sums."""
    from repro.sim.config import SimulationConfig
    from repro.sim.fleet import run_comparison

    config = SimulationConfig.tiny(query_count=10, object_count=250)
    result = run_comparison(config, ("APRO",))["APRO"]

    channel = WirelessChannel()
    for cost in result.costs:
        # Byte counts from the cost model are exact ints by construction.
        up = int(cost.uplink_bytes)
        down = int(cost.downlink_bytes)
        assert up == cost.uplink_bytes and down == cost.downlink_bytes
        channel.send_uplink(up)
        channel.send_downlink(down)
    assert channel.uplink_bytes_total == sum(int(c.uplink_bytes) for c in result.costs)
    assert channel.downlink_bytes_total == sum(int(c.downlink_bytes) for c in result.costs)
