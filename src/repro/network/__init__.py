"""Wireless-channel model and its byte accounting."""

from repro.network.channel import WirelessChannel

__all__ = ["WirelessChannel"]
