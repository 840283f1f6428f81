"""Unit conversions and physical constants used throughout the library.

The paper reports rates in Gbps (bits per second) and Mpps (packets per
second).  Internally the library works in base SI units: bits/second,
packets/second, bytes, seconds, and CPU cycles.  These helpers keep the
conversions explicit and greppable.
"""

from __future__ import annotations

#: Bits per byte.
BITS_PER_BYTE = 8

#: Multipliers (decimal, as used for link rates -- not binary).
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

#: Ethernet-level per-packet overhead, in bytes.  The paper quotes rates at
#: the Ethernet frame level (a "64B packet" is a 64-byte frame), so we do not
#: add preamble/IFG overhead anywhere; this constant documents that choice.
ETHERNET_OVERHEAD_BYTES = 0

#: Minimum and maximum Ethernet frame sizes considered by the paper.
MIN_PACKET_BYTES = 64
MAX_PACKET_BYTES = 1514


def gbps(value: float) -> float:
    """Convert a rate expressed in Gbps to bits/second."""
    return value * GIGA


def mpps(value: float) -> float:
    """Convert a rate expressed in Mpps to packets/second."""
    return value * MEGA


def ghz(value: float) -> float:
    """Convert a clock frequency in GHz to cycles/second."""
    return value * GIGA


def usec(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def rate_pps_to_bps(packets_per_second: float, packet_bytes: float) -> float:
    """Convert a packet rate to a bit rate for fixed-size packets."""
    if packet_bytes <= 0:
        raise ValueError("packet_bytes must be positive, got %r" % packet_bytes)
    return packets_per_second * packet_bytes * BITS_PER_BYTE
