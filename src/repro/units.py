"""Unit conventions and conversion helpers.

Simulation-wide conventions:

* **time** -- microseconds (µs)
* **size** -- bytes
* **rate** -- user-facing APIs accept packets/second (pps) or bits/second
  (bps) and convert internally.

These helpers keep conversion factors out of model code.
"""

from __future__ import annotations

#: Microseconds per second.
US_PER_S = 1_000_000.0
#: Nanoseconds per microsecond.
NS_PER_US = 1_000.0


def pps_to_iat_us(rate_pps: float) -> float:
    """Mean inter-arrival time (µs) for a packet rate in packets/second."""
    if rate_pps <= 0:
        raise ValueError(f"rate must be positive, got {rate_pps}")
    return US_PER_S / rate_pps


def bps_to_bytes_per_us(rate_bps: float) -> float:
    """Convert a bit rate to bytes per microsecond."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return rate_bps / 8.0 / US_PER_S


def gbps(x: float) -> float:
    """Gigabits/second to bits/second."""
    return x * 1e9


def ms(x: float) -> float:
    """Milliseconds to microseconds."""
    return x * 1_000.0


def seconds(x: float) -> float:
    """Seconds to microseconds."""
    return x * US_PER_S
