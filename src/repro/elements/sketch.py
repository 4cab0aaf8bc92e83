"""Count-min sketch for the flow monitor element.

A real flow monitor cannot keep exact per-flow counters at line rate;
production monitors use sketches.  Including one here keeps the monitor's
cost/accuracy behaviour realistic and gives the property-based tests a
meaty invariant (estimate >= true count; error bound with high
probability).
"""

from __future__ import annotations

from typing import Hashable, Tuple

import numpy as np

_MASK = 0x7FFFFFFFFFFFFFFF


class CountMinSketch:
    """Classic count-min sketch with ``depth`` rows of ``width`` counters.

    Guarantees (for stream length N): the estimate never undercounts, and
    overcounts by more than ``(e/width) * N`` with probability at most
    ``exp(-depth)``.

    The counter table is plain Python int lists: :meth:`add` runs once per
    packet in the flow monitor, and scalar list updates beat numpy fancy
    indexing by an order of magnitude at that granularity.  Counts are
    exact integers either way, so the representation is observationally
    identical.
    """

    __slots__ = ("depth", "width", "_rows", "_seeds", "_pairs", "_wmask", "total")

    def __init__(self, width: int = 2048, depth: int = 4, seed: int = 7) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.depth = depth
        self.width = width
        self._rows = [[0] * width for _ in range(depth)]
        rng = np.random.default_rng(seed)
        # Independent odd multipliers for multiply-shift hashing (the same
        # draws as always; kept as Python ints for the scalar hot path).
        seeds = rng.integers(1, 2**61 - 1, size=depth, dtype=np.int64) | 1
        self._seeds = [int(s) for s in seeds]
        # Power-of-two widths (the default) reduce row indexing to a
        # bitwise AND; ``x % w == x & (w - 1)`` for non-negative x.
        self._wmask = width - 1 if width & (width - 1) == 0 else 0
        # (row, seed) pairs so the per-packet update iterates one tuple
        # list instead of indexing two parallel lists.
        self._pairs = list(zip(self._rows, self._seeds))
        self.total = 0

    def add(self, key: Hashable, count: int = 1) -> None:
        """Increment the counters for ``key``."""
        h = hash(key) & _MASK
        wmask = self._wmask
        if wmask:
            # wmask's bits are a subset of _MASK's, so one AND suffices.
            for row, s in self._pairs:
                row[(h * s) & wmask] += count
        else:
            width = self.width
            for row, s in self._pairs:
                row[((h * s) & _MASK) % width] += count
        self.total += count

    def estimate(self, key: Hashable) -> int:
        """Point estimate of the count for ``key`` (never undercounts)."""
        h = hash(key) & _MASK
        width = self.width
        rows = self._rows
        return min(
            rows[i][((h * s) & _MASK) % width] for i, s in enumerate(self._seeds)
        )

    def error_bound(self) -> Tuple[float, float]:
        """Return ``(epsilon*N, failure_probability)`` for this geometry."""
        eps_n = np.e / self.width * self.total
        delta = float(np.exp(-self.depth))
        return float(eps_n), delta

    def reset(self) -> None:
        """Zero all counters."""
        for row in self._rows:
            for i in range(self.width):
                row[i] = 0
        self.total = 0
