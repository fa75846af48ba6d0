"""Counter-based splittable pseudo-random generator.

Every random choice in the tool (sample points, exponent tuples) flows from
one user-provided integer seed through this generator, so runs are
reproducible byte-for-byte and independent streams can be split off by label
without consuming each other's state.
"""

from __future__ import annotations

import hashlib


class SplitRng:
    __slots__ = ("seed", "path", "_counter")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = path
        self._counter = 0

    def child(self, label: str) -> "SplitRng":
        return SplitRng(self.seed, self.path + (str(label),))

    def _next_word(self) -> int:
        payload = f"{self.seed}|{'/'.join(self.path)}|{self._counter}".encode()
        self._counter += 1
        return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive)."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        # rejection sampling to keep the distribution exactly uniform
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            w = self._next_word()
            if w < limit:
                return lo + (w % span)
