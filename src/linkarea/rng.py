"""Seeded 64-bit linear congruential generator.

Every random quantity in the library (noise coefficients, random Moebius
maps, sample draws in the CLI) comes from this generator so that runs are
bit-reproducible across platforms.  Constants are Knuth's MMIX multiplier
and increment.
"""

import math

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg64:
    """x_{n+1} = (a*x_n + c) mod 2^64 with a documented warm-up."""

    def __init__(self, seed: int):
        self._state = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK
        for _ in range(8):
            self._next()
        self._spare_normal = None

    def _next(self) -> int:
        self._state = (_MULT * self._state + _INC) & _MASK
        return self._state

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self._next() >> 11) * (1.0 / (1 << 53))

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def uniform_array(self, n: int, lo: float, hi: float):
        """n draws of uniform_in(lo, hi) as an array, bit for bit, by jump-ahead.

        After k steps the state is a^k x + c (1 + a + ... + a^(k-1)) mod 2^64,
        so the powers of a and their partial sums give all n states at once.
        Every product is a uint64 array operation, which wraps silently.
        """
        powers = np.multiply.accumulate(np.full(n, _MULT, dtype=np.uint64))  # a^1 .. a^n
        sums = np.add.accumulate(np.concatenate(([np.uint64(1)], powers[:-1])))
        states = powers * np.uint64(self._state) + sums * np.uint64(_INC)
        if n:
            self._state = int(states[-1])
        return lo + (hi - lo) * ((states >> np.uint64(11)) * (1.0 / (1 << 53)))

    def normal(self) -> float:
        """Standard normal via Box-Muller, one spare cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = self.uniform()
        while u1 <= 1e-300:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)
