"""Deterministic 64-bit generator used for all sampling.

The generator is splitmix64: the state advances by a fixed odd constant and
each output is a bijective mix of the new state. It is chosen for trivial
cross-language portability: the seeds, sub-seeds and draws, and so the
counts drawn from a given table, are bit-for-bit the same anywhere. The
exact table's last bits rest on the platform's libm, through cos and sin.

Stream contract:
  * ``next_u64`` yields the canonical splitmix64 sequence for the seed
    (seed 0 starts 0xE220A8397B1DCDAF, ...).
  * ``next_double`` maps an output's top 53 bits to a uniform in [0, 1).
  * ``doubles(n)`` returns the next n doubles in one vectorized call and is
    bit-identical to calling ``next_double`` n times.
  * ``derive_seed(seed, k)`` is the first splitmix64 output for state
    seed + k; sub-streams (one per Bell setting or grid point) are seeded
    with it so concurrent sampling cannot change any result.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 2.0**-53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, k: int) -> int:
    """Sub-stream seed k: the first splitmix64 output for state seed + k."""
    return _mix((seed + k + _GAMMA) & _MASK64)


class SplitMix64:
    """Sequential splitmix64 stream over a 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def next_double(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of the next output."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def doubles(self, n: int) -> np.ndarray:
        """Next n uniform doubles, vectorized; advances the state by n steps.

        The i-th state ahead is state + i * gamma mod 2**64, so the block is
        mixed in place, elementwise; the shifts' scratch array holds the result.
        """
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self._state)
        t = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, np.uint64(shift), out=t)
            z *= np.uint64(mix)
        z ^= np.right_shift(z, np.uint64(31), out=t)
        z >>= np.uint64(11)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return np.multiply(z, _DOUBLE_SCALE, out=t.view(np.float64))
