"""Seedable, machine-independent random number generation.

The package pins one concrete generator so that every Monte Carlo result is
bit-identical across platforms and Python versions:

* stream generator: ``xorshift64*`` (Marsaglia shift register with the
  Vigna output multiplier).  State update ``s ^= s >> 12; s ^= s << 25;
  s ^= s >> 27``; output ``s * 0x2545F4914F6CDD1D`` mod 2**64.
* seeding: a user seed is passed through the splitmix64 output mix to avoid
  the all-zero state and poor low-entropy seeds.
* substreams: trial ``i`` of seed ``s`` starts from
  ``mix64(mix64(s) + (i + 1) * 0x9E3779B97F4A7C15)``.

Uniform doubles use the top 53 bits; normal pairs use the Box-Muller
transform; Rademacher values consume one word per 64 signs, least
significant bit first.

Words come from one private bulk method, the only copy of the state
update; :meth:`Xorshift64Star.normals` and
:meth:`Xorshift64Star.rademacher` draw their words in bulk and work on
arrays.  Box-Muller keeps ``math.log``, ``math.cos`` and
``math.sin`` (applied elementwise): numpy's versions round differently
on some inputs, which would change the pinned stream of normals.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STAR = 0x2545F4914F6CDD1D

#: Normals made per block (even, so only the last block can drop a sine);
#: keeps the Python-level word and float lists small at any count.
_NORMALS_CHUNK = 8192


def _map(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=len(values))


def mix64(z: int) -> int:
    """splitmix64 output mixing function."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """Deterministic seed for the index-th parallel substream of a run."""
    return mix64(mix64(seed) + (index + 1) * _GOLDEN)


class Xorshift64Star:
    """xorshift64* stream; deterministic given the seed."""

    def __init__(self, seed: int):
        state = mix64(seed)
        if state == 0:
            state = _GOLDEN  # xorshift state must be nonzero
        self._state = state

    def _words(self, count: int) -> list[int]:
        """The next ``count`` outputs; the only copy of the xorshift64* step."""
        s = self._state
        out = []
        for _ in range(count):
            s ^= s >> 12
            s = (s ^ (s << 25)) & _MASK64
            s ^= s >> 27
            out.append((s * _STAR) & _MASK64)
        self._state = s
        return out

    def next_u64(self) -> int:
        return self._words(1)[0]

    def uniform(self) -> float:
        """Uniform double in (0, 1] (safe as a Box-Muller log argument)."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def normals(self, count: int) -> np.ndarray:
        """count standard normals; pair i takes words 2i and 2i + 1.

        Box-Muller on u1 = uniform() and u2 = (word >> 11) * 2**-53, giving
        r cos(2 pi u2), r sin(2 pi u2) with r = sqrt(-2 log u1); an odd count
        drops the sine of the last pair.  log, cos and sin are the ``math``
        functions, whose results the stream pins.
        """
        out = np.empty(count)
        for start in range(0, count, _NORMALS_CHUNK):
            chunk = out[start:start + _NORMALS_CHUNK]  # a view; even length but the last
            size = len(chunk)
            words = np.array(self._words(2 * -(-size // 2)), dtype=np.uint64) >> np.uint64(11)
            u1 = (words[0::2] + np.uint64(1)) * 2.0 ** -53
            angle = (2.0 * math.pi) * (words[1::2] * 2.0 ** -53)
            r = np.sqrt(-2.0 * _map(math.log, u1))
            chunk[0::2] = r * _map(math.cos, angle)
            chunk[1::2] = (r * _map(math.sin, angle))[:size // 2]
        return out

    def rademacher(self, count: int) -> np.ndarray:
        """count independent +-1 values, 64 signs per generated word."""
        words = np.array(self._words((count + 63) // 64), dtype=np.uint64)
        bits = (words[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)
        signs = bits.reshape(-1)[:count].astype(np.float64)
        return 2.0 * signs - 1.0

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound
