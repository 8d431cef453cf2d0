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

Words come from one private bulk method, :meth:`Xorshift64Star._words`.
The scalar step, :func:`_scalar_words`, is the reference copy of the state
update: short draws and :meth:`Xorshift64Star.next_u64` run it word by
word, and the jump tables are derived from it.  The generator is linear
over GF(2), so 256 steps are one 64 x 64 bit matrix (Haramoto et al.,
INFORMS J. Comput. 20, 2008).  It is built lazily, on the first bulk draw,
by applying the scalar step to each ``1 << j`` and squaring eight times,
and kept as eight byte-lookup tables.  A bulk draw jumps ahead once per
256 words to get each lane's start state, then runs the three shifts on
all lanes at once as numpy ``uint64`` arrays.  Lane-major order is the
stream order, so the words, and the state the generator ends in, are
exactly the scalar loop's; the tests pin the lane copy of the shifts to
the scalar step word for word.
:meth:`Xorshift64Star.normals` and :meth:`Xorshift64Star.rademacher` work
on those arrays.  Box-Muller keeps ``math.log``, ``math.cos`` and
``math.sin`` (applied elementwise): numpy's versions round differently
on some inputs, which would change the pinned stream of normals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .exceptions import _check_integer, _check_least

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STAR = 0x2545F4914F6CDD1D

#: Steps per lane of a bulk draw; the jump matrix advances 2**_LANE_BITS steps.
_LANE_BITS = 8
_LANE_STEPS = 1 << _LANE_BITS
#: Smallest draw that runs in lanes.  A lane draw costs about 1.5 ms of
#: numpy calls at any size, which the scalar loop (about 0.6 us a word)
#: reaches near 2,500 words (2-core Xeon, numpy 2.4).
_BULK_MIN = 10 * _LANE_STEPS

#: Normals made per block (even, so only the last block can drop a sine):
#: 256 lanes of words per block, and Python-level float lists of at most
#: 32,768 entries for the ``math`` functions at any count.
_NORMALS_CHUNK = 1 << 16

# numpy uint64 operands, so no operation promotes under either numpy 1's
# value-based casting or numpy 2's NEP 50 rules
_R12, _L25, _R27, _R11, _ONE64 = (np.uint64(k) for k in (12, 25, 27, 11, 1))
_STAR64 = np.uint64(_STAR)


def _map(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=len(values))


def _scalar_words(s: int, count: int) -> tuple[list[int], int]:
    """The xorshift64* step: ``count`` outputs from state s, and the final state."""
    out = []
    for _ in range(count):
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        out.append((s * _STAR) & _MASK64)
    return out, s


@functools.cache
def _jump_tables() -> tuple[tuple[int, ...], ...]:
    """The state update raised to 2**_LANE_BITS, as eight byte-lookup tables.

    Entry v of table b is the image of v << 8b, so a state's image is the
    xor of one entry per byte.  Built on the first bulk draw, not at import.
    """
    # column j of a GF(2) matrix is the image of 1 << j
    cols = [_scalar_words(1 << j, 1)[1] for j in range(64)]
    for _ in range(_LANE_BITS):
        cols = [_apply(cols, c) for c in cols]
    tables = []
    for b in range(8):
        table = [0] * 256
        for v in range(1, 256):
            table[v] = table[v & (v - 1)] ^ cols[8 * b + (v & -v).bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _apply(cols: list[int], v: int) -> int:
    """The GF(2) matrix with columns ``cols`` applied to the bit vector v."""
    out = 0
    for col in cols:
        if v & 1:
            out ^= col
        v >>= 1
    return out


def mix64(z: int) -> int:
    """splitmix64 output mixing function; reads every seed: an integer of any sign, mod 2^64."""
    _check_integer(z, "seed")
    z = int(z) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """Deterministic seed for the index-th parallel substream of a run; integers, any sign."""
    _check_integer(index, "index")
    return mix64(mix64(seed) + (int(index) + 1) * _GOLDEN)


class Xorshift64Star:
    """xorshift64* stream; deterministic given the seed."""

    def __init__(self, seed: int):
        state = mix64(seed)
        if state == 0:
            state = _GOLDEN  # xorshift state must be nonzero
        self._state = state

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a ``uint64`` array, in stream order.

        Draws of ``_BULK_MIN`` words or more run in lanes of
        ``_LANE_STEPS`` words: lane i starts 256 * i steps ahead, reached
        by the jump tables, and all lanes take their steps together.
        """
        if count < _BULK_MIN:
            out, self._state = _scalar_words(self._state, count)
            return np.array(out, dtype=np.uint64)
        t0, t1, t2, t3, t4, t5, t6, t7 = _jump_tables()
        lanes = -(-count // _LANE_STEPS)
        s = self._state
        starts = [s]
        for _ in range(lanes - 1):
            s = (t0[s & 255] ^ t1[(s >> 8) & 255] ^ t2[(s >> 16) & 255]
                 ^ t3[(s >> 24) & 255] ^ t4[(s >> 32) & 255] ^ t5[(s >> 40) & 255]
                 ^ t6[(s >> 48) & 255] ^ t7[s >> 56])
            starts.append(s)
        prev = np.array(starts, dtype=np.uint64)
        shifted = np.empty_like(prev)
        states = np.empty((_LANE_STEPS, lanes), dtype=np.uint64)
        for state in states:  # row i: every lane's state after i + 1 steps
            np.right_shift(prev, _R12, out=shifted)
            np.bitwise_xor(prev, shifted, out=state)
            np.left_shift(state, _L25, out=shifted)  # bits past 63 drop, as & _MASK64
            state ^= shifted
            np.right_shift(state, _R27, out=shifted)
            state ^= shifted
            prev = state
        last = count - 1
        self._state = int(states[last % _LANE_STEPS, last // _LANE_STEPS])
        states *= _STAR64  # wraps mod 2**64
        return states.T.reshape(-1)[:count]

    def next_u64(self) -> int:
        out, self._state = _scalar_words(self._state, 1)
        return out[0]

    def uniform(self) -> float:
        """Uniform double in (0, 1] (safe as a Box-Muller log argument)."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def normals(self, count: int) -> np.ndarray:
        """count standard normals, count an integer >= 0; pair i takes words 2i and 2i + 1.

        Box-Muller on u1 = uniform() and u2 = (word >> 11) * 2**-53, giving
        r cos(2 pi u2), r sin(2 pi u2) with r = sqrt(-2 log u1); an odd count
        drops the sine of the last pair.  log, cos and sin are the ``math``
        functions, whose results the stream pins.
        """
        _check_least(count, 0, "count")
        out = np.empty(count)
        for start in range(0, count, _NORMALS_CHUNK):
            chunk = out[start:start + _NORMALS_CHUNK]  # a view; even length but the last
            size = len(chunk)
            words = self._words(2 * -(-size // 2)) >> _R11
            u1 = (words[0::2] + _ONE64) * 2.0 ** -53
            angle = (2.0 * math.pi) * (words[1::2] * 2.0 ** -53)
            r = np.sqrt(-2.0 * _map(math.log, u1))
            chunk[0::2] = r * _map(math.cos, angle)
            chunk[1::2] = (r * _map(math.sin, angle))[:size // 2]
        return out

    def rademacher(self, count: int) -> np.ndarray:
        """count independent +-1 values (an integer count >= 0), 64 signs per generated word."""
        _check_least(count, 0, "count")
        words = self._words((count + 63) // 64).astype("<u8")  # little-endian bytes
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")[:count]
        return 2.0 * bits.astype(np.float64) - 1.0

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias); bound is an int >= 1."""
        _check_least(bound, 1, "bound")
        bound = int(bound)  # numpy's as a Python int, which holds 2^64
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound
