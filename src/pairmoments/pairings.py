"""Pair partitions of {1..2n} and their chord-diagram statistics.

A pair partition (perfect matching, chord diagram) splits the ground set
{1, ..., 2n} into n blocks of size two.  Three statistics drive everything
downstream:

* ``cr``  -- number of crossing block pairs (i1 < i2 < j1 < j2),
* ``h``   -- number of singleton blocks (blocks crossing no other block),
* ``cc``  -- number of connected components of the crossing graph, whose
             vertices are blocks and whose edges are crossing pairs.

Counts are exact Python integers throughout; (2n-1)!! grows fast enough
that anything narrower would overflow almost immediately.

The joint (cr, h, cc) table is not enumerated.  A pair partition splits
uniquely into its crossing-graph components, which sit on the blocks of an
even non-crossing partition; a singleton is a component with one chord.
So the (h, cc) cell of sum_V q^cr sums, over the even non-crossing
partitions with cc blocks, h of them of size 2, the product over the larger
blocks B of C_(|B|/2)(q), where C_k(q) are the free cumulants of the
Touchard-Riordan q-Gaussian moments T_k(q) (Bozejko-Speicher, CMP 137
(1991); Lehner, Eur. J. Combin. 23 (2002)).  Partitions of one block-size
type give equal products, so each type is one term, times Kreweras' count.
The same sum over types is the free moment-cumulant transform; its forward
and inverse loops over any ring live here, wrapped by :mod:`pairmoments.moments`
(not imported here).  The joint table runs them on packed ints: each (h, cc)
cell is the forward loop's sum over the types with cc blocks, h of size 2.

The per-partition streams keep one canonical order.  There is one walk: a
non-recursive depth-first walk over an explicit stack that stops six free
points early and yields, per leaf, a tuple of its 15 completions written
out in canonical order.  :func:`enumerate_pairings` builds each
:class:`PairPartition` inside that loop.  The statistics of
:func:`iter_statistics`, :func:`pairmoments.moments.mixed_moment` and the
checks of :mod:`pairmoments.weights` come from numpy block arrays and
cached per-row cases instead: the stream as arrays lives in
:mod:`pairmoments._arrays`, which those callers import when they run, so
this module loads no numpy.

Everything about a single partition comes from one private kernel,
``_crossing_graph``: from a blocks tuple sorted by low endpoint it builds
one int bitmask per block (bit j set when block j crosses it), stopping
each scan at the first block that starts past the current block's end,
and finds the components by a bitmask flood.  :func:`statistics`,
:func:`crossings`, :func:`singleton_blocks` and :func:`connected_components`
are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType
from typing import Iterator, Mapping

from .exceptions import (STREAM_MAX_N, TABLE_MAX_N, DualPathMismatchError, _check_least,
                         _check_limit)


@dataclass(frozen=True)
class PairPartition:
    """A canonical pair partition of {1..2n}.

    ``blocks`` holds pairs ``(lo, hi)`` with ``lo < hi``, sorted by ``lo``.
    Instances are immutable and hashable; equality is block-wise.
    """

    # Slots declared here, not by slots=True: that rebuilds the class, and
    # the frozen __setattr__ would name the discarded one.
    __slots__ = ("n", "blocks")
    n: int
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n != len(self.blocks):
            raise ValueError(f"n={self.n} but {len(self.blocks)} blocks given")
        seen = 0
        prev_lo = 0
        for lo, hi in self.blocks:
            if not lo < hi:
                raise ValueError(f"block ({lo},{hi}) is not ordered lo < hi")
            if lo <= prev_lo:
                raise ValueError("blocks must be sorted ascending by lo")
            prev_lo = lo
            for k in (lo, hi):
                if not 1 <= k <= 2 * self.n:
                    raise ValueError(f"index {k} outside 1..{2 * self.n}")
                bit = 1 << k
                if seen & bit:
                    raise ValueError(f"index {k} occurs twice")
                seen |= bit

    def __reduce__(self):
        # pickle and copy go through the validating constructor
        return PairPartition, (self.n, self.blocks)

    @classmethod
    def from_pairs(cls, pairs) -> "PairPartition":
        """Build from any iterable of 2-element pairs, canonicalizing order."""
        blocks = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        return cls(len(blocks), blocks)

    def points(self) -> range:
        return range(1, 2 * self.n + 1)

    def __str__(self) -> str:
        inner = ",".join(f"({a},{b})" for a, b in self.blocks)
        return "{" + inner + "}"


def _fast_partition(n: int, blocks: tuple[tuple[int, int], ...]) -> PairPartition:
    # Internal constructor for blocks canonical by construction (rotations,
    # witnesses): sets the slots directly, past the frozen __setattr__ and
    # __post_init__ validation.
    obj = object.__new__(PairPartition)
    PairPartition.n.__set__(obj, n)
    PairPartition.blocks.__set__(obj, blocks)
    return obj


@dataclass(frozen=True)
class ChordStatistics:
    """The (cr, h, cc) statistics of one pair partition, plus H = n - h."""

    cr: int
    h: int
    cc: int
    big_h: int


@dataclass(frozen=True)
class StatisticDistribution:
    """Exact joint counts of (cr, h, cc) over all of P2(2n)."""

    n: int
    counts: Mapping[tuple[int, int, int], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def marginal(self, statistic: str) -> dict[int, int]:
        """Aggregate counts by one statistic: cr, h, cc, H or n-cc."""
        return {key: count for (key,), count in self._fold((statistic,), False).items()}

    def _cells(self, connected_only: bool):
        # The table's own (cell, count) pairs in key order, the cc = 1 ones
        # only when connected_only: the one connected-cell filter.
        cells = self.counts.items()
        return ((cell, c) for cell, c in cells if cell[2] == 1) if connected_only else cells

    def _fold(self, statistics: tuple[str, ...], connected_only: bool) -> dict[tuple, int]:
        # The counts of _cells added up by the named statistics, keyed in that order.
        fields = [_field(s) for s in statistics]
        out: dict[tuple[int, ...], int] = {}
        for cell, count in self._cells(connected_only):
            key = tuple(self.n - cell[at] if from_n else cell[at] for at, from_n in fields)
            out[key] = out.get(key, 0) + count
        return out


#: Where each statistic sits in a cell (cr, h, cc), and whether it is read
#: as n minus that entry.
_STATISTIC_FIELDS = {"cr": (0, False), "h": (1, False), "cc": (2, False),
                     "H": (1, True), "n-cc": (2, True)}


def _field(statistic: str) -> tuple[int, bool]:
    try:
        return _STATISTIC_FIELDS[statistic]
    except (KeyError, TypeError):
        raise ValueError(
            f"statistic must be one of cr, h, cc, H or n-cc, got {statistic!r}") from None


def _statistic_top(statistic: str, n: int) -> int:
    # The largest value of a statistic over P2(2n): n(n-1)/2 for cr, else n.
    return n * (n - 1) // 2 if statistic == "cr" else n


def pairing_count(n: int) -> int:
    """(2n-1)!! = number of pair partitions of {1..2n}, for an integer n >= 0; p(0) = 1."""
    _check_least(n, 0, "n")
    out = 1
    for k in range(1, n + 1):
        out *= 2 * k - 1
    return out


def count_nc_pairings(n: int) -> int:
    """Number of non-crossing pair partitions of {1..2n} (Catalan number), integer n >= 0."""
    _check_least(n, 0, "n")
    return comb(2 * n, n) // (n + 1)


def enumerate_pairings(n: int) -> Iterator[PairPartition]:
    """Yield all (2n-1)!! pair partitions of {1..2n} in canonical order.

    The order is deterministic: the smallest unpaired index is repeatedly
    matched with each larger free index, ascending.  Blocks therefore come
    out sorted by their low endpoint.  Half-sizes above ``STREAM_MAX_N``
    raise :class:`SizeLimitError` on the first ``next()``.
    """
    _check_limit("enumeration", n)
    # _fast_partition written out, so no call per partition
    new = object.__new__
    set_n, set_blocks = PairPartition.n.__set__, PairPartition.blocks.__set__
    for batch in _block_batches(n):
        for blocks in batch:
            obj = new(PairPartition)
            set_n(obj, n)
            set_blocks(obj, blocks)
            yield obj


def _block_batches(n: int) -> Iterator[tuple[tuple[tuple[int, int], ...], ...]]:
    # The one walk: non-recursive, depth first, in canonical order.  Depth d
    # holds the free points left after d blocks, the index of the partner
    # last tried for the smallest of them, and the blocks placed above it.
    # The walk stops at six free points a < b < c < e < f < g (d is the
    # depth) and yields their 15 completions as one tuple, written out in
    # canonical order; the completions share their pair tuples.
    if n == 1:
        yield (((1, 2),),)
        return
    if n == 2:
        yield (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
        return
    last = n - 3
    free: list[tuple[int, ...]] = [()] * (last + 1)
    pick = [0] * (last + 1)
    placed: list[tuple[tuple[int, int], ...]] = [()] * (last + 1)
    free[0] = tuple(range(1, 2 * n + 1))
    d = 0
    while d >= 0:
        pts = free[d]
        if d == last:
            a, b, c, e, f, g = pts
            ab, ac, ae, af, ag = (a, b), (a, c), (a, e), (a, f), (a, g)
            bc, be, bf, bg = (b, c), (b, e), (b, f), (b, g)
            ce, cf, cg, ef, eg, fg = (c, e), (c, f), (c, g), (e, f), (e, g), (f, g)
            head = placed[d]
            yield (
                head + (ab, ce, fg), head + (ab, cf, eg), head + (ab, cg, ef),
                head + (ac, be, fg), head + (ac, bf, eg), head + (ac, bg, ef),
                head + (ae, bc, fg), head + (ae, bf, cg), head + (ae, bg, cf),
                head + (af, bc, eg), head + (af, be, cg), head + (af, bg, ce),
                head + (ag, bc, ef), head + (ag, be, cf), head + (ag, bf, ce),
            )
            d -= 1
            continue
        i = pick[d] + 1
        if i == len(pts):
            d -= 1
            continue
        pick[d] = i
        d += 1
        free[d] = pts[1:i] + pts[i + 1:]
        pick[d] = 0
        placed[d] = placed[d - 1] + ((pts[0], pts[i]),)


def _crossing_graph(
    blocks: tuple[tuple[int, int], ...],
) -> tuple[list[int], list[int]]:
    # The one crossing-graph kernel.  blocks must be sorted by lo.  Bit j of
    # masks[i] is set when blocks i and j cross; comps holds one bitmask of
    # blocks per component, ordered by lowest block.  Later blocks start
    # right of lo, so block j crosses block i exactly when it starts inside
    # it and ends outside; the first block starting past hi ends the scan.
    m = len(blocks)
    masks = [0] * m
    for i, (_, hi) in enumerate(blocks):
        bit = 1 << i
        for j in range(i + 1, m):
            x, y = blocks[j]
            if x > hi:
                break
            if y > hi:
                masks[i] |= 1 << j
                masks[j] |= bit
    comps = []
    rest = (1 << m) - 1
    while rest:
        comp = front = rest & -rest
        while front:
            low = front & -front
            grown = masks[low.bit_length() - 1] & ~comp
            comp |= grown
            front = (front ^ low) | grown
        comps.append(comp)
        rest ^= comp
    return masks, comps


def _bits(mask: int) -> Iterator[int]:
    # indices of the set bits of mask, ascending
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _chord_stats(blocks: tuple[tuple[int, int], ...]) -> tuple[int, int, int]:
    # (cr, h, cc) of a blocks tuple sorted by lo
    masks, comps = _crossing_graph(blocks)
    return sum(mask.bit_count() for mask in masks) // 2, masks.count(0), len(comps)


def crossings(partition: PairPartition) -> int:
    """Number of crossing block pairs: i1 < i2 < j1 < j2."""
    return _chord_stats(partition.blocks)[0]


def singleton_blocks(partition: PairPartition) -> tuple[list[tuple[int, int]], int]:
    """Blocks that cross no other block, and their count h."""
    masks, _ = _crossing_graph(partition.blocks)
    singles = [blk for blk, mask in zip(partition.blocks, masks) if not mask]
    return singles, len(singles)


def connected_components(
    partition: PairPartition,
) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """Components of the crossing graph, as (count, blocks grouped by component).

    Components are ordered by their smallest block, blocks within a component
    by low endpoint.
    """
    blocks = partition.blocks
    _, comps = _crossing_graph(blocks)
    return len(comps), tuple(tuple(blocks[i] for i in _bits(comp)) for comp in comps)


def statistics(partition: PairPartition) -> ChordStatistics:
    """All chord statistics of one partition in a single pass."""
    cr, h, cc = _chord_stats(partition.blocks)
    return ChordStatistics(cr=cr, h=h, cc=cc, big_h=partition.n - h)


def component_support_partition(partition: PairPartition) -> tuple[tuple[int, ...], ...]:
    """Collapse each crossing-graph component to its point support.

    The result is a set partition of {1..2n} (blocks sorted internally and by
    minimum); it is always non-crossing with all blocks of even size.
    """
    _, comps = connected_components(partition)
    supports = []
    for comp in comps:
        pts: list[int] = []
        for lo, hi in comp:
            pts.append(lo)
            pts.append(hi)
        supports.append(tuple(sorted(pts)))
    supports.sort(key=lambda blk: blk[0])
    return tuple(supports)


def rotate(partition: PairPartition) -> PairPartition:
    """Cyclic rotation of the ground set: k -> 1 + (k mod 2n)."""
    # The block ending at 2n becomes (1, lo + 1) and goes first; the others
    # shift up by one, so the blocks stay sorted by lo.
    last = 2 * partition.n
    head = [(1, lo + 1) for lo, hi in partition.blocks if hi == last]
    rest = [(lo + 1, hi + 1) for lo, hi in partition.blocks if hi != last]
    return _fast_partition(partition.n, tuple(head + rest))


def riordan_connected(nmax: int) -> list[int]:
    """Connected-pairing counts c_2, c_4, ..., c_{2*nmax}.

    Computed by Riordan's recurrence in its index-corrected form
    ``c_{2(n+1)} = n * sum_{i=1..n} c_{2i} * c_{2(n+1-i)}`` with c_2 = 1,
    which reproduces 1, 1, 4, 27, 248, 2830, ... and matches brute-force
    counts of pairings whose crossing graph is connected; nmax <= ``TABLE_MAX_N``.
    """
    _check_limit("table", nmax)
    c = [0, 1]  # c[k] = c_{2k}
    for n in range(1, nmax):
        c.append(n * sum(c[i] * c[n + 1 - i] for i in range(1, n + 1)))
    return c[1:]


def _singleton_total(n: int) -> int:
    # T_2n = n * sum_{k=0..n-1} p_2k * p_2(n-1-k), with p_2k = (2k-1)!!
    p = [1]
    for k in range(1, n):
        p.append(p[-1] * (2 * k - 1))
    return n * sum(p[k] * p[n - 1 - k] for k in range(n))


def total_singletons(n: int) -> int:
    """T_{2n} = sum of h(V) over all V in P2(2n).

    Uses the closed form ``T_{2n} = n * sum_{k=0..n-1} p_{2k} * p_{2(n-1-k)}``
    and, whenever n is within ``TABLE_MAX_N``, cross-checks it against the
    joint table.  n must be an integer >= 1.
    """
    _check_least(n, 1, "n")
    closed = _singleton_total(n)
    if n <= TABLE_MAX_N:
        brute = sum(h * count for h, count in statistic_distribution(n).marginal("h").items())
        if brute != closed:
            raise DualPathMismatchError(
                f"singleton total mismatch at n={n}: closed form {closed}, "
                f"joint table {brute}",
                path_a=closed,
                path_b=brute,
            )
    return closed


def iter_statistics(n: int) -> Iterator[tuple[int, int, int]]:
    """Yield the (cr, h, cc) triples of P2(2n), read off the cached cases.

    Order and ``STREAM_MAX_N`` cap match :func:`enumerate_pairings`.
    """
    from . import _arrays

    s, chunk = _arrays._stream(n), _arrays._CHUNK
    yield from (s.stats[c] for i in range(0, len(s.case), chunk)
                for c in s.case[i:i + chunk].tolist())


# ---------------------------------------------------------------------------
# The even non-crossing kernel, then the joint (cr, h, cc) table built on it
# (see the module docstring).  Kreweras' table counts the even non-crossing
# partitions of {1..2n} by block type; the free moment-cumulant sums over it
# run in any ring with +, - and *, and their callers check the caps.  In the
# joint table a polynomial in q is one int: the coefficient of q^i is digit i
# in base 2^W, where W = 8 * _digit_bytes(n).  Pinned against a fold of the
# stream above for n <= 8.
# ---------------------------------------------------------------------------


def _partitions(total: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    # Integer partitions of `total` into parts >= `least`, parts ascending.
    if total == 0:
        yield ()
    for part in range(least, total + 1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


@lru_cache(maxsize=None)
def _nc_even_types(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # Kreweras (Discrete Math. 1, 1972): the non-crossing partitions of
    # {1..k} with b blocks, m_j of them of size j, number
    # k! / ((k - b + 1)! * prod_j m_j!).  Sorted by block sizes, so the
    # one-block type (k,) comes last.
    table = []
    for halves in _partitions(k // 2):
        sizes = tuple(2 * h for h in halves)
        denominator = factorial(k - len(sizes) + 1)
        for s in set(sizes):
            denominator *= factorial(sizes.count(s))
        table.append((sizes, factorial(k) // denominator))
    return tuple(sorted(table))


def _type_sum(r, types):
    # sum of count * prod_s r_s over the (sizes, count) types, r_s read from
    # r[s/2 - 1]: products left to right over the blocks, sums in type order.
    total = 0
    for sizes, count in types:
        prod = count
        for s in sizes:
            prod = prod * r[s // 2 - 1]
        total = total + prod
    return total


def _moments_of(r: tuple) -> tuple:
    # The forward transform: m_2n sums every even non-crossing type of 2n.
    return tuple(_type_sum(r, _nc_even_types(2 * n)) for n in range(1, len(r) + 1))


def _cumulants_of(m: tuple) -> tuple:
    # The inverse by recursive subtraction: every type of 2n but the
    # one-block type needs cumulants of orders < 2n only.
    r: list = []
    for n in range(1, len(m) + 1):
        r.append(m[n - 1] - _type_sum(r, _nc_even_types(2 * n)[:-1]))
    return tuple(r)


def _digit_bytes(n: int) -> int:
    # Bytes per digit.  Every coefficient packed for half-size n, partial
    # products and sums included, counts diagrams on at most 2n points, so it
    # is below (2n-1)!! and never carries; each difference taken removes a
    # subset of what it is taken from, so none borrows.
    return (pairing_count(n).bit_length() + 7) // 8


def _touchard_riordan(n: int) -> list[int]:
    # T_1(q), ..., T_n(q) packed, with T_k = sum over P2(2k) of q^cr: Dyck
    # paths of length 2k whose down step from height j has weight [j]_q =
    # 1 + q + ... + q^(j-1), packed as (2^(Wj) - 1) / (2^W - 1).  Heights above
    # 2n - step cannot return to 0 by step 2n and are dropped.
    w = 8 * _digit_bytes(n)
    q_int = [((1 << w * j) - 1) // ((1 << w) - 1) for j in range(n + 1)]
    level = [1]  # paths so far, by current height
    out = []
    for step in range(1, 2 * n + 1):
        level = [(level[j - 1] if j else 0)
                 + (level[j + 1] * q_int[j + 1] if j + 1 < len(level) else 0)
                 for j in range(min(step, 2 * n - step) + 1)]
        if step % 2 == 0:
            out.append(level[0])
    return out


#: The joint tables of P2(2k) for k = 1..len(_JOINT), the longest set built.
_JOINT: tuple[StatisticDistribution, ...] = ()


def _joint_tables(n: int) -> tuple[StatisticDistribution, ...]:
    # The joint tables of P2(2k) for every k = 1..n.  A new largest n builds
    # all of them in one pass and replaces the kept tuple; a smaller n is a
    # slice of it.  Half-sizes above TABLE_MAX_N raise before anything is
    # built.
    global _JOINT
    _check_limit("table", n)
    if n > len(_JOINT):
        size = _digit_bytes(n)
        connected = _cumulants_of(tuple(_touchard_riordan(n)))
        tables = []
        for k in range(1, n + 1):
            # The cell (h, cc) is the transform loop's sum over the even
            # non-crossing types with cc blocks, h of size 2; C_1 = 1.
            cells: dict[tuple[int, int], list] = {}
            for sizes, count in _nc_even_types(2 * k):
                cells.setdefault((sizes.count(2), len(sizes)), []).append((sizes, count))
            counts = {}
            for (h, cc), types in cells.items():
                packed = _type_sum(connected, types)
                raw = packed.to_bytes(-(-packed.bit_length() // 8), "little")
                for at in range(0, len(raw), size):
                    count = int.from_bytes(raw[at:at + size], "little")
                    if count:
                        counts[at // size, h, cc] = count
            tables.append(StatisticDistribution(k, MappingProxyType(dict(sorted(counts.items())))))
        _JOINT = tuple(tables)
    return _JOINT[:n]


def statistic_distribution(n: int) -> StatisticDistribution:
    """Exact joint (cr, h, cc) counts over P2(2n), cells in sorted key order.

    Built from the free cumulants of the Touchard-Riordan moments and the
    even non-crossing types (see the module docstring), visiting no partition.
    Half-sizes above ``TABLE_MAX_N`` raise :class:`SizeLimitError`.
    """
    return _joint_tables(n)[-1]


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 is refused, not a hit for 3
def _marginal(n: int, statistics: tuple[str, ...],
              connected_only: bool) -> Mapping[tuple[int, ...], int]:
    # _fold of the joint table of P2(2n), read-only, for the graded sums of
    # every parameter and statistic_polynomial; term sums read _cells.
    return MappingProxyType(statistic_distribution(n)._fold(statistics, connected_only))
