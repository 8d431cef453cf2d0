"""The pair-partition stream as numpy arrays.

P2(2n) as (rows, n, 2) int8 blocks in canonical order, built per call from
the rows of P2(2n - 2).  Each row's crossing graph is one uint8 bitmask per
block, and Warshall's closure over them gives each block's component.  Rows
are filed under cases, the (size, crossings) of each component by lowest
block, which fix (cr, h, cc); only the cases are cached (4 MB at n = 8,
where the blocks would take 32 MB).

Its callers, :func:`pairmoments.pairings.iter_statistics`,
:func:`pairmoments.moments.mixed_moment` and the two checks of
:mod:`pairmoments.weights`, import it when they run, so ``import
pairmoments`` loads no numpy.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .exceptions import _check_limit
from .pairings import pairing_count

#: Rows per numpy pass: the temporaries stay under 0.5 MB whatever n.
_CHUNK = 1 << 11

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int8)
_LOWEST = np.array([(i & -i).bit_length() - 1 for i in range(256)], dtype=np.int8)


class _Stream(NamedTuple):
    # Row i has case[i]; cases are numbered in order of their first row.
    # parts[c] and stats[c] are case c's components' (size, crossings) and
    # its (cr, h, cc), all Python ints.
    case: np.ndarray
    parts: tuple[tuple[tuple[int, int], ...], ...]
    stats: tuple[tuple[int, int, int], ...]


_STREAMS: dict[int, _Stream] = {}


def _crossings(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (n, rows) uint8 masks: bit b of masks[a] when blocks a and b cross, of
    # reach[a] when they share a component; roots[a] when a is its lowest.
    # Block b > a crosses a when it starts inside a and ends outside it.
    n = blocks.shape[1]
    lo = np.ascontiguousarray(blocks[..., 0].T)
    hi = np.ascontiguousarray(blocks[..., 1].T)
    masks = np.zeros(lo.shape, dtype=np.uint8)
    for a in range(n):
        for b in range(a + 1, n):
            x = ((lo[b] < hi[a]) & (hi[a] < hi[b])).view(np.uint8)
            masks[a] |= x << np.uint8(b)
            masks[b] |= x << np.uint8(a)
    reach = masks | (np.uint8(1) << np.arange(n, dtype=np.uint8))[:, None]
    for k in range(n):
        reach |= ((reach >> np.uint8(k)) & np.uint8(1)) * reach[k]
    return masks, reach, _LOWEST[reach] == np.arange(n, dtype=np.int8)[:, None]


def _chunk_stats(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    masks, _, roots = _crossings(blocks)
    return _POPCOUNT[masks].sum(axis=0) // 2, (masks == 0).sum(axis=0), roots.sum(axis=0)


def _case_keys(blocks: np.ndarray) -> np.ndarray:
    # One int64 per row, a byte 1 + ((size - 1) << 5 | crossings) per
    # component by lowest block (size <= 8, crossings <= 28; 8 bytes only for
    # 8 singletons).  Byte a of `twice` sums degrees over the component led by a.
    masks, reach, roots = _crossings(blocks)
    lanes = (_LOWEST[reach] << 3).astype(np.int64)
    twice = np.zeros(blocks.shape[0], dtype=np.int64)
    for mask, lane in zip(masks, lanes):
        twice += _POPCOUNT[mask].astype(np.int64) << lane
    keys = np.zeros_like(twice)
    for a, root in enumerate(roots):
        crossings = (twice >> (8 * a + 1)) & 127
        code = (_POPCOUNT[reach[a]].astype(np.int64) - 1) << 5 | crossings
        keys = np.where(root, keys << 8 | (code + 1), keys)
    return keys


def _chunks(n: int) -> Iterator[tuple[int, np.ndarray]]:
    # (first row, rows) over P2(2n) in canonical order, at most _CHUNK rows
    # each.  Point 1 pairs with j = 2..2n in turn; the other points carry the
    # rows of P2(2n - 2), built afresh, relabelled in order: p -> p + 1 below
    # j, p + 2 from j on.  No array outlives the call.
    prev = (np.concatenate([rows for _, rows in _chunks(n - 1)]) + np.int8(1)
            if n > 1 else np.empty((1, 0, 2), np.int8))
    for t, j in enumerate(range(2, 2 * n + 1)):
        part = np.empty((len(prev), n, 2), dtype=np.int8)
        part[:, 0] = (1, j)
        np.add(prev, prev >= j, out=part[:, 1:], casting="unsafe")
        for i in range(0, len(part), _CHUNK):
            yield t * len(prev) + i, part[i:i + _CHUNK]


def _stream(n: int) -> _Stream:
    # Cached; half-sizes above STREAM_MAX_N raise before any array exists.
    _check_limit("enumeration", n)
    if n not in _STREAMS:
        index: dict[int, int] = {}  # key -> case
        case = np.empty(pairing_count(n), dtype=np.int16)  # 497 cases at n = 8
        for start, blocks in _chunks(n):
            keys = _case_keys(blocks).tolist()
            for key in dict.fromkeys(keys):
                index.setdefault(key, len(index))
            case[start:start + len(keys)] = np.fromiter(
                map(index.__getitem__, keys), dtype=np.int16, count=len(keys))
        parts = tuple(tuple((code // 32 + 1, code % 32) for code in
                            (b - 1 for b in key.to_bytes(8, "big") if b)) for key in index)
        case.flags.writeable = False
        _STREAMS[n] = _Stream(case, parts, tuple(
            (sum(c for _, c in p), sum(k == 1 for k, _ in p), len(p)) for p in parts))
    return _STREAMS[n]


def _row_blocks(row: np.ndarray) -> tuple[tuple[int, int], ...]:
    return tuple(map(tuple, row.tolist()))


def _rotate_rows(blocks: np.ndarray) -> np.ndarray:
    # k -> 1 + (k mod 2n) on every row.  The block ending at 2n becomes
    # (1, lo + 1) and goes first; the others shift up by one in place, so
    # each row stays sorted by lo.
    rows, n, _ = blocks.shape
    ends = blocks[..., 1] == 2 * n
    out = np.empty_like(blocks)
    out[:, 0, 0] = 1
    out[:, 0, 1] = blocks[..., 0][ends] + np.int8(1)
    out[:, 1:] = (blocks[~ends] + np.int8(1)).reshape(rows, n - 1, 2)
    return out


def _first_row(n: int, case: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # The index and blocks of the first row of P2(2n) filed under case.
    row = int(np.flatnonzero(_stream(n).case == case)[0])
    start, blocks = next(c for c in _chunks(n) if row < c[0] + len(c[1]))
    return row, _row_blocks(blocks[row - start])


def _rotation_change(
    n: int, index: int,
) -> tuple[int, tuple[tuple[int, int], ...], int, int] | None:
    # The first row of P2(2n) whose statistic (cr, h, cc, H)[index] changes
    # when the row is rotated, as (row, blocks, before, after), or None.
    s = _stream(n)
    of_case = np.array([(cr, h, cc, n - h)[index] for cr, h, cc in s.stats], dtype=np.int64)
    for start, blocks in _chunks(n):
        cr, h, cc = _chunk_stats(_rotate_rows(blocks))
        before, after = of_case[s.case[start:start + len(blocks)]], (cr, h, cc, n - h)[index]
        changed = np.flatnonzero(before != after)
        if changed.size:
            i = int(changed[0])
            return start + i, _row_blocks(blocks[i]), int(before[i]), int(after[i])
    return None


def _pair_product_sums(n: int, entries: list) -> dict[tuple[int, int, int], object]:
    # For each (cr, h, cc) of P2(2n), in order of first row, the sum over its
    # partitions of the product of entries[(lo - 1) * 2n + hi - 1] over their
    # blocks.  Ints run in int64 while max|entry|^n * (2n-1)!! < 2^63; past
    # that, and for any other entries, as Python objects, multiplied left to
    # right and added in row order.
    s = _stream(n)
    k = 2 * n
    dtype = object
    if all(isinstance(x, int) for x in entries):
        if max(map(abs, entries)) ** n * pairing_count(n) < 2 ** 63:
            dtype = np.int64
    padded = np.zeros((k + 1, k + 1), dtype=dtype)  # 1-based, as the blocks are
    padded[1:, 1:] = np.array(entries, dtype=dtype).reshape(k, k)
    keys: dict[tuple[int, int, int], int] = {}
    key_of_case = np.array([keys.setdefault(st, len(keys)) for st in s.stats])
    sums = np.zeros(len(keys), dtype=dtype)
    for start, blocks in _chunks(n):
        term = padded[blocks[:, 0, 0], blocks[:, 0, 1]]
        for j in range(1, n):
            term = term * padded[blocks[:, j, 0], blocks[:, j, 1]]
        np.add.at(sums, key_of_case[s.case[start:start + len(blocks)]], term)
    return dict(zip(keys, sums.tolist()))
