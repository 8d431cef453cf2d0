"""Independent brute-force reference implementations used as test oracles.

Everything here is written from the definitions, with no shared code paths
with the package: pairings via itertools-style recursion on element lists,
crossings by quadruple inspection, components by DFS over an explicit
adjacency dict, set partitions by direct recursive construction.

The exception is the last section: the definitional bodies of the package's
per-partition checks, kept as oracles for the walk-based checks.  They call
the package's single-partition functions (``statistics``,
``connected_components``, ``evaluate``) and the validating
``PairPartition.from_pairs``, but visit partitions through
:func:`all_pairings` and use no walk or weight memo.
"""

import bisect
import itertools
from fractions import Fraction

from pairmoments import pairings, weights
from pairmoments.pairings import PairPartition


def all_pairings(points):
    pts = list(points)
    if not pts:
        yield []
        return
    first = pts[0]
    for i in range(1, len(pts)):
        rest = pts[1:i] + pts[i + 1:]
        for tail in all_pairings(rest):
            yield [(first, pts[i])] + tail


def blocks_cross(p, q):
    a, b = p
    x, y = q
    return a < x < b < y or x < a < y < b


def crossing_count(blocks):
    return sum(
        1 for p, q in itertools.combinations(blocks, 2) if blocks_cross(p, q)
    )


def chord_stats(blocks):
    """(cr, h, cc) from the definitions."""
    m = len(blocks)
    adj = {i: set() for i in range(m)}
    for i, j in itertools.combinations(range(m), 2):
        if blocks_cross(blocks[i], blocks[j]):
            adj[i].add(j)
            adj[j].add(i)
    h = sum(1 for i in range(m) if not adj[i])
    seen = set()
    cc = 0
    for i in range(m):
        if i in seen:
            continue
        cc += 1
        stack = [i]
        seen.add(i)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return crossing_count(blocks), h, cc


def all_set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for tail in all_set_partitions(rest):
        yield [[first]] + [list(b) for b in tail]
        for i in range(len(tail)):
            out = [list(b) for b in tail]
            out[i] = [first] + out[i]
            yield out


def partition_noncrossing(blocks):
    for b1, b2 in itertools.combinations(blocks, 2):
        for a, b in itertools.combinations(sorted(b1), 2):
            for x, y in itertools.combinations(sorted(b2), 2):
                if a < x < b < y or x < a < y < b:
                    return False
    return True


def even_nc_set_partitions(k):
    """All even non-crossing set partitions of {1..k}, by filtering."""
    for p in all_set_partitions(range(1, k + 1)):
        if all(len(b) % 2 == 0 for b in p) and partition_noncrossing(p):
            yield [tuple(sorted(b)) for b in p]


def weighted_sum(n, weight_of_stats):
    """sum over P2(2n) of a weight given as a function of (cr, h, cc)."""
    total = Fraction(0)
    for blocks in all_pairings(range(1, 2 * n + 1)):
        cr, h, cc = chord_stats(blocks)
        total += weight_of_stats(cr, h, cc)
    return total


def nc_even_partitions(points):
    """Even non-crossing partitions of `points`, by direct recursive construction.

    Each partition is a tuple of blocks sorted by their minima.  The block of
    points[0] picks companions so that every gap between consecutive members
    (and the tail after the last) has even length; each gap is then
    partitioned on its own, which keeps the result non-crossing.
    """
    points = tuple(points)
    if not points:
        yield ()
        return
    rest = points[1:]
    m = len(rest)

    # Companion rest-indices i_1 < ... < i_t, with even gaps (step-2 ranges),
    # an odd count (so the block is even) and an even tail gap.
    def choose(base, chosen):
        for i in range(base, m, 2):
            picked = chosen + (i,)
            if len(picked) % 2 == 1 and (m - 1 - i) % 2 == 0:
                yield picked
            yield from choose(i + 1, picked)

    for idxs in choose(0, ()):
        block = (points[0],) + tuple(rest[i] for i in idxs)
        segments = []
        prev = -1
        for i in idxs:
            segments.append(rest[prev + 1:i])
            prev = i
        segments.append(rest[prev + 1:])
        for combo in _segment_products(tuple(segments)):
            yield tuple(sorted((block,) + combo, key=lambda b: b[0]))


def _segment_products(segments):
    if not segments:
        yield ()
        return
    for head in nc_even_partitions(segments[0]):
        for tail in _segment_products(segments[1:]):
            yield head + tail


def nc_even_type_counts(k):
    """Even non-crossing partitions of {1..k} tallied by sorted block sizes."""
    counts = {}
    for blocks in nc_even_partitions(range(1, k + 1)):
        key = tuple(sorted(len(b) for b in blocks))
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def blocks_noncrossing(blocks):
    """No two blocks interleave, checked by gaps: every member of the block
    with the larger minimum falls in one gap of the other (between two
    consecutive members, or after the last)."""
    blocks = sorted(sorted(b) for b in blocks)
    for first, second in itertools.combinations(blocks, 2):
        if len({bisect.bisect_left(first, x) for x in second}) > 1:
            return False
    return True


def blocks_even(blocks):
    return all(len(b) % 2 == 0 for b in blocks)


# --- definitional check bodies ------------------------------------------------


def _partitions_up_to(nmax):
    for n in range(1, nmax + 1):
        for pairs in all_pairings(range(1, 2 * n + 1)):
            yield PairPartition.from_pairs(pairs)


def rotate_by_pairs(partition):
    """Rotation k -> 1 + (k mod 2n), canonicalized by from_pairs."""
    m = 2 * partition.n
    return PairPartition.from_pairs((1 + a % m, 1 + b % m) for a, b in partition.blocks)


def standardize_by_pairs(component):
    """A component relabelled to {1..2k} in order, built by from_pairs."""
    support = sorted(p for blk in component for p in blk)
    rank = {p: i + 1 for i, p in enumerate(support)}
    return PairPartition.from_pairs((rank[a], rank[b]) for a, b in component)


def strong_multiplicativity_report(spec, nmax):
    """check_strong_multiplicativity, evaluating every partition and component."""
    cases = 0
    for part in _partitions_up_to(nmax):
        cases += 1
        whole = weights.evaluate(spec, part)
        _, comps = pairings.connected_components(part)
        split = 1
        for comp in comps:
            split = split * weights.evaluate(spec, standardize_by_pairs(comp))
        if not weights.numbers_equal(whole, split):
            return weights.CheckReport(
                False, cases, part, f"t(V)={whole} but component product is {split}")
    return weights.CheckReport(True, cases, None, f"factorization holds on {cases} partitions")


def traceability_report(statistic, nmax):
    """check_traceability, with both sides from pairings.statistics."""
    field = {"cr": "cr", "h": "h", "cc": "cc", "H": "big_h"}[statistic]
    cases = 0
    for part in _partitions_up_to(nmax):
        cases += 1
        a = getattr(pairings.statistics(part), field)
        b = getattr(pairings.statistics(rotate_by_pairs(part)), field)
        if a != b:
            return weights.CheckReport(
                False, cases, part, f"{statistic} changed from {a} to {b} under rotation")
    return weights.CheckReport(
        True, cases, None, f"{statistic} rotation-invariant on {cases} partitions")
