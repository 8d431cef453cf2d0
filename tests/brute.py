"""Independent brute-force reference implementations used as test oracles.

Everything here is written from the definitions, with no shared code paths
with the package: pairings via itertools-style recursion on element lists,
crossings by quadruple inspection, components by DFS over an explicit
adjacency dict, set partitions by direct recursive construction.

The exceptions are the later sections.  An incremental union-find walk
over P2(2n) is kept as :func:`walk_statistics`, with
:func:`mixed_moment_by_keys` on top of it: the package's array stream must
equal it row for row and its mixed moment bit for bit.  The per-partition
check bodies are kept as oracles for the array checks: they visit every
partition in walk order and read its rotation and each of its components,
both built by the validating ``PairPartition.from_pairs``, with the
package's single-partition kernel.  That kernel is pinned on its own:
``statistics``, ``crossings``, ``singleton_blocks`` and
``connected_components`` must equal :func:`chord_stats`,
:func:`singletons` and :func:`components` on every partition with n <= 6.
The element-at-a-time bodies of the group kernel, the metric check, the
xorshift64* step, Box-Muller, the Markov assembly and the trace powers are
kept as oracles for the array code: they compose ``Permutation`` objects,
step the generator one word at a time, draw one normal pair at a time,
build X from index arrays with temporaries and multiply out every power;
:func:`spectral_moments` checks the trace powers a second way, from the
eigenvalues.
"""

import bisect
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from pairmoments import pairings, permgroup, randmat, weights
from pairmoments.pairings import PairPartition
from pairmoments.permgroup import MetricReport, Permutation
from pairmoments.rng import Xorshift64Star


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


def components(blocks):
    """Crossing-graph components by DFS over blocks_cross.

    Each component lists its blocks by low endpoint; components are ordered
    by their smallest block.
    """
    blocks = sorted(blocks)
    seen = set()
    out = []
    for start in blocks:
        if start in seen:
            continue
        seen.add(start)
        stack, members = [start], []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in blocks:
                if w not in seen and blocks_cross(v, w):
                    seen.add(w)
                    stack.append(w)
        out.append(tuple(sorted(members)))
    return tuple(out)


def singletons(blocks):
    """Blocks crossing no other block, by low endpoint."""
    return [p for p in sorted(blocks) if not any(blocks_cross(p, q) for q in blocks)]


def mixed_moment(spec, rows):
    """sum over P2(k) of weight_of(n, cr, h, cc) * prod of rows[i-1][j-1],
    one term per pairing, with statistics from chord_stats."""
    k = len(rows)
    if k % 2:
        return 0
    total = 0
    for blocks in all_pairings(range(1, k + 1)):
        term = spec.weight_of(k // 2, *chord_stats(blocks))
        for i, j in blocks:
            term = term * rows[i - 1][j - 1]
        total = total + term
    return total


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def walk_statistics(n, with_blocks=False):
    """(cr, h, cc), or (blocks, cr, h, cc), over P2(2n) in canonical order,
    by an incremental walk.

    Block d is placed at depth d of an explicit stack, and cr / h / cc are
    maintained while blocks are added and removed: a crossing-degree count
    per block and a union-find over blocks with undo.  The blocks already
    placed all start left of the smallest free point i, so the new block
    (i, j) crosses exactly the blocks ending strictly between i and j; when
    j moves on to the next free point, the blocks ending in between are
    added to what it crosses and nothing is taken away.
    """
    m = 2 * n
    last = n - 1
    owner = [-1] * (m + 1)  # block holding each point; -1 while free
    deg = [0] * n  # crossing degree of each block
    parent = list(range(n))
    size = [1] * n
    # per depth d, i.e. block d: its lo point, the partner tried last (lo
    # itself before the first), the blocks it crosses, the unions it made in
    # the order made, and the blocks placed above it
    lo = [0] * n
    hi = [0] * n
    crossed: list[list[int]] = [[] for _ in range(n)]
    merged: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    placed: list[tuple[tuple[int, int], ...]] = [()] * n
    cr = zero = merges = 0  # zero counts the blocks of degree 0

    d = 0
    lo[0] = hi[0] = 1
    owner[1] = 0
    while d >= 0:
        i = lo[d]
        if d == last:
            # two free points remain: read the statistics off without
            # placing the last block
            j = i + 1
            while owner[j] >= 0:
                j += 1
            h = zero + (j == i + 1)
            roots = set()
            for b in owner[i + 1:j]:
                if not deg[b]:
                    h -= 1
                while parent[b] != b:
                    b = parent[b]
                roots.add(b)
            if with_blocks:
                yield placed[d] + ((i, j),), cr + j - i - 1, h, n - merges - len(roots)
            else:
                yield cr + j - i - 1, h, n - merges - len(roots)
            owner[i] = -1
            d -= 1
            continue
        j = hi[d]
        first = j == i
        if not first:
            owner[j] = -1
        new = []
        j += 1
        while j <= m and owner[j] >= 0:
            new.append(owner[j])
            j += 1
        if j > m:
            # every partner tried: take block d away, in reverse order
            for rb, ra in reversed(merged[d]):
                parent[rb] = rb
                size[ra] -= size[rb]
            merges -= len(merged[d])
            for b in crossed[d]:
                deg[b] -= 1
                if not deg[b]:
                    zero += 1
            cr -= deg[d]
            if not deg[d]:
                zero -= 1
            deg[d] = 0
            crossed[d] = []
            merged[d] = []
            owner[i] = -1
            d -= 1
            continue
        hi[d] = j
        owner[j] = d
        if first:
            zero += 1
        if new:
            if not deg[d]:
                zero -= 1
            deg[d] += len(new)
            cr += len(new)
            crossed[d] += new
            for b in new:
                deg[b] += 1
                if deg[b] == 1:
                    zero -= 1
                ra, rb = _find(parent, d), _find(parent, b)
                if ra != rb:
                    if size[ra] < size[rb]:
                        ra, rb = rb, ra
                    parent[rb] = ra
                    size[ra] += size[rb]
                    merged[d].append((rb, ra))
                    merges += 1
        if with_blocks:
            placed[d + 1] = placed[d] + ((i, j),)
        k = i + 1
        while owner[k] >= 0:
            k += 1
        d += 1
        lo[d] = hi[d] = k
        owner[k] = d


def mixed_moment_by_keys(spec, rows):
    """mixed_moment one partition at a time over walk_statistics: each
    product left to right over the blocks, each (cr, h, cc) key's sum in
    partition order, keys weighted in order of first partition."""
    k = len(rows)
    n = k // 2
    entries = [x for row in rows for x in row]
    denominator = None
    if all(map(weights.is_exact, entries)) and not all(isinstance(x, int) for x in entries):
        denominator = Fraction(math.lcm(*(x.denominator for x in entries)))
        rows = [[int(x * denominator) for x in row] for row in rows]
    sums = {}
    for blocks, cr, h, cc in walk_statistics(n, with_blocks=True):
        term = 1
        for i, j in blocks:
            term *= rows[i - 1][j - 1]
        sums[cr, h, cc] = sums.get((cr, h, cc), 0) + term
    total = 0
    for (cr, h, cc), value in sums.items():
        total = total + spec.weight_of(n, cr, h, cc) * value
    return total if denominator is None else total / denominator ** n


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


@functools.lru_cache(maxsize=None)
def _records(n):
    """Per partition of P2(2n), in the order of walk_statistics: its (cr, h,
    cc) from the walk, and the (cr, h, cc) of its rotation and the (k, cr,
    h, cc) of each component standardized to {1..2k}, both built by
    from_pairs and read by the package's single-partition kernel.  Equal
    records are shared, so n = 7 holds one reference per partition."""
    shared = {}
    out = []
    for blocks, cr, h, cc in walk_statistics(n, with_blocks=True):
        part = pairings._fast_partition(n, blocks)
        rotated = pairings._chord_stats(rotate_by_pairs(part).blocks)
        if cc == n:
            comps = ((1, 0, 1, 1),) * n
        else:
            comps = tuple((len(comp), *pairings._chord_stats(standardize_by_pairs(comp).blocks))
                          for comp in pairings.connected_components(part)[1])
        record = (cr, h, cc), rotated, comps
        out.append(shared.setdefault(record, record))
    return out


def _partition(n, index):
    blocks = next(itertools.islice(walk_statistics(n, with_blocks=True), index, None))[0]
    return PairPartition.from_pairs(blocks)


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
    """check_strong_multiplicativity, multiplying out every partition; equal
    records (the same shared object) are multiplied once."""
    cases = 0
    products = {}
    for n in range(1, nmax + 1):
        for i, record in enumerate(_records(n)):
            cases += 1
            if id(record) not in products:
                stats, _, comps = record
                split = 1
                for key in comps:
                    split = split * spec.weight_of(*key)
                products[id(record)] = spec.weight_of(n, *stats), split
            whole, split = products[id(record)]
            if not weights.numbers_equal(whole, split):
                return weights.CheckReport(False, cases, _partition(n, i),
                                           f"t(V)={whole} but component product is {split}")
    return weights.CheckReport(True, cases, None, f"factorization holds on {cases} partitions")


def traceability_report(statistic, nmax):
    """check_traceability, comparing every partition with its rotation."""
    index = ("cr", "h", "cc", "H", "n-cc").index(statistic)
    cases = 0
    for n in range(1, nmax + 1):
        for i, (stats, rotated, _) in enumerate(_records(n)):
            cases += 1
            a, b = ((*s, n - s[1], n - s[2])[index] for s in (stats, rotated))
            if a != b:
                return weights.CheckReport(False, cases, _partition(n, i),
                                           f"{statistic} changed from {a} to {b} under rotation")
    return weights.CheckReport(
        True, cases, None, f"{statistic} rotation-invariant on {cases} partitions")


# --- element-at-a-time group, sampling and trace bodies ------------------------


def kernel_entries(n, f):
    """[f(sigma_a^-1 sigma_b)] over S(n), one composed Permutation per entry."""
    group = permgroup.enumerate_group(n)
    inverses = [g.inverse() for g in group]
    order = len(group)
    entries = np.empty((order, order))
    for a in range(order):
        for b in range(order):
            entries[a, b] = f(inverses[a] * group[b])
    return entries


def metric_report(n, triples=100_000, seed=0):
    """metric_checks by composing Permutation objects, one triple at a time.

    H is looked up as ``permgroup.big_h`` on every call.
    """
    group = permgroup.enumerate_group(n)
    order = len(group)
    hvec = np.array([permgroup.big_h(g) for g in group], dtype=np.int64)
    index_of = {g.images: i for i, g in enumerate(group)}
    inv_idx = np.array([index_of[g.inverse().images] for g in group])
    identity = Permutation.identity(n)

    if hvec[index_of[identity.images]] != 0:
        return MetricReport(False, n, 0, True, (identity,), "H(e) != 0")
    for i, g in enumerate(group):
        if hvec[i] != hvec[inv_idx[i]]:
            return MetricReport(False, n, 0, True, (g,), f"H not symmetric at {g.images}")
        if i != index_of[identity.images] and hvec[i] == 0:
            return MetricReport(False, n, 0, True, (g,), f"H vanishes off identity at {g.images}")

    if n <= 5:
        comp = np.array([[index_of[(ga * gb).images] for gb in group] for ga in group])
        dist = np.empty((order, order), dtype=np.int64)
        for a in range(order):
            dist[a, :] = hvec[comp[inv_idx[a], :]]
        if not np.array_equal(dist, dist.T):
            return MetricReport(False, n, 0, True, None, "distance table not symmetric")
        checked = 0
        for r in range(order):
            rhs = dist[:, r:r + 1] + dist[r:r + 1, :]
            if (dist > rhs).any():
                a, b = np.argwhere(dist > rhs)[0]
                return MetricReport(False, n, checked, True, (group[a], group[b], group[r]),
                                    "triangle inequality fails")
            checked += order * order
        for r in range(order):
            relabel = comp[r, :]
            if not np.array_equal(dist[np.ix_(relabel, relabel)], dist):
                return MetricReport(False, n, checked, True, (group[r],), "left invariance fails")
        return MetricReport(
            True, n, checked, True, None,
            f"all {order}^3 = {checked} triangle triples and left translations pass",
        )

    rng = Xorshift64Star(seed)
    checked = 0
    for _ in range(triples):
        a = group[rng.randrange(order)]
        b = group[rng.randrange(order)]
        r = group[rng.randrange(order)]
        d_ab = permgroup.big_h(a.inverse() * b)
        d_ar = permgroup.big_h(a.inverse() * r)
        d_rb = permgroup.big_h(r.inverse() * b)
        if d_ab > d_ar + d_rb:
            return MetricReport(False, n, checked, False, (a, b, r), "triangle inequality fails")
        if permgroup.big_h((r * a).inverse() * (r * b)) != d_ab:
            return MetricReport(False, n, checked, False, (a, b, r), "left invariance fails")
        checked += 1
    return MetricReport(
        True, n, checked, False, None,
        f"{checked} sampled triples pass triangle and left invariance",
    )


def xorshift_words(state, count):
    """count xorshift64* outputs from a raw state, and the state after the last."""
    mask = (1 << 64) - 1
    out = []
    for _ in range(count):
        state ^= state >> 12
        state ^= (state << 25) & mask
        state ^= state >> 27
        out.append((state * 0x2545F4914F6CDD1D) & mask)
    return out, state


def sample_markov(n, dist, seed):
    """M = X - diag(row sums) built from triu_indices, X + X^T - diag(X)."""
    vals = randmat.sample_entries(Xorshift64Star(seed), dist, n * (n + 1) // 2)
    x = np.zeros((n, n))
    x[np.triu_indices(n)] = vals
    x = x + x.T - np.diag(np.diag(x))
    return x - np.diag(x.sum(axis=1))


def normal_pair(rng):
    """Box-Muller on two words of an Xorshift64Star, in scalar arithmetic."""
    u1 = rng.uniform()
    u2 = (rng.next_u64() >> 11) * 2.0 ** -53
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)


def normals(rng, count):
    out = np.empty(count)
    for i in range(0, count - 1, 2):
        out[i], out[i + 1] = normal_pair(rng)
    if count % 2 == 1:
        out[-1] = normal_pair(rng)[0]
    return out


def empirical_moments_by_products(a, kmax):
    """(1/n) trace((A/sqrt(n))^k) for k = 1..kmax, forming every power."""
    n = a.shape[0]
    scaled = a / np.sqrt(n)
    power = scaled.copy()
    out = [float(np.trace(power)) / n]
    for _ in range(2, kmax + 1):
        power = power @ scaled
        out.append(float(np.trace(power)) / n)
    return out


def spectral_moments(a, kmax):
    """mean(lambda^k) for k = 1..kmax over the eigenvalues of A/sqrt(n)."""
    a = np.asarray(a, dtype=float)
    lam = np.linalg.eigvalsh(a) / np.sqrt(a.shape[0])
    return [float(np.mean(lam ** k)) for k in range(1, kmax + 1)]
