"""Reference values the benchmark checks answers against.

Nothing here imports pairmoments: every value comes from a closed form, a
recurrence or a brute-force walk written from the definitions, so a fault
in the library cannot also hide in its own check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def double_factorial(n: int) -> int:
    """(2n-1)!!, the number of pair partitions of 2n points."""
    return math.prod(range(1, 2 * n, 2))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def ternary(n: int) -> int:
    """C(3n, n) / (2n + 1): even non-crossing partitions of 2n points."""
    return math.comb(3 * n, n) // (2 * n + 1)


def riordan_connected(nmax: int) -> list[int]:
    """Connected pairing counts c_2 .. c_{2 nmax} by Riordan's recurrence."""
    c = [0, 1]
    for n in range(1, nmax):
        c.append(n * sum(c[i] * c[n + 1 - i] for i in range(1, n + 1)))
    return c[1:nmax + 1]


def singleton_total(n: int) -> int:
    """Sum of h over all pair partitions: n * sum_k p_{2k} p_{2(n-1-k)}."""
    return n * sum(double_factorial(k) * double_factorial(n - 1 - k) for k in range(n))


def touchard_riordan(n: int, q) -> object:
    """Sum of q^cr over pair partitions of 2n points.

    Dyck paths of length 2n where a down-step from height j weighs
    [j]_q = 1 + q + ... + q^(j-1) (the q-Gaussian continued fraction).
    """
    row = {0: 1}
    for _ in range(2 * n):
        nxt: dict = {}
        for height, weight in row.items():
            nxt[height + 1] = nxt.get(height + 1, 0) + weight
            if height:
                step = sum(q ** i for i in range(height))
                nxt[height - 1] = nxt.get(height - 1, 0) + weight * step
        row = nxt
    return row.get(0, 0)


def _power_coeff(m: list, power: int, degree: int):
    """[w^degree] of (sum_i m[i] w^i)^power, with m[0] = 1."""
    series = [1] + [0] * degree
    for _ in range(power):
        series = [
            sum(series[i] * m[d - i] for i in range(d + 1)) for d in range(degree + 1)
        ]
    return series[degree]


def moments_from_cumulants(r: list) -> list:
    """Even moments m_2..m_2N from even free cumulants r_2..r_2N.

    Uses the functional equation M(w) = 1 + sum_s r_2s w^s M(w)^(2s), which
    shares no code or enumeration with the library's partition tables.
    """
    m = [1]
    for n in range(1, len(r) + 1):
        m.append(sum(r[s - 1] * _power_coeff(m, 2 * s, n - s) for s in range(1, n + 1)))
    return m[1:]


def cumulants_from_moments(moments: list) -> list:
    """Inverse of :func:`moments_from_cumulants` by the same equation."""
    m = [1] + list(moments)
    r: list = []
    for n in range(1, len(moments) + 1):
        rest = sum(r[s - 1] * _power_coeff(m, 2 * s, n - s) for s in range(1, n))
        r.append(m[n] - rest)
    return r


def family_cumulants(family: str, param, nmax: int) -> list:
    """Sums of a strongly multiplicative weight over connected pairings.

    const: c_2k; scc (s^(n-cc)): s^(k-1) c_2k; bH (b^(n-h)): 1 at k = 1,
    b^k c_2k after; betah (beta^h): beta at k = 1, c_2k after; qcr (q^cr):
    the free cumulants of the Touchard-Riordan moments.
    """
    c = riordan_connected(nmax)
    if family == "const":
        return c
    if family == "scc":
        return [param ** (k - 1) * c[k - 1] for k in range(1, nmax + 1)]
    if family == "bH":
        return [1] + [param ** k * c[k - 1] for k in range(2, nmax + 1)]
    if family == "betah":
        return [param] + c[1:]
    if family == "qcr":
        return cumulants_from_moments([touchard_riordan(k, param) for k in range(1, nmax + 1)])
    raise ValueError(f"unknown family {family!r}")


def family_moments(family: str, param, nmax: int) -> list:
    if family == "qcr":
        return [touchard_riordan(k, param) for k in range(1, nmax + 1)]
    return moments_from_cumulants(family_cumulants(family, param, nmax))


def mixture_cumulants(family: str, param, b, nmax: int) -> list:
    """Free cumulants of sqrt(b) X + sqrt(1-b) S for a weight normalized at one pair."""
    w = family_cumulants(family, param, nmax)
    return [1] + [b ** k * w[k - 1] for k in range(2, nmax + 1)]


# --- pair partitions from the definitions ----------------------------------


def _pairings(points: tuple):
    if not points:
        yield ()
        return
    first = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1:]
        for tail in _pairings(rest):
            yield ((first, points[i]),) + tail


def chord_statistics(blocks: tuple) -> tuple[int, int, int]:
    """(cr, h, cc) of one pairing from quadruple inspection and union-find."""
    n = len(blocks)
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    crossed = [False] * n
    cr = 0
    for i, j in itertools.combinations(range(n), 2):
        (a, b), (x, y) = blocks[i], blocks[j]
        if a < x < b < y or x < a < y < b:
            cr += 1
            crossed[i] = crossed[j] = True
            root[find(i)] = find(j)
    h = crossed.count(False)
    cc = len({find(i) for i in range(n)})
    return cr, h, cc


def weight(family: str, param, n: int, cr: int, h: int, cc: int):
    if family == "const":
        return 1
    if family == "qcr":
        return param ** cr
    if family == "scc":
        return param ** (n - cc)
    if family == "bH":
        return param ** (n - h)
    if family == "betah":
        return param ** h
    raise ValueError(f"unknown family {family!r}")


def mixed_moment(family: str, param, gram: list) -> object:
    """Sum over pairings V of t(V) * prod over blocks of gram[i][j]."""
    k = len(gram)
    total = 0
    for blocks in _pairings(tuple(range(k))):
        cr, h, cc = chord_statistics(blocks)
        term = weight(family, param, k // 2, cr, h, cc)
        for i, j in blocks:
            term *= gram[i][j]
        total += term
    return total


# --- symmetric groups -------------------------------------------------------


def group_h(n: int) -> np.ndarray:
    """Isolated fixed points of every element of S(n), lexicographic order."""
    out = []
    for perm in itertools.permutations(range(n)):
        count, top = 0, -1
        for k, img in enumerate(perm):
            if img == k and top == k - 1:
                count += 1
            top = max(top, img)
        out.append(count)
    return np.array(out, dtype=float)


def group_kernel(n: int, values: np.ndarray) -> np.ndarray:
    """[values(a^-1 b)] over S(n), for a function given by its value per element."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    inverses = [tuple(sorted(range(n), key=p.__getitem__)) for p in perms]
    # (a^-1 b)(i) = a^-1(b(i))
    idx = [[index[tuple(inv[j] for j in b)] for b in perms] for inv in inverses]
    return values[np.array(idx)]


def min_eig(matrix) -> float:
    return float(np.linalg.eigvalsh(np.asarray(matrix, dtype=float))[0])


def hankel(moments) -> np.ndarray:
    """[m_{i+j}] with m_0 = 1 and odd moments 0, as floats."""
    full = [1.0]
    for value in moments:
        full += [0.0, float(value)]
    size = len(moments) + 1
    return np.array([[full[i + j] for j in range(size)] for i in range(size)])
