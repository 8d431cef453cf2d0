"""Monte Carlo spectral checks for scaled Markov random matrices.

A Markov matrix here is M = X - diag(row sums of X), where X is symmetric
with i.i.d. mean-zero variance-one entries on and above the diagonal; every
row of M sums to zero.  As the dimension grows, the empirical eigenvalue
distribution of M / sqrt(n) converges to the law whose even moments are
sum over pair partitions of 2^h(V) -- the free additive convolution of the
semicircle and standard normal laws, with moments 2, 9, 56, ... at orders
2, 4, 6: :func:`run_mc`'s targets, one ``markov_limit_moments`` read per run.

Empirical moments are taken from traces of matrix powers, of which only
about half are formed, and never the highest.  The matrices are
symmetric, and so are their powers: each even power is one product of its
half power with its own transpose, which numpy hands to BLAS syrk at half
the cost of a general product, and the higher traces are entrywise inner
products of two powers.  The highest power is read in row strips of
``_STRIP_ROWS`` rows: kmax <= 4 forms no n x n power, kmax = 6 holds the
input, A^2 and one strip, kmax <= 10 at most three powers besides the
input and a strip, and kmax = 41 seven.  A moment that overflows float64
raises ``ValueError`` naming its order.
:func:`spectrum` is the package's one eigenvalue routine:
LAPACK's symmetric solver (``numpy.linalg.eigvalsh``) behind an explicit
symmetry check, which the trace path shares.  It serves the Hankel and
group-kernel positivity tests and the histogram export.  Matrix
dimensions stop at ``MAX_MATRIX_DIM``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments as moments_mod
from .exceptions import (ENTRY_DISTRIBUTIONS, MAX_BINS, MAX_MATRIX_DIM, MAX_TRIALS, _check_integer,
                         _check_least, _check_limit)
from .rng import Xorshift64Star, substream_seed

#: :func:`run_mc`'s pass rules: an even moment passes when |z| <= Z_LIMIT
#: against its limit value, an odd one when |mean| <= ODD_SIGMA * stderr.
Z_LIMIT = 4.0
ODD_SIGMA = 3.0

#: Rows per strip of the highest power in :func:`empirical_moments`: a
#: strip is at most 128 x n floats, 1 MB at n = 1000.
_STRIP_ROWS = 128


@dataclass(frozen=True, eq=False)  # equal and hashed by identity: the array is neither
class SymMatrix:
    """A real symmetric matrix: the finite float array checked when built; treat as read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _checked_symmetric(self.matrix, tol=0.0))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _symmetric(a: np.ndarray) -> SymMatrix:
    # Internal constructor for square arrays that are symmetric by
    # construction; skips the O(n^2) checks and their n x n bool temporaries.
    obj = object.__new__(SymMatrix)
    obj.__dict__.update(matrix=a)
    return obj


@dataclass(frozen=True)
class McConfig:
    """Parameters of one Monte Carlo run."""

    n: int
    trials: int
    kmax: int
    dist: str = "rademacher"
    seed: int = 0

    def __post_init__(self):
        _check_limit("dimension", self.n)
        _check_limit("trials", self.trials)  # the standard error needs two
        _check_least(self.kmax, 2, "kmax")
        _check_limit("table", self.kmax // 2)  # the exact target of order kmax
        if self.dist not in ENTRY_DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {ENTRY_DISTRIBUTIONS}")
        _check_integer(self.seed, "seed")  # any sign: mix64 reads it mod 2^64
        object.__setattr__(self, "seed", int(self.seed))  # numpy's as a Python int

    def _trial_matrix(self, t: int) -> SymMatrix:
        # trial t's matrix, the one rule for run_mc and the CLI's --hist
        return sample_markov(self.n, self.dist, substream_seed(self.seed, t))


@dataclass(frozen=True)
class MomentRow:
    """Summary of one empirical moment order across trials."""

    k: int
    mean: float
    stderr: float
    target: float
    z: float
    passed: bool


@dataclass(frozen=True)
class McReport:
    config: McConfig
    rows: tuple[MomentRow, ...]
    even_pass: bool
    odd_pass: bool

    @property
    def passed(self) -> bool:
        return self.even_pass and self.odd_pass


def sample_entries(rng: Xorshift64Star, dist: str, count: int) -> np.ndarray:
    if dist == "rademacher":
        return rng.rademacher(count)
    if dist == "gaussian":
        return rng.normals(count)
    raise ValueError(f"unknown entry distribution {dist!r}")


def sample_markov(n: int, dist: str = "rademacher", seed: int = 0) -> SymMatrix:
    """One Markov matrix M = X - diag(row sums), rows summing to zero.

    The upper triangle of X (diagonal included) is filled row by row from
    one draw of the seeded stream, each row mirrored down its column as it
    is written, and the row sums are subtracted from the diagonal in place,
    all in one buffer; a given (n, dist, seed) always produces the same
    matrix, on any machine.  Dimensions above
    ``MAX_MATRIX_DIM`` raise :class:`SizeLimitError` before anything is
    allocated.
    """
    _check_limit("dimension", n)
    rng = Xorshift64Star(seed)
    vals = sample_entries(rng, dist, n * (n + 1) // 2)
    x = np.empty((n, n))
    start = 0
    for i in range(n):  # row i's upper part, and its mirror down column i
        row = vals[start:start + n - i]
        x[i, i:] = row
        x[i:, i] = row  # the diagonal entry is written twice
        start += n - i
    x.flat[::n + 1] -= x.sum(axis=1)
    return _symmetric(x)


def _checked_symmetric(m: SymMatrix | np.ndarray, tol: float = 1e-12) -> np.ndarray:
    # The one matrix reader: a SymMatrix as built; anything else is read as
    # floats, square, finite and symmetric within rtol = atol = tol (0: exactly)
    if isinstance(m, SymMatrix):
        return m.matrix
    a = np.asanyarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.allclose(a, a.T, rtol=tol, atol=tol):
        raise ValueError("matrix must be symmetric")
    return a


def empirical_moments(m: SymMatrix | np.ndarray, kmax: int) -> list[float]:
    """Moments of the empirical spectral law of M / sqrt(n), orders 1..kmax.

    Computed as (1/n) trace(A^k) with A = M/sqrt(n).  With J = ceil(kmax/2),
    the orders 1..J are taken as powers, except that for odd J >= 3 the
    order J+1 takes the place of J; the highest, top, is then even or 1.
    M itself stands for A, its 1/sqrt(n) carried as a scalar on each trace
    and inner product, so A is never copied.  An even power is P @ P.T for
    its half power P, which numpy sends to BLAS syrk (one triangle, half a
    general product), and A^2 = (M @ M.T) / n is scaled in place; an odd
    power is A^(j-1) @ M, scaled in place by 1/sqrt(n).  A^top is never
    formed: with H = A^(top/2) it is H @ H.T, and its trace and inner
    products are summed over row strips H[r0:r1] @ H[r0:].T of
    ``_STRIP_ROWS`` rows, the block on the diagonal once and the part right
    of it twice, since both factors are symmetric; that is syrk's flop
    count.  Any other order k is the entrywise inner product <A^i, A^(k-i)>
    of two powers, i as close to k/2 as they allow, which equals the trace
    because the powers are symmetric.  kmax <= 4 forms no n x n power and
    kmax = 6 forms A^2 alone.  Each power is dropped once nothing still to
    come reads it, so besides M and one strip kmax <= 10 holds at most
    three n x n powers at once and kmax = 41 seven.

    A plain array must be square, finite and symmetric within
    ``rtol = atol = 1e-12``, as for :func:`spectrum`, or :class:`ValueError`
    is raised before any product; a :class:`SymMatrix` was checked when built.
    Either must be at least 1 x 1: a 0 x 0 matrix, for which :func:`spectrum`
    gives ``[]``, raises :class:`ValueError` too.  So does a moment whose
    computation overflows float64: the error names the lowest such order
    (order 4 for a 3 x 3 matrix of entries 1e100, order 6 for 1e60).  kmax
    above 41, the cap of :class:`McConfig` (half-size ``TABLE_MAX_N``),
    raises :class:`SizeLimitError` before the matrix is read.
    """
    _check_least(kmax, 1, "kmax")
    _check_limit("table", max(kmax // 2, 1))
    a = _checked_symmetric(m)
    n = a.shape[0]
    if n == 0:
        raise ValueError("matrix must be at least 1 x 1: a 0 x 0 spectrum has no moments")
    half = (kmax + 1) // 2
    formed = list(range(1, half + 1))
    if half >= 3 and half % 2:
        formed[-1] += 1
    top = formed[-1]
    # order -> (i, j): <A^i, A^j> with i + j = k, taken once A^j is at hand
    pairs = {k: next((i, k - i) for i in range(k // 2, 0, -1)
                     if i in formed and k - i in formed)
             for k in range(1, kmax + 1) if k not in formed}
    reads = [(q, j) for j in formed[1:] for q in ((j // 2,) if j % 2 == 0 else (j - 1, 1))]
    reads += [(q, j) for i, j in pairs.values() for q in (i, j)]
    last = {}  # power -> the step after which nothing reads it
    for q, j in reads:
        last[q] = max(last.get(q, 0), j)
    sqrt_n = np.sqrt(n)
    # power q -> its array over A^q: M is sqrt(n) A, and top = 2 strips M @ M.T = n A^2
    carry = {1: sqrt_n, 2: float(n)} if top == 2 else {1: sqrt_n}
    powers = {1: a}
    traces = [0.0] * kmax
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is read off the results
        for j in formed:
            due = [(k, i) for k, (i, at) in pairs.items() if at == j]
            if j == top and j > 1:
                trace, inner = _strip_sums(powers[j // 2], [powers.get(i) for _, i in due])
            else:
                if j % 2 == 0:
                    powers[j] = powers[j // 2] @ powers[j // 2].T
                    if j == 2:
                        powers[j] /= n
                elif j > 1:
                    powers[j] = powers[j - 1] @ a
                    powers[j] /= sqrt_n
                trace = np.trace(powers[j])
                inner = [_inner(powers[i], powers[j]) for _, i in due]
            traces[j - 1] = trace / carry.get(j, 1.0)
            for (k, i), value in zip(due, inner):
                traces[k - 1] = value / carry.get(i, 1.0) / carry.get(j, 1.0)
            for q in [q for q in powers if last.get(q, 0) <= j]:
                del powers[q]
    out = [float(t) / n for t in traces]
    bad = next((k for k, t in enumerate(out, 1) if not np.isfinite(t)), None)
    if bad is not None:
        raise ValueError(f"the moment of order {bad} overflows float64")
    return out


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    # sum of x * y entrywise, for any strides and without a copy
    return np.einsum("ij,ij->", x, y)


def _strip_sums(h: np.ndarray, partners: list) -> tuple[float, list[float]]:
    """trace(T) and <P, T> for each partner P, with T = h @ h.T never formed.

    T is summed over row strips T[r0:r1, r0:] = h[r0:r1] @ h[r0:].T; every
    partner is symmetric, so the strip's diagonal block counts once and the
    part right of it twice.  A partner None stands for T itself.
    """
    n = len(h)
    trace = 0.0
    inner = [0.0] * len(partners)
    for r0 in range(0, n, _STRIP_ROWS):
        r1 = min(r0 + _STRIP_ROWS, n)
        strip = h[r0:r1] @ h[r0:].T
        d = r1 - r0
        trace += np.trace(strip)  # the diagonal block's
        views = [strip if p is None else p[r0:r1, r0:] for p in partners]
        inner = [acc + _inner(v[:, :d], strip[:, :d]) + 2 * _inner(v[:, d:], strip[:, d:])
                 for acc, v in zip(inner, views)]
        del strip, views  # before the next strip is allocated
    return trace, inner


def spectrum(m: SymMatrix | np.ndarray) -> list[float]:
    """Eigenvalues of a real symmetric matrix, ascending, as Python floats.

    ``eigvalsh`` reads one triangle only, so a matrix that is not square, or
    not symmetric within ``rtol = atol = 1e-12``, raises :class:`ValueError`
    rather than getting the spectrum of a matrix it is not; so does a NaN or
    infinite entry.  Entries are read as floats, a :class:`SymMatrix`'s as built;
    a 0 x 0 matrix gives ``[]``.
    """
    return np.linalg.eigvalsh(_checked_symmetric(m)).tolist()


def _psd_verdict(m, tol: float, scale_of=None) -> tuple[bool, float]:
    # (verdict, min eigenvalue of m); the verdict allows roundoff of
    # tol * (1 + max |entry|) below zero, the entry read off scale_of or m
    min_eig = spectrum(m)[0]
    scale = 1.0 + float(np.abs(m if scale_of is None else scale_of).max())
    return min_eig >= -tol * scale, min_eig


def run_mc(cfg: McConfig) -> McReport:
    """Average empirical moments over independent trials and compare to targets.

    Trial t uses the substream seed derived from (cfg.seed, t); trials are
    accumulated in index order, so the report is identical however the work
    is scheduled.  Even moments pass when |z| <= ``Z_LIMIT`` against the limit
    values, all read from one ``markov_limit_moments`` sequence; odd moments
    pass when |mean| <= ``ODD_SIGMA`` * stderr.
    """
    samples = np.empty((cfg.trials, cfg.kmax))
    for t in range(cfg.trials):
        samples[t, :] = empirical_moments(cfg._trial_matrix(t), cfg.kmax)

    limit = moments_mod.markov_limit_moments(cfg.kmax // 2)
    rows = []
    even_ok = True
    odd_ok = True
    for k in range(1, cfg.kmax + 1):
        col = samples[:, k - 1]
        mean = float(col.mean())
        stderr = float(col.std(ddof=1) / np.sqrt(cfg.trials))
        target = float(limit.moment(k))
        if stderr > 0:
            z = (mean - target) / stderr
        else:
            z = 0.0 if mean == target else float("inf")
        if k % 2 == 0:
            passed = abs(z) <= Z_LIMIT
            even_ok = even_ok and passed
        else:
            passed = abs(mean) <= ODD_SIGMA * stderr
            odd_ok = odd_ok and passed
        rows.append(MomentRow(k, mean, stderr, target, float(z), passed))
    return McReport(cfg, tuple(rows), even_ok, odd_ok)


def eigenvalue_histogram(
    m: SymMatrix | np.ndarray, bins: int = 50
) -> list[tuple[float, float, int]]:
    """Equal-width histogram of the spectrum of M / sqrt(n).

    Returns (bin_left, bin_right, count) rows for CSV export.  The
    eigenvalues come from :func:`spectrum`; at ``MAX_MATRIX_DIM`` they take
    under a second.
    """
    _check_limit("bins", bins)
    lam = np.array(spectrum(m))
    counts, edges = np.histogram(lam / np.sqrt(len(lam)), bins=bins)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


# The eigensolver under the name the benchmark traces (see jacobi.py), loaded
# here so that it is present wherever spectrum is.
from . import jacobi  # noqa: E402,F401
