"""Monte Carlo spectral checks for scaled Markov random matrices.

A Markov matrix here is M = X - diag(row sums of X), where X is symmetric
with i.i.d. mean-zero variance-one entries on and above the diagonal; every
row of M sums to zero.  As the dimension grows, the empirical eigenvalue
distribution of M / sqrt(n) converges to the law whose even moments are
sum over pair partitions of 2^h(V) -- the free additive convolution of the
semicircle and standard normal laws, with moments 2, 9, 56, ... at orders
2, 4, 6: :func:`run_mc`'s targets, one ``markov_limit_moments`` read per run.

Empirical moments are taken from traces of matrix powers, of which only
about half are formed.  The matrices are symmetric, and so are their
powers: each even power is one product of its half power with its own
transpose, which numpy hands to BLAS syrk at half the cost of a general
product, and the higher traces are entrywise inner products of two formed
powers.  :func:`spectrum` is the package's one eigenvalue routine:
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


@dataclass(frozen=True)
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
    the seeded stream and mirrored, and the row sums are subtracted from
    the diagonal in place, all in one buffer; a given (n, dist, seed)
    always produces the same matrix, on any machine.  Dimensions above
    ``MAX_MATRIX_DIM`` raise :class:`SizeLimitError` before anything is
    allocated.
    """
    _check_limit("dimension", n)
    rng = Xorshift64Star(seed)
    vals = sample_entries(rng, dist, n * (n + 1) // 2)
    x = np.zeros((n, n))
    upper = np.triu(np.ones((n, n), dtype=bool))
    x[upper] = vals
    x.T[upper] = vals  # the mirror image; the diagonal is written twice
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
    the powers A^1..A^J are formed, except that for odd J >= 3 A^(J+1)
    takes the place of A^J.  An even power is P @ P.T for its half power P,
    which numpy sends to BLAS syrk (one triangle, half a general product);
    an odd power is A^(j-1) @ A.  A formed order is the trace of its power;
    any other order k is the entrywise inner product <A^i, A^(k-i)> of two
    formed powers, i as close to k/2 as they allow, which equals the trace
    because the powers are symmetric.  kmax = 6 forms A^2 and A^4, two
    syrk products and no general one.  Each power is dropped once nothing
    still to come reads it, so kmax <= 10 holds at most three n x n powers
    at once and kmax = 41 eight.

    A plain array must be square, finite and symmetric within
    ``rtol = atol = 1e-12``, as for :func:`spectrum`, or :class:`ValueError`
    is raised before any product; a :class:`SymMatrix` was checked when built.
    Either must be at least 1 x 1: a 0 x 0 matrix, for which :func:`spectrum`
    gives ``[]``, raises :class:`ValueError` too.  kmax above 41, the cap of
    :class:`McConfig` (half-size ``TABLE_MAX_N``), raises
    :class:`SizeLimitError` before the matrix is read.
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
    # order -> (i, j): <A^i, A^j> with i + j = k, taken once A^j is formed
    pairs = {k: next((i, k - i) for i in range(k // 2, 0, -1)
                     if i in formed and k - i in formed)
             for k in range(1, kmax + 1) if k not in formed}
    reads = [(q, j) for j in formed[1:] for q in ((j // 2,) if j % 2 == 0 else (j - 1, 1))]
    reads += [(q, j) for i, j in pairs.values() for q in (i, j)]
    last = {}  # power -> the step after which nothing reads it
    for q, j in reads:
        last[q] = max(last.get(q, 0), j)
    powers = {1: a / np.sqrt(n)}
    traces = [0.0] * kmax
    for j in formed:
        if j % 2 == 0:
            powers[j] = powers[j // 2] @ powers[j // 2].T
        elif j > 1:
            powers[j] = powers[j - 1] @ powers[1]
        traces[j - 1] = np.trace(powers[j])
        for k, (i, later) in pairs.items():
            if later == j:
                traces[k - 1] = np.vdot(powers[i], powers[j])
        for q in [q for q in powers if last.get(q, 0) <= j]:
            del powers[q]
    return [float(t) / n for t in traces]


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
