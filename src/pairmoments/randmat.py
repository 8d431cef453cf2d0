"""Monte Carlo spectral checks for scaled Markov random matrices.

A Markov matrix here is M = X - diag(row sums of X), where X is symmetric
with i.i.d. mean-zero variance-one entries on and above the diagonal; every
row of M sums to zero.  As the dimension grows, the empirical eigenvalue
distribution of M / sqrt(n) converges to the law whose even moments are
sum over pair partitions of 2^h(V) -- the free additive convolution of the
semicircle and standard normal laws, with moments 2, 9, 56, ... at orders
2, 4, 6.

Empirical moments are taken from traces of matrix powers.  :func:`spectrum`
is the package's one eigenvalue routine: LAPACK's symmetric solver
(``numpy.linalg.eigvalsh``) behind an explicit symmetry check.  It serves the
Hankel and group-kernel positivity tests, the eigenvalue cross-check of the
trace path and the histogram export.  Matrix dimensions stop at
``MAX_MATRIX_DIM``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments as moments_mod
from .exceptions import SizeLimitError
from .pairings import DEFAULT_MAX_N
from .rng import Xorshift64Star, substream_seed

ENTRY_DISTRIBUTIONS = ("rademacher", "gaussian")

#: Largest Markov matrix dimension sampled; at 2000 one dense float matrix
#: is 32 MB, and sampling, kmax = 6 trace powers and the spectrum together
#: peak below 200 MB.
MAX_MATRIX_DIM = 2000


def _check_dimension(n: int) -> None:
    if n < 2:
        raise ValueError("matrix dimension n must be >= 2")
    if n > MAX_MATRIX_DIM:
        raise SizeLimitError(
            f"matrix dimension {n} exceeds the cap MAX_MATRIX_DIM = {MAX_MATRIX_DIM}"
        )


@dataclass(frozen=True)
class SymMatrix:
    """A dense real symmetric matrix; treat the array as read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        a = self.matrix
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix must be symmetric")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class McConfig:
    """Parameters of one Monte Carlo run."""

    n: int
    trials: int
    kmax: int
    dist: str = "rademacher"
    seed: int = 0

    def __post_init__(self):
        _check_dimension(self.n)
        if self.trials < 2:
            raise ValueError("trials must be >= 2 (the standard error needs two)")
        if self.kmax < 2:
            raise ValueError("kmax must be >= 2")
        if self.kmax // 2 > DEFAULT_MAX_N:
            raise SizeLimitError(
                f"kmax {self.kmax} needs exact targets up to half-size {self.kmax // 2}, "
                f"above the enumeration cap {DEFAULT_MAX_N}"
            )
        if self.dist not in ENTRY_DISTRIBUTIONS:
            raise ValueError(f"dist must be one of {ENTRY_DISTRIBUTIONS}")


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
    the seeded stream, so a given (n, dist, seed) always produces the same
    matrix, on any machine.  Dimensions above ``MAX_MATRIX_DIM`` raise
    :class:`SizeLimitError` before anything is allocated.
    """
    _check_dimension(n)
    rng = Xorshift64Star(seed)
    vals = sample_entries(rng, dist, n * (n + 1) // 2)
    x = np.zeros((n, n))
    iu = np.triu_indices(n)
    x[iu] = vals
    x = x + x.T - np.diag(np.diag(x))
    m = x - np.diag(x.sum(axis=1))
    return SymMatrix(m)


def _array(m: SymMatrix | np.ndarray) -> np.ndarray:
    return m.matrix if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)


def empirical_moments(m: SymMatrix | np.ndarray, kmax: int) -> list[float]:
    """Moments of the empirical spectral law of M / sqrt(n), orders 1..kmax.

    Computed as (1/n) trace((M/sqrt(n))^k) by iterated matrix products.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    a = _array(m)
    n = a.shape[0]
    scaled = a / np.sqrt(n)
    power = scaled.copy()
    out = [float(np.trace(power)) / n]
    for _ in range(2, kmax + 1):
        power = power @ scaled
        out.append(float(np.trace(power)) / n)
    return out


def spectrum(m: SymMatrix | np.ndarray) -> list[float]:
    """Eigenvalues of a real symmetric matrix, ascending, as Python floats.

    ``eigvalsh`` reads one triangle only, so a matrix that is not square, or
    not symmetric within ``rtol = atol = 1e-12``, raises :class:`ValueError`
    rather than getting the spectrum of a matrix it is not; so does a NaN or
    infinite entry.  Integer input is accepted; a 0 x 0 matrix gives ``[]``.
    """
    a = _array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.allclose(a, a.T, rtol=1e-12, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(a).tolist()


def spectral_moments(m: SymMatrix | np.ndarray, kmax: int) -> list[float]:
    """Eigenvalue-based oracle for :func:`empirical_moments`."""
    a = _array(m)
    n = a.shape[0]
    lam = np.array(spectrum(a)) / np.sqrt(n)
    return [float(np.mean(lam ** k)) for k in range(1, kmax + 1)]


def target_moment(k: int) -> float:
    """Limit moment of order k: 0 for odd k, sum of 2^h(V) for even k."""
    if k % 2 == 1:
        return 0.0
    return float(moments_mod.markov_limit_moments(k // 2).moment(k))


def run_mc(cfg: McConfig, z_limit: float = 4.0, odd_sigma: float = 3.0) -> McReport:
    """Average empirical moments over independent trials and compare to targets.

    Trial t uses the substream seed derived from (cfg.seed, t); trials are
    accumulated in index order, so the report is identical however the work
    is scheduled.  Even moments pass when |z| <= z_limit against the exact
    limit values; odd moments pass when |mean| <= odd_sigma * stderr.
    """
    samples = np.empty((cfg.trials, cfg.kmax))
    for t in range(cfg.trials):
        m = sample_markov(cfg.n, cfg.dist, substream_seed(cfg.seed, t))
        samples[t, :] = empirical_moments(m, cfg.kmax)

    rows = []
    even_ok = True
    odd_ok = True
    for k in range(1, cfg.kmax + 1):
        col = samples[:, k - 1]
        mean = float(col.mean())
        stderr = float(col.std(ddof=1) / np.sqrt(cfg.trials))
        target = target_moment(k)
        if stderr > 0:
            z = (mean - target) / stderr
        else:
            z = 0.0 if mean == target else float("inf")
        if k % 2 == 0:
            passed = abs(z) <= z_limit
            even_ok = even_ok and passed
        else:
            passed = abs(mean) <= odd_sigma * stderr
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
    a = _array(m)
    n = a.shape[0]
    lam = np.array(spectrum(a)) / np.sqrt(n)
    counts, edges = np.histogram(lam, bins=bins)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]
