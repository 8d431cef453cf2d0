"""Monte Carlo spectral checks for scaled Markov random matrices.

A Markov matrix here is M = X - diag(row sums of X), where X is symmetric
with i.i.d. mean-zero variance-one entries on and above the diagonal; every
row of M sums to zero.  As the dimension grows, the empirical eigenvalue
distribution of M / sqrt(n) converges to the law whose even moments are
sum over pair partitions of 2^h(V) -- the free additive convolution of the
semicircle and standard normal laws, with moments 2, 9, 56, ... at orders
2, 4, 6.

Empirical moments are taken from traces of matrix powers (the eigensolver
is kept as an independent cross-check and for histogram export).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments as moments_mod
from .exceptions import SizeLimitError
from .jacobi import jacobi_eigenvalues
from .pairings import DEFAULT_MAX_N
from .rng import Xorshift64Star, substream_seed

ENTRY_DISTRIBUTIONS = ("rademacher", "gaussian")


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
        if self.n < 2:
            raise ValueError("matrix dimension n must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
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
    matrix, on any machine.
    """
    if n < 2:
        raise ValueError("matrix dimension n must be >= 2")
    rng = Xorshift64Star(seed)
    vals = sample_entries(rng, dist, n * (n + 1) // 2)
    x = np.zeros((n, n))
    iu = np.triu_indices(n)
    x[iu] = vals
    x = x + x.T - np.diag(np.diag(x))
    m = x - np.diag(x.sum(axis=1))
    return SymMatrix(m)


def empirical_moments(m: SymMatrix | np.ndarray, kmax: int) -> list[float]:
    """Moments of the empirical spectral law of M / sqrt(n), orders 1..kmax.

    Computed as (1/n) trace((M/sqrt(n))^k) by iterated matrix products.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    a = m.matrix if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)
    n = a.shape[0]
    scaled = a / np.sqrt(n)
    power = scaled.copy()
    out = [float(np.trace(power)) / n]
    for _ in range(2, kmax + 1):
        power = power @ scaled
        out.append(float(np.trace(power)) / n)
    return out


def spectrum(m: SymMatrix | np.ndarray) -> list[float]:
    """Eigenvalues, ascending, via the shared cyclic Jacobi solver."""
    a = m.matrix if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)
    return jacobi_eigenvalues(a)


def spectral_moments(m: SymMatrix | np.ndarray, kmax: int) -> list[float]:
    """Eigenvalue-based oracle for :func:`empirical_moments`."""
    a = m.matrix if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)
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
        if cfg.trials > 1:
            stderr = float(col.std(ddof=1) / np.sqrt(cfg.trials))
        else:
            stderr = 0.0
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

    Returns (bin_left, bin_right, count) rows for CSV export.  Uses the
    Jacobi solver, so keep the dimension desk-scale (a few hundred).
    """
    a = m.matrix if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)
    n = a.shape[0]
    lam = np.array(spectrum(a)) / np.sqrt(n)
    counts, edges = np.histogram(lam, bins=bins)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]
