"""Moment calculus for symmetric laws built from pair-partition weights.

All laws here are symmetric, so odd moments and odd free cumulants vanish
identically and sequences carry even orders only: ``values[k]`` is the
moment (or cumulant) of order 2(k+1).

The central transform pair runs over non-crossing set partitions with all
blocks of even size: moments are sums over such partitions of products of
cumulants, and cumulants are recovered by recursive subtraction.  Everything
is exact when inputs are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterator, Sequence

from . import pairings
from .exceptions import DualPathMismatchError, SizeLimitError
from .pairings import DEFAULT_MAX_N, HARD_MAX_N
from .weights import (
    Constant1,
    Number,
    SingletonCountPower,
    WeightSpec,
    is_exact,
    numbers_equal,
)


@dataclass(frozen=True)
class MomentSequence:
    """Even moments m_2, m_4, ..., m_{2N} of a symmetric law."""

    values: tuple[Number, ...]

    @property
    def order(self) -> int:
        """Largest half-order N."""
        return len(self.values)

    def moment(self, k: int) -> Number:
        """Moment of any order k <= 2N; odd orders are structurally zero."""
        if k == 0:
            return 1
        if k % 2 == 1:
            return 0
        if k > 2 * self.order:
            raise ValueError(f"moment of order {k} not stored (max {2 * self.order})")
        return self.values[k // 2 - 1]

    def truncate(self, n: int) -> "MomentSequence":
        if n > self.order:
            raise ValueError(f"cannot extend to N={n} (have {self.order})")
        return MomentSequence(self.values[:n])


@dataclass(frozen=True)
class CumulantSequence:
    """Even free cumulants r_2, r_4, ..., r_{2N} of a symmetric law."""

    values: tuple[Number, ...]

    @property
    def order(self) -> int:
        return len(self.values)

    def cumulant(self, k: int) -> Number:
        if k % 2 == 1:
            return 0
        if k == 0 or k > 2 * self.order:
            raise ValueError(f"cumulant of order {k} not stored (max {2 * self.order})")
        return self.values[k // 2 - 1]

    def truncate(self, n: int) -> "CumulantSequence":
        if n > self.order:
            raise ValueError(f"cannot extend to N={n} (have {self.order})")
        return CumulantSequence(self.values[:n])


@dataclass(frozen=True)
class GramMatrix:
    """A symmetric matrix of inner products, exact-arithmetic friendly."""

    entries: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        k = len(self.entries)
        for row in self.entries:
            if len(row) != k:
                raise ValueError("Gram matrix must be square")
        for i in range(k):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Number]]) -> "GramMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Number:
        i, j = ij
        return self.entries[i][j]


def _partitions(total: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    # Integer partitions of `total` into parts >= `least`, parts ascending.
    if total == 0:
        yield ()
    for part in range(least, total + 1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


@lru_cache(maxsize=None)
def _nc_even_type_counts(
    k: int, max_n: int = HARD_MAX_N
) -> tuple[tuple[tuple[int, ...], int], ...]:
    # How many even non-crossing partitions of {1..k} exist per multiset of
    # block sizes; enough to evaluate any product over blocks of r_{|B|}.
    # Kreweras (Discrete Math. 1, 1972): the non-crossing partitions of
    # {1..k} with b blocks, m_j of them of size j, number
    # k! / ((k - b + 1)! * prod_j m_j!).
    if k % 2 != 0 or k < 0:
        raise ValueError(f"ground-set size must be even and >= 0, got {k}")
    if k > 2 * max_n:
        raise SizeLimitError(
            f"even non-crossing type table capped at {2 * max_n} points, got {k}"
        )
    table = []
    for halves in _partitions(k // 2):
        sizes = tuple(2 * h for h in halves)
        denominator = factorial(k - len(sizes) + 1)
        for s in set(sizes):
            denominator *= factorial(sizes.count(s))
        table.append((sizes, factorial(k) // denominator))
    return tuple(sorted(table))


def _table_sums(
    n: int,
    max_n: int,
    summand: Callable[[int, int, int, int, int], Number],
    *,
    connected_only: bool = False,
) -> tuple[Number, ...]:
    # For k = 1..n, the sum of summand(k, cr, h, cc, count) over the cells of
    # the exact joint (cr, h, cc) table of P2(2k) (only cc = 1 cells when
    # connected_only), in sorted cell order.
    values = []
    for k in range(1, n + 1):
        dist = pairings.statistic_distribution(k, max_n=max_n)
        total = 0
        for (cr, h, cc), count in sorted(dist.counts.items()):
            if cc == 1 or not connected_only:
                total = total + summand(k, cr, h, cc, count)
        values.append(total)
    return tuple(values)


def moments_from_cumulants(
    r: CumulantSequence, *, max_n: int = HARD_MAX_N
) -> MomentSequence:
    """m_{2n} = sum over even non-crossing partitions of prod_B r_{|B|}.

    Runs over any ring with +, - and * (Fraction, float, integer
    polynomials); orders above 2 * max_n raise :class:`SizeLimitError`.
    """
    values = []
    for n in range(1, r.order + 1):
        total = 0
        for sizes, count in _nc_even_type_counts(2 * n, max_n):
            prod = count
            for s in sizes:
                prod = prod * r.cumulant(s)
            total = total + prod
        values.append(total)
    return MomentSequence(tuple(values))


def cumulants_from_moments(
    m: MomentSequence, *, max_n: int = HARD_MAX_N
) -> CumulantSequence:
    """Invert the free moment-cumulant relation by recursive subtraction.

    r_{2n} is m_{2n} minus the contribution of every even non-crossing
    partition with more than one block; those involve cumulants of strictly
    lower order only.  Same rings and cap as :func:`moments_from_cumulants`.
    """
    r: list[Number] = []
    for n in range(1, m.order + 1):
        rest = 0
        lower = CumulantSequence(tuple(r))  # multi-block partitions only need orders < 2n
        for sizes, count in _nc_even_type_counts(2 * n, max_n):
            if len(sizes) == 1:
                continue
            prod = count
            for s in sizes:
                prod = prod * lower.cumulant(s)
            rest = rest + prod
        r.append(m.moment(2 * n) - rest)
    return CumulantSequence(tuple(r))


def free_convolve(a: MomentSequence, b: MomentSequence, n: int | None = None) -> MomentSequence:
    """Moments of the free additive convolution: cumulants add entrywise."""
    if n is None:
        n = min(a.order, b.order)
    if a.order < n or b.order < n:
        raise ValueError(f"both inputs must be defined to order 2N={2 * n}")
    ra = cumulants_from_moments(a.truncate(n))
    rb = cumulants_from_moments(b.truncate(n))
    summed = CumulantSequence(tuple(x + y for x, y in zip(ra.values, rb.values)))
    return moments_from_cumulants(summed)


def dilate(m: MomentSequence, lam: float) -> MomentSequence:
    """Moments of the pushforward under x -> lam * x:  m_{2n} -> lam^{2n} m_{2n}."""
    if lam <= 0:
        raise ValueError("dilation factor must be positive")
    return dilate_sq(m, lam * lam)


def dilate_sq(m: MomentSequence, lam_sq: Number) -> MomentSequence:
    """Same as :func:`dilate` with the squared factor given directly.

    Only lam**2 ever enters even moments, so passing it as an exact rational
    keeps the whole pipeline exact (e.g. dilation by sqrt(b)).
    """
    return MomentSequence(
        tuple(lam_sq ** n * v for n, v in enumerate(m.values, start=1))
    )


def semicircle_moments(n: int) -> MomentSequence:
    """Even moments of the standard semicircle law: the Catalan numbers."""
    return MomentSequence(tuple(pairings.count_nc_pairings(k) for k in range(1, n + 1)))


def gaussian_moments(n: int) -> MomentSequence:
    """Even moments of the standard normal law: (2k-1)!!."""
    return MomentSequence(tuple(pairings.pairing_count(k) for k in range(1, n + 1)))


def moments_of_weight(
    spec: WeightSpec, n: int, *, max_n: int = DEFAULT_MAX_N
) -> MomentSequence:
    """m_{2k} = sum over all pair partitions of the weight, for k = 1..n.

    Weights depend on partitions only through (cr, h, cc), so the sum runs
    over the cached exact joint distribution rather than the raw stream.
    """
    return MomentSequence(_table_sums(
        n, max_n, lambda k, cr, h, cc, count: count * spec.weight_of(k, cr, h, cc)))


def cumulants_from_connected(
    spec: WeightSpec, n: int, *, max_n: int = DEFAULT_MAX_N
) -> CumulantSequence:
    """r_{2k} = sum of the weight over pair partitions with connected crossing graph."""
    return CumulantSequence(_table_sums(
        n, max_n, lambda k, cr, h, cc, count: count * spec.weight_of(k, cr, h, cc),
        connected_only=True))


def markov_limit_moments(n: int, *, max_n: int = DEFAULT_MAX_N) -> MomentSequence:
    """Even moments of the scaled Markov-matrix limit law: sum over V of 2^h(V).

    Equals the free additive convolution of the semicircle and normal laws;
    the first three values are 2, 9, 56.
    """
    return moments_of_weight(SingletonCountPower(2), n, max_n=max_n)


def mixed_moment(
    spec: WeightSpec, gram: GramMatrix, *, max_n: int = DEFAULT_MAX_N
) -> Number:
    """Joint moment of a weight against a Gram matrix of inner products.

    Zero for odd size; otherwise the weighted sum over pair partitions of the
    products of paired inner products.  Entries are indexed 0-based.
    """
    k = gram.size
    if k % 2 == 1:
        return 0
    if k == 0:
        return 1
    n = k // 2
    total = 0
    for blocks, cr, h, cc in pairings.iter_statistics(n, with_blocks=True, max_n=max_n):
        term = spec.weight_of(n, cr, h, cc)
        for i, j in blocks:
            term = term * gram[i - 1, j - 1]
        total = total + term
    return total


def semicircle_mix_moments(
    spec: WeightSpec,
    b: Number,
    n: int,
    *,
    max_n: int = DEFAULT_MAX_N,
    tol: float = 1e-9,
) -> MomentSequence:
    """Moments of sqrt(b) * X + sqrt(1-b) * S with S a free semicircle.

    Two independent paths are always computed and compared: the direct sum
    of b**H(V) times the weight over all pair partitions, and the free
    convolution of the sqrt(b)-dilated law of X with the sqrt(1-b)-dilated
    semicircle.  The caller is expected to pass a strongly multiplicative
    weight (see :func:`pairmoments.weights.check_strong_multiplicativity`);
    the dual-path agreement is exactly the statement being exercised.

    Raises :class:`DualPathMismatchError` if the paths disagree (exact
    comparison when b and the weight parameters are rational).
    """
    if not 0 <= b <= 1:
        raise ValueError(f"mixing parameter b must lie in [0, 1], got {b}")
    path_a = MomentSequence(_table_sums(
        n, max_n,
        lambda k, cr, h, cc, count: count * b ** (k - h) * spec.weight_of(k, cr, h, cc)))

    base = moments_of_weight(spec, n, max_n=max_n)
    one = Fraction(1) if is_exact(b) else 1.0
    path_b = free_convolve(
        dilate_sq(base, b),
        dilate_sq(semicircle_moments(n), one - b),
        n,
    )
    for va, vb in zip(path_a.values, path_b.values):
        if not numbers_equal(va, vb, rel_tol=0, abs_tol=tol):
            raise DualPathMismatchError(
                f"mixture moment paths disagree: {va} vs {vb}",
                path_a=path_a,
                path_b=path_b,
            )
    return path_a


@dataclass(frozen=True)
class SemigroupReport:
    """Two-sided comparison of the mixing-parameter semigroup identity."""

    passed: bool
    b: Number
    c: Number
    lhs: MomentSequence
    rhs: MomentSequence
    max_abs_diff: float

    def __bool__(self) -> bool:
        return self.passed


def check_mix_semigroup(
    b: Number, c: Number, n: int, *, max_n: int = DEFAULT_MAX_N, tol: float = 1e-9
) -> SemigroupReport:
    """Check that mixing by b then by c equals mixing once by b*c.

    lhs: moments of the (b*c)-mixture of the normal law with the semicircle.
    rhs: sqrt(c)-dilation of the b-mixture, freely convolved with the
    sqrt(1-c)-dilated semicircle.
    """
    for name, val in (("b", b), ("c", c)):
        if not 0 <= val <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {val}")
    lhs = semicircle_mix_moments(Constant1(), b * c, n, max_n=max_n)
    rho_b = semicircle_mix_moments(Constant1(), b, n, max_n=max_n)
    one = Fraction(1) if is_exact(c) else 1.0
    rhs = free_convolve(
        dilate_sq(rho_b, c),
        dilate_sq(semicircle_moments(n), one - c),
        n,
    )
    pairs = list(zip(lhs.values, rhs.values))
    passed = all(numbers_equal(x, y, rel_tol=0, abs_tol=tol) for x, y in pairs)
    diffs = [abs(x - y) for x, y in pairs]
    return SemigroupReport(passed, b, c, lhs, rhs, float(max(diffs, default=0)))


def hankel_psd(m: MomentSequence, tol: float = 1e-10) -> tuple[bool, float]:
    """Positivity evidence for a candidate moment sequence.

    Builds the (N+1) x (N+1) Hankel matrix [m_{i+j}] with m_0 = 1 and odd
    entries 0, and reports whether its minimum eigenvalue clears
    ``-tol * (1 + max |entry|)``.  Passing this test is a necessary
    condition for being the moment sequence of some symmetric probability
    measure, not a sufficient one.
    """
    from .randmat import spectrum  # randmat imports this module

    size = m.order + 1
    rows = [[float(m.moment(i + j)) for j in range(size)] for i in range(size)]
    min_eig = spectrum(rows)[0]
    scale = 1.0 + max(abs(rows[i][j]) for i in range(size) for j in range(size))
    return min_eig >= -tol * scale, min_eig
