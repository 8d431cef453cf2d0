"""Moment calculus for symmetric laws built from pair-partition weights.

All laws here are symmetric, so odd moments and odd free cumulants vanish
identically and sequences carry even orders only: ``values[k]`` is the
moment (or cumulant) of order 2(k+1).

The central transform pair runs over non-crossing set partitions with all
blocks of even size: moments are sums over such partitions of products of
cumulants, and cumulants are recovered by recursive subtraction.  Everything
is exact when inputs are rational.  Both ring-generic loops and Kreweras'
table of those partitions by block type live in :mod:`pairmoments.pairings`,
beside the joint table built on them; this module adds the sequence types,
the integer scaling below and the mixtures with the semicircle.  The sums
of a weight over the joint table live in :mod:`pairmoments.weights`.

Exact inputs are graded integer arithmetic.  The order-2k entry of a
product over an even non-crossing type has total weight k, so with D the
lcm of the denominators, a_k = x_2k * D^k is an int; the transforms run
over the a_k in Python ints and divide each output by D^k once.  Integral
types other than int, numpy's among them, are read as ints.  Floats, and
anything else that is not an int or a Fraction, take the same loops term
by term, so they round as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import inf, lcm
from typing import Callable, Sequence

from . import pairings
from .exceptions import DualPathMismatchError, _check_order
from .pairings import _cumulants_of, _moments_of
from .weights import (
    Constant1,
    Number,
    SingletonCountPower,
    WeightSpec,
    _EXACT,
    _as_int,
    _table_sums,
    is_exact,
    numbers_equal,
)


@dataclass(frozen=True)
class _EvenSequence:
    # The stored values and their length; subclasses add only accessors, so
    # they inherit the frozen dataclass's __init__, repr, equality and hash.
    values: tuple[Number, ...]

    @property
    def order(self) -> int:
        """Largest half-order N."""
        return len(self.values)

    def truncate(self, n: int):
        _check_order(n, table=False)
        if n > self.order:
            raise ValueError(f"cannot extend to N={n} (have {self.order})")
        return type(self)(self.values[:n])


class MomentSequence(_EvenSequence):
    """Even moments m_2, m_4, ..., m_{2N} of a symmetric law."""

    def moment(self, k: int) -> Number:
        """Moment of any order 0 <= k <= 2N; odd orders are structurally zero."""
        if k < 0:
            raise ValueError(f"moment order must be >= 0, got {k}")
        if k == 0:
            return 1
        if k % 2 == 1:
            return 0
        if k > 2 * self.order:
            raise ValueError(f"moment of order {k} not stored (max {2 * self.order})")
        return self.values[k // 2 - 1]


class CumulantSequence(_EvenSequence):
    """Even free cumulants r_2, r_4, ..., r_{2N} of a symmetric law."""

    def cumulant(self, k: int) -> Number:
        if k < 0:
            raise ValueError(f"cumulant order must be >= 0, got {k}")
        if k % 2 == 1:
            return 0
        if k == 0 or k > 2 * self.order:
            raise ValueError(f"cumulant of order {k} not stored (max {2 * self.order})")
        return self.values[k // 2 - 1]


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


def _on_one_scale(values: tuple, transform: Callable[[tuple], tuple]) -> tuple:
    # Run a graded transform (order-2k output a sum of products of total
    # weight k) over ints, once the table cap is checked.  With D the lcm of
    # the denominators, a_k = x_2k * D^k is an int; transform maps the a_k to
    # the outputs times D^k, and each is divided by D^k once.  Output k is a
    # Fraction when one of x_2..x_2k is, as in the Fraction loop, and an int
    # otherwise.  Other integral kinds (numpy's) are read as ints first; all
    # ints, or any other kind, run transform as given.
    _check_order(len(values))
    kinds = set(map(type, values))
    if not kinds <= _EXACT:
        values = tuple(map(_as_int, values))
        kinds = set(map(type, values))
    if Fraction not in kinds or not kinds <= _EXACT:
        return transform(values)
    d = lcm(*(x.denominator for x in values))
    scaled = transform(tuple(
        x.numerator * (d // x.denominator) * d ** k for k, x in enumerate(values)))
    first = next(k for k, x in enumerate(values) if type(x) is Fraction)
    out = []
    for k, a in enumerate(scaled):
        scale = d ** (k + 1)
        out.append(Fraction(a, scale) if k >= first else a // scale)
    return tuple(out)


def moments_from_cumulants(r: CumulantSequence) -> MomentSequence:
    """m_{2n} = sum over even non-crossing partitions of prod_B r_{|B|}.

    Runs over any ring with +, - and * (Fraction, float, int); orders above
    2 * ``TABLE_MAX_N`` raise :class:`SizeLimitError` before any term is
    computed.  Rational input runs in ints on one scale: with D the lcm of
    the denominators, r_2k * D^k is an int, and m_2n * D^n is the same sum
    over those ints, divided by D^n once.  Output n is a Fraction when one
    of r_2..r_2n is and an int when all are ints; any float runs the sum
    term by term.
    """
    return MomentSequence(_on_one_scale(r.values, _moments_of))


def cumulants_from_moments(m: MomentSequence) -> CumulantSequence:
    """Invert the free moment-cumulant relation by recursive subtraction.

    r_{2n} is m_{2n} minus the contribution of every even non-crossing
    partition with more than one block; those involve cumulants of strictly
    lower order only.  Same rings, cap, graded integer scaling and result
    types as :func:`moments_from_cumulants`.
    """
    return CumulantSequence(_on_one_scale(m.values, _cumulants_of))


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
    if not 0 < lam < inf:  # also false for NaN
        raise ValueError(f"dilation factor must be positive and finite, got {lam}")
    return dilate_sq(m, lam * lam)


def dilate_sq(m: MomentSequence, lam_sq: Number) -> MomentSequence:
    """Same as :func:`dilate` with the squared factor given directly.

    Only lam**2 ever enters even moments, so passing it as an exact rational
    keeps the whole pipeline exact (e.g. dilation by sqrt(b)).  0 gives the
    point mass at 0; a negative value is no square and raises ValueError, as
    do NaN and infinity.
    """
    if not 0 <= lam_sq < inf:  # also false for NaN
        raise ValueError(f"squared dilation factor must be >= 0 and finite, got {lam_sq}")
    if type(lam_sq) not in _EXACT:
        lam_sq = _as_int(lam_sq)
    values = m.values
    if not set(map(type, values)) <= _EXACT:
        values = tuple(map(_as_int, values))
    return MomentSequence(tuple(lam_sq ** n * v for n, v in enumerate(values, start=1)))


def semicircle_moments(n: int) -> MomentSequence:
    """Even moments of the standard semicircle law: the Catalan numbers, n <= ``TABLE_MAX_N``."""
    _check_order(n)
    return MomentSequence(tuple(pairings.count_nc_pairings(k) for k in range(1, n + 1)))


def gaussian_moments(n: int) -> MomentSequence:
    """Even moments of the standard normal law: (2k-1)!!, n <= ``TABLE_MAX_N``."""
    _check_order(n)
    return MomentSequence(tuple(pairings.pairing_count(k) for k in range(1, n + 1)))


def moments_of_weight(spec: WeightSpec, n: int) -> MomentSequence:
    """m_{2k} = sum over all pair partitions of the weight, for k = 1..n.

    Weights depend on partitions only through (cr, h, cc), so the sum runs
    over the cached exact joint distributions rather than the raw stream;
    n is capped at ``TABLE_MAX_N``.  The built-in weights with int or
    Fraction parameters are added in ints from cached marginals of the
    table by their statistics and divided once per order, with no
    ``weight_of`` call; any other weight, a subclass of a built-in one
    included, is added term by term through ``weight_of``.
    """
    return MomentSequence(_table_sums(n, spec))


def cumulants_from_connected(spec: WeightSpec, n: int) -> CumulantSequence:
    """r_{2k} = sum of the weight over pair partitions with connected crossing graph."""
    return CumulantSequence(_table_sums(n, spec, connected_only=True))


def markov_limit_moments(n: int) -> MomentSequence:
    """Even moments of the scaled Markov-matrix limit law: sum over V of 2^h(V).

    Equals the free additive convolution of the semicircle and normal laws;
    the first three values are 2, 9, 56.
    """
    return moments_of_weight(SingletonCountPower(2), n)


def mixed_moment(spec: WeightSpec, gram: GramMatrix) -> Number:
    """Joint moment of a weight against a Gram matrix of inner products.

    Zero for odd size; otherwise the weighted sum over pair partitions of the
    products of paired inner products, over the block arrays of
    :mod:`pairmoments._arrays`, so half-sizes above ``STREAM_MAX_N`` raise.
    Entries are indexed 0-based.

    The products are added per (cr, h, cc) key and each key's sum S is
    weighted once.  A rational matrix with a non-integer entry is first
    scaled to integers by the lcm D of its denominators, so the sums are
    of ints and sum(weight * S) / D^n stays exact; an all-int matrix with an
    int weight gives an int.  Ints run in int64 while max|entry|^n *
    (2n-1)!! < 2^63; past that, and for floats or any mix of kinds, the
    entries stay Python objects, multiplied left to right and added in
    partition order, so floats round as they did one at a time.
    """
    k = gram.size
    if k % 2 == 1:
        return 0
    if k == 0:
        return 1
    n = k // 2
    from . import _arrays

    entries = [x for row in gram.entries for x in row]
    denominator = None
    if all(map(is_exact, entries)) and not all(isinstance(x, int) for x in entries):
        denominator = Fraction(lcm(*(x.denominator for x in entries)))
        entries = [int(x * denominator) for x in entries]
    weight = cache(spec.weight_of)
    total = 0
    for (cr, h, cc), value in _arrays._pair_product_sums(n, entries).items():
        total = total + weight(n, cr, h, cc) * value
    return total if denominator is None else total / denominator ** n


#: Absolute tolerance of the mixture comparisons; it matters only for floats,
#: as exact values compare equal or not.
_MIX_TOL = 1e-9


def _mix_with_semicircle(m: MomentSequence, b: Number, n: int) -> MomentSequence:
    # The sqrt(b)-dilation of m freely convolved with the sqrt(1 - b)-dilated
    # semicircle, to order 2n.
    one = Fraction(1) if is_exact(b) else 1.0
    return free_convolve(dilate_sq(m, b), dilate_sq(semicircle_moments(n), one - b), n)


def semicircle_mix_moments(spec: WeightSpec, b: Number, n: int) -> MomentSequence:
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
    path_a = MomentSequence(_table_sums(n, spec, mix=b))
    path_b = _mix_with_semicircle(moments_of_weight(spec, n), b, n)
    for va, vb in zip(path_a.values, path_b.values):
        if not numbers_equal(va, vb, rel_tol=0, abs_tol=_MIX_TOL):
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


def check_mix_semigroup(b: Number, c: Number, n: int) -> SemigroupReport:
    """Check that mixing by b then by c equals mixing once by b*c.

    lhs: moments of the (b*c)-mixture of the normal law with the semicircle.
    rhs: sqrt(c)-dilation of the b-mixture, freely convolved with the
    sqrt(1-c)-dilated semicircle.
    """
    for name, val in (("b", b), ("c", c)):
        if not 0 <= val <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {val}")
    lhs = semicircle_mix_moments(Constant1(), b * c, n)
    rhs = _mix_with_semicircle(semicircle_mix_moments(Constant1(), b, n), c, n)
    pairs = list(zip(lhs.values, rhs.values))
    passed = all(numbers_equal(x, y, rel_tol=0, abs_tol=_MIX_TOL) for x, y in pairs)
    diffs = [abs(x - y) for x, y in pairs]
    return SemigroupReport(passed, b, c, lhs, rhs, float(max(diffs, default=0)))


#: Relative roundoff :func:`hankel_psd` allows below zero.
HANKEL_TOL = 1e-10


def hankel_psd(m: MomentSequence) -> tuple[bool, float]:
    """Positivity evidence for a candidate moment sequence.

    Builds the (N+1) x (N+1) Hankel matrix [m_{i+j}] with m_0 = 1 and odd
    entries 0, and reports whether its minimum eigenvalue clears
    ``-HANKEL_TOL * (1 + max |entry|)``.  Passing this test is a necessary
    condition for being the moment sequence of some symmetric probability
    measure, not a sufficient one.
    """
    from .randmat import _psd_verdict  # randmat imports this module

    size = m.order + 1
    return _psd_verdict([[float(m.moment(i + j)) for j in range(size)] for i in range(size)],
                        HANKEL_TOL)
