"""Weight functions on pair partitions.

A weight assigns to every pair partition V a number built from its chord
statistics: powers of the crossing count, of n - cc, of H = n - h, or of the
singleton count h itself, and products of these.  Parameters given as ints
or fractions are carried through exactly; floats propagate as floats.

The convention 0**0 = 1 is used everywhere (Python's ``**`` already does
this), so e.g. the H-power weight at parameter 0 is the indicator of
non-crossing partitions.

Every weighted sum over cells (cr, h, cc) is one of two loops here.  A
built-in weight is a product of powers p ** s(V) of the statistics s = cr,
n - cc, H and h, so its table sums, like ``StatisticPolynomial.evaluate``,
are graded: each cell of a cached marginal adds count * a ** s * d ** (E -
s) in ints for p = a / d, E the top of s at the call's largest order (one
table per p and call serves every order), divided once.  Other weights,
floats and ``mixed_moment``'s per-cell sums go term by term through
``weight_of`` (over the joint table's own cells, in place, for table
sums), so floats round as before.  Numbers are read once, as they enter
(a family's parameter when the weight is built), numpy's integers as ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from numbers import Integral, Rational
from types import MappingProxyType
from typing import Mapping, Optional, Union

from . import pairings
from .exceptions import _check_limit, _check_order
from .pairings import PairPartition, pairing_count

Number = Union[int, Fraction, float]


def is_exact(value) -> bool:
    """True when a parameter or result participates in exact arithmetic."""
    return isinstance(value, Rational)


def numbers_equal(a, b, rel_tol: float = 1e-12, abs_tol: float = 1e-12) -> bool:
    """Exact equality for rationals, tolerance comparison otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


#: The kinds of number the graded paths take.  They must give what the
#: term-by-term loops give, value and type, and that is known for these two.
_EXACT = frozenset((int, Fraction))


def _as_int(x):
    # Any Integral (numpy's fixed-width integers, bool) as a Python int, so
    # nothing computes in a fixed width; anything else as given.
    return int(x) if isinstance(x, Integral) else x


class WeightSpec:
    """Base class for declarative weights; subclasses define weight_of().

    The weighted sums over the joint (cr, h, cc) table add up the built-in
    weights (:class:`Constant1`, the four single-parameter families and
    :class:`Product` of these, with int or Fraction parameters) from cached
    marginals of the table, without calling weight_of.  Any other weight,
    a subclass of a built-in one included, is summed term by term through
    weight_of, once per table cell.
    """

    def weight_of(self, n: int, cr: int, h: int, cc: int) -> Number:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant1(WeightSpec):
    """The constant weight 1; its moment sequence is (2n-1)!!."""

    def weight_of(self, n, cr, h, cc):
        return 1


class _Family(WeightSpec):
    # The four one-parameter families, whose parameter is read once, here.
    def __post_init__(self):
        (name, value), *_ = vars(self).items()
        object.__setattr__(self, name, _as_int(value))


@dataclass(frozen=True)
class CrossingPower(_Family):
    """q ** cr(V)."""

    q: Number

    def weight_of(self, n, cr, h, cc):
        return self.q ** cr


@dataclass(frozen=True)
class ComponentPower(_Family):
    """s ** (n - cc(V))."""

    s: Number

    def weight_of(self, n, cr, h, cc):
        return self.s ** (n - cc)


@dataclass(frozen=True)
class SingletonHPower(_Family):
    """b ** H(V) with H = n - h; at b = 0 the non-crossing indicator."""

    b: Number

    def weight_of(self, n, cr, h, cc):
        return self.b ** (n - h)


@dataclass(frozen=True)
class SingletonCountPower(_Family):
    """beta ** h(V); not normalized at the one-pair partition unless beta = 1."""

    beta: Number

    def weight_of(self, n, cr, h, cc):
        return self.beta ** h


@dataclass(frozen=True)
class Product(WeightSpec):
    """Pointwise product of component weights."""

    factors: tuple[WeightSpec, ...]

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    def weight_of(self, n, cr, h, cc):
        out = 1
        for f in self.factors:
            out = out * f.weight_of(n, cr, h, cc)
        return out


def evaluate(spec: WeightSpec, partition: PairPartition) -> Number:
    """Weight of one concrete partition."""
    st = pairings.statistics(partition)
    return spec.weight_of(partition.n, st.cr, st.h, st.cc)


#: Statistic used as the exponent by each single-parameter family.
_FAMILY_STATISTIC: dict[type, str] = {
    CrossingPower: "cr",
    ComponentPower: "n-cc",
    SingletonHPower: "H",
    SingletonCountPower: "h",
}


def _statistic_powers(spec: WeightSpec) -> Optional[dict[str, Number]]:
    # {statistic: parameter} with weight_of = prod parameter ** statistic,
    # for a spec whose type is exactly Constant1, a family or a Product of
    # these, every parameter an int or a Fraction; factors on one statistic
    # multiply their parameters.  None for any other spec, subclasses too.
    kind = type(spec)
    if kind is Constant1:
        return {}
    if kind in _FAMILY_STATISTIC:
        (param,) = vars(spec).values()
        return {_FAMILY_STATISTIC[kind]: param} if type(param) in _EXACT else None
    if kind is not Product:
        return None
    out: dict[str, Number] = {}
    for factor in spec.factors:
        powers = _statistic_powers(factor)
        if powers is None:
            return None
        for stat, param in powers.items():
            out[stat] = out[stat] * param if stat in out else param
    return out


def _graded_powers(x: Number, top: int) -> tuple[list[int], int]:
    # [a ** e * d ** (top - e) for e = 0..top] and d ** top, where x = a / d
    # is an int or a Fraction; 0 ** 0 = 1.
    a, d = x.numerator, x.denominator
    up, down = [1], [1]
    for _ in range(top):
        up.append(up[-1] * a)
        down.append(down[-1] * d)
    return [u * v for u, v in zip(up, reversed(down))], down[top]


def _graded_sum(cells, tables: list[list[int]], scale: int, fraction: bool) -> Number:
    # The sum of count * prod_i tables[i][key[i]] over the (key, count) in
    # cells, divided once by scale.  With tables[i] and d_i ** T_i from
    # _graded_powers(p_i, T_i), T_i >= every key[i], and scale the product
    # of the d_i ** T_i, that is the sum of count * prod_i p_i ** key[i].
    total = 0
    for key, count in cells:
        for table, e in zip(tables, key):
            count *= table[e]
        total += count
    return Fraction(total, scale) if fraction else total


def _term_sum(cells, n: int, spec: WeightSpec, mix: Number) -> Number:
    # The sum of S * mix ** (n - h) * spec.weight_of(n, cr, h, cc) over the
    # ((cr, h, cc), S) in cells, term by term in order: floats round as ever.
    total = 0
    for (cr, h, cc), s in cells:
        total = total + s * mix ** (n - h) * spec.weight_of(n, cr, h, cc)
    return total


def _table_sums(n: int, spec: WeightSpec, *, connected_only: bool = False,
                mix: Number = 1) -> tuple[Number, ...]:
    # For k = 1..n, the sum of count * mix ** (k - h) * spec.weight_of(k, cr,
    # h, cc) over the cells of the exact joint (cr, h, cc) table of P2(2k)
    # (only cc = 1 cells when connected_only).  n < 0 or > TABLE_MAX_N raises.
    _check_order(n)
    powers = _statistic_powers(spec)
    mix = _as_int(mix)
    if powers is None or type(mix) not in _EXACT:
        return tuple(_term_sum(pairings.statistic_distribution(k)._cells(connected_only),
                               k, spec, mix) for k in range(1, n + 1))
    # A built-in weight is prod_s p_s ** s(V), and mix ** (k - h) = mix ** H
    # one more factor: a graded sum over the statistics whose p_s is not 1.
    fraction = type(mix) is Fraction or any(type(p) is Fraction for p in powers.values())
    if mix != 1:
        powers["H"] = powers["H"] * mix if "H" in powers else mix
    stats = tuple(s for s in pairings._STATISTIC_FIELDS if powers.get(s, 1) != 1)
    built = [_graded_powers(powers[s], pairings._statistic_top(s, n)) for s in stats]
    tables, scale = [table for table, _ in built], math.prod(d for _, d in built)
    return tuple(_graded_sum(pairings._marginal(k, stats, connected_only).items(), tables,
                             scale, fraction) for k in range(1, n + 1))


@dataclass(frozen=True)
class StatisticPolynomial:
    """Distribution of one chord statistic over P2(2n), as exponent -> count.

    Evaluating at a parameter x gives sum_V x**statistic(V) exactly.  An
    int or a Fraction x (or any integral x, read as an int) takes the graded
    loop of the table sums, a float their term loop in exponent order.
    """

    n: int
    coefficients: Mapping[int, int]

    def evaluate(self, param: Number) -> Number:
        param = _as_int(param)
        if type(param) not in _EXACT or min(self.coefficients, default=-1) < 0:
            # the term loop, with x ** k the mixing factor of a cell with H = k
            # under the constant weight: left to right, in exponent order
            cells = (((0, self.n - k, 0), c) for k, c in sorted(self.coefficients.items()))
            return _term_sum(cells, self.n, Constant1(), param)
        # zip(coefficients) gives the exponents as the 1-tuples of a marginal
        table, scale = _graded_powers(param, max(self.coefficients))
        return _graded_sum(zip(zip(self.coefficients), self.coefficients.values()), [table],
                           scale, type(param) is Fraction)

    def total(self) -> int:
        return sum(self.coefficients.values())


def statistic_polynomial(family: type, n: int) -> StatisticPolynomial:
    """Exact generating table for one weight family at half-size n <= ``TABLE_MAX_N``.

    The coefficients are a read-only mapping.
    """
    try:
        stat = _FAMILY_STATISTIC[family]
    except KeyError:
        raise ValueError(
            f"family must be one of {sorted(c.__name__ for c in _FAMILY_STATISTIC)}"
        ) from None
    marginal = pairings._marginal(n, (stat,), False)
    return StatisticPolynomial(n, MappingProxyType({e: c for (e,), c in marginal.items()}))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exhaustive property check."""

    passed: bool
    cases: int
    counterexample: Optional[PairPartition]
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def check_strong_multiplicativity(spec: WeightSpec, nmax: int) -> CheckReport:
    """Verify the weight factorizes over crossing-graph components.

    For every partition with half-size at most nmax, the weight must equal
    the product of the weights of its components, each relabelled to a
    standalone partition on {1..2k} preserving the order of its support.
    Relabelling keeps which blocks cross, so a component of k blocks and
    cr_c crossings has the key (k, cr_c, [k = 1], 1).  Partitions with the
    same component keys in order of lowest block form one case of the
    cached stream of :mod:`pairmoments._arrays`; each case is checked once,
    in order of its first partition, which is the witness if it fails.  nmax
    outside 1..``STREAM_MAX_N`` raises before any array is built.
    """
    _check_limit("enumeration", nmax)
    from . import _arrays

    weight = cache(spec.weight_of)
    cases = 0
    for n in range(1, nmax + 1):
        s = _arrays._stream(n)
        for case, (stats, parts) in enumerate(zip(s.stats, s.parts)):
            whole = weight(n, *stats)
            split = 1
            for k, cr in parts:
                split = split * weight(k, cr, int(k == 1), 1)
            if not numbers_equal(whole, split):
                row, blocks = _arrays._first_row(n, case)
                return CheckReport(False, cases + row + 1, PairPartition(n, blocks),
                                   f"t(V)={whole} but component product is {split}")
        cases += len(s.case)
    return CheckReport(True, cases, None, f"factorization holds on {cases} partitions")


def check_traceability(statistic: str, nmax: int) -> CheckReport:
    """Verify a statistic is invariant under cyclic rotation of the ground set.

    The statistic is one of cr, h, cc, H or n-cc; any other name raises
    ValueError.  The rows of the block arrays of :mod:`pairmoments._arrays`
    are rotated in bulk and each rotated row's statistic compared with its
    own; the first row that differs is the witness.  nmax outside
    1..``STREAM_MAX_N`` raises before any array is built.
    """
    pairings._field(statistic)
    _check_limit("enumeration", nmax)
    from . import _arrays

    cases = 0
    for n in range(1, nmax + 1):
        change = _arrays._rotation_change(n, statistic)
        if change is not None:
            row, blocks, before, after = change
            return CheckReport(False, cases + row + 1, PairPartition(n, blocks),
                               f"{statistic} changed from {before} to {after} under rotation")
        cases += pairing_count(n)
    return CheckReport(True, cases, None, f"{statistic} rotation-invariant on {cases} partitions")
