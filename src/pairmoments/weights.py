"""Weight functions on pair partitions.

A weight assigns to every pair partition V a number built from its chord
statistics: powers of the crossing count, of n - cc, of H = n - h, or of the
singleton count h itself, and products of these.  Parameters given as ints
or fractions are carried through exactly; floats propagate as floats.

The convention 0**0 = 1 is used everywhere (Python's ``**`` already does
this), so e.g. the H-power weight at parameter 0 is the indicator of
non-crossing partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from numbers import Rational
from types import MappingProxyType
from typing import Mapping, Optional, Union

from . import pairings
from .exceptions import _check_limit
from .pairings import PairPartition, _fast_partition, pairing_count

Number = Union[int, Fraction, float]


def is_exact(value) -> bool:
    """True when a parameter or result participates in exact arithmetic."""
    return isinstance(value, Rational)


def numbers_equal(a, b, rel_tol: float = 1e-12, abs_tol: float = 1e-12) -> bool:
    """Exact equality for rationals, tolerance comparison otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


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


@dataclass(frozen=True)
class CrossingPower(WeightSpec):
    """q ** cr(V)."""

    q: Number

    def weight_of(self, n, cr, h, cc):
        return self.q ** cr


@dataclass(frozen=True)
class ComponentPower(WeightSpec):
    """s ** (n - cc(V))."""

    s: Number

    def weight_of(self, n, cr, h, cc):
        return self.s ** (n - cc)


@dataclass(frozen=True)
class SingletonHPower(WeightSpec):
    """b ** H(V) with H = n - h; at b = 0 the non-crossing indicator."""

    b: Number

    def weight_of(self, n, cr, h, cc):
        return self.b ** (n - h)


@dataclass(frozen=True)
class SingletonCountPower(WeightSpec):
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


#: The kinds of number the graded paths take.  They must give what the
#: term-by-term loops give, value and type, and that is known for these two.
_EXACT = frozenset((int, Fraction))


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


def _powers(x: Number, top: int) -> tuple[list[int], list[int]]:
    # a ** e and d ** e for e = 0..top, where x = a / d is an int or a
    # Fraction; 0 ** 0 = 1.
    a, d = x.numerator, x.denominator
    up, down = [1], [1]
    for _ in range(top):
        up.append(up[-1] * a)
        down.append(down[-1] * d)
    return up, down


@dataclass(frozen=True)
class StatisticPolynomial:
    """Distribution of one chord statistic over P2(2n), as exponent -> count.

    Evaluating at a parameter x gives sum_V x**statistic(V) exactly.  An
    int or a Fraction x is evaluated in ints over the common denominator
    and divided once; a float takes the terms in exponent order.
    """

    n: int
    coefficients: Mapping[int, int]

    def evaluate(self, param: Number) -> Number:
        if type(param) not in _EXACT or min(self.coefficients, default=-1) < 0:
            # added left to right: builtin sum compensates floats since 3.12
            total = 0
            for k, count in sorted(self.coefficients.items()):
                total = total + count * param ** k
            return total
        top = max(self.coefficients)
        up, down = _powers(param, top)
        total = sum(count * up[k] * down[top - k] for k, count in self.coefficients.items())
        return Fraction(total, down[top]) if type(param) is Fraction else total

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
    above ``STREAM_MAX_N`` raises before any array is built.
    """
    _check_limit("enumeration", max(nmax, 1))
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
                return CheckReport(False, cases + row + 1, _fast_partition(n, blocks),
                                   f"t(V)={whole} but component product is {split}")
        cases += len(s.case)
    return CheckReport(True, cases, None, f"factorization holds on {cases} partitions")


def check_traceability(statistic: str, nmax: int) -> CheckReport:
    """Verify a statistic is invariant under cyclic rotation of the ground set.

    The rows of the block arrays of :mod:`pairmoments._arrays` are
    rotated in bulk and each rotated row's statistic compared with its own;
    the first row that differs is the witness.  nmax above ``STREAM_MAX_N``
    raises before any array is built.
    """
    fields = ("cr", "h", "cc", "H")
    if statistic not in fields:
        raise ValueError("statistic must be one of cr, h, cc, H")
    _check_limit("enumeration", max(nmax, 1))
    from . import _arrays

    index = fields.index(statistic)
    cases = 0
    for n in range(1, nmax + 1):
        change = _arrays._rotation_change(n, index)
        if change is not None:
            row, blocks, before, after = change
            return CheckReport(False, cases + row + 1, _fast_partition(n, blocks),
                               f"{statistic} changed from {before} to {after} under rotation")
        cases += pairing_count(n)
    return CheckReport(True, cases, None, f"{statistic} rotation-invariant on {cases} partitions")
