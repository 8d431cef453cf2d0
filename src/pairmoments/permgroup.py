"""Positive definite functions and a norm-like statistic on symmetric groups.

Each permutation of degree n embeds as a pair partition of {1..2n} by
matching k with 2n+1-sigma(k).  Under this embedding the crossing graph is
the inversion graph, and the singleton count h(sigma) counts the fixed
points k that are *isolated*: sigma fixes k and maps {1..k-1} onto itself.
The quantity H(sigma) = n - h(sigma) extends consistently along the natural
embeddings S(n) into S(n+1) and behaves like a norm: it is symmetric,
subadditive, and vanishes only at the identity, so d(sigma, tau) =
H(sigma^-1 tau) is a left-invariant metric.  ``_big_h_of`` counts split
points over a stack of permutations at once, and every count over a whole
group goes through it, :func:`check_cnd`'s kernel included;
:func:`isolated_fixed_points` counts one element's, for :func:`big_h`.

Positivity statements are exercised as finite Gram-matrix eigenvalue tests
over an entire group S(n); every eigenvalue comes from
:func:`pairmoments.randmat.spectrum` (LAPACK ``eigvalsh``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .exceptions import (MAX_GROUP_DEGREE, MAX_KERNEL_DEGREE, _check_integer, _check_least,
                         _check_limit)
from .pairings import PairPartition, singleton_blocks
from .randmat import _psd_verdict
from .rng import Xorshift64Star

@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation; images[k-1] = sigma(k).

    Composition follows (sigma * tau)(i) = sigma(tau(i)).
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _check_least(n, 0, "degree")
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, *cycles) -> "Permutation":
        images = list(range(1, n + 1))
        point = cls.identity(n)  # point(a) is a, or ValueError outside 1..n
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[point(a) - 1] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        _check_integer(k, "point")
        if not 1 <= k <= len(self.images):
            raise ValueError(f"point {k} is outside 1..{self.degree} (degree {self.degree})")
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def extend(self, n: int) -> "Permutation":
        """View in S(n) for n >= degree, appending fixed points."""
        _check_integer(n, "degree")
        if n < self.degree:
            raise ValueError("cannot extend to a smaller degree")
        return Permutation(self.images + tuple(range(self.degree + 1, n + 1)))


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 is refused, not a hit for 3
def enumerate_group(n: int) -> tuple[Permutation, ...]:
    """All of S(n) in lexicographic one-line order.

    Degrees above ``MAX_GROUP_DEGREE`` raise :class:`SizeLimitError`,
    negative ones ValueError; S(0) is the trivial group.
    """
    _check_limit("group", n)
    return tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))


def embed(sigma: Permutation) -> PairPartition:
    """The pair partition {(k, 2n+1-sigma(k))} on {1..2n}."""
    n = sigma.degree
    return PairPartition.from_pairs((k, 2 * n + 1 - s) for k, s in enumerate(sigma.images, 1))


def isolated_fixed_points(sigma: Permutation) -> int:
    """Count fixed points k with sigma({1..k-1}) = {1..k-1}.

    Equals the singleton count of the embedded pair partition: a block of
    the embedding crosses another exactly when the two positions form an
    inversion, so k is crossing-free precisely when everything before it
    stays before it and sigma(k) = k.
    """
    count = 0
    prefix_max = 0
    for k, image in enumerate(sigma.images, 1):
        if image == k and prefix_max == k - 1:
            count += 1
        prefix_max = max(prefix_max, image)
    return count


def big_h(sigma: Permutation) -> int:
    """H(sigma) = degree - isolated fixed points; 0 only at the identity."""
    return sigma.degree - isolated_fixed_points(sigma)


# A stack of permutations of one degree is an integer array whose last axis
# holds one-line images; the helpers below act on that axis.


@lru_cache(maxsize=None)
def _image_array(n: int) -> np.ndarray:
    """One-line images of ``enumerate_group(n)``, one row per element; read-only."""
    group = enumerate_group(n)
    images = np.array([g.images for g in group], dtype=np.int64)
    images = images.reshape(len(group), group[0].degree)
    images.setflags(write=False)
    return images


def _compose(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Images of left * right, that is left(right(i)), stack by stack."""
    return np.take_along_axis(left, right - 1, axis=-1)


def _invert(images: np.ndarray) -> np.ndarray:
    return np.argsort(images, axis=-1) + 1


def _big_h_of(images: np.ndarray) -> np.ndarray:
    """H of every permutation in a stack: the degree minus the split points.

    k is a split point (an isolated fixed point) when the prefix maxima at
    k - 1 and at k are k - 1 and k, so that sigma maps {1..k-1} and {1..k}
    onto themselves.  Every count over an image array is made here.
    """
    degree = images.shape[-1]
    # {1..k} closed, and'ed with {1..k-1} closed (numpy buffers the overlap)
    split = np.maximum.accumulate(images, axis=-1) == np.arange(1, degree + 1)
    split[..., 1:] &= split[..., :-1]
    return degree - split.sum(axis=-1)


def _rank(images: np.ndarray) -> np.ndarray:
    """Index in ``enumerate_group(n)`` of every permutation in a stack of degree n.

    Read as base-(n+1) digits, one-line images increase in lexicographic
    order, so a binary search of the group's own keys finds each index.
    """
    n = images.shape[-1]
    weights = (n + 1) ** np.arange(n - 1, -1, -1)
    return np.searchsorted(_image_array(n) @ weights, images @ weights)


@lru_cache(maxsize=None)
def _quotient_table(n: int) -> np.ndarray:
    """q[a, b] = index of sigma_a^-1 sigma_b in ``enumerate_group(n)``; read-only.

    Read by :func:`kernel_matrix`, :func:`check_cnd` and :func:`metric_checks`;
    callers keep n <= ``MAX_KERNEL_DEGREE`` (120 x 120 entries at most).
    """
    images = _image_array(n)
    table = _rank(_compose(_invert(images)[:, None, :], images[None, :, :]))
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class GroupCheckReport:
    passed: bool
    cases: int
    witness: Optional[tuple]
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def check_isolated_split(n: int) -> GroupCheckReport:
    """Identity behind positive definiteness of the isolated-fixed-point count.

    Over all of S(n+1), the count of isolated fixed points must equal the
    number of positions k whose prefix {1..k-1} and suffix {k+1..n+1} are
    both preserved setwise (membership in a product of two smaller symmetric
    groups, summed over k).  ``_big_h_of`` counts them for the whole group,
    compared element by element with :func:`isolated_fixed_points`.  Degrees
    n + 1 above ``MAX_GROUP_DEGREE`` raise :class:`SizeLimitError`.
    """
    degree = n + 1
    _check_limit("group", degree)
    splits = (degree - _big_h_of(_image_array(degree))).tolist()
    for cases, (sigma, split_count) in enumerate(zip(enumerate_group(degree), splits), 1):
        isolated = isolated_fixed_points(sigma)
        if split_count != isolated:
            return GroupCheckReport(False, cases, (sigma,), f"split count {split_count} != "
                                    f"isolated fixed points {isolated} for {sigma.images}")
    return GroupCheckReport(True, cases, None, f"identity holds on all {cases} elements")


@dataclass(frozen=True)
class KernelMatrix:
    """Gram matrix [f(sigma_a^-1 sigma_b)] over a fixed ordering of S(n)."""

    order: int
    entries: np.ndarray


def kernel_matrix(n: int, f: Callable[[Permutation], float]) -> KernelMatrix:
    """Build the full group kernel of f on S(n) (lexicographic element order).

    f is evaluated once per group element and entry (a, b) is read off as
    the value at sigma_a^-1 sigma_b, so f must be a function of the
    permutation alone (no state, no dependence on call order).  Degrees
    above ``MAX_KERNEL_DEGREE`` raise :class:`SizeLimitError` before f is called.
    """
    _check_limit("kernel", n)
    values = np.array([f(g) for g in enumerate_group(n)], dtype=float)
    return KernelMatrix(len(values), values[_quotient_table(n)])


def _check_tol(tol: float) -> None:
    # a NaN tol fails every comparison and an infinite one passes any kernel
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def check_positive_definite(
    n: int, f: Callable[[Permutation], float], tol: float = 1e-8
) -> tuple[bool, float]:
    """Gram test: is [f(sigma^-1 tau)] PSD over all of S(n)?

    Returns (verdict, minimum eigenvalue); the verdict allows roundoff of
    ``tol * (1 + max |entry|)`` below zero, so ``tol`` must be finite and
    positive.
    """
    _check_tol(tol)
    return _psd_verdict(kernel_matrix(n, f).entries, tol)


@dataclass(frozen=True)
class CndReport:
    """Two certificates that H is conditionally negative definite on S(n)."""

    passed: bool
    centered_min_eig: float
    schoenberg_min_eigs: dict[float, float]
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def check_cnd(
    n: int, tol: float = 1e-8, exponents: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0)
) -> CndReport:
    """Conditional negative definiteness of H(sigma^-1 tau) on S(n).

    Certificate one: with P the projector onto zero-sum vectors, -P K P must
    be PSD (the quadratic form of K is nonpositive wherever coefficients sum
    to zero).  Certificate two (Schoenberg): exp(-x K) entrywise must be PSD
    for each positive x in ``exponents``.  A ``tol`` that is not finite and
    positive raises ValueError, and then a degree above ``MAX_KERNEL_DEGREE``
    :class:`SizeLimitError`, both before the group is listed.  The kernel
    K[a, b] = H(sigma_a^-1 sigma_b) is H of the whole group from
    ``_big_h_of``, read off the quotient table.
    """
    _check_tol(tol)
    _check_limit("kernel", n)
    k = _big_h_of(_image_array(n)).astype(float)[_quotient_table(n)]
    order = len(k)
    proj = np.eye(order) - np.full((order, order), 1.0 / order)
    centered = -(proj @ k @ proj)
    ok, centered_min = _psd_verdict((centered + centered.T) / 2.0, tol, scale_of=k)

    schoenberg: dict[float, float] = {}
    for x in exponents:
        passed, schoenberg[x] = _psd_verdict(np.exp(-x * k), tol)
        ok = ok and passed
    detail = "; ".join([f"centered min eig {centered_min:.3e}"]
                       + [f"exp(-{x}H) min eig {m:.3e}" for x, m in schoenberg.items()])
    return CndReport(ok, centered_min, schoenberg, detail)


@dataclass(frozen=True)
class MetricReport:
    """Outcome of the norm/metric axioms for H on S(n)."""

    passed: bool
    degree: int
    triples_checked: int
    exhaustive: bool
    witness: Optional[tuple]
    detail: str

    def __bool__(self) -> bool:
        return self.passed


#: Sampled triples evaluated per numpy block; memory does not grow with
#: ``triples``.
_METRIC_BLOCK = 4096


def metric_checks(
    n: int, *, triples: int = 100_000, seed: int = 0
) -> MetricReport:
    """Verify that d(sigma, tau) = H(sigma^-1 tau) is a left-invariant metric.

    Checks identity (H(e) = 0), symmetry (H(sigma) = H(sigma^-1)),
    separation (d = 0 only on the diagonal), the triangle inequality, and
    left invariance.  Exhaustive over all |S(n)|^3 triples for n <= 5;
    for larger degrees a seeded sample of ``triples`` random triples is
    used for the triangle and invariance checks (``triples`` < 1 raises
    ValueError).  Degrees above ``MAX_GROUP_DEGREE``, and at sampled degrees
    ``triples`` above ``MAX_TRIPLES``, raise :class:`SizeLimitError`.

    The exhaustive triangle check compares one slice of the distance table,
    r = e.  Since d(a, b) = H(a^-1 b) is unchanged when r^-1 multiplies both
    arguments, a triple (a, b, r) fails exactly when (r^-1 a, r^-1 b, e)
    does, so that slice decides all |S(n)|^3 triples, and a failure is
    reported at r = e with no triple counted before it, as a loop over r
    in group order would report it.  The left-translation check that
    follows tests the quotient table that this argument relies on.
    """
    _check_limit("group", n)
    exhaustive = n <= MAX_KERNEL_DEGREE
    if not exhaustive:
        if triples < 1:
            raise ValueError(f"sampled degree {n} needs triples >= 1, got {triples}")
        _check_limit("triples", triples)
    group = enumerate_group(n)
    order = len(group)
    images = _image_array(n)
    inverses = _invert(images)
    hvec = _big_h_of(images)
    inv_idx = _rank(inverses)
    identity = 0  # first in lexicographic order

    if hvec[identity] != 0:
        return MetricReport(False, n, 0, True, (Permutation.identity(n),), "H(e) != 0")
    asymmetric = hvec != hvec[inv_idx]
    vanishing = hvec == 0
    vanishing[identity] = False
    bad = np.flatnonzero(asymmetric | vanishing)
    if bad.size:
        g = group[bad[0]]
        if asymmetric[bad[0]]:
            return MetricReport(False, n, 0, True, (g,), f"H not symmetric at {g.images}")
        return MetricReport(False, n, 0, True, (g,), f"H vanishes off identity at {g.images}")

    if exhaustive:
        table = _quotient_table(n)
        # dist[a, b] = H(inv(a) * b)
        dist = hvec[table]
        if not np.array_equal(dist, dist.T):
            return MetricReport(False, n, 0, True, None, "distance table not symmetric")
        # d(a, b) > d(a, e) + d(e, b) over every pair: the r = e slice
        bad = dist > dist[:, identity, None] + dist[identity]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            return MetricReport(
                False, n, 0, True, (group[a], group[b], group[identity]),
                "triangle inequality fails",
            )
        checked = order ** 3
        for r in range(order):
            # relabel[b] = index of sigma_r * sigma_b
            relabel = table[inv_idx[r], :]
            if not np.array_equal(dist[np.ix_(relabel, relabel)], dist):
                return MetricReport(
                    False, n, checked, True, (group[r],), "left invariance fails",
                )
        return MetricReport(
            True, n, checked, True, None,
            f"all {order}^3 = {checked} triangle triples and left translations pass",
        )

    # Triples are drawn one value at a time in (a, b, r) order, then checked
    # a block at a time; the first failing triple is reported, triangle first.
    draw = Xorshift64Star(seed).randrange
    checked = 0
    while checked < triples:
        size = min(_METRIC_BLOCK, triples - checked)
        a, b, r = np.array(
            [draw(order) for _ in range(3 * size)], dtype=np.int64
        ).reshape(size, 3).T
        d_ab = _big_h_of(_compose(inverses[a], images[b]))
        d_ar = _big_h_of(_compose(inverses[a], images[r]))
        d_rb = _big_h_of(_compose(inverses[r], images[b]))
        translated = _compose(_invert(_compose(images[r], images[a])),
                              _compose(images[r], images[b]))
        triangle = d_ab > d_ar + d_rb
        bad = np.flatnonzero(triangle | (_big_h_of(translated) != d_ab))
        if bad.size:
            i = int(bad[0])
            return MetricReport(
                False, n, checked + i, False, (group[a[i]], group[b[i]], group[r[i]]),
                "triangle inequality fails" if triangle[i] else "left invariance fails",
            )
        checked += size
    return MetricReport(
        True, n, checked, False, None,
        f"{checked} sampled triples pass triangle and left invariance",
    )


def embedding_consistency(n: int) -> GroupCheckReport:
    """Exhaustively confirm isolated_fixed_points == singletons of the embedding.

    Degrees above ``MAX_GROUP_DEGREE`` raise :class:`SizeLimitError`.
    """
    _check_limit("group", n)
    cases = 0
    for sigma in enumerate_group(n):
        cases += 1
        _, h = singleton_blocks(embed(sigma))
        if h != isolated_fixed_points(sigma):
            return GroupCheckReport(
                False, cases, (sigma,),
                f"h(embedding) = {h} but isolated fixed points = "
                f"{isolated_fixed_points(sigma)} for {sigma.images}",
            )
    return GroupCheckReport(True, cases, None, f"agrees on all {cases} elements of S({n})")
