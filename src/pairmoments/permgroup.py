"""Positive definite functions and a norm-like statistic on symmetric groups.

Each permutation of degree n embeds as a pair partition of {1..2n} by
matching k with 2n+1-sigma(k).  Under this embedding the crossing graph is
the inversion graph, and the singleton count h(sigma) counts the fixed
points k that are *isolated*: sigma fixes k and maps {1..k-1} onto itself.
The quantity H(sigma) = n - h(sigma) extends consistently along the natural
embeddings S(n) into S(n+1) and behaves like a norm: it is symmetric,
subadditive, and vanishes only at the identity, so d(sigma, tau) =
H(sigma^-1 tau) is a left-invariant metric.

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

from .exceptions import SizeLimitError
from .pairings import PairPartition, singleton_blocks
from .randmat import spectrum
from .rng import Xorshift64Star

#: Largest degree for which full kernel matrices are built (order 5! = 120).
MAX_KERNEL_DEGREE = 5

#: Largest degree whose whole group is ever listed (order 8! = 40,320); it
#: also bounds the cache of :func:`enumerate_group`.
MAX_GROUP_DEGREE = 8


def _check_group_degree(n: int) -> None:
    if n > MAX_GROUP_DEGREE:
        raise SizeLimitError(
            f"group checks are limited to degree {MAX_GROUP_DEGREE} "
            f"(order {math.factorial(MAX_GROUP_DEGREE)}); got degree {n}"
        )


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
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, *cycles) -> "Permutation":
        images = list(range(1, n + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
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
        if n < self.degree:
            raise ValueError("cannot extend to a smaller degree")
        return Permutation(self.images + tuple(range(self.degree + 1, n + 1)))


@lru_cache(maxsize=None)
def enumerate_group(n: int) -> tuple[Permutation, ...]:
    """All of S(n) in lexicographic one-line order.

    Degrees above ``MAX_GROUP_DEGREE`` raise :class:`SizeLimitError`.
    """
    _check_group_degree(n)
    return tuple(Permutation(p) for p in itertools.permutations(range(1, n + 1)))


def embed(sigma: Permutation) -> PairPartition:
    """The pair partition {(k, 2n+1-sigma(k))} on {1..2n}."""
    n = sigma.degree
    return PairPartition.from_pairs((k, 2 * n + 1 - sigma(k)) for k in range(1, n + 1))


def isolated_fixed_points(sigma: Permutation) -> int:
    """Count fixed points k with sigma({1..k-1}) = {1..k-1}.

    Equals the singleton count of the embedded pair partition: a block of
    the embedding crosses another exactly when the two positions form an
    inversion, so k is crossing-free precisely when everything before it
    stays before it and sigma(k) = k.
    """
    count = 0
    prefix_max = 0
    for k in range(1, sigma.degree + 1):
        if sigma(k) == k and prefix_max == k - 1:
            count += 1
        prefix_max = max(prefix_max, sigma(k))
    return count


def big_h(sigma: Permutation) -> int:
    """H(sigma) = degree - isolated fixed points; 0 only at the identity."""
    return sigma.degree - isolated_fixed_points(sigma)


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
    groups, summed over k).
    """
    degree = n + 1
    if math.factorial(degree) > 5040:
        raise SizeLimitError(
            f"exhaustive split check needs |S({degree})| <= 5040, got {math.factorial(degree)}"
        )
    cases = 0
    for sigma in enumerate_group(degree):
        cases += 1
        images = sigma.images
        # prefix_ok[k]: sigma({1..k}) == {1..k}; via running max
        split_count = 0
        prefix_max = 0
        suffix_min = [0] * (degree + 2)
        suffix_min[degree + 1] = degree + 1
        for k in range(degree, 0, -1):
            suffix_min[k] = min(images[k - 1], suffix_min[k + 1])
        for k in range(1, degree + 1):
            prefix_ok = prefix_max == k - 1
            suffix_ok = suffix_min[k + 1] == k + 1  # empty suffix passes via sentinel
            if prefix_ok and suffix_ok:
                split_count += 1
            prefix_max = max(prefix_max, images[k - 1])
        if split_count != isolated_fixed_points(sigma):
            return GroupCheckReport(
                False, cases, (sigma,),
                f"split count {split_count} != isolated fixed points "
                f"{isolated_fixed_points(sigma)} for {sigma.images}",
            )
    return GroupCheckReport(True, cases, None, f"identity holds on all {cases} elements")


@dataclass(frozen=True)
class KernelMatrix:
    """Gram matrix [f(sigma_a^-1 sigma_b)] over a fixed ordering of S(n)."""

    order: int
    entries: np.ndarray


def kernel_matrix(n: int, f: Callable[[Permutation], float]) -> KernelMatrix:
    """Build the full group kernel of f on S(n) (lexicographic element order)."""
    if n > MAX_KERNEL_DEGREE:
        raise SizeLimitError(
            f"kernel matrices are limited to degree {MAX_KERNEL_DEGREE} "
            f"(order {math.factorial(MAX_KERNEL_DEGREE)}); got degree {n}"
        )
    group = enumerate_group(n)
    inverses = [g.inverse() for g in group]
    order = len(group)
    entries = np.empty((order, order))
    for a in range(order):
        inv_a = inverses[a]
        for b in range(order):
            entries[a, b] = f(inv_a * group[b])
    return KernelMatrix(order, entries)


def check_positive_definite(
    n: int, f: Callable[[Permutation], float], tol: float = 1e-8
) -> tuple[bool, float]:
    """Gram test: is [f(sigma^-1 tau)] PSD over all of S(n)?

    Returns (verdict, minimum eigenvalue); the verdict allows roundoff of
    ``tol * (1 + max |entry|)`` below zero.
    """
    km = kernel_matrix(n, f)
    min_eig = spectrum(km.entries)[0]
    scale = 1.0 + float(np.abs(km.entries).max())
    return min_eig >= -tol * scale, min_eig


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
    for each positive x in ``exponents``.
    """
    if n > MAX_KERNEL_DEGREE:
        raise SizeLimitError(
            f"CND checks are limited to degree {MAX_KERNEL_DEGREE}, got {n}"
        )
    km = kernel_matrix(n, lambda s: float(big_h(s)))
    order = km.order
    k = km.entries
    scale = 1.0 + float(np.abs(k).max())
    proj = np.eye(order) - np.full((order, order), 1.0 / order)
    centered = -(proj @ k @ proj)
    centered = (centered + centered.T) / 2.0
    centered_min = spectrum(centered)[0]
    ok = centered_min >= -tol * scale

    schoenberg: dict[float, float] = {}
    for x in exponents:
        expk = np.exp(-x * k)
        m = spectrum(expk)[0]
        schoenberg[x] = m
        ok = ok and m >= -tol * (1.0 + float(np.abs(expk).max()))
    detail = (
        f"centered min eig {centered_min:.3e}; "
        + "; ".join(f"exp(-{x}H) min eig {m:.3e}" for x, m in schoenberg.items())
    )
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


def _h_vector(group: tuple[Permutation, ...]) -> np.ndarray:
    return np.array([big_h(g) for g in group], dtype=np.int64)


def metric_checks(
    n: int, *, triples: int = 100_000, seed: int = 0
) -> MetricReport:
    """Verify that d(sigma, tau) = H(sigma^-1 tau) is a left-invariant metric.

    Checks identity (H(e) = 0), symmetry (H(sigma) = H(sigma^-1)),
    separation (d = 0 only on the diagonal), the triangle inequality, and
    left invariance.  Exhaustive over all |S(n)|^3 triples for n <= 5;
    for larger degrees a seeded sample of ``triples`` random triples is
    used for the triangle and invariance checks.  Degrees above
    ``MAX_GROUP_DEGREE`` raise :class:`SizeLimitError`.
    """
    _check_group_degree(n)
    group = enumerate_group(n)
    order = len(group)
    hvec = _h_vector(group)
    index_of = {g.images: i for i, g in enumerate(group)}
    inv_idx = np.array([index_of[g.inverse().images] for g in group])

    if hvec[index_of[Permutation.identity(n).images]] != 0:
        return MetricReport(False, n, 0, True, (Permutation.identity(n),), "H(e) != 0")
    for i, g in enumerate(group):
        if hvec[i] != hvec[inv_idx[i]]:
            return MetricReport(False, n, 0, True, (g,), f"H not symmetric at {g.images}")
        if i != index_of[Permutation.identity(n).images] and hvec[i] == 0:
            return MetricReport(False, n, 0, True, (g,), f"H vanishes off identity at {g.images}")

    exhaustive = n <= 5
    if exhaustive:
        comp = np.empty((order, order), dtype=np.int32)
        for a, ga in enumerate(group):
            row = [index_of[(ga * gb).images] for gb in group]
            comp[a, :] = row
        # dist[a, b] = H(inv(a) * b)
        dist = np.empty((order, order), dtype=np.int64)
        for a in range(order):
            dist[a, :] = hvec[comp[inv_idx[a], :]]
        if not np.array_equal(dist, dist.T):
            return MetricReport(False, n, 0, True, None, "distance table not symmetric")
        checked = 0
        for r in range(order):
            lhs = dist
            rhs = dist[:, r:r + 1] + dist[r:r + 1, :]
            if (lhs > rhs).any():
                a, b = np.argwhere(lhs > rhs)[0]
                return MetricReport(
                    False, n, checked, True,
                    (group[a], group[b], group[r]),
                    "triangle inequality fails",
                )
            checked += order * order
        for r in range(order):
            relabel = comp[r, :]
            if not np.array_equal(dist[np.ix_(relabel, relabel)], dist):
                return MetricReport(
                    False, n, checked, True, (group[r],), "left invariance fails",
                )
        return MetricReport(
            True, n, checked, True, None,
            f"all {order}^3 = {checked} triangle triples and left translations pass",
        )

    rng = Xorshift64Star(seed)
    checked = 0
    for _ in range(triples):
        a = group[rng.randrange(order)]
        b = group[rng.randrange(order)]
        r = group[rng.randrange(order)]
        d_ab = big_h(a.inverse() * b)
        d_ar = big_h(a.inverse() * r)
        d_rb = big_h(r.inverse() * b)
        if d_ab > d_ar + d_rb:
            return MetricReport(False, n, checked, False, (a, b, r), "triangle inequality fails")
        if big_h((r * a).inverse() * (r * b)) != d_ab:
            return MetricReport(False, n, checked, False, (a, b, r), "left invariance fails")
        checked += 1
    return MetricReport(
        True, n, checked, False, None,
        f"{checked} sampled triples pass triangle and left invariance",
    )


def embedding_consistency(n: int) -> GroupCheckReport:
    """Exhaustively confirm isolated_fixed_points == singletons of the embedding.

    Degrees above ``MAX_GROUP_DEGREE`` raise :class:`SizeLimitError`.
    """
    _check_group_degree(n)
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
