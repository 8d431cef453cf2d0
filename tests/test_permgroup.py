import itertools
import math
from collections import Counter

import numpy as np
import pytest

import brute
from pairmoments import pairings, permgroup as pg
from pairmoments import randmat as rm
from pairmoments.exceptions import MAX_TRIPLES, SizeLimitError
from pairmoments.permgroup import Permutation


def perm(*images):
    return Permutation(tuple(images))


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            perm(1, 1, 3)

    def test_composition_convention(self):
        # (sigma * tau)(i) = sigma(tau(i))
        sigma = perm(2, 1, 3)
        tau = perm(1, 3, 2)
        assert (sigma * tau).images == (2, 3, 1)

    def test_inverse(self):
        s = perm(3, 1, 4, 2)
        assert (s * s.inverse()).images == (1, 2, 3, 4)
        assert (s.inverse() * s).images == (1, 2, 3, 4)

    def test_from_cycles(self):
        assert Permutation.from_cycles(4, (1, 2, 3)).images == (2, 3, 1, 4)
        assert Permutation.from_cycles(3).images == (1, 2, 3)

    def test_points_outside_the_degree_raise(self):
        for cycle, k in (((1, 5), 5), ((0, 1), 0)):
            with pytest.raises(ValueError, match=rf"^point {k} is outside 1\.\.3 \(degree 3\)$"):
                Permutation.from_cycles(3, cycle)
        sigma = perm(2, 1)
        for k in (0, -1, 3, 5):
            with pytest.raises(ValueError, match=rf"^point {k} is outside 1\.\.2 \(degree 2\)$"):
                sigma(k)
        assert (sigma(1), sigma(2)) == (2, 1)

    def test_extend(self):
        assert perm(2, 1).extend(4).images == (2, 1, 3, 4)

    def test_lexicographic_enumeration(self):
        group = pg.enumerate_group(3)
        assert [g.images for g in group] == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]
        assert len(pg.enumerate_group(4)) == 24

    def test_enumerate_group_size_guard(self):
        with pytest.raises(SizeLimitError):
            pg.enumerate_group(9)


class TestEmbedding:
    def test_identity_s2(self):
        assert pg.embed(Permutation.identity(2)).blocks == ((1, 4), (2, 3))

    def test_transposition_s2(self):
        assert pg.embed(perm(2, 1)).blocks == ((1, 3), (2, 4))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_identity_fully_nested(self, n):
        v = pg.embed(Permutation.identity(n))
        assert v.blocks == tuple((k, 2 * n + 1 - k) for k in range(1, n + 1))
        assert pairings.crossings(v) == 0
        assert pairings.singleton_blocks(v)[1] == n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_isolated_fixed_points_match_embedding(self, n):
        for sigma in pg.enumerate_group(n):
            _, h = pairings.singleton_blocks(pg.embed(sigma))
            assert h == pg.isolated_fixed_points(sigma)

    def test_embedding_consistency_s7(self):
        assert pg.embedding_consistency(7).passed

    def test_crossings_are_inversions(self):
        # the embedded diagram crosses exactly on inversion pairs
        for sigma in pg.enumerate_group(4):
            inv = sum(
                1
                for i, j in itertools.combinations(range(1, 5), 2)
                if sigma(i) > sigma(j)
            )
            assert pairings.crossings(pg.embed(sigma)) == inv


class TestIsolatedFixedPoints:
    def test_identity(self):
        assert pg.isolated_fixed_points(Permutation.identity(5)) == 5

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (4, 3), (6, 3)])
    def test_adjacent_transposition(self, n, k):
        sigma = Permutation.from_cycles(n, (k, k + 1))
        assert pg.isolated_fixed_points(sigma) == n - 2
        assert pg.big_h(sigma) == 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_full_cycle(self, n):
        sigma = Permutation.from_cycles(n, tuple(range(1, n + 1)))
        assert pg.isolated_fixed_points(sigma) == 0
        assert pg.big_h(sigma) == n

    def test_fixed_point_need_not_be_isolated(self):
        # (1 4) fixes 2, 3, 5 but breaks the prefixes of 2 and 3;
        # only 5 is an isolated fixed point
        sigma = perm(4, 2, 3, 1, 5)
        assert pg.isolated_fixed_points(sigma) == 1

    def test_three_cycle(self):
        assert pg.big_h(Permutation.from_cycles(3, (1, 2, 3))) == 3


class TestBigH:
    def test_identity_zero(self):
        assert pg.big_h(Permutation.identity(4)) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_only_at_identity(self, n):
        for sigma in pg.enumerate_group(n):
            assert (pg.big_h(sigma) == 0) == (sigma == Permutation.identity(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stable_under_extension(self, n):
        for sigma in pg.enumerate_group(n):
            assert pg.big_h(sigma) == pg.big_h(sigma.extend(n + 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_under_inverse(self, n):
        for sigma in pg.enumerate_group(n):
            assert pg.big_h(sigma) == pg.big_h(sigma.inverse())
            assert pg.isolated_fixed_points(sigma) == pg.isolated_fixed_points(
                sigma.inverse()
            )


class TestIsolatedSplit:
    def test_s2_table(self):
        # h(e) = 2, h(transposition) = 0
        assert pg.isolated_fixed_points(Permutation.identity(2)) == 2
        assert pg.isolated_fixed_points(perm(2, 1)) == 0
        assert pg.check_isolated_split(1).passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive(self, n):
        report = pg.check_isolated_split(n)
        assert report.passed
        assert report.cases == math.factorial(n + 1)

    def test_identity_counts_every_position(self):
        assert pg.isolated_fixed_points(Permutation.identity(6)) == 6

    def test_size_guard(self):
        # the same degree cap as the metric and embedding checks
        with pytest.raises(SizeLimitError, match=r"group cap 8 \(MAX_GROUP_DEGREE\)"):
            pg.check_isolated_split(pg.MAX_GROUP_DEGREE)

    def test_answers_at_the_group_cap(self):
        report = pg.check_isolated_split(pg.MAX_GROUP_DEGREE - 1)
        assert report.passed
        assert report.cases == math.factorial(pg.MAX_GROUP_DEGREE)


WRONG_AT = (1, 3, 2, 4)  # third in S(4); two isolated fixed points, 1 and 4


@pytest.fixture
def wrong_count(monkeypatch):
    # isolated_fixed_points off by one on WRONG_AT only
    real = pg.isolated_fixed_points
    monkeypatch.setattr(pg, "isolated_fixed_points",
                        lambda s: real(s) + (s.images == WRONG_AT))


def test_isolated_split_names_the_first_wrong_element(wrong_count):
    report = pg.check_isolated_split(3)
    assert not report.passed
    assert (report.cases, report.witness) == (3, (perm(*WRONG_AT),))
    assert report.detail == "split count 2 != isolated fixed points 3 for (1, 3, 2, 4)"


def test_embedding_consistency_names_the_first_wrong_element(wrong_count):
    report = pg.embedding_consistency(4)
    assert not report.passed
    assert (report.cases, report.witness) == (3, (perm(*WRONG_AT),))
    assert report.detail == "h(embedding) = 2 but isolated fixed points = 3 for (1, 3, 2, 4)"


NEGATIVE_DEGREE = {
    "enumerate_group": lambda: pg.enumerate_group(-1),
    "metric_checks": lambda: pg.metric_checks(-1),
    "kernel_matrix": lambda: pg.kernel_matrix(-1, lambda s: 1.0),
    "check_positive_definite": lambda: pg.check_positive_definite(-1, lambda s: 1.0),
    "check_cnd": lambda: pg.check_cnd(-1),
    "embedding_consistency": lambda: pg.embedding_consistency(-1),
    "check_isolated_split": lambda: pg.check_isolated_split(-2),
}


@pytest.mark.parametrize("entry", NEGATIVE_DEGREE)
def test_negative_degree_refused(entry, monkeypatch):
    if entry != "enumerate_group":  # refused before the group is listed
        monkeypatch.setattr(pg, "enumerate_group", lambda n: pytest.fail("work started"))
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        NEGATIVE_DEGREE[entry]()


def test_degree_zero_is_the_trivial_group():
    e = Permutation(())
    assert pg.enumerate_group(0) == (e,)
    assert pg.kernel_matrix(0, lambda s: 2.0).entries.tolist() == [[2.0]]
    assert pg.metric_checks(0).triples_checked == 1
    assert pg.check_isolated_split(-1).cases == 1


@pytest.mark.parametrize("triples", [0, -3])
def test_sampled_metric_needs_a_triple(triples):
    with pytest.raises(ValueError, match=f"triples >= 1, got {triples}"):
        pg.metric_checks(6, triples=triples)
    # an exhaustive degree ignores triples
    assert pg.metric_checks(4, triples=triples).triples_checked == 24 ** 3


@pytest.mark.parametrize("n", [6, 8])
def test_sampled_metric_refuses_past_the_triples_cap(n, monkeypatch):
    monkeypatch.setattr(pg.Xorshift64Star, "randrange",
                        lambda self, k: pytest.fail("a triple was drawn"))
    with pytest.raises(SizeLimitError, match=r"^triples 1000001 exceeds the triples cap "
                                             r"1000000 \(MAX_TRIPLES\)$"):
        pg.metric_checks(n, triples=MAX_TRIPLES + 1)
    # an exhaustive degree ignores triples
    assert pg.metric_checks(3, triples=MAX_TRIPLES + 1).triples_checked == 6 ** 3


class TestKernelMatrix:
    def test_constant_one(self):
        km = pg.kernel_matrix(3, lambda s: 1.0)
        assert np.array_equal(km.entries, np.ones((6, 6)))
        eigs = rm.spectrum(km.entries)
        assert eigs[-1] == pytest.approx(6.0)
        assert np.allclose(eigs[:-1], 0.0, atol=1e-12)

    def test_identity_indicator(self):
        km = pg.kernel_matrix(3, lambda s: 1.0 if s == Permutation.identity(3) else 0.0)
        assert np.array_equal(km.entries, np.eye(6))

    def test_h_kernel_diagonal(self):
        km = pg.kernel_matrix(3, lambda s: float(pg.isolated_fixed_points(s)))
        assert np.array_equal(np.diag(km.entries), np.full(6, 3.0))
        assert np.array_equal(km.entries, km.entries.T)

    def test_size_guard(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no work above the kernel cap")

        monkeypatch.setattr(pg, "enumerate_group", refuse)
        with pytest.raises(SizeLimitError):
            pg.kernel_matrix(6, refuse)


class TestPositiveDefinite:
    def test_h_is_psd_on_s4(self):
        ok, min_eig = pg.check_positive_definite(
            4, lambda s: float(pg.isolated_fixed_points(s))
        )
        assert ok
        assert min_eig >= -1e-8 * 5.0

    @pytest.mark.parametrize("b", [1.0, 1.5, 2.0, 3.0])
    def test_b_geq_1_powers_are_psd(self, b):
        ok, _ = pg.check_positive_definite(
            4, lambda s: b ** pg.isolated_fixed_points(s)
        )
        assert ok

    @pytest.mark.parametrize("x", [0.1, 0.7, 2.0])
    def test_exponential_h_is_psd(self, x):
        ok, _ = pg.check_positive_definite(
            4, lambda s: math.exp(-x * pg.big_h(s))
        )
        assert ok

    def test_small_b_behavior_recorded_not_asserted(self):
        # the positivity claim is only made for b >= 1; just exercise b < 1
        ok, min_eig = pg.check_positive_definite(
            4, lambda s: 0.25 ** pg.isolated_fixed_points(s)
        )
        assert isinstance(ok, bool)
        assert min_eig == min_eig

    def test_non_inverse_invariant_kernel_rejected(self):
        # f(g) != f(g^-1) gives a non-symmetric kernel; eigvalsh would read
        # one triangle and return a verdict, so the solver must refuse it
        with pytest.raises(ValueError, match="symmetric"):
            pg.check_positive_definite(3, lambda s: 1.0 if s(1) == 2 else 0.0)

    @pytest.mark.parametrize("n, least", [(2, 3.0), (3, 5.0), (4, 8.0), (5, 13.0)])
    def test_two_power_h_least_eigenvalue(self, n, least):
        # regression values observed on S(2..5), not proved: the least
        # eigenvalue of the 2^h kernel follows 3, 5, 8, 13
        ok, min_eig = pg.check_positive_definite(n, lambda s: 2.0 ** pg.isolated_fixed_points(s))
        assert ok
        assert min_eig == pytest.approx(least, abs=1e-9 * (1 + 2.0 ** n))

    def test_alternating_sign_not_psd(self):
        # sanity: signature character of S(3) shifted to break positivity
        def f(s):
            inversions = sum(
                1
                for i, j in itertools.combinations(range(1, 4), 2)
                if s(i) > s(j)
            )
            return (-1.0) ** inversions - 0.5

        ok, min_eig = pg.check_positive_definite(3, f)
        assert not ok
        assert min_eig < 0


BAD_TOLS = [float("nan"), float("inf"), float("-inf"), 0.0, -1e-8]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_tolerance_must_be_finite_and_positive(tol, monkeypatch):
    # a NaN tol failed every PSD verdict and an infinite one passed any kernel
    def refuse(*args):
        raise AssertionError("no kernel for a rejected tolerance")

    monkeypatch.setattr(pg, "kernel_matrix", refuse)
    with pytest.raises(ValueError, match="tol"):
        pg.check_positive_definite(3, lambda s: 1.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        pg.check_cnd(3, tol=tol)


class TestCnd:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_h_conditionally_negative(self, n):
        rep = pg.check_cnd(n)
        assert rep.passed
        scale = 1.0 + n  # max entry of the H kernel is at most n
        assert rep.centered_min_eig >= -1e-8 * scale

    def test_size_guard_is_the_kernel_cap(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no work above the kernel cap")

        monkeypatch.setattr(pg, "enumerate_group", refuse)
        with pytest.raises(SizeLimitError, match=r"kernel cap 5 \(MAX_KERNEL_DEGREE\)"):
            pg.check_cnd(pg.MAX_KERNEL_DEGREE + 1)

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("kwargs", [{}, {"exponents": (), "tol": 1e-6}])
    def test_report_is_the_kernel_matrix_of_big_h(self, n, kwargs):
        # the whole-group kernel from _big_h_of, float for float the one
        # kernel_matrix builds from big_h element by element
        tol = kwargs.get("tol", 1e-8)
        k = pg.kernel_matrix(n, lambda s: float(pg.big_h(s))).entries
        proj = np.eye(len(k)) - np.full(k.shape, 1.0 / len(k))
        centered = -(proj @ k @ proj)
        ok, centered_min = rm._psd_verdict((centered + centered.T) / 2.0, tol, scale_of=k)
        schoenberg = {}
        for x in kwargs.get("exponents", (0.1, 0.5, 1.0, 2.0)):
            passed, schoenberg[x] = rm._psd_verdict(np.exp(-x * k), tol)
            ok = ok and passed
        detail = f"centered min eig {centered_min:.3e}; " + "; ".join(
            f"exp(-{x}H) min eig {m:.3e}" for x, m in schoenberg.items())
        assert pg.check_cnd(n, **kwargs) == pg.CndReport(ok, centered_min, schoenberg, detail)

    def test_schoenberg_exponentials_present(self):
        rep = pg.check_cnd(3)
        assert set(rep.schoenberg_min_eigs) == {0.1, 0.5, 1.0, 2.0}
        for val in rep.schoenberg_min_eigs.values():
            assert val >= -1e-8 * 2.0

    def test_constant_direction_excluded(self):
        # -K itself is NOT psd (H >= 0 kernel), only its centered form is
        km = pg.kernel_matrix(3, lambda s: float(pg.big_h(s)))
        eigs = rm.spectrum(-km.entries)
        assert eigs[0] < -1e-6


class TestMetric:
    def test_s4_exhaustive(self):
        rep = pg.metric_checks(4)
        assert rep.passed
        assert rep.exhaustive
        assert rep.triples_checked == 24 ** 3

    def test_s5_exhaustive_pairs_and_triples(self):
        rep = pg.metric_checks(5)
        assert rep.passed
        assert rep.triples_checked == 120 ** 3

    def test_s6_sampled(self):
        rep = pg.metric_checks(6, triples=20_000, seed=3)
        assert rep.passed
        assert not rep.exhaustive
        assert rep.triples_checked == 20_000

    def test_sampling_deterministic(self):
        a = pg.metric_checks(6, triples=500, seed=11)
        b = pg.metric_checks(6, triples=500, seed=11)
        assert a == b

    def test_size_guard_before_enumerating(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"enumerate_group({n}) called")

        monkeypatch.setattr(pg, "enumerate_group", refuse)
        degree = pg.MAX_GROUP_DEGREE + 1
        with pytest.raises(SizeLimitError):
            pg.metric_checks(degree, triples=10)
        with pytest.raises(SizeLimitError):
            pg.embedding_consistency(degree)
        with pytest.raises(SizeLimitError):
            pg.metric_checks(12, triples=10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_subadditivity_direct(self, n):
        for sigma in pg.enumerate_group(n):
            for tau in pg.enumerate_group(n):
                assert pg.big_h(sigma * tau) <= pg.big_h(sigma) + pg.big_h(tau)


class TestIndicatorSubadditivity:
    @staticmethod
    def _delta(sigma, j):
        # 1 unless position j+1 is an isolated fixed point of sigma
        n = sigma.degree
        prefix = set(range(1, j + 1))
        suffix = set(range(j + 2, n + 1))
        ok = (
            sigma(j + 1) == j + 1
            and {sigma(i) for i in prefix} == prefix
            and {sigma(i) for i in suffix} == suffix
        )
        return 0 if ok else 1

    def test_deltas_sum_to_big_h(self):
        for sigma in pg.enumerate_group(4):
            total = sum(self._delta(sigma, j) for j in range(4))
            assert total == pg.big_h(sigma)

    def test_each_delta_subadditive_on_s4(self):
        group = pg.enumerate_group(4)
        for j in range(4):
            for sigma in group:
                for tau in group:
                    assert self._delta(sigma * tau, j) <= (
                        self._delta(sigma, j) + self._delta(tau, j)
                    )


# Split points by the definition, and their generating functions in integer
# series arithmetic: oracles that share no code with permgroup.  k is a split
# point of sigma when sigma fixes k and maps {1..k-1} onto itself, that is
# when {k} is a one-point block of sigma's direct-sum decomposition into
# indecomposable permutations (Comtet, Advanced Combinatorics (1974); OEIS
# A003319).  A polynomial of degree n in x is fixed by its values at
# x = 0..n, so the tests compare sums of x ** #split there.


def _split_set(images):
    # bitmask of the split points of one-line images, bit k for point k
    mask = 0
    for k, image in enumerate(images, 1):
        if image == k and set(images[:k - 1]) == set(range(1, k)):
            mask |= 1 << k
    return mask


def _sign(images):
    inversions = sum(a > b for a, b in itertools.combinations(images, 2))
    return -1 if inversions % 2 else 1


def _inverse_series(a, top):
    # 1 / a(z) to order top, for integer coefficients with a[0] = 1
    b = [1]
    for k in range(1, top + 1):
        b.append(-sum(a[j] * b[k - j] for j in range(1, min(k, len(a) - 1) + 1)))
    return b


def _split_series(x, top):
    # sum over S(n) of x ** #split, n = 0..top: 1 / (1 - I(z) - (x - 1) z)
    # with I(z) = 1 - 1 / F(z), F(z) = sum_k k! z^k the indecomposables
    one_minus_i = _inverse_series([math.factorial(k) for k in range(top + 1)], top)
    one_minus_i[1] -= x - 1
    return _inverse_series(one_minus_i, top)


def _signed_split_series(x, top):
    # sum over S(n) of sgn * x ** #split: (1 + z) / (1 - (x - 1) z (1 + z)),
    # as the sign sums to 0 over the indecomposables of degree >= 2
    b = _inverse_series([1, 1 - x, 1 - x], top)
    return [b[k] + (b[k - 1] if k else 0) for k in range(top + 1)]


class TestSplitSeries:
    def test_series_heads(self):
        # by hand: S(2) has split counts 2, 0; S(3) in lexicographic order
        # 3, 1, 1, 0, 0, 0 with signs +, -, -, +, +, -
        assert [_split_series(x, 3) for x in (0, 2)] == [[1, 0, 1, 3], [1, 2, 5, 15]]
        assert _signed_split_series(2, 3) == [1, 2, 4 - 1, 8 - 2 - 2 + 1 + 1 - 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_big_h_of_the_whole_group(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        images = pg._image_array(n)
        assert images.tolist() == [list(p) for p in perms]
        tally = Counter(zip(map(_sign, perms), (n - pg._big_h_of(images)).tolist()))
        for x in range(n + 1):
            assert sum(c * x ** s for (_, s), c in tally.items()) == _split_series(x, n)[n]
            assert sum(c * sign * x ** s for (sign, s), c in tally.items()) == (
                _signed_split_series(x, n)[n])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_embedded_singletons(self, n):
        counts = [pairings.singleton_blocks(pg.embed(s))[1] for s in pg.enumerate_group(n)]
        for x in range(n + 1):
            assert sum(x ** h for h in counts) == _split_series(x, n)[n]


class TestNormLemma:
    """split(sigma) & split(tau) lies in split(sigma tau): complements give
    H(sigma tau) <= H(sigma) + H(tau), with the split sets from the definition."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_split_sets_are_what_big_h_of_counts(self, n):
        splits = [_split_set(p).bit_count() for p in itertools.permutations(range(1, n + 1))]
        assert splits == (n - pg._big_h_of(pg._image_array(n))).tolist()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_common_split_points_survive_composition(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        split = {p: _split_set(p) for p in perms}
        for sigma in perms:
            for tau in perms:
                common = split[sigma] & split[tau]
                if common:
                    composed = tuple(sigma[t - 1] for t in tau)
                    assert common & ~split[composed] == 0, (sigma, tau)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_extend_adds_only_split_points(self, n):
        for p in itertools.permutations(range(1, n + 1)):
            for m in range(n, n + 3):
                added = sum(1 << k for k in range(n + 1, m + 1))
                assert _split_set(Permutation(p).extend(m).images) == _split_set(p) | added


KERNEL_FUNCTIONS = {
    "h": lambda s: float(pg.isolated_fixed_points(s)),
    "b^h": lambda s: 2.0 ** pg.isolated_fixed_points(s),
    "exp(-xH)": lambda s: math.exp(-0.7 * pg.big_h(s)),
    "sigma(1)": lambda s: float(s(1)),  # not a class function
}


class TestFastPathsMatchOracles:
    """The index-table kernel and the array metric check against the
    element-at-a-time bodies in tests/brute.py."""

    @pytest.mark.parametrize("name", sorted(KERNEL_FUNCTIONS))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_kernel_entries_byte_equal(self, n, name):
        f = KERNEL_FUNCTIONS[name]
        km = pg.kernel_matrix(n, f)
        ref = brute.kernel_entries(n, f)
        assert km.order == math.factorial(n)
        assert km.entries.dtype == ref.dtype and km.entries.shape == ref.shape
        assert km.entries.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_kernel_calls_f_once_per_element(self, n):
        seen = []

        def f(sigma):
            seen.append(sigma)
            return 1.0

        pg.kernel_matrix(n, f)
        assert len(seen) == math.factorial(n)
        assert seen == list(pg.enumerate_group(n))

    @pytest.mark.parametrize("n", range(0, 9))
    def test_array_h_and_rank(self, n):
        images = pg._image_array(n)
        group = pg.enumerate_group(n)
        assert pg._big_h_of(images).tolist() == [pg.big_h(g) for g in group]
        assert pg._rank(images).tolist() == list(range(len(group)))
        inverse_ranks = pg._rank(pg._invert(images))
        assert [group[i] for i in inverse_ranks] == [g.inverse() for g in group]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_quotient_table(self, n):
        group = pg.enumerate_group(n)
        table = pg._quotient_table(n)
        assert not table.flags.writeable
        for a, b in [(0, 0), (len(group) - 1, 0), (len(group) // 2, len(group) - 1)]:
            assert group[table[a, b]] == group[a].inverse() * group[b]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_metric_reports_equal(self, n):
        assert pg.metric_checks(n) == brute.metric_report(n)

    @pytest.mark.parametrize("n, triples, seed", [
        (6, 4000, 0), (6, 4000, 1), (6, 4000, 17), (6, 4100, 5),
        (7, 2000, 0), (8, 500, 0), (6, 0, 0),
    ])
    def test_sampled_metric_reports_equal(self, n, triples, seed):
        if triples < 1:  # an empty sample checks nothing and is refused
            with pytest.raises(ValueError, match="triples >= 1"):
                pg.metric_checks(n, triples=triples, seed=seed)
            return
        assert pg.metric_checks(n, triples=triples, seed=seed) == brute.metric_report(
            n, triples, seed)

    @pytest.mark.parametrize("n, triples, seed", [
        (4, 0, 0), (5, 0, 0), (6, 5000, 2), (6, 9000, 3)])
    def test_first_failing_triple_equal(self, monkeypatch, n, triples, seed):
        # H^2 is symmetric and vanishes only at e, but breaks the triangle
        # inequality; both paths must report the same first failing triple.
        # At n <= 5 the library reads only the r = e slice, the oracle loops
        # over every r.
        h_of, big_h = pg._big_h_of, pg.big_h
        monkeypatch.setattr(pg, "_big_h_of", lambda images: h_of(images) ** 2)
        monkeypatch.setattr(pg, "big_h", lambda sigma: big_h(sigma) ** 2)
        got = pg.metric_checks(n, triples=triples, seed=seed)
        assert not got.passed and got.detail == "triangle inequality fails"
        assert got == brute.metric_report(n, triples, seed)

    @pytest.mark.parametrize("seed, first", [(3, 6161), (6, 4835), (7, 8029), (2, None)])
    def test_failure_past_the_first_block(self, monkeypatch, seed, first):
        # H + 7 at the transposition (1 2) breaks the triangle inequality
        # rarely enough that the first failure lies beyond one block
        bumped = (2, 1, 3, 4, 5, 6)
        h_of, big_h = pg._big_h_of, pg.big_h
        monkeypatch.setattr(pg, "_big_h_of", lambda images: h_of(images) + 7 * (
            images == np.array(bumped)).all(axis=-1))
        monkeypatch.setattr(pg, "big_h", lambda sigma: big_h(sigma) + 7 * (
            sigma.images == bumped))
        got = pg.metric_checks(6, triples=20_000, seed=seed)
        assert got.triples_checked == (20_000 if first is None else first)
        assert got.triples_checked > pg._METRIC_BLOCK
        assert got == brute.metric_report(6, 20_000, seed)
