import itertools
import math

import numpy as np
import pytest

from pairmoments import pairings, permgroup as pg
from pairmoments import randmat as rm
from pairmoments.exceptions import SizeLimitError
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
        with pytest.raises(SizeLimitError):
            pg.check_isolated_split(7)


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

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            pg.kernel_matrix(6, lambda s: 1.0)


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


class TestCnd:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_h_conditionally_negative(self, n):
        rep = pg.check_cnd(n)
        assert rep.passed
        scale = 1.0 + n  # max entry of the H kernel is at most n
        assert rep.centered_min_eig >= -1e-8 * scale

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
