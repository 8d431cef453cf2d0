import numpy as np
import pytest

from pairmoments import randmat as rm
from pairmoments.exceptions import SizeLimitError
from pairmoments.rng import Xorshift64Star, mix64, substream_seed


class TestRng:
    def test_same_seed_same_stream(self):
        a = Xorshift64Star(123)
        b = Xorshift64Star(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = Xorshift64Star(1)
        b = Xorshift64Star(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_mix64_is_pinned(self):
        # golden values keep the stream stable across refactors and machines
        assert mix64(0) == 0
        assert mix64(1) == 6238072747940578789
        assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535

    def test_stream_is_pinned(self):
        rng = Xorshift64Star(42)
        got = [rng.next_u64() for _ in range(3)]
        assert got == [
            15519318452586786818,
            9373106599150323566,
            1566202196055454120,
        ]

    def test_substreams_decorrelated(self):
        seeds = {substream_seed(7, t) for t in range(100)}
        assert len(seeds) == 100

    def test_uniform_range(self):
        rng = Xorshift64Star(5)
        us = [rng.uniform() for _ in range(1000)]
        assert all(0 < u <= 1 for u in us)
        assert 0.4 < sum(us) / len(us) < 0.6

    def test_rademacher_values_and_count(self):
        rng = Xorshift64Star(5)
        vals = rng.rademacher(130)
        assert vals.shape == (130,)
        assert set(np.unique(vals)) == {-1.0, 1.0}

    def test_rademacher_bit_order_pinned(self):
        rng = Xorshift64Star(0)
        word = Xorshift64Star(0).next_u64()
        vals = rng.rademacher(8)
        expect = [1.0 if (word >> k) & 1 else -1.0 for k in range(8)]
        assert list(vals) == expect

    def test_normal_moments_sane(self):
        rng = Xorshift64Star(11)
        z = rng.normals(20000)
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05

    def test_xorshift_step_from_state_one(self):
        # hand-checkable recurrence: 1 >>12 leaves 1; 1<<25 xors to 2^25+1;
        # >>27 adds nothing; output is the scrambled state
        rng = Xorshift64Star.__new__(Xorshift64Star)
        rng._state = 1
        expect = (33554433 * 0x2545F4914F6CDD1D) & ((1 << 64) - 1)
        assert rng.next_u64() == expect
        assert rng._state == 33554433

    def test_randrange_bounds(self):
        rng = Xorshift64Star(3)
        draws = [rng.randrange(7) for _ in range(500)]
        assert set(draws) == set(range(7))


class TestSampleMarkov:
    def test_row_sums_zero_rademacher(self):
        m = rm.sample_markov(25, "rademacher", seed=1)
        assert np.array_equal(m.matrix.sum(axis=1), np.zeros(25))
        assert np.array_equal(m.matrix, m.matrix.T)

    def test_row_sums_zero_gaussian(self):
        n = 40
        m = rm.sample_markov(n, "gaussian", seed=1)
        assert np.abs(m.matrix.sum(axis=1)).max() <= 1e-10 * n

    def test_deterministic(self):
        a = rm.sample_markov(12, "rademacher", seed=99)
        b = rm.sample_markov(12, "rademacher", seed=99)
        assert np.array_equal(a.matrix, b.matrix)
        c = rm.sample_markov(12, "rademacher", seed=100)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_n2_structure(self):
        # M = [[-x, x], [x, -x]] with x the off-diagonal entry of X
        m = rm.sample_markov(2, "rademacher", seed=7).matrix
        x = m[0, 1]
        assert x in (-1.0, 1.0)
        assert m[0, 0] == -x
        assert m[1, 1] == -x
        assert m[1, 0] == x

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            rm.sample_markov(1)


class TestEmpiricalMoments:
    def test_identity_matrix(self):
        got = rm.empirical_moments(np.eye(2), 2)
        assert got[1] == pytest.approx(0.5)  # (1/2) trace(I/2)

    def test_zero_matrix(self):
        assert rm.empirical_moments(np.zeros((3, 3)), 4) == [0, 0, 0, 0]

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_agrees_with_eigenvalue_oracle(self, n):
        m = rm.sample_markov(n, "gaussian", seed=n)
        trace_path = rm.empirical_moments(m, 6)
        eig_path = rm.spectral_moments(m, 6)
        assert np.allclose(trace_path, eig_path, atol=1e-8)

    def test_numpy_eigvalsh_oracle(self):
        m = rm.sample_markov(30, "rademacher", seed=4)
        lam = np.linalg.eigvalsh(m.matrix / np.sqrt(30))
        ref = [float(np.mean(lam ** k)) for k in range(1, 7)]
        assert np.allclose(rm.empirical_moments(m, 6), ref, atol=1e-9)


class TestSpectrum:
    def test_diag(self):
        assert rm.spectrum(np.diag([3.0, 1.0, 2.0])) == [1, 2, 3]

    def test_swap(self):
        assert rm.spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx([-1, 1])

    def test_trace_identity(self):
        m = rm.sample_markov(20, "rademacher", seed=8)
        assert sum(rm.spectrum(m)) == pytest.approx(np.trace(m.matrix), abs=1e-9)


class TestRunMc:
    def test_deterministic_report(self):
        cfg = rm.McConfig(n=50, trials=4, kmax=4, seed=21)
        a = rm.run_mc(cfg)
        b = rm.run_mc(cfg)
        assert a == b

    def test_targets(self):
        rep = rm.run_mc(rm.McConfig(n=60, trials=3, kmax=6, seed=2))
        targets = [r.target for r in rep.rows]
        assert targets == [0, 2, 0, 9, 0, 56]

    def test_tiny_smoke(self):
        rep = rm.run_mc(rm.McConfig(n=2, trials=1, kmax=2, seed=1))
        assert len(rep.rows) == 2
        assert rep.rows[1].stderr == 0.0

    def test_moderate_run_passes(self):
        rep = rm.run_mc(rm.McConfig(n=300, trials=8, kmax=6, seed=42))
        assert rep.passed
        for row in rep.rows:
            if row.k % 2 == 0:
                assert abs(row.z) <= 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            rm.McConfig(n=1, trials=1, kmax=2)
        with pytest.raises(ValueError):
            rm.McConfig(n=2, trials=0, kmax=2)
        with pytest.raises(ValueError):
            rm.McConfig(n=2, trials=1, kmax=1)
        with pytest.raises(ValueError):
            rm.McConfig(n=2, trials=1, kmax=2, dist="cauchy")

    def test_config_rejects_kmax_beyond_cap(self):
        rm.McConfig(n=2, trials=1, kmax=17)
        with pytest.raises(SizeLimitError):
            rm.McConfig(n=2, trials=1, kmax=18)  # the order-18 target needs half-size 9


class TestHistogram:
    def test_counts_sum_to_dimension(self):
        m = rm.sample_markov(40, "rademacher", seed=13)
        rows = rm.eigenvalue_histogram(m, bins=10)
        assert len(rows) == 10
        assert sum(count for _, _, count in rows) == 40
        for left, right, _ in rows:
            assert left < right
