import itertools
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from pairmoments import moments as mo
from pairmoments import randmat as rm
from pairmoments import rng as rng_mod
from pairmoments.exceptions import SizeLimitError
from pairmoments.rng import Xorshift64Star, mix64, substream_seed

LANE = rng_mod._LANE_STEPS
BULK = rng_mod._BULK_MIN


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

    @pytest.mark.parametrize("count", [
        0, 1, LANE - 1, LANE, 2 * LANE - 1, 2 * LANE, 2 * LANE + 1,
        BULK - 1, BULK, BULK + 1, 7821, 45150, 90300,
    ])
    @pytest.mark.parametrize("seed", [0, 2**40 + 3, 2**64 - 1])
    def test_words_match_scalar_step(self, seed, count):
        rng = Xorshift64Star(seed)
        want, end = brute.xorshift_words(rng._state, count)
        got = rng._words(count)
        assert (got.dtype, got.shape) == (np.uint64, (count,))
        assert got.tolist() == want
        assert rng._state == end  # same stream position

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 20_000))
    def test_words_match_scalar_step_property(self, seed, count):
        rng = Xorshift64Star(seed)
        want, end = brute.xorshift_words(rng._state, count)
        assert rng._words(count).tolist() == want
        assert rng._state == end

    def test_jump_tables_are_lane_steps_of_the_scalar_step(self):
        tables = rng_mod._jump_tables()
        for j in range(64):
            assert tables[j // 8][1 << (j % 8)] == brute.xorshift_words(1 << j, LANE)[1]
        state = 0xF0E1D2C3B4A59687
        jumped = 0
        for b, table in enumerate(tables):
            jumped ^= table[(state >> (8 * b)) & 255]
        assert jumped == brute.xorshift_words(state, LANE)[1]

    def test_jump_tables_built_on_first_bulk_draw(self):
        script = (
            "from pairmoments import rng\n"
            "built = rng._jump_tables.cache_info().currsize\n"
            "rng.Xorshift64Star(1).normals(rng._BULK_MIN - 2)\n"
            "assert (built, rng._jump_tables.cache_info().currsize) == (0, 0)\n"
            "rng.Xorshift64Star(1).rademacher(64 * rng._BULK_MIN)\n"
            "assert rng._jump_tables.cache_info().currsize == 1\n"
        )
        src = os.path.dirname(os.path.dirname(rng_mod.__file__))
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("count", [
        0, 1, 2, 3, 1001, 8193, 45150,
        BULK - 1, BULK + 2 * LANE + 1, rng_mod._NORMALS_CHUNK + BULK + 1,
    ])
    @pytest.mark.parametrize("seed", [0, 9, 2**40 + 3])
    def test_normals_match_scalar_box_muller(self, seed, count):
        fast, scalar = Xorshift64Star(seed), Xorshift64Star(seed)
        assert fast.normals(count).tobytes() == brute.normals(scalar, count).tobytes()
        assert fast.next_u64() == scalar.next_u64()  # same stream position

    def test_normals_pinned(self):
        # float.hex of the first normals at seed 7, recorded before Box-Muller
        # moved onto arrays
        rng = Xorshift64Star(7)
        assert [x.hex() for x in rng.normals(5)] == [
            "-0x1.3ab983fb5cdd6p+0", "-0x1.0f74d4dfae362p-1", "0x1.0c564cbef73bap-2",
            "-0x1.46a2a9c2c06b7p-1", "-0x1.f5b17a16097c6p-2",
        ]
        assert rng.next_u64() == 11324640199624985426

    def test_rademacher_stream_position(self):
        # 3 words, then BULK and BULK + LANE + 2 words, which run in lanes
        for count in (130, 64 * BULK - 1, 64 * (BULK + LANE) + 65):
            rng, words = Xorshift64Star(4), Xorshift64Star(4)
            signs = rng.rademacher(count)
            drawn = [words.next_u64() for _ in range(-(-count // 64) + 1)]
            expect = [1.0 if (drawn[k // 64] >> (k % 64)) & 1 else -1.0 for k in range(count)]
            assert signs.tolist() == expect
            assert rng.next_u64() == drawn[-1]

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

    @pytest.mark.parametrize("n", [2, 3, 17, 300, 1000])
    @pytest.mark.parametrize("dist", rm.ENTRY_DISTRIBUTIONS)
    def test_matches_index_assembly(self, dist, n):
        got = rm.sample_markov(n, dist, seed=n).matrix
        assert got.tobytes() == brute.sample_markov(n, dist, n).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    @pytest.mark.parametrize("dist", rm.ENTRY_DISTRIBUTIONS)
    def test_symmetric_without_the_check(self, dist, n, monkeypatch):
        # sample_markov skips SymMatrix's symmetry check; its output still
        # passes it, exactly, and is the oracle's matrix byte for byte
        def no_check(self):
            raise AssertionError("symmetry checked on a matrix symmetric by construction")

        monkeypatch.setattr(rm.SymMatrix, "__post_init__", no_check)
        got = rm.sample_markov(n, dist, seed=3 * n)
        assert type(got) is rm.SymMatrix and got.n == n
        assert np.array_equal(got.matrix, got.matrix.T)
        assert got.matrix.tobytes() == brute.sample_markov(n, dist, 3 * n).tobytes()
        monkeypatch.undo()
        rm.SymMatrix(got.matrix)  # the public constructor accepts it

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError, match="symmetric"):
            rm.SymMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_public_constructor_refuses_non_finite_entries(self, bad, at):
        # the refusal spectrum gives, so empirical_moments never sees inf
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        a[at] = a[at[::-1]] = bad
        for build in (rm.SymMatrix, rm.spectrum):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                build(a)

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

    def test_dimension_cap_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sample_entries must not run above the cap")

        monkeypatch.setattr(rm, "sample_entries", refuse)
        with pytest.raises(SizeLimitError, match="MAX_MATRIX_DIM"):
            rm.sample_markov(rm.MAX_MATRIX_DIM + 1)
        with pytest.raises(SizeLimitError):
            rm.sample_markov(100_000)


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
        eig_path = brute.spectral_moments(m.matrix, 6)
        assert np.allclose(trace_path, eig_path, atol=1e-8)

    def test_numpy_eigvalsh_oracle(self):
        m = rm.sample_markov(30, "rademacher", seed=4)
        lam = np.linalg.eigvalsh(m.matrix / np.sqrt(30))
        ref = [float(np.mean(lam ** k)) for k in range(1, 7)]
        assert np.allclose(rm.empirical_moments(m, 6), ref, atol=1e-9)


    @pytest.mark.parametrize("kmax", range(1, 17))
    def test_matches_iterated_products(self, kmax):
        # |difference| <= 1e-12 * ||A^floor(k/2)||_F ||A^ceil(k/2)||_F / n, the
        # size of the terms of the inner product; for even k on a symmetric
        # matrix that is the moment itself.  The formed powers come from
        # syrk, whose rounding is not gemm's, so no order is pinned bit for bit.
        g = np.random.default_rng(kmax).standard_normal((70, 70))
        for a in (rm.sample_markov(90, "rademacher", seed=kmax).matrix,
                  rm.sample_markov(80, "gaussian", seed=kmax).matrix,
                  (g + g.T) / 2):
            n = len(a)
            got = rm.empirical_moments(a, kmax)
            ref = brute.empirical_moments_by_products(a, kmax)
            norms = [np.linalg.norm(np.linalg.matrix_power(a / np.sqrt(n), j))
                     for j in range(kmax + 1)]
            assert len(got) == kmax
            for k in range(1, kmax + 1):
                scale = norms[k // 2] * norms[k - k // 2] / n
                assert abs(got[k - 1] - ref[k - 1]) <= 1e-12 * scale, k

    @pytest.mark.parametrize("kmax, products", [
        (6, [True, True]), (8, [True, False, True]),
    ])
    def test_product_count(self, kmax, products):
        # kmax = 6 forms A^2 and A^4, each an array times its own transpose
        # (BLAS syrk); kmax = 8 adds one general product, A^3 = A^2 @ A
        m = rm.sample_markov(40, "gaussian", seed=kmax)
        log = []
        got = rm.empirical_moments(m.matrix.view(_Recorder).setup(log), kmax)
        assert log == products
        assert got == rm.empirical_moments(m, kmax)

    def test_non_symmetric_refused_before_any_product(self):
        products = []
        a = np.arange(16.0).reshape(4, 4).view(_Recorder).setup(products)
        with pytest.raises(ValueError, match="symmetric"):
            rm.empirical_moments(a, 6)
        assert products == []
        with pytest.raises(ValueError, match="square"):
            rm.empirical_moments(np.ones((2, 3)), 2)
        with pytest.raises(ValueError, match="finite"):
            rm.empirical_moments(np.array([[np.inf, 0.0], [0.0, 1.0]]), 2)

    def test_empty_matrix_refused_before_any_product(self):
        # spectrum takes 0 x 0 as valid, but its empty law has no moments
        assert rm.spectrum(np.zeros((0, 0))) == []
        products = []
        a = np.zeros((0, 0)).view(_Recorder).setup(products)
        for arg in (a, rm.SymMatrix(a)):
            with pytest.raises(ValueError, match="1 x 1"):
                rm.empirical_moments(arg, 6)
        assert products == []

    def test_symmetric_within_tolerance_accepted(self):
        near = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
        assert rm.empirical_moments(near, 2) == pytest.approx([2 ** -0.5, 0.625])

    @pytest.mark.parametrize("kmax", [1, 6, 9])
    def test_python_floats_and_input_unchanged(self, kmax):
        m = rm.sample_markov(30, "rademacher", seed=5)
        before = m.matrix.copy()
        for arg in (m, m.matrix):
            got = rm.empirical_moments(arg, kmax)
            assert len(got) == kmax and all(type(x) is float for x in got)
        assert m.matrix.tobytes() == before.tobytes()


class _Recorder(np.ndarray):
    """An array that appends one entry per np.matmul it takes part in:
    True when the product is of an array with its own transpose."""

    def setup(self, log):
        self.log = log
        return self

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        log = next(x.log for x in inputs if isinstance(x, _Recorder))
        plain = [x.view(np.ndarray) if isinstance(x, _Recorder) else x for x in inputs]
        if ufunc is np.matmul:
            x, y = plain
            log.append(np.may_share_memory(x, y) and y.strides == x.strides[::-1])
        out = getattr(ufunc, method)(*plain, **kwargs)
        if isinstance(out, np.ndarray):
            out = out.view(_Recorder)
            out.log = log
        return out


class TestSpectrum:
    def test_diag(self):
        assert rm.spectrum(np.diag([3.0, 1.0, 2.0])) == [1, 2, 3]

    def test_swap(self):
        assert rm.spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx([-1, 1])

    def test_trace_identity(self):
        m = rm.sample_markov(20, "rademacher", seed=8)
        assert sum(rm.spectrum(m)) == pytest.approx(np.trace(m.matrix), abs=1e-9)

    def test_symmetry_tolerance(self):
        # eigvalsh reads one triangle, so the symmetry rule is what keeps a
        # non-symmetric kernel from getting a verdict; roundoff still passes
        near = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
        assert rm.spectrum(near) == pytest.approx([0.5, 1.5])
        with pytest.raises(ValueError, match="symmetric"):
            rm.spectrum(np.array([[1.0, 0.5 + 1e-9], [0.5, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            rm.spectrum([[float("nan"), 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            rm.spectrum([[float("inf")]])

    def test_ascending_python_floats(self):
        got = rm.spectrum(rm.sample_markov(15, "gaussian", seed=2))
        assert got == sorted(got)
        assert all(type(x) is float for x in got)


class TestExactFiniteMarkovMoments:
    """E m_k of M / sqrt(n) at finite n, averaged exactly over a finite law.

    M = X - diag(row sums of X) is built here from its definition, with no
    sampler.  Rademacher entries take every sign pattern; Gaussian entries
    a 5-node Gauss-Hermite product rule, exact for the polynomials of
    degree <= 9 in each entry that m_1..m_8 are.  Each even mean is an
    exact polynomial in 1/n whose leading term is the limit sum_V 2^h(V).
    """

    # E m_2, E m_4, E m_6, E m_8 as coefficients of 1, 1/n, 1/n^2, ...
    RADEMACHER = ((2, -2), (9, -19, 10), (56, -216, 288, -128),
                  (431, -2637, 6286, -6736, 2656))
    GAUSSIAN = ((2, -2), (9, -3, -6), (56, 48, -56, -48),
                (431, 1035, 274, -1092, -648))

    @staticmethod
    def _exact_means(n, nodes, weights):
        # the weighted mean of empirical_moments(M, 8) over every assignment
        # of nodes to the entries of X above the diagonal; X's diagonal
        # cancels in M, so it is left 0
        upper = np.triu_indices(n, 1)
        total = np.zeros(8)
        for pick in itertools.product(range(len(nodes)), repeat=len(upper[0])):
            x = np.zeros((n, n))
            x[upper] = nodes[list(pick)]
            x += x.T
            m = x - np.diag(x.sum(axis=1))
            total += np.prod(weights[list(pick)]) * np.array(rm.empirical_moments(m, 8))
        return total / weights.sum() ** len(upper[0])

    def _check(self, means, polynomials, n):
        for k, mean in enumerate(means, 1):
            if k % 2:
                assert mean == pytest.approx(0, abs=1e-10), k
            else:
                coefficients = polynomials[k // 2 - 1]
                want = sum(Fraction(c, n ** i) for i, c in enumerate(coefficients))
                assert mean == pytest.approx(float(want), rel=1e-10), k

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rademacher_every_sign_pattern(self, n):
        means = self._exact_means(n, np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
        self._check(means, self.RADEMACHER, n)

    def test_gaussian_hermite_product_rule(self):
        nodes, weights = np.polynomial.hermite_e.hermegauss(5)
        self._check(self._exact_means(3, nodes, weights), self.GAUSSIAN, 3)

    def test_leading_terms_are_the_markov_limit(self):
        limit = mo.markov_limit_moments(4).values
        assert limit == (2, 9, 56, 431)
        assert tuple(c[0] for c in self.RADEMACHER) == limit
        assert tuple(c[0] for c in self.GAUSSIAN) == limit


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

    def test_targets_read_one_limit_sequence(self, monkeypatch):
        asked = []
        real = mo.markov_limit_moments
        monkeypatch.setattr(mo, "markov_limit_moments", lambda n: asked.append(n) or real(n))
        rep = rm.run_mc(rm.McConfig(n=10, trials=2, kmax=6, seed=2))
        assert asked == [3]
        assert [type(r.target) for r in rep.rows] == [float] * 6

    def test_tiny_smoke(self):
        # every Rademacher 2x2 Markov matrix has the same order-2 moment 1,
        # so the two trials tie: stderr 0 and the row fails
        rep = rm.run_mc(rm.McConfig(n=2, trials=2, kmax=2, seed=1))
        assert len(rep.rows) == 2
        assert rep.rows[1].mean == pytest.approx(1.0)
        assert rep.rows[1].stderr == 0.0
        assert not rep.rows[1].passed

    def test_moderate_run_passes(self):
        rep = rm.run_mc(rm.McConfig(n=300, trials=8, kmax=6, seed=42))
        assert rep.passed
        for row in rep.rows:
            if row.k % 2 == 0:
                assert abs(row.z) <= 4

    def test_config_validation(self):
        rm.McConfig(n=2, trials=2, kmax=2)
        with pytest.raises(ValueError):
            rm.McConfig(n=1, trials=2, kmax=2)
        with pytest.raises(ValueError):
            rm.McConfig(n=2, trials=0, kmax=2)
        with pytest.raises(ValueError, match="trials"):
            rm.McConfig(n=2, trials=1, kmax=2)  # one trial has no standard error
        with pytest.raises(ValueError):
            rm.McConfig(n=2, trials=2, kmax=1)
        with pytest.raises(ValueError):
            rm.McConfig(n=2, trials=2, kmax=2, dist="cauchy")

    # kmax is named itself, not as the half-size of its target
    @pytest.mark.parametrize("field, value, what", [
        ("n", 10.5, "matrix dimension"), ("trials", 2.0, "trials"), ("kmax", 2.5, "kmax")])
    def test_config_refuses_non_integral_sizes(self, field, value, what):
        sizes = {"n": 10, "trials": 2, "kmax": 2, field: value}
        with pytest.raises(ValueError, match=rf"^{what} must be an integer, got {value}$") as no:
            rm.McConfig(**sizes)
        assert type(no.value) is ValueError

    def test_config_rejects_kmax_beyond_cap(self):
        rm.McConfig(n=2, trials=2, kmax=41)
        with pytest.raises(SizeLimitError, match="table cap"):
            rm.McConfig(n=2, trials=2, kmax=42)  # the order-42 target needs half-size 21

    def test_config_rejects_dimension_beyond_cap(self):
        rm.McConfig(n=rm.MAX_MATRIX_DIM, trials=2, kmax=2)
        with pytest.raises(SizeLimitError, match="MAX_MATRIX_DIM"):
            rm.McConfig(n=rm.MAX_MATRIX_DIM + 1, trials=2, kmax=2)

    def test_config_rejects_trials_beyond_cap(self):
        rm.McConfig(n=2, trials=rm.MAX_TRIALS, kmax=2)
        with pytest.raises(SizeLimitError, match="MAX_TRIALS"):
            rm.McConfig(n=2, trials=rm.MAX_TRIALS + 1, kmax=2)


class TestHistogram:
    @pytest.mark.parametrize("bins", [0, rm.MAX_BINS + 1])
    def test_bins_outside_range_rejected(self, bins):
        m = rm.sample_markov(4, "rademacher", seed=13)
        with pytest.raises(ValueError, match="bins"):
            rm.eigenvalue_histogram(m, bins=bins)

    def test_counts_sum_to_dimension(self):
        m = rm.sample_markov(40, "rademacher", seed=13)
        rows = rm.eigenvalue_histogram(m, bins=10)
        assert len(rows) == 10
        assert sum(count for _, _, count in rows) == 40
        for left, right, _ in rows:
            assert left < right
