from fractions import Fraction

import numpy as np
import pytest

import brute
from pairmoments import _arrays, pairings, weights
from pairmoments.pairings import PairPartition
from pairmoments.weights import (
    ComponentPower,
    Constant1,
    CrossingPower,
    Product,
    SingletonCountPower,
    SingletonHPower,
)

HALF = Fraction(1, 2)


def P(*pairs):
    return PairPartition.from_pairs(pairs)


class TestEvaluate:
    def test_constant(self):
        assert weights.evaluate(Constant1(), P((1, 4), (2, 6), (3, 5))) == 1

    def test_h_power_noncrossing_is_one(self):
        # all singletons => H = 0, so any base gives 1
        assert weights.evaluate(SingletonHPower(HALF), P((1, 6), (2, 5), (3, 4))) == 1

    def test_crossing_power_single_crossing(self):
        q = Fraction(2, 7)
        assert weights.evaluate(CrossingPower(q), P((1, 3), (2, 4))) == q

    def test_component_power(self):
        # (1,2),(3,5),(4,6): cc = 2, n = 3 => s^1
        s = Fraction(3, 5)
        assert weights.evaluate(ComponentPower(s), P((1, 2), (3, 5), (4, 6))) == s

    def test_singleton_count_power(self):
        assert weights.evaluate(SingletonCountPower(2), P((1, 2), (3, 5), (4, 6))) == 2

    def test_zero_base_indicator(self):
        # 0^0 = 1: b = 0 turns the H-power into the non-crossing indicator
        spec = SingletonHPower(0)
        assert weights.evaluate(spec, P((1, 6), (2, 5), (3, 4))) == 1
        assert weights.evaluate(spec, P((1, 3), (2, 4))) == 0

    @pytest.mark.parametrize(
        "spec",
        [Constant1(), CrossingPower(HALF), ComponentPower(HALF), SingletonHPower(HALF)],
    )
    def test_normalized_at_one_pair(self, spec):
        assert weights.evaluate(spec, P((1, 2))) == 1

    def test_singleton_count_power_not_normalized(self):
        assert weights.evaluate(SingletonCountPower(3), P((1, 2))) == 3

    @pytest.mark.parametrize("n", range(1, 5))
    def test_product_is_pointwise_product(self, n):
        a = CrossingPower(Fraction(1, 3))
        b = SingletonHPower(Fraction(2, 5))
        prod = Product([a, b])
        for v in pairings.enumerate_pairings(n):
            assert weights.evaluate(prod, v) == (
                weights.evaluate(a, v) * weights.evaluate(b, v)
            )

    def test_float_parameters_stay_float(self):
        val = weights.evaluate(CrossingPower(0.25), P((1, 3), (2, 4)))
        assert isinstance(val, float) and val == 0.25


class TestStatisticPolynomial:
    def test_h_power_n2(self):
        poly = weights.statistic_polynomial(SingletonHPower, 2)
        assert dict(poly.coefficients) == {0: 2, 2: 1}

    def test_h_power_n3(self):
        poly = weights.statistic_polynomial(SingletonHPower, 3)
        assert dict(poly.coefficients) == {0: 5, 2: 6, 3: 4}

    @pytest.mark.parametrize(
        "family",
        [CrossingPower, ComponentPower, SingletonHPower],
    )
    def test_n1_constant(self, family):
        # cr, n-cc, and H all vanish on the one-pair partition
        poly = weights.statistic_polynomial(family, 1)
        assert dict(poly.coefficients) == {0: 1}
        assert poly.evaluate(Fraction(7, 3)) == 1

    def test_n1_singleton_count(self):
        # the raw singleton count is 1 on the one-pair partition, not 0
        poly = weights.statistic_polynomial(SingletonCountPower, 1)
        assert dict(poly.coefficients) == {1: 1}
        assert poly.evaluate(Fraction(7, 3)) == Fraction(7, 3)

    @pytest.mark.parametrize("family,n,x,bits", [
        (CrossingPower, 6, 0.1, "0x1.82067c986c9adp+7"),
        (CrossingPower, 8, -0.7, "0x1.0a4352189ea51p+5"),
        (ComponentPower, 12, -0.7, "-0x1.adad7620c8fdcp+28"),
        (SingletonHPower, 8, 0.9, "0x1.e67dc9da6185ap+19"),
        (SingletonCountPower, 12, 1.1, "0x1.49115907d60bfp+38"),
        (SingletonCountPower, 20, -0.7, "0x1.78a9876840d85p+75"),
    ])
    def test_float_evaluate_adds_left_to_right(self, family, n, x, bits):
        # the terms added in exponent order, one rounding per addition; the
        # compensated float sum of builtin sum (Python 3.12+) gives other
        # bits on every row here
        assert weights.statistic_polynomial(family, n).evaluate(x).hex() == bits

    @pytest.mark.parametrize("n", range(1, 6))
    def test_endpoint_evaluations(self, n):
        poly = weights.statistic_polynomial(SingletonHPower, n)
        assert poly.evaluate(0) == pairings.count_nc_pairings(n)
        assert poly.evaluate(1) == pairings.pairing_count(n)
        assert poly.total() == pairings.pairing_count(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_h_family_first_moment_is_singleton_total(self, n):
        poly = weights.statistic_polynomial(SingletonCountPower, n)
        assert sum(k * c for k, c in poly.coefficients.items()) == (
            pairings.total_singletons(n)
        )

    @pytest.mark.parametrize(
        "family,spec",
        [
            (CrossingPower, CrossingPower(Fraction(2, 3))),
            (ComponentPower, ComponentPower(Fraction(2, 3))),
            (SingletonHPower, SingletonHPower(Fraction(2, 3))),
            (SingletonCountPower, SingletonCountPower(Fraction(2, 3))),
        ],
    )
    @pytest.mark.parametrize("n", range(1, 6))
    def test_polynomial_equals_direct_sum(self, family, spec, n):
        poly = weights.statistic_polynomial(family, n)
        direct = sum(
            weights.evaluate(spec, v) for v in pairings.enumerate_pairings(n)
        )
        assert poly.evaluate(Fraction(2, 3)) == direct

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            weights.statistic_polynomial(Constant1, 2)

    @pytest.mark.parametrize("family", [CrossingPower, ComponentPower, SingletonHPower,
                                        SingletonCountPower])
    def test_graded_evaluate_keeps_value_and_type(self, family):
        # the sorted term loop, as first written, is the reference
        for n in (1, 2, 7, pairings.TABLE_MAX_N):
            poly = weights.statistic_polynomial(family, n)
            for x in (0, 1, 3, -2, Fraction(0), Fraction(1), Fraction(2, 7),
                      Fraction(-5, 3), 0.3, -1.5):
                want = sum(c * x ** k for k, c in sorted(poly.coefficients.items()))
                got = poly.evaluate(x)
                assert type(got) is type(want)
                assert got == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("family", [CrossingPower, ComponentPower, SingletonHPower,
                                        SingletonCountPower])
    def test_numpy_integers_evaluate_as_ints(self, family, dtype):
        # a fixed-width integer would overflow in the term loop: 3^cr alone
        # passes 2^63 at n = 12
        poly = weights.statistic_polynomial(family, 12)
        for x in (3, -2, 0, 1):
            got, want = poly.evaluate(dtype(x)), poly.evaluate(x)
            assert type(got) is int and got == want

    def test_graded_powers_pinned(self):
        for x in (3, -2, 0, Fraction(0), Fraction(-5, 3)):
            a, d = x.numerator, x.denominator
            for top in (0, 1, 6):
                table, scale = weights._graded_powers(x, top)
                assert table == [a ** e * d ** (top - e) for e in range(top + 1)]
                assert scale == d ** top
                assert {type(v) for v in table + [scale]} == {int}

    def test_hand_built_polynomials_keep_the_loop(self):
        assert weights.StatisticPolynomial(1, {}).evaluate(Fraction(1, 2)) == 0
        got = weights.StatisticPolynomial(1, {-1: 2, 1: 3}).evaluate(2)
        assert type(got) is float and got == 7.0

    def test_coefficients_are_read_only(self):
        poly = weights.statistic_polynomial(CrossingPower, 4)
        with pytest.raises(TypeError):
            poly.coefficients[0] = 0
        assert weights.statistic_polynomial(CrossingPower, 4).coefficients == {
            0: 14, 1: 28, 2: 28, 3: 20, 4: 10, 5: 4, 6: 1}


class _CrossingCountPlusOne(weights.WeightSpec):
    # additive, hence not strongly multiplicative: a failure witness
    def weight_of(self, n, cr, h, cc):
        return cr + 1


class TestStrongMultiplicativity:
    @pytest.mark.parametrize(
        "spec",
        [
            Constant1(),
            SingletonHPower(HALF),
            CrossingPower(Fraction(1, 3)),
            ComponentPower(Fraction(2, 3)),
            SingletonCountPower(Fraction(3, 2)),
            Product([CrossingPower(HALF), SingletonHPower(Fraction(1, 3))]),
        ],
    )
    def test_primitives_pass(self, spec):
        report = weights.check_strong_multiplicativity(spec, 5)
        assert report.passed
        assert report.counterexample is None

    def test_constant_trivially_passes(self):
        assert weights.check_strong_multiplicativity(Constant1(), 5).passed

    def test_counterexample_reported_for_additive_weight(self):
        report = weights.check_strong_multiplicativity(_CrossingCountPlusOne(), 4)
        assert not report.passed
        assert report.counterexample is not None
        # the witness really does violate factorization
        v = report.counterexample
        whole = weights.evaluate(_CrossingCountPlusOne(), v)
        _, comps = pairings.connected_components(v)
        assert len(comps) > 1

    @pytest.mark.parametrize("n", range(1, 5))
    def test_oracle_agreement(self, n):
        # factorization implies the weight is determined by component shapes;
        # cross-check one nontrivial weight against the brute-force scan
        spec = SingletonHPower(HALF)
        direct = brute.weighted_sum(n, lambda cr, h, cc: HALF ** (n - h))
        mine = sum(weights.evaluate(spec, v) for v in pairings.enumerate_pairings(n))
        assert mine == direct


ORACLE_SPECS = [
    Constant1(),
    CrossingPower(Fraction(1, 3)),
    ComponentPower(Fraction(2, 3)),
    SingletonHPower(HALF),
    SingletonCountPower(Fraction(3, 2)),
    Product([CrossingPower(HALF), SingletonHPower(Fraction(1, 3))]),
    CrossingPower(0.7),
    _CrossingCountPlusOne(),
    CrossingPower(2.0),
    SingletonHPower(0),
]


class TestChecksMatchDefinitionalBodies:
    """The array checks give the same CheckReport, field for field, as the
    per-partition check bodies kept in brute.py, at every nmax up to 7."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=[
        "const", "qcr", "scc", "bH", "betah", "product", "qcr-float", "cr-plus-one",
        "qcr-2.0", "bH-0"])
    def test_strong_multiplicativity(self, spec):
        for nmax in range(8):
            assert weights.check_strong_multiplicativity(spec, nmax) == \
                brute.strong_multiplicativity_report(spec, nmax)

    @pytest.mark.parametrize("stat", ["cr", "h", "cc", "H", "n-cc"])
    def test_traceability(self, stat):
        for nmax in range(8):
            assert weights.check_traceability(stat, nmax) == brute.traceability_report(stat, nmax)

    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("top", range(4, 7))
    def test_witness_row_in_a_later_chunk(self, monkeypatch, top, chunk):
        # the first case that fails starts past the first chunk and segment
        class SplitAtTop(weights.WeightSpec):
            def weight_of(self, n, cr, h, cc):
                return 2 if n == top and h == 0 and cc > 1 else 1

        monkeypatch.setattr(_arrays, "_CHUNK", chunk)
        want = brute.strong_multiplicativity_report(SplitAtTop(), top)
        assert weights.check_strong_multiplicativity(SplitAtTop(), top) == want
        assert not want.passed and want.counterexample.blocks[0] == (1, 3)

    def test_weight_of_called_once_per_key(self):
        calls = []

        class Recording(weights.WeightSpec):
            def weight_of(self, n, cr, h, cc):
                calls.append((n, cr, h, cc))
                return Fraction(1, 2) ** cr

        assert weights.check_strong_multiplicativity(Recording(), 5).passed
        assert len(calls) == len(set(calls))
        keys = {(n, *key) for n in range(1, 6)
                for key in pairings.statistic_distribution(n).counts}
        assert set(calls) == keys

    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 11])
    def test_first_changed_row_is_the_witness(self, monkeypatch, chunk):
        # a rotated row that starts (1, 3), i.e. a partition holding the
        # block (2, 2n), is made to gain a crossing; the report must name
        # the first such partition whatever the chunk size
        real = _arrays._chunk_stats

        def broken(blocks):
            cr, h, cc = real(blocks)
            return cr + (blocks[:, 0, 1] == 3), h, cc

        monkeypatch.setattr(_arrays, "_CHUNK", chunk)
        monkeypatch.setattr(_arrays, "_chunk_stats", broken)
        cases, want = 0, None
        for n in range(1, 5):
            for blocks in brute.all_pairings(range(1, 2 * n + 1)):
                cases += 1
                if want is None and (2, 2 * n) in blocks:
                    cr = brute.crossing_count(blocks)
                    want = weights.CheckReport(
                        False, cases, PairPartition.from_pairs(blocks),
                        f"cr changed from {cr} to {cr + 1} under rotation")
        assert want.cases == 3
        assert weights.check_traceability("cr", 4) == want

    @pytest.mark.parametrize("stat, at, detail", [
        ("h", 1, "h changed from 0 to 1"), ("H", 1, "H changed from 2 to 1"),
        ("cc", 2, "cc changed from 1 to 2"), ("n-cc", 2, "n-cc changed from 1 to 0")])
    def test_changed_values_are_the_statistic(self, monkeypatch, stat, at, detail):
        # the rotation of {(1,3),(2,4)}, whose (cr, h, cc) is (1, 0, 1), gains
        # one at entry `at`; H and n-cc report 2 minus the entry
        real = _arrays._chunk_stats

        def broken(blocks):
            stats = list(real(blocks))
            stats[at] = stats[at] + (blocks[:, 0, 1] == 3)
            return tuple(stats)

        monkeypatch.setattr(_arrays, "_chunk_stats", broken)
        report = weights.check_traceability(stat, 3)
        assert (report.cases, report.counterexample) == (
            3, PairPartition.from_pairs([(1, 3), (2, 4)]))
        assert report.detail == f"{detail} under rotation"


class TestTraceability:
    @pytest.mark.parametrize("stat", ["cr", "h", "cc", "H", "n-cc"])
    def test_all_statistics_traceable(self, stat):
        report = weights.check_traceability(stat, 5)
        assert report.passed, report.detail

    def test_small_case(self):
        assert weights.check_traceability("h", 2).passed

    def test_unknown_statistic(self):
        for statistic in ("parity", "n - cc", None):
            with pytest.raises(ValueError, match="cr, h, cc, H or n-cc"):
                weights.check_traceability(statistic, 3)
