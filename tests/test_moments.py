import functools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from pairmoments import _arrays
from pairmoments import moments as mo
from pairmoments import pairings
from pairmoments import weights as we
from pairmoments.exceptions import DualPathMismatchError, SizeLimitError
from pairmoments.moments import (
    CumulantSequence,
    GramMatrix,
    MomentSequence,
)
from pairmoments.weights import (
    ComponentPower,
    Constant1,
    CrossingPower,
    Product,
    SingletonCountPower,
    SingletonHPower,
    WeightSpec,
)

HALF = Fraction(1, 2)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=9)


class TestSequencesApi:
    def test_moment_accessors(self):
        m = MomentSequence((2, 9, 56))
        assert m.moment(0) == 1
        assert m.moment(3) == 0
        assert m.moment(4) == 9
        assert m.order == 3
        with pytest.raises(ValueError):
            m.moment(8)

    def test_cumulant_accessors(self):
        r = CumulantSequence((1, 0))
        assert r.cumulant(2) == 1
        assert r.cumulant(5) == 0
        with pytest.raises(ValueError):
            r.cumulant(6)

    def test_shared_values_order_and_truncate(self):
        # both kinds keep their own name, type, equality and error texts
        m, r = MomentSequence((2, 9, 56)), CumulantSequence((2, 9, 56))
        assert repr(m) == "MomentSequence(values=(2, 9, 56))"
        assert repr(r) == "CumulantSequence(values=(2, 9, 56))"
        assert m != r and m == MomentSequence((2, 9, 56))
        assert hash(m) == hash(MomentSequence((2, 9, 56))) == hash(r)
        assert (m.order, r.order) == (3, 3)
        assert m.truncate(2) == MomentSequence((2, 9))
        assert r.truncate(0) == CumulantSequence(())
        with pytest.raises(ValueError, match=r"^cannot extend to N=4 \(have 3\)$"):
            m.truncate(4)
        with pytest.raises(ValueError, match="^order N must be >= 0, got -1$"):
            r.truncate(-1)
        with pytest.raises(AttributeError):
            m.values = ()

    @pytest.mark.parametrize("kind", [MomentSequence, CumulantSequence])
    def test_any_sequence_is_stored_as_a_tuple(self, kind):
        # equality, hash and truncate are a tuple's whatever came in, and
        # the numbers are kept as given; a tuple is stored as it is
        from_array = kind(np.array([2, 9]))
        assert from_array == kind((2, 9)) and hash(from_array) == hash(kind((2, 9)))
        assert type(from_array.values) is tuple
        assert all(type(x) is np.int64 for x in from_array.values)
        assert kind([1, 2, 3]).truncate(2).values == (1, 2)
        assert type(kind([1, 2, 3]).truncate(2).values) is tuple
        values = (1, 2)
        assert kind(values).values is values

    def test_gram_stores_tuples(self):
        rows = ((1, 0), (0, 1))
        from_lists = GramMatrix([[1, 0], [0, 1]])
        assert from_lists == GramMatrix(rows) == GramMatrix.from_rows(np.eye(2, dtype=int))
        assert hash(from_lists) == hash(GramMatrix(rows))
        assert from_lists.entries == rows and type(from_lists.entries[0]) is tuple
        assert all(kept is row for kept, row in zip(GramMatrix(rows).entries, rows))

    def test_gram_requires_symmetry(self):
        with pytest.raises(ValueError):
            GramMatrix.from_rows([[1, 2], [3, 1]])

    def test_gram_requires_square(self):
        with pytest.raises(ValueError):
            GramMatrix.from_rows([[1, 2]])


class TestSetPartition:
    """Set-partition predicates the recursive oracle in brute.py is checked with."""

    def test_noncrossing_predicate(self):
        assert brute.blocks_noncrossing([[1, 2], [3, 4, 5, 6]])
        assert brute.blocks_noncrossing([[1, 4], [2, 5], [3, 6]]) is False
        assert brute.blocks_noncrossing([[1, 2, 5, 6], [3, 4]])
        assert brute.blocks_noncrossing([[2, 3], [1, 4]])

    def test_even_predicate(self):
        assert brute.blocks_even([[1, 2], [3, 4, 5, 6]])
        assert not brute.blocks_even([[1], [2, 3]])

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_predicates_match_brute_force(self, k):
        import itertools

        for blocks in itertools.islice(brute.all_set_partitions(range(1, k + 1)), 500):
            assert brute.blocks_noncrossing(blocks) == brute.partition_noncrossing(blocks)


class TestEnumerateNcEven:
    """The Kreweras-count table of even non-crossing partitions by block sizes,
    against the recursive enumeration oracle brute.nc_even_partitions."""

    def test_k2(self):
        assert list(brute.nc_even_partitions(range(1, 3))) == [((1, 2),)]
        assert pairings._nc_even_types(2) == (((2,), 1),)

    def test_k4(self):
        got = set(brute.nc_even_partitions(range(1, 5)))
        assert got == {
            ((1, 2), (3, 4)),
            ((1, 4), (2, 3)),
            ((1, 2, 3, 4),),
        }
        assert pairings._nc_even_types(4) == (((2, 2), 2), ((4,), 1))

    def test_k6_count(self):
        assert pairings._nc_even_types(6) == (((2, 2, 2), 5), ((2, 4), 6), ((6,), 1))

    @pytest.mark.parametrize("k", [0, 2, 4, 6, 8])
    def test_matches_filtering_oracle(self, k):
        mine = set(brute.nc_even_partitions(range(1, k + 1)))
        ref = {
            tuple(sorted((tuple(b) for b in blocks), key=lambda b: b[0]))
            for blocks in brute.even_nc_set_partitions(k)
        }
        if k == 0:
            ref = {()}
        assert mine == ref

    @pytest.mark.parametrize("k", range(0, 17, 2))
    def test_table_matches_enumeration(self, k):
        assert pairings._nc_even_types(k) == brute.nc_even_type_counts(k)

    @pytest.mark.parametrize(
        "k,count",
        [(2, 1), (4, 3), (6, 12), (8, 55), (10, 273), (12, 1428),
         (14, 7752), (16, 43263), (18, 246675)],
    )
    def test_ternary_tree_closed_form(self, k, count):
        # number of even NC partitions of 2m points = binom(3m, m) / (2m+1)
        m = k // 2
        assert count == math.comb(3 * m, m) // (2 * m + 1)
        assert sum(c for _, c in pairings._nc_even_types(k)) == count

    def test_ternary_sum_at_twice_the_cap(self):
        # every transform at TABLE_MAX_N reads the types of 2 * TABLE_MAX_N
        assert sum(c for _, c in pairings._nc_even_types(40)) == math.comb(60, 20) // 41

    def test_transform_order_above_hard_cap(self):
        assert pairings.TABLE_MAX_N == 20
        mo.moments_from_cumulants(CumulantSequence((1,) * 20))
        with pytest.raises(SizeLimitError):
            mo.moments_from_cumulants(CumulantSequence((1,) * 21))
        with pytest.raises(SizeLimitError):
            mo.cumulants_from_moments(MomentSequence((1,) * 21))

    def test_transform_cap_override(self):
        # the transforms need no override up to the table cap, and take none
        # all cumulants 1: moments count even NC partitions, the ternary numbers
        m = mo.moments_from_cumulants(CumulantSequence((1,) * 20))
        assert m.values == tuple(math.comb(3 * k, k) // (2 * k + 1) for k in range(1, 21))
        assert mo.cumulants_from_moments(m).values == (1,) * 20
        with pytest.raises(TypeError):
            mo.moments_from_cumulants(CumulantSequence((1,) * 10), max_n=10)

    def test_all_noncrossing_even(self):
        for p in brute.nc_even_partitions(range(1, 9)):
            assert brute.blocks_noncrossing(p)
            assert brute.blocks_even(p)
            assert brute.partition_noncrossing(p)


class TestMomentCumulantTransforms:
    def test_free_gaussian(self):
        m = mo.moments_from_cumulants(CumulantSequence((1, 0, 0, 0)))
        assert m.values == (1, 2, 5, 14)

    def test_markov_limit_cumulants(self):
        m = mo.moments_from_cumulants(CumulantSequence((2, 1, 4)))
        assert m.values == (2, 9, 56)

    def test_classical_gaussian_roundtrip(self):
        m = mo.moments_from_cumulants(CumulantSequence((1, 1, 4, 27)))
        assert m.values == (1, 3, 15, 105)

    def test_inversion_examples(self):
        assert mo.cumulants_from_moments(MomentSequence((1, 2, 5, 14))).values == (1, 0, 0, 0)
        assert mo.cumulants_from_moments(MomentSequence((2, 9, 56))).values == (2, 1, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_roundtrip_cumulants(self, vals):
        r = CumulantSequence(tuple(vals))
        back = mo.cumulants_from_moments(mo.moments_from_cumulants(r))
        assert back.values == r.values

    @settings(max_examples=60, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_roundtrip_moments(self, vals):
        m = MomentSequence(tuple(vals))
        back = mo.moments_from_cumulants(mo.cumulants_from_moments(m))
        assert back.values == m.values


def _typed(values):
    # value and kind of every entry; floats by their bits
    return tuple((type(v).__name__, v.hex() if isinstance(v, float) else v) for v in values)


def _random_rationals(rng, n, ints=True):
    # mixed denominators, negatives and zeros; with ints, some plain ints
    out = []
    for _ in range(n):
        kind = rng.randrange(4 if ints else 2)
        if kind == 0:
            out.append(Fraction(rng.randint(-20, 20), rng.randint(1, 30)))
        elif kind == 1:
            out.append(Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(-5, 5), 7))
        else:
            out.append(rng.randint(-9, 9) if kind == 2 else 0)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _nc_block_sizes(n):
    # block sizes of every even non-crossing partition of {1..2n}, by enumeration
    return tuple(tuple(len(b) for b in p) for p in brute.nc_even_partitions(range(1, 2 * n + 1)))


def _definitional_moments(r):
    # m_2n = sum over even non-crossing partitions of prod_B r_|B|, one term per partition
    out = []
    for n in range(1, len(r) + 1):
        total = Fraction(0)
        for sizes in _nc_block_sizes(n):
            term = Fraction(1)
            for s in sizes:
                term *= r[s // 2 - 1]
            total += term
        out.append(total)
    return tuple(out)


def _loop_moments(r):
    # the forward transform term by term, as first written: the reference
    # for value, type and rounding
    out = []
    for n in range(1, len(r) + 1):
        total = 0
        for sizes, count in pairings._nc_even_types(2 * n):
            prod = count
            for s in sizes:
                prod = prod * r[s // 2 - 1]
            total = total + prod
        out.append(total)
    return tuple(out)


def _loop_cumulants(m):
    # the inverse term by term, as first written
    r = []
    for n in range(1, len(m) + 1):
        rest = 0
        for sizes, count in pairings._nc_even_types(2 * n):
            if len(sizes) > 1:
                prod = count
                for s in sizes:
                    prod = prod * r[s // 2 - 1]
                rest = rest + prod
        r.append(m[n - 1] - rest)
    return tuple(r)


def _riordan_connected(n):
    # c_2 = 1, c_2(m+1) = m * sum_{i=1..m} c_2i c_2(m+1-i)
    c = [0, 1]
    for m in range(1, n):
        c.append(m * sum(c[i] * c[m + 1 - i] for i in range(1, m + 1)))
    return c[1:]


class TestGradedTransforms:
    """Exact input runs in ints on one scale; checked against oracles that
    share no code with it: the sum over enumerated partitions and closed forms."""

    @pytest.mark.parametrize("seed,n", [(0, 8), (1, 7), (2, 6), (3, 5), (4, 3)])
    def test_forward_matches_partition_sum(self, seed, n):
        r = _random_rationals(random.Random(seed), n)
        assert mo.moments_from_cumulants(CumulantSequence(r)).values == _definitional_moments(r)

    @pytest.mark.parametrize("seed,n", [(5, 8), (6, 7), (7, 4)])
    def test_inverse_matches_partition_sum(self, seed, n):
        m = _random_rationals(random.Random(seed), n)
        r = mo.cumulants_from_moments(MomentSequence(m)).values
        assert _definitional_moments(r) == m

    def test_ternary_numbers_at_cap(self):
        n = pairings.TABLE_MAX_N
        m = mo.moments_from_cumulants(CumulantSequence((Fraction(1),) * n)).values
        assert m == tuple(math.comb(3 * k, k) // (2 * k + 1) for k in range(1, n + 1))
        assert all(type(v) is Fraction for v in m)

    @pytest.mark.parametrize("lam_sq", [Fraction(9, 14), Fraction(5, 3), Fraction(1, 30)])
    def test_dilated_catalan_and_double_factorials_at_cap(self, lam_sq):
        n = pairings.TABLE_MAX_N
        catalan = tuple(math.comb(2 * k, k) // (k + 1) for k in range(1, n + 1))
        double_factorial = tuple(math.prod(range(1, 2 * k, 2)) for k in range(1, n + 1))
        connected = _riordan_connected(n)
        for moments, cumulants in (
            (catalan, (lam_sq,) + (0,) * (n - 1)),
            (double_factorial, tuple(lam_sq ** k * c for k, c in enumerate(connected, 1))),
        ):
            r = mo.cumulants_from_moments(mo.dilate_sq(MomentSequence(moments), lam_sq))
            assert r.values == cumulants
            back = mo.dilate_sq(mo.moments_from_cumulants(r), 1 / lam_sq)
            assert back.values == moments

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_at_cap(self, seed):
        rng = random.Random(seed)
        n = pairings.TABLE_MAX_N
        for ints in (True, False):
            x = _random_rationals(rng, n, ints)
            back_r = mo.cumulants_from_moments(mo.moments_from_cumulants(CumulantSequence(x)))
            back_m = mo.moments_from_cumulants(mo.cumulants_from_moments(MomentSequence(x)))
            assert back_r.values == x and back_m.values == x
            if not ints:
                assert _typed(back_r.values) == _typed(x) == _typed(back_m.values)


class TestGradedTypes:
    """Result types are those of the term-by-term loop."""

    def test_all_ints_give_ints(self):
        x = (1, 2, -5, 0, 14, 3)
        m = mo.moments_from_cumulants(CumulantSequence(x)).values
        r = mo.cumulants_from_moments(MomentSequence(x)).values
        assert all(type(v) is int for v in m + r)
        assert m == _definitional_moments(x)
        assert _definitional_moments(r) == x

    @pytest.mark.parametrize("x", [
        (Fraction(1), Fraction(2), Fraction(-3), Fraction(0)),
        (Fraction(1, 2), Fraction(0), Fraction(-3, 4), Fraction(5, 6), Fraction(7)),
    ])
    def test_all_fractions_give_fractions(self, x):
        # also when every denominator is 1, so the common scale is D = 1
        m = mo.moments_from_cumulants(CumulantSequence(x)).values
        r = mo.cumulants_from_moments(MomentSequence(x)).values
        assert all(type(v) is Fraction for v in m + r)
        assert _typed(m) == _typed(_loop_moments(x))
        assert _typed(r) == _typed(_loop_cumulants(x))

    def test_mixed_ints_and_fractions_pinned(self):
        # an entry is a Fraction once one of the inputs up to its order is
        x = (1, 2, Fraction(1, 3), 5)
        assert _typed(mo.moments_from_cumulants(CumulantSequence(x)).values) == _typed(
            (1, 4, Fraction(52, 3), Fraction(281, 3)))
        assert _typed(mo.cumulants_from_moments(MomentSequence(x)).values) == _typed(
            (1, 0, Fraction(-14, 3), Fraction(85, 3)))

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_ints_and_fractions_match_the_loop(self, seed):
        x = _random_rationals(random.Random(100 + seed), 9)
        assert _typed(mo.moments_from_cumulants(CumulantSequence(x)).values) == _typed(
            _loop_moments(x))
        assert _typed(mo.cumulants_from_moments(MomentSequence(x)).values) == _typed(
            _loop_cumulants(x))

    def test_any_float_keeps_the_loop(self):
        x = (1, Fraction(1, 3), 0.5, 2)
        assert _typed(mo.moments_from_cumulants(CumulantSequence(x)).values) == (
            ("int", 1), ("Fraction", Fraction(7, 3)),
            ("float", "0x1.e000000000000p+2"), ("float", "0x1.dc71c71c71c71p+4"))
        assert _typed(mo.cumulants_from_moments(MomentSequence(x)).values) == (
            ("int", 1), ("Fraction", Fraction(-5, 3)),
            ("float", "0x1.6000000000000p+2"), ("float", "-0x1.471c71c71c71dp+4"))


class CellDenominators(WeightSpec):
    """An exact weight with a different denominator in (almost) every cell."""

    def weight_of(self, n, cr, h, cc):
        return Fraction(cc - cr, cr + h + 2)


class IntsOrFractions(WeightSpec):
    """Ints in some cells and Fractions in others."""

    def weight_of(self, n, cr, h, cc):
        return cr + cc if h % 2 else Fraction(h + 1, cr + 2)


def _loop_table_sums(spec, n, connected_only=False, mix=None):
    # the weighted sums term by term in sorted cell order, as first written
    out = []
    for k in range(1, n + 1):
        total = 0
        for (cr, h, cc), count in pairings.statistic_distribution(k).counts.items():
            if cc == 1 or not connected_only:
                term = count if mix is None else count * mix ** (k - h)
                total = total + term * spec.weight_of(k, cr, h, cc)
        out.append(total)
    return tuple(out)


EXACT_SPECS = [CellDenominators(), IntsOrFractions(), Constant1(),
               CrossingPower(Fraction(1, 3)), ComponentPower(2)]


class TestTableSumsExact:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cell_denominators_match_enumeration(self, n):
        spec, b = CellDenominators(), Fraction(2, 7)
        weight = spec.weight_of
        assert mo.moments_of_weight(spec, n).moment(2 * n) == brute.weighted_sum(
            n, lambda cr, h, cc: weight(n, cr, h, cc))
        assert mo.cumulants_from_connected(spec, n).cumulant(2 * n) == brute.weighted_sum(
            n, lambda cr, h, cc: weight(n, cr, h, cc) if cc == 1 else 0)
        assert we._table_sums(n, spec, mix=b)[-1] == brute.weighted_sum(
            n, lambda cr, h, cc: b ** (n - h) * weight(n, cr, h, cc))

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_value_and_type_of_the_loop(self, spec):
        n = 9
        assert _typed(mo.moments_of_weight(spec, n).values) == _typed(_loop_table_sums(spec, n))
        assert _typed(mo.cumulants_from_connected(spec, n).values) == _typed(
            _loop_table_sums(spec, n, connected_only=True))

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    @pytest.mark.parametrize("mix", [0, 1, Fraction(1, 4), Fraction(0), Fraction(1)])
    def test_mixed_value_and_type_of_the_loop(self, spec, mix):
        n = 9
        assert _typed(we._table_sums(n, spec, mix=mix)) == _typed(
            _loop_table_sums(spec, n, mix=mix))

    def test_fraction_times_float_takes_the_float_path(self):
        spec, b, n = Product([CrossingPower(Fraction(1, 3)), SingletonHPower(0.3)]), HALF, 7
        assert _typed(mo.moments_of_weight(spec, n).values) == _typed(_loop_table_sums(spec, n))
        assert _typed(mo.cumulants_from_connected(spec, n).values) == _typed(
            _loop_table_sums(spec, n, connected_only=True))
        assert _typed(mo.semicircle_mix_moments(spec, b, n).values) == _typed(
            _loop_table_sums(spec, n, mix=b))
        assert _typed(mo.semicircle_mix_moments(CrossingPower(HALF), 0.25, n).values) == _typed(
            _loop_table_sums(CrossingPower(HALF), n, mix=0.25))

    @pytest.mark.parametrize("spec", [CellDenominators(), IntsOrFractions(), CrossingPower(0.7)],
                             ids=lambda spec: type(spec).__name__)
    def test_custom_spec_connected_float_mix_bit_identical(self, spec):
        # the term-by-term loop over the (cr, h, cc) marginal, connected cells
        # only, keeps the sorted cell order and the order of each product
        n = 9
        for mix in (0.3, 1.0):
            assert _typed(we._table_sums(n, spec, connected_only=True, mix=mix)) == _typed(
                _loop_table_sums(spec, n, connected_only=True, mix=mix))


class TestTermSumsReadTheTable:
    """The term-by-term table sums read the joint table's own cells in place."""

    N = pairings.TABLE_MAX_N

    def test_no_second_copy_is_kept(self):
        pairings._joint_tables(self.N)
        pairings._marginal.cache_clear()
        tracemalloc.start()
        try:
            sums = [we._table_sums(self.N, CrossingPower(0.3), connected_only=connected_only)
                    for connected_only in (False, True)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sums[1]) == self.N
        assert held < 100_000
        assert pairings._marginal.cache_info().currsize == 0

    def test_first_call_costs_a_repeat(self):
        # the first call builds nothing a repeat does not; best of 5 each,
        # with room for a shared host (a cached copy made it about 3.5 times)
        pairings._joint_tables(self.N)
        first, repeat = [], []
        for _ in range(5):
            pairings._marginal.cache_clear()
            for times in (first, repeat):
                start = time.perf_counter()
                we._table_sums(self.N, CrossingPower(0.3))
                times.append(time.perf_counter() - start)
        assert min(first) <= 1.5 * min(repeat)

    def test_one_connected_cell_filter(self, monkeypatch):
        # swap the filter for one keeping the cc = 2 cells: the folds of the
        # graded sums and the term-by-term sums both follow it
        def cells(self, connected_only):
            items = self.counts.items()
            return [(c, k) for c, k in items if c[2] == 2] if connected_only else items

        monkeypatch.setattr(pairings.StatisticDistribution, "_cells", cells)
        pairings._marginal.cache_clear()
        try:
            n, spec = 7, CrossingPower(Fraction(1, 3))
            want = tuple(sum(k * spec.q ** c[0] for c, k in pairings.statistic_distribution(m)
                             .counts.items() if c[2] == 2) for m in range(1, n + 1))
            assert we._table_sums(n, spec, connected_only=True) == want
            got = we._table_sums(n, CrossingPower(float(spec.q)), connected_only=True)
            assert all(map(math.isclose, got, want)) and want[-1] > 0
        finally:
            pairings._marginal.cache_clear()


PARAMS = [3, Fraction(2, 7), -2, Fraction(-3, 4), 0, Fraction(0), Fraction(1)]
MIXES = [1, 0, Fraction(1, 5), Fraction(4, 5), Fraction(0), Fraction(1)]
BUILT_INS = {
    "qcr": CrossingPower,
    "scc": ComponentPower,
    "bH": SingletonHPower,
    "betah": SingletonCountPower,
    "qcr*bH": lambda p: Product([CrossingPower(p), SingletonHPower(Fraction(2, 3))]),
    # two factors on cr, and all four statistics at once
    "all": lambda p: Product([SingletonCountPower(p), ComponentPower(-2), CrossingPower(p),
                              Product([CrossingPower(Fraction(3, 2)), Constant1()]),
                              SingletonHPower(3)]),
}


def _check_against_the_loop(spec, n, mixes=MIXES):
    for mix in mixes:
        for connected_only in (False, True):
            assert _typed(we._table_sums(n, spec, connected_only=connected_only, mix=mix)) == (
                _typed(_loop_table_sums(spec, n, connected_only, mix))), (mix, connected_only)


class TestBuiltinWeightSums:
    """The built-in weights, summed from cached marginals in graded ints."""

    @pytest.mark.parametrize("param", PARAMS, ids=repr)
    @pytest.mark.parametrize("name", BUILT_INS)
    def test_value_and_type_of_the_loop(self, name, param):
        _check_against_the_loop(BUILT_INS[name](param), 9)

    @pytest.mark.parametrize("spec", [Constant1(), Product([]), Product([Constant1()])], ids=repr)
    def test_constant_value_and_type_of_the_loop(self, spec):
        _check_against_the_loop(spec, 9)

    def test_value_and_type_of_the_loop_at_the_cap(self):
        _check_against_the_loop(CrossingPower(Fraction(2, 7)), pairings.TABLE_MAX_N,
                                [Fraction(1, 4)])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_enumeration(self, n):
        q, s, b, beta, mix = Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4), 2, Fraction(2, 7)
        spec = Product([CrossingPower(q), ComponentPower(s), SingletonHPower(b),
                        SingletonCountPower(beta)])
        weight = [lambda cr, h, cc: q ** cr * s ** (n - cc) * b ** (n - h) * beta ** h]
        weight.append(lambda cr, h, cc: weight[0](cr, h, cc) if cc == 1 else 0)
        weight.append(lambda cr, h, cc: weight[0](cr, h, cc) * mix ** (n - h))
        assert mo.moments_of_weight(spec, n).moment(2 * n) == brute.weighted_sum(n, weight[0])
        assert mo.cumulants_from_connected(spec, n).cumulant(2 * n) == brute.weighted_sum(
            n, weight[1])
        assert we._table_sums(n, spec, mix=mix)[-1] == brute.weighted_sum(n, weight[2])

    def test_closed_forms_at_the_cap(self):
        # written out here, sharing no code with the tables
        N = pairings.TABLE_MAX_N
        orders = range(1, N + 1)
        assert mo.moments_of_weight(Constant1(), N).values == tuple(
            math.prod(range(1, 2 * k, 2)) for k in orders)
        assert mo.moments_of_weight(SingletonHPower(0), N).values == tuple(
            math.comb(2 * k, k) // (k + 1) for k in orders)
        # Touchard-Riordan: (1-q)^-n sum_k (-1)^k q^(k(k+1)/2) [C(2n,n-k) - C(2n,n-k-1)]
        q = Fraction(1, 3)
        touchard = tuple(
            sum((-1) ** k * q ** (k * (k + 1) // 2)
                * (math.comb(2 * n, n - k) - (math.comb(2 * n, n - k - 1) if k < n else 0))
                for k in range(n + 1)) / (1 - q) ** n
            for n in orders)
        assert mo.moments_of_weight(CrossingPower(q), N).values == touchard
        # Riordan: c_2 = 1, c_2(m+1) = m * sum_{i=1..m} c_2i c_2(m+1-i)
        c = [0, 1]
        for m in range(1, N):
            c.append(m * sum(c[i] * c[m + 1 - i] for i in range(1, m + 1)))
        assert mo.cumulants_from_connected(Constant1(), N).values == tuple(c[1:])
        # Markov: sum_V 2^h(V) is the semicircle freely convolved with the normal law
        assert mo.moments_of_weight(SingletonCountPower(2), N) == mo.free_convolve(
            mo.semicircle_moments(N), mo.gaussian_moments(N))

    def test_built_ins_call_no_weight_of(self, monkeypatch):
        calls = []
        for cls in (Constant1, CrossingPower, ComponentPower, SingletonHPower,
                    SingletonCountPower, Product):
            def counted(self, *key, real=cls.weight_of):
                calls.append(type(self))
                return real(self, *key)
            monkeypatch.setattr(cls, "weight_of", counted)
        n, mix = 8, Fraction(1, 4)
        for name, make in BUILT_INS.items():
            spec = make(Fraction(2, 3))
            mo.moments_of_weight(spec, n)
            mo.cumulants_from_connected(spec, n)
            we._table_sums(n, spec, mix=mix)
        mo.semicircle_mix_moments(Constant1(), mix, n)
        mo.check_mix_semigroup(HALF, mix, n)
        assert calls == []
        # a float parameter still takes the loop, one call per cell
        mo.moments_of_weight(CrossingPower(0.5), n)
        cells = sum(len(pairings.statistic_distribution(k).counts) for k in range(1, n + 1))
        assert calls == [CrossingPower] * cells

    @pytest.mark.parametrize("spec", [
        Constant1(), CrossingPower(Fraction(1, 3)), ComponentPower(Fraction(1, 3)),
        SingletonHPower(Fraction(1, 3)), SingletonCountPower(Fraction(1, 3)),
        Product([CrossingPower(Fraction(1, 3))]),
    ], ids=lambda spec: type(spec).__name__)
    def test_subclasses_and_custom_weights_use_weight_of(self, spec):
        # a subclass may override weight_of, so it is summed through it
        calls = []

        class Counted(type(spec)):
            def weight_of(self, *key):
                calls.append(key)
                return super().weight_of(*key)

        class Custom(WeightSpec):
            def weight_of(self, *key):
                calls.append(key)
                return spec.weight_of(*key)

        n = 8
        cells = sum(len(pairings.statistic_distribution(k).counts) for k in range(1, n + 1))
        want = mo.moments_of_weight(spec, n)
        counted = Counted(*vars(spec).values())
        assert mo.moments_of_weight(counted, n) == want
        assert len(calls) == cells
        assert mo.moments_of_weight(Custom(), n) == want
        assert len(calls) == 2 * cells
        # inside a Product the subclass keeps the whole sum on weight_of
        assert mo.moments_of_weight(Product([counted, Constant1()]), n) == want
        assert len(calls) == 3 * cells


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
class TestNumpyIntegers:
    """numpy's fixed-width integers give the Python int results, value and type."""

    def test_weighted_sums(self, dtype):
        n = 12
        for make in BUILT_INS.values():
            want, got = make(3), make(dtype(3))
            assert _typed(mo.moments_of_weight(got, n).values) == _typed(
                mo.moments_of_weight(want, n).values)
            assert _typed(mo.cumulants_from_connected(got, n).values) == _typed(
                mo.cumulants_from_connected(want, n).values)
            for mix in (0, 1):
                assert _typed(we._table_sums(n, got, mix=dtype(mix))) == _typed(
                    we._table_sums(n, want, mix=mix))

    def test_transforms(self, dtype):
        n = pairings.TABLE_MAX_N
        for values in ((7,) * n, (7, Fraction(1, 3)) * (n // 2)):
            r = CumulantSequence(tuple(dtype(x) if type(x) is int else x for x in values))
            assert _typed(mo.moments_from_cumulants(r).values) == _typed(
                mo.moments_from_cumulants(CumulantSequence(values)).values)
        # (2k - 1)!! fits in int32 up to k = 10
        m = mo.gaussian_moments(10)
        fixed = MomentSequence(tuple(map(dtype, m.values)))
        assert _typed(mo.cumulants_from_moments(fixed).values) == _typed(
            mo.cumulants_from_moments(m).values)

    def test_dilate_sq(self, dtype):
        m = mo.semicircle_moments(pairings.TABLE_MAX_N)
        assert _typed(mo.dilate_sq(m, dtype(3)).values) == _typed(mo.dilate_sq(m, 3).values)
        # the Catalan numbers fit in int32 up to C_19
        m = mo.semicircle_moments(19)
        fixed = MomentSequence(tuple(map(dtype, m.values)))
        for lam_sq in (5, Fraction(5, 2)):
            assert _typed(mo.dilate_sq(fixed, lam_sq).values) == _typed(
                mo.dilate_sq(m, lam_sq).values)


class TestNegativeOrders:
    def test_accessors_refuse_negative_orders(self):
        m = MomentSequence((1, 2, 5))
        r = CumulantSequence((1, 0, 0))
        for call in (lambda: m.moment(-2), lambda: m.moment(-1), lambda: r.cumulant(-4),
                     lambda: r.cumulant(-3), lambda: m.truncate(-1), lambda: r.truncate(-1)):
            with pytest.raises(ValueError, match=">= 0"):
                call()

    @pytest.mark.parametrize("call", [
        lambda n: mo.free_convolve(MomentSequence((1, 2, 5)), MomentSequence((1, 2, 5)), n),
        lambda n: mo.moments_of_weight(Constant1(), n),
        lambda n: mo.cumulants_from_connected(Constant1(), n),
        lambda n: mo.markov_limit_moments(n),
        lambda n: mo.semicircle_mix_moments(Constant1(), HALF, n),
        lambda n: mo.check_mix_semigroup(HALF, HALF, n),
        mo.semicircle_moments,
        mo.gaussian_moments,
    ])
    def test_negative_order_raises_and_zero_is_empty(self, call):
        with pytest.raises(ValueError, match=">= 0"):
            call(-2)
        got = call(0)
        assert (got.lhs if isinstance(got, mo.SemigroupReport) else got).values == ()


class TestWeightMoments:
    def test_constant_weight_double_factorials(self):
        assert mo.moments_of_weight(Constant1(), 4).values == (1, 3, 15, 105)

    def test_noncrossing_indicator_catalan(self):
        assert mo.moments_of_weight(SingletonHPower(0), 4).values == (1, 2, 5, 14)

    def test_markov_weight(self):
        assert mo.moments_of_weight(SingletonCountPower(2), 3).values == (2, 9, 56)

    def test_float_table_sums_pinned(self):
        # float.hex of the joint-table sums pins the order of every
        # multiplication and addition, not just the value to a tolerance
        spec, b, n = CrossingPower(0.7), 0.3, 6
        assert [v.hex() for v in mo.moments_of_weight(spec, n).values] == [
            "0x1.0000000000000p+0", "0x1.599999999999ap+1", "0x1.606a7ef9db22cp+3",
            "0x1.caf7a99fa11a8p+5", "0x1.60940899563abp+8", "0x1.31579a7540e86p+11",
        ]
        assert [v.hex() for v in mo.cumulants_from_connected(spec, n).values] == [
            "0x1.0000000000000p+0", "0x1.6666666666666p-1", "0x1.d020c49ba5e34p+0",
            "0x1.d3a4b9884c6a1p+2", "0x1.2976b6fcfe592p+5", "0x1.b61d6dd673b63p+7",
        ]
        assert [v.hex() for v in mo.semicircle_mix_moments(spec, b, n).values] == [
            "0x1.0000000000000p+0", "0x1.0810624dd2f1bp+1", "0x1.5b532a497fa5ep+2",
            "0x1.03b0d32829c19p+4", "0x1.a53c52e56b2ccp+5", "0x1.69c5978e3ee37p+7",
        ]
        # the transforms keep their term-by-term loop for floats
        r = CumulantSequence((0.7, -0.3, 1.1, 0.25, -0.6, 0.9))
        assert [v.hex() for v in mo.moments_from_cumulants(r).values] == [
            "0x1.6666666666666p-1", "0x1.5c28f5c28f5c2p-1", "0x1.8e147ae147ae1p+0",
            "0x1.80fc504816f01p+2", "0x1.3a6a400fba881p+4", "0x1.c538f8a4c1ebdp+5",
        ]
        m = MomentSequence((1.0, 2.3, 7.1, 25.5, 101.2, 426.8))
        assert [v.hex() for v in mo.cumulants_from_moments(m).values] == [
            "0x1.0000000000000p+0", "0x1.3333333333330p-2", "0x1.3333333333340p-2",
            "0x1.5c28f5c28f5c0p-2", "0x1.59999999999c0p+0", "-0x1.2395810624f00p+1",
        ]
        conv = mo.free_convolve(mo.dilate_sq(mo.semicircle_moments(n), 0.3),
                                mo.dilate_sq(mo.gaussian_moments(n), 0.7))
        assert [v.hex() for v in conv.values] == [
            "0x1.0000000000000p+0", "0x1.3eb851eb851ebp+1", "0x1.29fbe76c8b439p+3",
            "0x1.711ce075f6fd2p+5", "0x1.1e935e74299d8p+8", "0x1.0dab127f5e84ep+11",
        ]

    def test_connected_cumulants_constant(self):
        r = mo.cumulants_from_connected(Constant1(), 5)
        assert r.values == (1, 1, 4, 27, 248)

    def test_connected_cumulants_free(self):
        r = mo.cumulants_from_connected(SingletonHPower(0), 4)
        assert r.values == (1, 0, 0, 0)

    def test_connected_cumulants_h_power_scaling(self):
        # connected partitions with n > 1 have h = 0, hence weight b^n
        b = Fraction(3, 7)
        r = mo.cumulants_from_connected(SingletonHPower(b), 5)
        assert r.cumulant(2) == 1
        for n in range(2, 6):
            assert r.cumulant(2 * n) == b ** n * pairings.riordan_connected(n)[-1]

    @pytest.mark.parametrize(
        "spec",
        [
            Constant1(),
            SingletonHPower(HALF),
            CrossingPower(Fraction(1, 3)),
            ComponentPower(Fraction(2, 3)),
        ],
    )
    def test_connected_cumulant_identity(self, spec):
        # machine check of the moment formula through connected cumulants
        direct = mo.moments_of_weight(spec, 5)
        recombined = mo.moments_from_cumulants(mo.cumulants_from_connected(spec, 5))
        assert direct.values == recombined.values

    def test_component_power_free_power_identity(self):
        # sum over V of s^cc equals the s-fold free power of the normal law
        # (for integer s >= 1); the n-cc weight relates by dilation:
        # sum s^cc = s^n * sum (1/s)^(n-cc)
        for s in (1, 2, 3):
            n_max = 4
            power_sum = [
                sum(
                    count * s ** cc
                    for (_, _, cc), count in pairings.statistic_distribution(k).counts.items()
                )
                for k in range(1, n_max + 1)
            ]
            base = mo.cumulants_from_connected(Constant1(), n_max)
            scaled = CumulantSequence(tuple(s * v for v in base.values))
            free_power = mo.moments_from_cumulants(scaled)
            assert tuple(power_sum) == free_power.values
            via_dilation = mo.dilate_sq(
                mo.moments_of_weight(ComponentPower(Fraction(1, s)), n_max), s
            )
            assert via_dilation.values == free_power.values


class TestConvolutionDilation:
    def test_semicircle_plus_gaussian(self):
        got = mo.free_convolve(mo.semicircle_moments(3), mo.gaussian_moments(3))
        assert got.values == (2, 9, 56)

    def test_identity_element(self):
        mu = MomentSequence((Fraction(1), Fraction(5, 2), Fraction(11)))
        zero = MomentSequence((0, 0, 0))
        assert mo.free_convolve(mu, zero).values == mu.values

    def test_semicircle_square(self):
        got = mo.free_convolve(mo.semicircle_moments(4), mo.semicircle_moments(4))
        assert got.values == (2, 8, 40, 224)  # 2^n * Catalan_n
        assert got.values == mo.dilate_sq(mo.semicircle_moments(4), 2).values

    def test_dilate_identity(self):
        m = mo.gaussian_moments(4)
        assert mo.dilate(m, 1.0).values == tuple(float(v) for v in m.values)

    def test_dilate_sqrt2_order4(self):
        got = mo.dilate(mo.semicircle_moments(2), 2 ** 0.5)
        assert got.moment(4) == pytest.approx(8.0)

    def test_dilate_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mo.dilate(mo.semicircle_moments(2), 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_dilate_rejects_non_finite(self, lam):
        with pytest.raises(ValueError, match="dilation factor must be positive and finite"):
            mo.dilate(mo.semicircle_moments(2), lam)

    @pytest.mark.parametrize("lam_sq", [-1, Fraction(-1, 3), -0.5, math.nan, math.inf,
                                        -math.inf])
    def test_dilate_sq_rejects_negative(self, lam_sq):
        # (-1, 2) would be the moments of no law: m_2 < 0; nor are (nan, nan) and (inf, inf)
        with pytest.raises(ValueError, match="squared dilation factor must be >= 0"):
            mo.dilate_sq(mo.semicircle_moments(2), lam_sq)

    def test_dilate_sq_zero_is_the_point_mass(self):
        assert mo.dilate_sq(mo.semicircle_moments(3), 0).values == (0, 0, 0)

    def test_dilation_scales_cumulants(self):
        lam_sq = Fraction(9, 4)
        m = mo.markov_limit_moments(4)
        r = mo.cumulants_from_moments(m)
        r_dil = mo.cumulants_from_moments(mo.dilate_sq(m, lam_sq))
        for n in range(1, 5):
            assert r_dil.cumulant(2 * n) == lam_sq ** n * r.cumulant(2 * n)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_convolution_commutative_associative(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        seqs = [
            MomentSequence(tuple(data.draw(
                st.lists(rationals, min_size=n, max_size=n))))
            for _ in range(3)
        ]
        a, b, c = seqs
        assert mo.free_convolve(a, b).values == mo.free_convolve(b, a).values
        left = mo.free_convolve(mo.free_convolve(a, b), c)
        right = mo.free_convolve(a, mo.free_convolve(b, c))
        assert left.values == right.values


def _symmetric(k, entry):
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = entry(i, j)
    return rows


#: Gram matrices by kind, as an entry for i <= j
GRAMS = {
    "int": lambda i, j: (3 * i + 5 * j) % 7 - 2,
    "fraction": lambda i, j: Fraction(i - 2 * j, 1 + (i * j) % 5),
    "mixed": lambda i, j: Fraction(i + j, 3) if (i + j) % 2 else i * j - 3,
    "zero-row": lambda i, j: 0 if 1 in (i, j) else Fraction(j - i + 1, 2),
    "negative": lambda i, j: -Fraction(1 + i + j, 1 + j),
}
MIXED_SPECS = [
    Constant1(),
    CrossingPower(Fraction(2, 7)),
    ComponentPower(3),
    SingletonHPower(HALF),
    SingletonCountPower(Fraction(3, 2)),
    Product([CrossingPower(HALF), SingletonHPower(Fraction(1, 3))]),
]


class TestMixedMoment:
    @pytest.mark.parametrize("kind", GRAMS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_term_by_term_oracle(self, kind, n):
        rows = _symmetric(2 * n, GRAMS[kind])
        for spec in MIXED_SPECS:
            assert mo.mixed_moment(spec, GramMatrix.from_rows(rows)) == \
                brute.mixed_moment(spec, rows)

    def test_int_gram_and_int_weight_give_an_int(self):
        rows = _symmetric(8, GRAMS["int"])
        for spec in (Constant1(), CrossingPower(2), SingletonCountPower(3)):
            got = mo.mixed_moment(spec, GramMatrix.from_rows(rows))
            assert type(got) is int
            assert got == brute.mixed_moment(spec, rows)

    def test_rational_gram_gives_a_fraction(self):
        # integral Fractions too: the type follows the entries, as term by term
        for entry in (GRAMS["fraction"], lambda i, j: Fraction(i + j)):
            got = mo.mixed_moment(Constant1(), GramMatrix.from_rows(_symmetric(6, entry)))
            assert type(got) is Fraction

    @pytest.mark.parametrize("spec", [CrossingPower(0.7), SingletonHPower(HALF)])
    def test_float_gram_within_rounding(self, spec):
        rng = random.Random(3)
        rows = _symmetric(10, lambda i, j: rng.uniform(0.1, 1.0))
        got = mo.mixed_moment(spec, GramMatrix.from_rows(rows))
        assert type(got) is float
        assert math.isclose(got, brute.mixed_moment(spec, rows), rel_tol=1e-12)

    def test_odd_size_zero(self):
        g = GramMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert mo.mixed_moment(Constant1(), g) == 0

    def test_all_ones_order4(self):
        g = GramMatrix.from_rows([[1] * 4 for _ in range(4)])
        assert mo.mixed_moment(Constant1(), g) == 3

    def test_orthogonal_vectors_vanish(self):
        g = GramMatrix.from_rows([[1, 0], [0, 1]])
        assert mo.mixed_moment(SingletonHPower(HALF), g) == 0

    @pytest.mark.parametrize("n", range(1, 5))
    def test_repeated_unit_vector_reproduces_moments(self, n):
        spec = SingletonHPower(HALF)
        g = GramMatrix.from_rows([[1] * (2 * n) for _ in range(2 * n)])
        assert mo.mixed_moment(spec, g) == mo.moments_of_weight(spec, n).moment(2 * n)

    def test_rank_one_signs(self):
        # Gram of (e, -e): entries (+1, -1; -1, +1); single pairing gives -1
        g = GramMatrix.from_rows([[1, -1], [-1, 1]])
        assert mo.mixed_moment(Constant1(), g) == -1

    def test_weight_sees_python_ints(self):
        # 2 ** np.int64(3) is an np.int64, and int8 arithmetic wraps silently
        class Strict(WeightSpec):
            def weight_of(self, n, cr, h, cc):
                assert all(type(x) is int for x in (n, cr, h, cc))
                return 2 ** cr

        rows = _symmetric(10, GRAMS["int"])
        got = mo.mixed_moment(Strict(), GramMatrix.from_rows(rows))
        assert type(got) is int
        assert got == brute.mixed_moment(CrossingPower(2), rows)
        got = mo.mixed_moment(Strict(), GramMatrix.from_rows(_symmetric(6, GRAMS["fraction"])))
        assert type(got) is Fraction

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("past", [False, True])
    def test_int64_guard_edge(self, n, past):
        # max|entry|^n * (2n-1)!! < 2^63 runs in int64; one more and the
        # sums would overflow it, so Python ints take over, exactly
        def fits(m):
            return m ** n * pairings.pairing_count(n) < 2 ** 63

        top = int((2 ** 63 / pairings.pairing_count(n)) ** (1 / n))
        while fits(top + 1):
            top += 1
        while not fits(top):
            top -= 1
        top += past
        rows = _symmetric(2 * n, lambda i, j: top if (i + j) % 3 else -top + i)
        for spec in (Constant1(), CrossingPower(3)):
            got = mo.mixed_moment(spec, GramMatrix.from_rows(rows))
            assert type(got) is int
            assert got == brute.mixed_moment(spec, rows)
            assert got == brute.mixed_moment_by_keys(spec, rows)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_float_gram_bit_identical(self, n):
        # left-to-right products, in-order sums per key, keys by first partition
        rng = random.Random(n)
        rows = _symmetric(2 * n, lambda i, j: rng.uniform(-1.0, 1.0) * 10 ** rng.randint(-3, 3))
        for spec in (Constant1(), CrossingPower(0.7), SingletonHPower(HALF),
                     Product([ComponentPower(1.5), SingletonCountPower(Fraction(2, 3))])):
            got = mo.mixed_moment(spec, GramMatrix.from_rows(rows))
            assert type(got) is float
            assert got == brute.mixed_moment_by_keys(spec, rows)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_mixed_kinds_bit_identical(self, n):
        # ints, Fractions and floats in one matrix take Python's arithmetic
        rng = random.Random(10 + n)
        kinds = (lambda: rng.randint(-3, 3), lambda: Fraction(rng.randint(-5, 5), 3),
                 lambda: rng.uniform(-2.0, 2.0))
        rows = _symmetric(2 * n, lambda i, j: kinds[(i + 2 * j) % 3]())
        for spec in (Constant1(), CrossingPower(Fraction(1, 3))):
            got = mo.mixed_moment(spec, GramMatrix.from_rows(rows))
            want = brute.mixed_moment_by_keys(spec, rows)
            assert type(got) is type(want) and got == want

    def test_chunk_boundaries(self, monkeypatch):
        rows = _symmetric(10, GRAMS["mixed"])
        float_rows = _symmetric(10, lambda i, j: 1.0 / (1 + i + 3 * j))
        want = [mo.mixed_moment(CrossingPower(0.3), GramMatrix.from_rows(r))
                for r in (rows, float_rows)]
        monkeypatch.setattr(_arrays, "_CHUNK", 7)
        assert want == [mo.mixed_moment(CrossingPower(0.3), GramMatrix.from_rows(r))
                        for r in (rows, float_rows)]

    def test_cap_exceeded(self):
        from pairmoments.exceptions import SizeLimitError

        g = GramMatrix.from_rows([[1] * 20 for _ in range(20)])
        with pytest.raises(SizeLimitError):
            mo.mixed_moment(Constant1(), g)


class TestSemicircleMix:
    def test_b_one_recovers_gaussian(self):
        got = mo.semicircle_mix_moments(Constant1(), Fraction(1), 4)
        assert got.values == (1, 3, 15, 105)

    def test_b_zero_recovers_semicircle(self):
        got = mo.semicircle_mix_moments(Constant1(), Fraction(0), 4)
        assert got.values == (1, 2, 5, 14)

    def test_b_half_order4(self):
        got = mo.semicircle_mix_moments(Constant1(), HALF, 2)
        assert got.moment(4) == Fraction(9, 4)

    @pytest.mark.parametrize(
        "b", [Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]
    )
    def test_dual_paths_agree_exactly(self, b):
        # raises DualPathMismatchError on any disagreement
        mo.semicircle_mix_moments(Constant1(), b, 5)

    @pytest.mark.parametrize(
        "spec",
        [SingletonHPower(HALF), CrossingPower(Fraction(1, 3)), ComponentPower(Fraction(2, 3))],
    )
    def test_dual_paths_other_weights(self, spec):
        mo.semicircle_mix_moments(spec, Fraction(1, 3), 4)

    def test_float_parameter_tolerance_path(self):
        got = mo.semicircle_mix_moments(Constant1(), 0.5, 3)
        assert got.moment(4) == pytest.approx(2.25)

    @pytest.mark.parametrize("n", [12, 20])
    def test_float_paths_agree_relative_to_the_moments(self, n):
        # the paths differ in their last bits; at n = 12 that is 7.5e-9
        # absolute on moments of 3.3e6, about two parts in 1e15
        got = mo.semicircle_mix_moments(Constant1(), 0.3, n)
        assert got.values == we._table_sums(n, Constant1(), mix=0.3)

    def test_rejects_b_outside_unit_interval(self):
        with pytest.raises(ValueError):
            mo.semicircle_mix_moments(Constant1(), Fraction(3, 2), 3)

    def test_cumulant_scaling(self):
        b = Fraction(2, 5)
        mix = mo.semicircle_mix_moments(Constant1(), b, 5)
        r = mo.cumulants_from_moments(mix)
        assert r.cumulant(2) == 1
        connected = pairings.riordan_connected(5)
        for n in range(2, 6):
            assert r.cumulant(2 * n) == b ** n * connected[n - 1]

    def test_quarter_mix_at_table_cap(self):
        # r_2 = 1 and r_2k = b^k c_2k, with Riordan's connected counts
        # c_2 = 1, c_2(m+1) = m * sum_{i=1..m} c_2i c_2(m+1-i)
        b, n = Fraction(1, 4), pairings.TABLE_MAX_N
        c = [0, 1]
        for m in range(1, n):
            c.append(m * sum(c[i] * c[m + 1 - i] for i in range(1, m + 1)))
        mix = mo.semicircle_mix_moments(Constant1(), b, n)
        assert mix.order == n
        assert mo.cumulants_from_moments(mix).values == (1,) + tuple(
            b ** k * c[k] for k in range(2, n + 1))

    def test_mismatch_reported(self):
        # a weight that is NOT strongly multiplicative must trip the dual check
        class CrossingIndicator(Constant1):
            def weight_of(self, n, cr, h, cc):
                if n == 1:
                    return 1
                return 1 if (n, cr) == (2, 1) else 0

        with pytest.raises(DualPathMismatchError) as err:
            mo.semicircle_mix_moments(CrossingIndicator(), HALF, 3)
        assert err.value.path_a is not None
        assert err.value.path_b is not None


class TestSemigroup:
    @pytest.mark.parametrize("b", [HALF, Fraction(1, 3)])
    @pytest.mark.parametrize("c", [HALF, Fraction(2, 3)])
    def test_rational_grid(self, b, c):
        rep = mo.check_mix_semigroup(b, c, 6)
        assert rep.passed
        assert rep.max_abs_diff == 0

    def test_b_one_is_definition(self):
        rep = mo.check_mix_semigroup(Fraction(1), Fraction(1, 3), 4)
        assert rep.passed
        assert rep.lhs.values == mo.semicircle_mix_moments(
            Constant1(), Fraction(1, 3), 4
        ).values

    def test_b_zero_both_sides_semicircle(self):
        rep = mo.check_mix_semigroup(Fraction(0), Fraction(2, 3), 4)
        assert rep.passed
        assert rep.lhs.values == mo.semicircle_moments(4).values

    @pytest.mark.parametrize("b,c,n", [(0.3, 0.5, 12), (0.5, 0.2, 20)])
    def test_float_sides_agree_relative_to_the_moments(self, b, c, n):
        rep = mo.check_mix_semigroup(b, c, n)
        assert rep.passed
        assert rep.max_abs_diff <= mo._MIX_TOL * max(rep.lhs.values)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            mo.check_mix_semigroup(Fraction(1, 2), Fraction(5, 4), 3)


def _convolve_with_semicircle(m, b, n):
    # The mixture as a free convolution with the sqrt(1 - b)-dilated
    # semicircle's moments: three transforms, the oracle of the r_2 shift.
    one = Fraction(1) if we.is_exact(b) else 1.0
    return mo.free_convolve(mo.dilate_sq(m, b), mo.dilate_sq(mo.semicircle_moments(n), one - b), n)


def _mix_outcome(call):
    # typed values of a result, or the text and typed paths of its mismatch
    try:
        got = call()
    except DualPathMismatchError as err:
        return str(err), _typed(err.path_a.values), _typed(err.path_b.values)
    if isinstance(got, mo.SemigroupReport):
        return (got.passed, got.b, got.c, _typed(got.lhs.values), _typed(got.rhs.values),
                got.max_abs_diff.hex())
    return _typed(got.values)


MIX_BS = [0, 1, Fraction(0), Fraction(1), Fraction(1, 4), Fraction(1, 3), Fraction(3, 4),
          np.int64(0), np.int64(1), True]


class TestMixShiftsR2:
    @staticmethod
    def _against_the_convolution(calls, monkeypatch):
        # each call's typed outcome, then the same with the helper swapped
        # for the three-transform oracle
        new = [_mix_outcome(call) for call in calls]
        monkeypatch.setattr(mo, "_mix_with_semicircle",
                            lambda m, b: _convolve_with_semicircle(m, b, m.order))
        assert new == [_mix_outcome(call) for call in calls]

    @pytest.mark.parametrize("n", [0, 1, 7, 20])
    @pytest.mark.parametrize("name", ["const", *BUILT_INS])
    def test_exact_b_equals_the_free_convolution(self, name, n, monkeypatch):
        # the helper is path b of semicircle_mix_moments, whose outcome holds
        # both paths when they disagree (betah is not normalized); the
        # constant weight's moments are ints, the others' Fractions
        spec = Constant1() if name == "const" else BUILT_INS[name](Fraction(2, 3))
        m = mo.moments_of_weight(spec, n)
        self._against_the_convolution(
            [lambda b=b: mo._mix_with_semicircle(m, b) for b in MIX_BS]
            + [lambda b=b: mo.semicircle_mix_moments(spec, b, n) for b in MIX_BS], monkeypatch)

    @pytest.mark.parametrize("n", [0, 1, 7, 20])
    def test_exact_semigroup_equals_the_free_convolution(self, n, monkeypatch):
        self._against_the_convolution(
            [lambda b=b, c=c: mo.check_mix_semigroup(b, c, n)
             for b in MIX_BS for c in (b, Fraction(2, 3))], monkeypatch)

    @pytest.mark.parametrize("b", [0.0, 0.25, 1 / 3, 0.3, 0.75, 1.0, np.float64(0.6)])
    @pytest.mark.parametrize("spec", [Constant1(), CrossingPower(Fraction(2, 3)),
                                      CrossingPower(0.7), SingletonHPower(0.4)],
                             ids=["const", "qcr-2_3", "qcr-0.7", "bH-0.4"])
    def test_float_b_within_the_mix_tolerance(self, spec, b):
        for n in (0, 1, 7):
            m = mo.moments_of_weight(spec, n)
            got = mo._mix_with_semicircle(m, b)
            want = _convolve_with_semicircle(m, b, n)
            assert got.order == n
            assert all(we.numbers_equal(x, y, rel_tol=0, abs_tol=mo._MIX_TOL)
                       for x, y in zip(got.values, want.values, strict=True))

    @pytest.mark.parametrize("b", [Fraction(1, 3), 0.3, 0, np.int64(1)])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_one_inverse_and_one_forward_transform_per_mixture(self, n, b, monkeypatch):
        calls = []
        for name in ("_cumulants_of", "_moments_of", "semicircle_moments"):
            def counted(*args, name=name, real=getattr(mo, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(mo, name, counted)
        mo.semicircle_mix_moments(Constant1(), b, n)
        assert sorted(calls) == ["_cumulants_of", "_moments_of"]
        calls.clear()
        mo.check_mix_semigroup(b, HALF, n)  # one mixture, its rhs
        assert sorted(calls) == ["_cumulants_of", "_moments_of"]


def _semigroup_by_nested_mixtures(b, c, n):
    # The semigroup check as two nested semicircle_mix_moments calls, each
    # side a dual-path mixture of the constant weight whose paths compare
    # with rel_tol=0: the report's fields, or None where a nested path check
    # raises.  A mixture's value is its table-sum path.
    def mix(x):
        path_a = MomentSequence(we._table_sums(n, Constant1(), mix=x))
        path_b = mo._mix_with_semicircle(mo.moments_of_weight(Constant1(), n), x)
        agree = all(we.numbers_equal(va, vb, rel_tol=0, abs_tol=mo._MIX_TOL)
                    for va, vb in zip(path_a.values, path_b.values))
        return path_a if agree else None

    lhs, mixed = mix(b * c), mix(b)
    if lhs is None or mixed is None:
        return None
    rhs = mo._mix_with_semicircle(mixed, c)
    pairs = list(zip(lhs.values, rhs.values))
    passed = all(we.numbers_equal(x, y, rel_tol=0, abs_tol=mo._MIX_TOL) for x, y in pairs)
    return passed, b, c, lhs, rhs, float(max((abs(x - y) for x, y in pairs), default=0))


def _typed_sides(b, c, lhs, rhs, max_abs_diff):
    return ((type(b).__name__, b), (type(c).__name__, c), _typed(lhs.values),
            _typed(rhs.values), max_abs_diff.hex())


SEMIGROUP_BS = MIX_BS + [0.0, 0.25, 0.3, 1.0, np.float64(0.6)]


class TestSemigroupReadsTb:
    @pytest.mark.parametrize("n", [0, 1, 7, 20])
    def test_report_equals_the_nested_mixtures(self, n):
        # every report passes; b, c, lhs, rhs and max_abs_diff in value and
        # type wherever no nested path check would have raised, and the
        # verdict too, but for the one float gap (4.8e-6 at moments of 6.6e9)
        # that rel_tol=0 failed
        reports, verdicts_moved = 0, []
        for b in SEMIGROUP_BS:
            for c in (b, Fraction(2, 3), 0.5):
                rep = mo.check_mix_semigroup(b, c, n)
                assert rep.passed, (b, c)
                want = _semigroup_by_nested_mixtures(b, c, n)
                if want is None:
                    continue
                reports += 1
                assert _typed_sides(rep.b, rep.c, rep.lhs, rep.rhs, rep.max_abs_diff) == (
                    _typed_sides(*want[1:])), (b, c)
                if not want[0]:
                    verdicts_moved.append((b, c))
        assert reports == {0: 45, 1: 45, 7: 45, 20: 26}[n]
        assert verdicts_moved == ([(0.0, Fraction(2, 3))] if n == 20 else [])

    def test_no_dual_path_mixture_inside(self, monkeypatch):
        from pairmoments import verify

        calls = []
        real = mo.semicircle_mix_moments
        monkeypatch.setattr(mo, "semicircle_mix_moments",
                            lambda *args: calls.append(args) or real(*args))
        assert mo.check_mix_semigroup(HALF, Fraction(2, 3), 7).passed
        assert mo.check_mix_semigroup(0.3, 0.5, 7).passed
        assert verify._cumulant_scaling(5)[0]
        assert calls == []


class TestHankel:
    def test_catalan_psd(self):
        ok, min_eig = mo.hankel_psd(mo.semicircle_moments(4))
        assert ok
        assert min_eig > 0

    def test_markov_limit_psd(self):
        ok, _ = mo.hankel_psd(mo.markov_limit_moments(3))
        assert ok

    def test_b_larger_than_one_is_exploratory(self):
        # open-ended: just confirm we can compute the report without asserting
        seq = mo.moments_of_weight(SingletonHPower(3), 6)
        ok, min_eig = mo.hankel_psd(seq)
        assert isinstance(ok, bool)
        assert min_eig == min_eig  # finite, not NaN

    def test_non_moment_sequence_fails(self):
        # m4 < m2^2 violates Cauchy-Schwarz, so the Hankel matrix is indefinite
        ok, min_eig = mo.hankel_psd(MomentSequence((4, 1)))
        assert not ok
        assert min_eig < 0
