import collections
import copy
import dataclasses
import inspect
import itertools
import math
import pickle

import numpy as np
import pytest

import brute
from pairmoments import _arrays, pairings
from pairmoments.exceptions import DualPathMismatchError, SizeLimitError
from pairmoments.pairings import PairPartition

DOUBLE_FACTORIALS = [1, 3, 15, 105, 945, 10395, 135135, 2027025]
CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430]
CONNECTED = [1, 1, 4, 27, 248, 2830]
SINGLETON_TOTALS = [1, 4, 21, 144, 1245, 13140, 164745]


def P(*pairs):
    return PairPartition.from_pairs(pairs)


class TestPairPartition:
    def test_canonical_form(self):
        v = PairPartition.from_pairs([(4, 2), (3, 1)])
        assert v.blocks == ((1, 3), (2, 4))
        assert v.n == 2

    def test_rejects_repeated_index(self):
        with pytest.raises(ValueError):
            PairPartition(2, ((1, 2), (2, 3)))

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            PairPartition(2, ((1, 2), (3, 5)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PairPartition(2, ((3, 4), (1, 2)))

    def test_hashable_equality(self):
        assert P((1, 2), (3, 4)) == P((3, 4), (1, 2))
        assert len({P((1, 2), (3, 4)), P((2, 1), (4, 3))}) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fast_constructor_equals_public(self, n):
        for pairs in brute.all_pairings(range(1, 2 * n + 1)):
            fast = pairings._fast_partition(n, tuple(pairs))
            public = PairPartition(n, tuple(pairs))
            assert fast == public and hash(fast) == hash(public)
            assert type(fast) is PairPartition

    def test_slotted_and_frozen(self):
        for v in (P((1, 3), (2, 4)), next(pairings.enumerate_pairings(3))):
            assert not hasattr(v, "__dict__")
            before = (v.n, v.blocks)
            for name, value in (("n", 5), ("blocks", ()), ("other", 1)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(v, name, value)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(v, name)
            assert (v.n, v.blocks) == before

    def test_pickle_and_deepcopy_round_trips(self):
        for v in (P((1, 4), (2, 3)), *pairings.enumerate_pairings(3)):
            for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
                assert twin == v and hash(twin) == hash(v)
                assert type(twin) is PairPartition and twin.blocks == v.blocks

    @pytest.mark.parametrize("n, blocks", [
        (3, ((1, 2), (3, 4))),  # n disagrees with the block count
        (2, ((2, 1), (3, 4))),  # lo > hi
        (2, ((1, 2), (1, 3))),  # lo repeated
        (2, ((0, 1), (2, 3))),  # index below 1
        (1, ((1, 3),)),  # index above 2n
    ])
    def test_invalid_input_refused(self, n, blocks):
        with pytest.raises(ValueError):
            PairPartition(n, blocks)


class TestEnumeration:
    def test_n1(self):
        assert list(pairings.enumerate_pairings(1)) == [P((1, 2))]

    def test_n2_exact_order(self):
        got = list(pairings.enumerate_pairings(2))
        assert got == [P((1, 2), (3, 4)), P((1, 3), (2, 4)), P((1, 4), (2, 3))]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_double_factorial(self, n):
        assert sum(1 for _ in pairings.enumerate_pairings(n)) == DOUBLE_FACTORIALS[n - 1]

    def test_n4_stream_length_105(self):
        assert sum(1 for _ in pairings.enumerate_pairings(4)) == 105

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_brute_force_set(self, n):
        mine = {v.blocks for v in pairings.enumerate_pairings(n)}
        ref = {tuple(sorted(p)) for p in brute.all_pairings(range(1, 2 * n + 1))}
        assert mine == ref

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute_force_order(self, n):
        mine = [v.blocks for v in pairings.enumerate_pairings(n)]
        assert mine == [tuple(p) for p in brute.all_pairings(range(1, 2 * n + 1))]

    def test_all_distinct_and_canonical(self):
        seen = set()
        for v in pairings.enumerate_pairings(5):
            assert v.blocks not in seen
            seen.add(v.blocks)
            assert v.blocks == tuple(sorted(v.blocks))

    def test_cap_refused(self):
        with pytest.raises(SizeLimitError, match="cap"):
            next(pairings.enumerate_pairings(9))

    def test_cap_override(self):
        # the stream cap is STREAM_MAX_N for every caller; there is no override
        assert pairings.STREAM_MAX_N == 8
        with pytest.raises(TypeError):
            next(pairings.enumerate_pairings(2, max_n=9))

    @pytest.mark.parametrize("stream", ["enumerate_pairings", "iter_statistics"])
    def test_streams_are_generator_functions(self, stream):
        # the cap check runs on the first next(), not at the call; benchmark
        # tracing also counts the items of generator functions
        fn = getattr(pairings, stream)
        assert inspect.isgeneratorfunction(fn)
        gen = fn(9)
        with pytest.raises(SizeLimitError, match="cap"):
            next(gen)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            next(pairings.enumerate_pairings(0))


class TestStatistics:
    def test_crossings_defining_picture(self):
        assert pairings.crossings(P((1, 3), (2, 4))) == 1

    def test_crossings_nested_zero(self):
        assert pairings.crossings(P((1, 6), (2, 5), (3, 4))) == 0

    def test_crossings_two(self):
        assert pairings.crossings(P((1, 4), (2, 6), (3, 5))) == 2

    def test_singletons_all(self):
        _, h = pairings.singleton_blocks(P((1, 6), (2, 5), (3, 4)))
        assert h == 3

    def test_singletons_connected_none(self):
        _, h = pairings.singleton_blocks(P((1, 4), (2, 6), (3, 5)))
        assert h == 0

    def test_singletons_mixed(self):
        singles, h = pairings.singleton_blocks(P((1, 2), (3, 5), (4, 6)))
        assert h == 1
        assert singles == [(1, 2)]

    def test_components_noncrossing(self):
        cc, comps = pairings.connected_components(P((1, 6), (2, 5), (3, 4)))
        assert cc == 3
        assert comps == (((1, 6),), ((2, 5),), ((3, 4),))

    def test_components_single_crossing(self):
        cc, _ = pairings.connected_components(P((1, 3), (2, 4)))
        assert cc == 1

    def test_components_mixed(self):
        cc, comps = pairings.connected_components(P((1, 2), (3, 5), (4, 6)))
        assert cc == 2
        assert comps == (((1, 2),), ((3, 5), (4, 6)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_statistics_match_brute_force(self, n):
        for blocks in brute.all_pairings(range(1, 2 * n + 1)):
            v = PairPartition.from_pairs(blocks)
            st = pairings.statistics(v)
            cr, h, cc = brute.chord_stats(sorted(blocks))
            comps = brute.components(blocks)
            assert (st.cr, st.h, st.cc, st.big_h) == (cr, h, cc, n - h)
            assert pairings.crossings(v) == brute.crossing_count(blocks) == cr
            assert pairings.singleton_blocks(v) == (brute.singletons(blocks), h)
            # the grouping and both orders, not only the count
            assert pairings.connected_components(v) == (len(comps), comps)
            assert len(comps) == cc

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equivalences(self, n):
        for v in pairings.enumerate_pairings(n):
            st = pairings.statistics(v)
            noncrossing = st.cr == 0
            assert noncrossing == (st.h == n) == (st.cc == n)
            if st.cc == 1 and n > 1:
                assert st.h == 0


class TestPhi:
    def test_connected_single_block(self):
        assert pairings.component_support_partition(P((1, 3), (2, 4))) == ((1, 2, 3, 4),)

    def test_mixed(self):
        got = pairings.component_support_partition(P((1, 2), (3, 5), (4, 6)))
        assert got == ((1, 2), (3, 4, 5, 6))

    def test_noncrossing_fixed(self):
        got = pairings.component_support_partition(P((1, 6), (2, 5), (3, 4)))
        assert got == ((1, 6), (2, 5), (3, 4))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_image_noncrossing_even(self, n):
        for v in pairings.enumerate_pairings(n):
            blocks = pairings.component_support_partition(v)
            assert all(len(b) % 2 == 0 for b in blocks)
            assert brute.partition_noncrossing([list(b) for b in blocks])
            flat = sorted(p for b in blocks for p in b)
            assert flat == list(range(1, 2 * n + 1))


class TestRotate:
    def test_two_points(self):
        assert pairings.rotate(P((1, 2))) == P((1, 2))

    def test_four_points(self):
        assert pairings.rotate(P((1, 2), (3, 4))) == P((1, 4), (2, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_statistics_invariant(self, n):
        for v in pairings.enumerate_pairings(n):
            a = pairings.statistics(v)
            b = pairings.statistics(pairings.rotate(v))
            assert (a.cr, a.h, a.cc) == (b.cr, b.h, b.cc)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_singletons_rotate_with_partition(self, n):
        m = 2 * n
        for v in pairings.enumerate_pairings(n):
            singles, _ = pairings.singleton_blocks(v)
            rotated_singles, _ = pairings.singleton_blocks(pairings.rotate(v))
            expected = {
                tuple(sorted((1 + a % m, 1 + b % m))) for a, b in singles
            }
            assert expected == set(rotated_singles)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_from_pairs_rotation(self, n):
        for v in pairings.enumerate_pairings(n):
            w = pairings.rotate(v)
            assert w == brute.rotate_by_pairs(v)
            assert PairPartition(w.n, w.blocks) == w  # passes __post_init__

    def test_large_labels(self):
        # past int8: 2n = 200 points
        v = PairPartition.from_pairs((k, 201 - k) for k in range(1, 101))
        assert pairings.rotate(v) == brute.rotate_by_pairs(v)
        assert all(type(x) is int for b in pairings.rotate(v).blocks for x in b)

    def test_orbit_returns_to_start(self):
        v = P((1, 4), (2, 6), (3, 5))
        w = v
        for _ in range(6):
            w = pairings.rotate(w)
        assert w == v


class TestSequences:
    def test_riordan_values(self):
        assert pairings.riordan_connected(5) == [1, 1, 4, 27, 248]

    def test_riordan_c12(self):
        assert pairings.riordan_connected(6)[-1] == 2830

    def test_riordan_c2(self):
        assert pairings.riordan_connected(1) == [1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_riordan_matches_enumeration(self, n):
        brute_count = sum(
            1 for blocks in brute.all_pairings(range(1, 2 * n + 1))
            if brute.chord_stats(blocks)[2] == 1
        )
        assert pairings.riordan_connected(n)[-1] == brute_count == CONNECTED[n - 1]

    def test_total_singletons_sequence(self):
        assert [pairings.total_singletons(n) for n in range(1, 8)] == SINGLETON_TOTALS

    def test_total_singletons_n2_instantiated(self):
        # closed form at n=2: 2 * (p0*p2 + p2*p0) with p0 = p2 = 1
        assert pairings.total_singletons(2) == 2 * (1 * 1 + 1 * 1) == 4

    @pytest.mark.parametrize("n", range(1, 6))
    def test_total_singletons_vs_brute(self, n):
        s = sum(
            brute.chord_stats(blocks)[1]
            for blocks in brute.all_pairings(range(1, 2 * n + 1))
        )
        assert pairings.total_singletons(n) == s

    def test_total_singletons_mismatch_names_both_paths(self, monkeypatch):
        counts = dict(pairings.statistic_distribution(3).counts)
        key = next(k for k in sorted(counts) if k[1] > 0)
        counts[key] += 1
        monkeypatch.setattr(
            pairings, "statistic_distribution",
            lambda n, **kw: pairings.StatisticDistribution(n, counts),
        )
        with pytest.raises(DualPathMismatchError) as exc:
            pairings.total_singletons(3)
        assert exc.value.path_a == SINGLETON_TOTALS[2]
        assert exc.value.path_b == SINGLETON_TOTALS[2] + key[1]

    def test_count_nc_pairings(self):
        assert [pairings.count_nc_pairings(n) for n in range(1, 9)] == CATALAN
        assert pairings.count_nc_pairings(3) == 5
        assert pairings.count_nc_pairings(1) == 1

    def test_pairing_count(self):
        assert [pairings.pairing_count(n) for n in range(1, 9)] == DOUBLE_FACTORIALS

    @pytest.mark.parametrize("closed_form, least", [
        (pairings.pairing_count, 0), (pairings.count_nc_pairings, 0),
        (pairings.total_singletons, 1)])
    def test_closed_forms_refuse_bad_n(self, closed_form, least):
        for n in (least - 1, -3):
            with pytest.raises(ValueError, match=rf"^n must be >= {least}, got {n}$"):
                closed_form(n)
        for n in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
                closed_form(n)
        assert closed_form(np.int64(3)) == closed_form(3)


def _statistic_readers(n):
    # each statistic of a cell (cr, h, cc) of P2(2n), written out
    return {"cr": lambda cr, h, cc: cr, "h": lambda cr, h, cc: h,
            "cc": lambda cr, h, cc: cc, "H": lambda cr, h, cc: n - h,
            "n-cc": lambda cr, h, cc: n - cc}


class TestStatisticDistribution:
    def test_n1(self):
        d = pairings.statistic_distribution(1)
        assert dict(d.counts) == {(0, 1, 1): 1}

    def test_n2(self):
        d = pairings.statistic_distribution(2)
        assert dict(d.counts) == {(0, 2, 2): 2, (1, 0, 1): 1}

    def test_n3_big_h_marginal(self):
        d = pairings.statistic_distribution(3)
        assert d.marginal("H") == {0: 5, 2: 6, 3: 4}
        assert d.total() == 15
        assert sum(h * c for (_, h, _), c in d.counts.items()) == 21

    def test_every_marginal_matches_its_cells(self):
        d = pairings.statistic_distribution(5)
        for statistic, value in _statistic_readers(5).items():
            expected = collections.Counter()
            for cell, count in d.counts.items():
                expected[value(*cell)] += count
            assert d.marginal(statistic) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_marginal_equals_the_cached_view(self, n):
        d = pairings.statistic_distribution(n)
        for statistic in ("cr", "h", "cc", "H", "n-cc"):
            view = pairings._marginal(n, (statistic,), False)
            assert d.marginal(statistic) == {key: count for (key,), count in view.items()}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_connected_view_folds_the_cc1_cells(self, n):
        read = _statistic_readers(n)
        for statistics in [("cr",), ("H", "cr"), ("n-cc", "h", "cc")]:
            expected = collections.Counter()
            for cell, count in pairings.statistic_distribution(n).counts.items():
                if cell[2] == 1:
                    expected[tuple(read[s](*cell) for s in statistics)] += count
            assert pairings._marginal(n, statistics, True) == expected

    @pytest.mark.parametrize("statistic", ["foo", "n - cc", "CR", None, ["cr"]])
    def test_unknown_marginal_names_the_statistics(self, statistic):
        with pytest.raises(ValueError, match="cr, h, cc, H or n-cc"):
            pairings.statistic_distribution(3).marginal(statistic)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_brute_force(self, n):
        ref = {}
        for blocks in brute.all_pairings(range(1, 2 * n + 1)):
            key = brute.chord_stats(blocks)
            ref[key] = ref.get(key, 0) + 1
        assert dict(pairings.statistic_distribution(n).counts) == ref

    @pytest.mark.parametrize("n", range(1, 8))
    def test_invariants(self, n):
        d = pairings.statistic_distribution(n)
        assert d.total() == DOUBLE_FACTORIALS[n - 1]
        cr0 = sum(c for (cr, _, _), c in d.counts.items() if cr == 0)
        assert cr0 == CATALAN[n - 1]
        assert sum(h * c for (_, h, _), c in d.counts.items()) == (
            SINGLETON_TOTALS[n - 1]
        )

    def test_cap(self):
        assert pairings.statistic_distribution(9).total() == math.prod(range(1, 18, 2))
        with pytest.raises(SizeLimitError, match="table cap 20"):
            pairings.statistic_distribution(21)

    def test_one_pass_gives_every_lower_table(self):
        tables = pairings._joint_tables(12)
        assert [d.n for d in tables] == list(range(1, 13))
        for k in range(1, 13):
            assert tables[k - 1] == pairings._joint_tables(k)[-1]
            assert list(tables[k - 1].counts) == list(pairings._joint_tables(k)[-1].counts)

    def test_smaller_tables_are_slices(self, monkeypatch):
        # only the longest tuple is kept: after n, no k < n is transformed again
        built = []
        real = pairings._touchard_riordan

        def once_per_maximum(k):
            assert all(k > n for n in built), f"rebuilt k={k} after {built}"
            built.append(k)
            return real(k)

        monkeypatch.setattr(pairings, "_JOINT", ())
        monkeypatch.setattr(pairings, "_touchard_riordan", once_per_maximum)
        tables = pairings._joint_tables(10)
        for k in range(1, 11):
            assert pairings._joint_tables(k) == tables[:k]
            assert pairings.statistic_distribution(k) is tables[k - 1]
        assert pairings._joint_tables(12)[:10] == tables
        assert [d.n for d in pairings._joint_tables(11)] == list(range(1, 12))
        assert built == [10, 12]

    def test_cells_are_sums_of_the_transform_loop(self, monkeypatch):
        # the inverse transform calls _type_sum once per order, then each
        # (k, cell) is one call over the types with cc blocks, h of size 2
        calls = []
        real = pairings._type_sum

        def recorded(r, types):
            calls.append(tuple(types))
            return real(r, types)

        monkeypatch.setattr(pairings, "_JOINT", ())
        monkeypatch.setattr(pairings, "_type_sum", recorded)
        n = 8
        tables = pairings._joint_tables(n)
        assert len(calls) == n + sum(len({cell[1:] for cell in d.counts}) for d in tables)
        for types in calls[n:]:
            assert len({(sizes.count(2), len(sizes)) for sizes, _ in types}) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_stream_fold(self, n):
        # n = 8 walks all 2,027,025 partitions of the stream
        fold = {}
        for key in pairings.iter_statistics(n):
            fold[key] = fold.get(key, 0) + 1
        d = pairings.statistic_distribution(n)
        assert dict(d.counts) == fold
        assert list(d.counts) == sorted(fold)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_closed_forms_beyond_the_cap(self, n):
        d = pairings.statistic_distribution(n)
        assert d.total() == math.prod(range(1, 2 * n, 2))
        cr0 = sum(c for (cr, _, _), c in d.counts.items() if cr == 0)
        assert cr0 == math.comb(2 * n, n) // (n + 1)
        # Riordan: c_2 = 1, c_2(m+1) = m * sum_{i=1..m} c_2i c_2(m+1-i)
        c = [0, 1]
        for m in range(1, n):
            c.append(m * sum(c[i] * c[m + 1 - i] for i in range(1, m + 1)))
        assert sum(v for (_, _, cc), v in d.counts.items() if cc == 1) == c[n]
        p = [math.prod(range(1, 2 * k, 2)) for k in range(n)]
        singletons = n * sum(p[k] * p[n - 1 - k] for k in range(n))
        assert sum(h * v for (_, h, _), v in d.counts.items()) == singletons
        assert d.marginal("cr") == touchard_riordan(n)

    @pytest.mark.parametrize("n", range(1, pairings.TABLE_MAX_N + 1))
    def test_singleton_component_split_beyond_the_stream(self, n, monkeypatch):
        # Summed over cr, a cell (h, cc) counts the pairings whose components
        # sit on an even non-crossing partition with cc blocks, h of them of
        # size 2, each larger block B holding one of the c_|B| connected
        # pairings.  Built cold, so every n packs its polynomials at its own
        # digit width.
        monkeypatch.setattr(pairings, "_JOINT", ())
        c = [0, 1]  # Riordan: c[m] = c_2m
        for m in range(1, n):
            c.append(m * sum(c[i] * c[m + 1 - i] for i in range(1, m + 1)))
        expected = collections.Counter()
        for halves in integer_partitions(n):
            # Kreweras: k! / ((k - b + 1)! * prod_j m_j!) non-crossing
            # partitions of {1..k} with b blocks, m_j of them of size j
            k, b = 2 * n, len(halves)
            denominator = math.factorial(k - b + 1)
            for half in set(halves):
                denominator *= math.factorial(halves.count(half))
            count, rest = divmod(math.factorial(k), denominator)
            assert rest == 0
            expected[halves.count(1), b] += count * math.prod(c[half] for half in halves)
        got = collections.Counter()
        for (_, h, cc), count in pairings.statistic_distribution(n).counts.items():
            got[h, cc] += count
        assert got == expected

    def test_touchard_riordan_small(self):
        assert touchard_riordan(1) == {0: 1}
        assert touchard_riordan(2) == {0: 2, 1: 1}
        assert touchard_riordan(3) == {0: 5, 1: 6, 2: 3, 3: 1}


def integer_partitions(total, least=1):
    """Partitions of total into parts >= least, as ascending tuples."""
    if total == 0:
        yield ()
    for part in range(least, total + 1):
        for rest in integer_partitions(total - part, part):
            yield (part,) + rest


def touchard_riordan(n):
    """Exponent -> count of sum_V q^cr(V) over P2(2n), from the closed form
    (1-q)^-n sum_k (-1)^k q^(k(k+1)/2) [C(2n, n-k) - C(2n, n-k-1)]."""
    coeffs = [0] * (n * (n + 1) // 2 + 1)
    for k in range(n + 1):
        ballot = math.comb(2 * n, n - k) - (math.comb(2 * n, n - k - 1) if k < n else 0)
        coeffs[k * (k + 1) // 2] += (-1) ** k * ballot
    for _ in range(n):
        coeffs = list(itertools.accumulate(coeffs))  # divide by 1 - q ...
        assert coeffs.pop() == 0  # ... exactly
    return {e: c for e, c in enumerate(coeffs) if c}


class TestIterStatistics:
    def test_matches_enumerate_and_chord_stats(self):
        # triple i is the statistics of the i-th partition of the walk
        for n in range(1, 7):
            got = list(pairings.iter_statistics(n))
            assert got == [brute.chord_stats(list(v.blocks))
                           for v in pairings.enumerate_pairings(n)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_walk_oracle(self, n):
        # in order and value, against the incremental union-find walk
        assert list(pairings.iter_statistics(n)) == list(brute.walk_statistics(n))

    def test_yields_python_ints(self):
        for n in range(1, 7):
            assert all(type(t) is tuple and all(type(x) is int for x in t)
                       for t in pairings.iter_statistics(n))


def _array(n):
    return np.concatenate([blocks for _, blocks in _arrays._chunks(n)])


class TestStreamArrays:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_are_the_walk_in_order(self, n, monkeypatch):
        monkeypatch.setattr(_arrays, "_CHUNK", 100)
        chunks = list(_arrays._chunks(n))
        assert all(blocks.dtype == np.int8 and len(blocks) <= 100 for _, blocks in chunks)
        assert [start for start, _ in chunks] == list(itertools.accumulate(
            [0] + [len(blocks) for _, blocks in chunks[:-1]]))
        blocks = _array(n)
        assert blocks.shape == (DOUBLE_FACTORIALS[n - 1], n, 2)
        assert [tuple(map(tuple, row)) for row in blocks.tolist()] == \
            [v.blocks for v in pairings.enumerate_pairings(n)]

    def test_rows_at_the_cap(self):
        # at n = 8 the walk yields all 2,027,025 partitions, and its first and
        # last 3 * 2048 blocks tuples are the rows built by relabelling P2(14)
        top, edge = pairings.STREAM_MAX_N, 3 * 2048
        total = DOUBLE_FACTORIALS[top - 1]
        walk = pairings.enumerate_pairings(top)
        walk_head = [v.blocks for v in itertools.islice(walk, edge)]
        walk_tail = collections.deque(maxlen=edge)
        count = edge
        for count, v in enumerate(walk, start=edge + 1):
            walk_tail.append(v.blocks)
        assert count == total
        head, tail = [], collections.deque(maxlen=edge)
        end = 0
        for start, blocks in _arrays._chunks(top):
            assert start == end
            end += len(blocks)
            if start < edge:
                head += [tuple(map(tuple, row)) for row in blocks.tolist()]
            if end > total - edge:
                tail.extend(tuple(map(tuple, row)) for row in blocks.tolist())
        assert end == total
        assert head[:edge] == walk_head
        assert list(tail) == list(walk_tail)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rotated_rows_match_rotate_by_pairs(self, n):
        blocks = _array(n)
        got = _arrays._rotate_rows(blocks)
        assert got.dtype == np.int8
        assert [tuple(map(tuple, row)) for row in got.tolist()] == [
            brute.rotate_by_pairs(v).blocks for v in pairings.enumerate_pairings(n)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cases_are_component_keys(self, n):
        s = _arrays._stream(n)
        case = s.case.tolist()
        assert not s.case.flags.writeable
        first = [case.index(c) for c in range(len(s.parts))]
        assert first == sorted(first) and set(case) == set(range(len(s.parts)))
        for blocks, c in zip(brute.all_pairings(range(1, 2 * n + 1)), case):
            comps = brute.components(blocks)
            assert s.parts[c] == tuple((len(comp), brute.crossing_count(comp)) for comp in comps)
            assert s.stats[c] == brute.chord_stats(blocks)

    def test_chunk_boundaries(self, monkeypatch):
        # rows split across chunks of 7 give the same stream as one chunk
        want = {n: _arrays._stream(n) for n in range(1, 7)}
        monkeypatch.setattr(_arrays, "_STREAMS", {})
        monkeypatch.setattr(_arrays, "_CHUNK", 7)
        for n in range(1, 7):
            got = _arrays._stream(n)
            assert np.array_equal(got.case, want[n].case)
            assert (got.parts, got.stats) == (want[n].parts, want[n].stats)
            assert list(pairings.iter_statistics(n)) == list(brute.walk_statistics(n))
