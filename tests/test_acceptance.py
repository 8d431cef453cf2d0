"""Acceptance suite: one test per exit criterion, read off verify's check table.

Each criterion runs its rows of ``verify.CHECKS`` at the full level, asserts
that every row passed within the criterion's runtime budget, and pins the
literal values verify itself does not compare against.  It prints a single
pass/fail line (run with ``pytest -s`` to see them live).
"""

from fractions import Fraction

from pairmoments import moments as mo
from pairmoments import pairings as pa
from pairmoments import verify as ve
from pairmoments import weights as we

#: criterion -> (runtime budget in s, what it shows, {verify check: its
#: full-level arguments}); the arguments are the sizes the criterion states.
CRITERIA = {
    1: (120, "enumeration counts equal (2n-1)!! and Catalan numbers for n = 1..8",
        {"pairing-counts": (8,), "noncrossing-counts": (8,)}),
    2: (10, "connected pairing counts: 1, 1, 4, 27, 248, 2830", {"connected-counts": (6,)}),
    3: (60, "singleton totals by closed form and joint table, n = 1..7",
        {"singleton-totals": (7,)}),
    4: (30, "moments rebuilt exactly from connected-sum cumulants, N <= 5",
        {"connected-cumulant-identity": (5,)}),
    5: (30, "semicircle-mix dual paths agree exactly, b in {0,1/4,1/2,3/4,1}",
        {"mix-dual-path": (5,)}),
    6: (10, "mixture cumulants: r_2 fixed, r_2n = b^n c_2n for 2 <= n <= 5",
        {"mix-cumulant-scaling": (5,)}),
    7: (10, "mixing semigroup identity exact on {1/2,1/3}x{1/2,2/3}, N <= 6",
        {"mix-semigroup": (6,)}),
    8: (5, "Markov limit moments 2, 9, 56 by enumeration and convolution",
        {"markov-limit-targets": ()}),
    9: (300, "Monte Carlo spectral moments, n=1000 x 20 trials, |z| <= 4",
        {"monte-carlo": (1000, 20)}),
    10: (180, "group suite: embedding, split, PSD, CND, metric axioms",
         {"group-embedding": (6,), "isolated-split": (6,), "group-psd": (4,),
          "group-cnd": (4,), "group-metric": (4, 0), "group-metric-sampled": (6, 100_000)}),
    11: (120, "rotation invariance, strong multiplicativity, round trips",
         {"rotation-invariance": (6,), "strong-multiplicativity": (5,),
          "moment-cumulant-roundtrip": ()}),
}


def _run(num):
    # run the criterion's rows at the full level; their details by name
    budget, desc, rows = CRITERIA[num]
    table = {name: (check, full) for name, check, _, full in ve.CHECKS}
    assert {name: table[name][1] for name in rows} == rows, "full-level sizes changed"
    results = [ve._check(name, *table[name]) for name in rows]
    elapsed = sum(r.elapsed for r in results)
    failures = {r.name: r.detail for r in results if not r.passed}
    ok = not failures and elapsed <= budget
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s, budget {budget:.0f}s) - {desc}")
    assert not failures, failures
    assert elapsed <= budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"
    return {r.name: r.detail for r in results}


def test_every_check_is_one_criterion():
    named = [name for _, _, rows in CRITERIA.values() for name in rows]
    assert sorted(named) == sorted(name for name, *_ in ve.CHECKS)


def test_criterion_01_pairing_counts():
    _run(1)
    # the stream lengths were compared with pairing_count
    assert [pa.pairing_count(n) for n in range(1, 9)] == \
        [1, 3, 15, 105, 945, 10395, 135135, 2027025]


def test_criterion_02_connected_counts():
    assert _run(2)["connected-counts"].endswith(": [1, 1, 4, 27, 248, 2830]")


def test_criterion_03_singleton_totals():
    # total_singletons checks its closed form against enumeration internally
    totals = [pa.total_singletons(n) for n in range(1, 8)]
    assert totals == [1, 4, 21, 144, 1245, 13140, 164745]
    assert _run(3)["singleton-totals"].endswith(f": {totals}")


def test_criterion_04_connected_cumulant_identity():
    _run(4)


def test_criterion_05_mix_dual_path():
    _run(5)
    # verify compares b = 0 and b = 1 with the semicircle and normal moments
    for b, want in ((0, (1, 2, 5, 14, 42)), (1, (1, 3, 15, 105, 945))):
        assert mo.semicircle_mix_moments(we.Constant1(), Fraction(b), 5).values == want


def test_criterion_06_mix_cumulant_scaling(monkeypatch):
    # each mixture is the table sum of b**H, read once per b
    seen = []
    moments_of_weight = mo.moments_of_weight

    def recording_moments(spec, n):
        seen.append(spec)
        return moments_of_weight(spec, n)

    monkeypatch.setattr(mo, "moments_of_weight", recording_moments)
    _run(6)
    # the union of the mixing parameters both earlier copies of this check ran
    assert seen == [we.SingletonHPower(b) for b in (
        Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4))]


def test_criterion_07_mix_semigroup():
    _run(7)


def test_criterion_08_markov_limit_moments():
    assert _run(8)["markov-limit-targets"].endswith(": (2, 9, 56)")


def test_criterion_09_monte_carlo():
    worst = _run(9)["monte-carlo"].rsplit("worst even |z| = ", 1)[1]
    assert float(worst) <= 4


def test_criterion_10_group_suite():
    details = _run(10)
    assert "= 13824 triangle triples" in details["group-metric"]
    assert details["group-metric-sampled"].startswith("S(6): 100000 sampled triples")


def test_criterion_11_property_suite():
    _run(11)
    # two more round trips than verify's moment-cumulant-roundtrip runs
    for vals in (
        (Fraction(1), Fraction(-2, 3), Fraction(5, 7), Fraction(0), Fraction(9, 4),
         Fraction(-1, 6)),
        (Fraction(3, 2), Fraction(1, 5), Fraction(-4, 9), Fraction(2), Fraction(-7, 3),
         Fraction(8, 11)),
    ):
        r = mo.CumulantSequence(vals)
        assert mo.cumulants_from_moments(mo.moments_from_cumulants(r)).values == vals
