"""Self-verification suites: every headline identity at desk scale.

Two levels are exposed.  ``quick`` keeps every enumeration small and
finishes in well under a second; ``full`` pushes the caps (2n = 16 pairing
count, the n = 1000 Monte Carlo, sampled metric triples on S(6)) and takes
about 15-20 s on two cores, most of it the n = 8 pairing stream, the Monte
Carlo and the sampled metric check.  Each check reports pass/fail plus a
one-line detail; the CLI prints one line per check and exits nonzero on
any failure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import moments as mo
from . import pairings as pa
from . import permgroup as pg
from . import randmat as rm
from . import weights as we


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    detail: str


def _check(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not a stack trace
        return CheckResult(name, False, time.perf_counter() - start, f"error: {exc}")
    return CheckResult(name, passed, time.perf_counter() - start, detail)


def _pairing_counts(nmax: int) -> tuple[bool, str]:
    for n in range(1, nmax + 1):
        streamed = sum(1 for _ in pa.enumerate_pairings(n, max_n=nmax))
        if streamed != pa.pairing_count(n):
            return False, f"n={n}: stream {streamed} != (2n-1)!! {pa.pairing_count(n)}"
    return True, f"stream lengths match (2n-1)!! for n <= {nmax}"


def _nc_counts(nmax: int) -> tuple[bool, str]:
    for n in range(1, nmax + 1):
        dist = pa.statistic_distribution(n, max_n=nmax)
        cr0 = sum(v for (cr, _, _), v in dist.counts.items() if cr == 0)
        if cr0 != pa.count_nc_pairings(n):
            return False, f"n={n}: cr=0 count {cr0} != Catalan {pa.count_nc_pairings(n)}"
    return True, f"non-crossing counts equal Catalan numbers for n <= {nmax}"


def _connected_counts(nmax: int) -> tuple[bool, str]:
    recur = pa.riordan_connected(nmax)
    for n in range(1, nmax + 1):
        dist = pa.statistic_distribution(n, max_n=nmax)
        brute = sum(v for (_, _, cc), v in dist.counts.items() if cc == 1)
        if brute != recur[n - 1]:
            return False, f"n={n}: joint table {brute} != recurrence {recur[n - 1]}"
    return True, f"recurrence matches joint table for n <= {nmax}: {recur}"


def _singleton_totals(nmax: int) -> tuple[bool, str]:
    values = []
    for n in range(1, nmax + 1):
        values.append(pa.total_singletons(n, max_n=nmax))  # asserts both paths
    return True, f"closed form equals joint table for n <= {nmax}: {values}"


_PRIMITIVE_SPECS = (
    we.Constant1(),
    we.SingletonHPower(Fraction(1, 2)),
    we.CrossingPower(Fraction(1, 3)),
    we.ComponentPower(Fraction(2, 3)),
)


def _connected_cumulant_identity(nmax: int) -> tuple[bool, str]:
    for spec in _PRIMITIVE_SPECS:
        direct = mo.moments_of_weight(spec, nmax)
        via_cumulants = mo.moments_from_cumulants(mo.cumulants_from_connected(spec, nmax))
        if direct.values != via_cumulants.values:
            return False, f"{spec}: {direct.values} != {via_cumulants.values}"
    return True, f"connected-cumulant identity exact for {len(_PRIMITIVE_SPECS)} weights, N <= {nmax}"


def _mix_dual_path(nmax: int) -> tuple[bool, str]:
    bs = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    for b in bs:
        seq = mo.semicircle_mix_moments(we.Constant1(), b, nmax)  # raises on mismatch
        if b == 0 and seq.values != mo.semicircle_moments(nmax).values:
            return False, "b=0 is not the semicircle"
        if b == 1 and seq.values != mo.gaussian_moments(nmax).values:
            return False, "b=1 is not the normal law"
    return True, f"both paths agree exactly for b in {{0,1/4,1/2,3/4,1}}, N <= {nmax}"


def _cumulant_scaling(nmax: int) -> tuple[bool, str]:
    connected = pa.riordan_connected(nmax)
    for b in (Fraction(1, 3), Fraction(2, 5)):
        mix = mo.semicircle_mix_moments(we.Constant1(), b, nmax)
        r = mo.cumulants_from_moments(mix)
        if r.cumulant(2) != 1:
            return False, f"b={b}: r_2 = {r.cumulant(2)} != 1"
        for n in range(2, nmax + 1):
            if r.cumulant(2 * n) != b ** n * connected[n - 1]:
                return False, f"b={b}, order {2 * n}: {r.cumulant(2 * n)} != b^n c_2n"
    return True, f"r_2 fixed and r_2n = b^n c_2n for 2 <= n <= {nmax}"


def _semigroup(nmax: int) -> tuple[bool, str]:
    for b in (Fraction(1, 2), Fraction(1, 3)):
        for c in (Fraction(1, 2), Fraction(2, 3)):
            rep = mo.check_mix_semigroup(b, c, nmax)
            if not rep.passed:
                return False, f"b={b}, c={c}: max diff {rep.max_abs_diff}"
    return True, f"mixing semigroup identity exact on a 2x2 rational grid, N <= {nmax}"


def _markov_targets() -> tuple[bool, str]:
    direct = mo.markov_limit_moments(3)
    conv = mo.free_convolve(mo.semicircle_moments(3), mo.gaussian_moments(3))
    if direct.values != (2, 9, 56):
        return False, f"joint table gave {direct.values}"
    if conv.values != (2, 9, 56):
        return False, f"free convolution gave {conv.values}"
    return True, "sum of 2^h equals free convolution: (2, 9, 56)"


def _monte_carlo(n: int, trials: int) -> tuple[bool, str]:
    rep = rm.run_mc(rm.McConfig(n=n, trials=trials, kmax=6, dist="rademacher", seed=42))
    worst = max(abs(r.z) for r in rep.rows if r.k % 2 == 0)
    return rep.passed, f"n={n}, trials={trials}: worst even |z| = {worst:.2f}"


def _embedding(nmax: int) -> tuple[bool, str]:
    for n in range(1, nmax + 1):
        rep = pg.embedding_consistency(n)
        if not rep.passed:
            return False, rep.detail
    return True, f"isolated fixed points equal embedded singleton counts for n <= {nmax}"


def _isolated_split(degree_max: int) -> tuple[bool, str]:
    for degree in range(2, degree_max + 1):
        rep = pg.check_isolated_split(degree - 1)
        if not rep.passed:
            return False, rep.detail
    return True, f"prefix/suffix split identity holds on S(2)..S({degree_max})"


def _group_psd(n: int) -> tuple[bool, str]:
    kernels = {
        "h": lambda s: float(pg.isolated_fixed_points(s)),
        "2^h": lambda s: 2.0 ** pg.isolated_fixed_points(s),
        "exp(-0.5 H)": lambda s: math.exp(-0.5 * pg.big_h(s)),
    }
    details = []
    for name, f in kernels.items():
        ok, min_eig = pg.check_positive_definite(n, f)
        details.append(f"{name}: {min_eig:.2e}")
        if not ok:
            return False, f"{name} not PSD on S({n}): min eig {min_eig}"
    return True, f"PSD on S({n}); min eigs " + ", ".join(details)


def _group_cnd(n: int) -> tuple[bool, str]:
    rep = pg.check_cnd(n)
    return rep.passed, f"S({n}): {rep.detail}"


def _group_metric(n: int, triples: int) -> tuple[bool, str]:
    rep = pg.metric_checks(n, triples=triples, seed=7)
    return rep.passed, f"S({n}): {rep.detail}"


def _rotation_invariance(nmax: int) -> tuple[bool, str]:
    for stat in ("cr", "h", "cc", "H"):
        rep = we.check_traceability(stat, nmax)
        if not rep.passed:
            return False, rep.detail
    return True, f"cr, h, cc, H rotation-invariant for n <= {nmax}"


def _strong_multiplicativity(nmax: int) -> tuple[bool, str]:
    for spec in _PRIMITIVE_SPECS:
        rep = we.check_strong_multiplicativity(spec, nmax)
        if not rep.passed:
            return False, f"{spec}: {rep.detail} at {rep.counterexample}"
    return True, f"component factorization holds for all four primitive weights, n <= {nmax}"


def _roundtrip() -> tuple[bool, str]:
    # fixed pseudorandom rational sequences; hypothesis covers the fuzzing
    seqs = [
        tuple(Fraction(num, den) for num, den in pairs)
        for pairs in (
            ((1, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)),
            ((2, 1), (1, 1), (4, 1), (27, 1), (248, 1), (2830, 1)),
            ((1, 2), (-3, 5), (7, 3), (0, 1), (-1, 7), (5, 11)),
            ((-4, 3), (9, 8), (1, 6), (2, 9), (3, 4), (-8, 5)),
        )
    ]
    for vals in seqs:
        r = mo.CumulantSequence(vals)
        if mo.cumulants_from_moments(mo.moments_from_cumulants(r)).values != vals:
            return False, f"round trip failed for {vals}"
        m = mo.MomentSequence(vals)
        if mo.moments_from_cumulants(mo.cumulants_from_moments(m)).values != vals:
            return False, f"reverse round trip failed for {vals}"
    return True, f"moment/cumulant round trip exact on {len(seqs)} rational sequences, N = 6"


def run_level(level: str) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    full = level == "full"

    results = [
        _check("pairing-counts", lambda: _pairing_counts(8 if full else 6)),
        _check("noncrossing-counts", lambda: _nc_counts(8 if full else 6)),
        _check("connected-counts", lambda: _connected_counts(6 if full else 5)),
        _check("singleton-totals", lambda: _singleton_totals(7 if full else 5)),
        _check("connected-cumulant-identity",
               lambda: _connected_cumulant_identity(5 if full else 4)),
        _check("mix-dual-path", lambda: _mix_dual_path(5 if full else 4)),
        _check("mix-cumulant-scaling", lambda: _cumulant_scaling(5 if full else 4)),
        _check("mix-semigroup", lambda: _semigroup(6 if full else 4)),
        _check("markov-limit-targets", _markov_targets),
        _check("monte-carlo",
               lambda: _monte_carlo(1000 if full else 200, 20 if full else 5)),
        _check("group-embedding", lambda: _embedding(6 if full else 4)),
        _check("isolated-split", lambda: _isolated_split(6 if full else 4)),
        _check("group-psd", lambda: _group_psd(4 if full else 3)),
        _check("group-cnd", lambda: _group_cnd(4 if full else 3)),
        _check("group-metric", lambda: _group_metric(4, 0)),
        _check("rotation-invariance", lambda: _rotation_invariance(6 if full else 4)),
        _check("strong-multiplicativity", lambda: _strong_multiplicativity(5 if full else 4)),
        _check("moment-cumulant-roundtrip", _roundtrip),
    ]
    if full:
        results.append(
            _check("group-metric-sampled", lambda: _group_metric(6, 100_000))
        )
    return results
