"""Self-verification suites: every headline identity at desk scale.

``CHECKS`` lists every check with its arguments at the two levels.
``quick`` finishes in well under a second.  ``full`` walks all 2,027,025
pairings at n = 8, reads the tables at n <= 8, runs the rotation stream at
n <= 6, the factorization stream at n <= 5, the group kernels at degree 4,
the n = 1000 Monte Carlo and 100,000 sampled metric triples on S(6), in
about 4 s on two cores.  Each check reports pass/fail and a one-line
detail; the CLI prints one line per check and exits nonzero on any failure.
The checks that use :mod:`pairmoments.randmat` or :mod:`pairmoments.permgroup`
import them when they run, so importing this module loads no numpy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import moments as mo
from . import pairings as pa
from . import weights as we
from .exceptions import _check_limit


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    detail: str


def _check(name: str, fn: Callable[..., tuple[bool, str]], args: tuple) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = fn(*args)
    except Exception as exc:  # a crash is a failure, not a stack trace
        return CheckResult(name, False, time.perf_counter() - start, f"error: {exc}")
    return CheckResult(name, passed, time.perf_counter() - start, detail)


#: The integer sequences computed two ways, as ``sequences --which`` names
#: them: the names of their value and oracle paths, and the pass detail of
#: verify's check on them, which may name {nmax} and {values}, the values.
SEQUENCES = {
    "pairings": ("stream", "(2n-1)!!", "stream lengths match (2n-1)!! for n <= {nmax}"),
    "catalan": ("Catalan", "cr=0 count",
                "non-crossing counts equal Catalan numbers for n <= {nmax}"),
    "connected": ("recurrence", "joint table",
                  "recurrence matches joint table for n <= {nmax}: {values}"),
    "singletons": ("closed form", "joint table",
                   "closed form equals joint table for n <= {nmax}: {values}"),
    "moments": ("sum of 2^h", "free convolution", "sum of 2^h equals free convolution: {values}"),
}


def sequence_rows(which: str, nmax: int) -> list[dict]:
    """Rows n, value, oracle, agree for n = 1..nmax of one of ``SEQUENCES``.

    nmax is capped at ``STREAM_MAX_N`` for pairings, which walks P2(2n), and
    at ``TABLE_MAX_N`` for the others, which read the tables.
    """
    if which not in SEQUENCES:
        raise ValueError(f"unknown sequence {which!r}")
    _check_limit("enumeration" if which == "pairings" else "table", nmax)
    if which == "pairings":
        pairs = [(sum(1 for _ in pa.enumerate_pairings(n)), pa.pairing_count(n))
                 for n in range(1, nmax + 1)]
    elif which == "moments":
        direct = mo.markov_limit_moments(nmax)
        conv = mo.free_convolve(mo.semicircle_moments(nmax), mo.gaussian_moments(nmax))
        pairs = list(zip(direct.values, conv.values))
    else:
        tables = pa._joint_tables(nmax)
        if which == "catalan":
            pairs = [(pa.count_nc_pairings(d.n), d.marginal("cr")[0]) for d in tables]
        elif which == "connected":
            pairs = list(zip(pa.riordan_connected(nmax), (d.marginal("cc")[1] for d in tables)))
        else:
            pairs = [(pa._singleton_total(d.n),
                      sum(h * v for h, v in d.marginal("h").items())) for d in tables]
    return [{"n": n, "value": value, "oracle": oracle, "agree": value == oracle}
            for n, (value, oracle) in enumerate(pairs, start=1)]


def _rows_agree(which: str, nmax: int) -> tuple[bool, str]:
    # Every row of sequence_rows(which, nmax) agrees, or the first that does
    # not is named.
    rows = sequence_rows(which, nmax)
    value_path, oracle_path, detail = SEQUENCES[which]
    for row in rows:
        if not row["agree"]:
            return False, (f"n={row['n']}: {value_path} {row['value']} != "
                           f"{oracle_path} {row['oracle']}")
    return True, detail.format(nmax=nmax, values=[row["value"] for row in rows])


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
    for b in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4)):
        mix = mo.moments_of_weight(we.SingletonHPower(b), nmax)
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
    # both paths of the moments rows give the paper's values
    value_path, oracle_path, detail = SEQUENCES["moments"]
    targets = (2, 9, 56)
    for row, want in zip(sequence_rows("moments", 3), targets):
        if row["value"] != want or row["oracle"] != want:
            return False, (f"n={row['n']}: {value_path} {row['value']}, "
                           f"{oracle_path} {row['oracle']}, expected {want}")
    return True, detail.format(values=targets)


def _monte_carlo(n: int, trials: int) -> tuple[bool, str]:
    from . import randmat as rm

    rep = rm.run_mc(rm.McConfig(n=n, trials=trials, kmax=6, dist="rademacher", seed=42))
    worst = max(abs(r.z) for r in rep.rows if r.k % 2 == 0)
    return rep.passed, f"n={n}, trials={trials}: worst even |z| = {worst:.2f}"


def _embedding(nmax: int) -> tuple[bool, str]:
    from . import permgroup as pg

    for n in range(1, nmax + 1):
        rep = pg.embedding_consistency(n)
        if not rep.passed:
            return False, rep.detail
    return True, f"isolated fixed points equal embedded singleton counts for n <= {nmax}"


def _isolated_split(degree_max: int) -> tuple[bool, str]:
    from . import permgroup as pg

    for degree in range(2, degree_max + 1):
        rep = pg.check_isolated_split(degree - 1)
        if not rep.passed:
            return False, rep.detail
    return True, f"prefix/suffix split identity holds on S(2)..S({degree_max})"


def _group_psd(n: int) -> tuple[bool, str]:
    from . import permgroup as pg

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
    from . import permgroup as pg

    rep = pg.check_cnd(n)
    return rep.passed, f"S({n}): {rep.detail}"


def _group_metric(n: int, triples: int) -> tuple[bool, str]:
    from . import permgroup as pg

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
    seqs = [tuple(map(Fraction, vals.split())) for vals in (
        "1 0 0 0 0 0", "2 1 4 27 248 2830",
        "1/2 -3/5 7/3 0 -1/7 5/11", "-4/3 9/8 1/6 2/9 3/4 -8/5")]
    for vals in seqs:
        r = mo.CumulantSequence(vals)
        if mo.cumulants_from_moments(mo.moments_from_cumulants(r)).values != vals:
            return False, f"round trip failed for {vals}"
        m = mo.MomentSequence(vals)
        if mo.moments_from_cumulants(mo.cumulants_from_moments(m)).values != vals:
            return False, f"reverse round trip failed for {vals}"
    return True, f"moment/cumulant round trip exact on {len(seqs)} rational sequences, N = 6"


#: verify's checks in report order: (name, check, quick_args, full_args).
#: A level whose arguments are None skips the check.
CHECKS = (
    ("pairing-counts", partial(_rows_agree, "pairings"), (6,), (8,)),
    ("noncrossing-counts", partial(_rows_agree, "catalan"), (6,), (8,)),
    ("connected-counts", partial(_rows_agree, "connected"), (5,), (6,)),
    ("singleton-totals", partial(_rows_agree, "singletons"), (5,), (7,)),
    ("connected-cumulant-identity", _connected_cumulant_identity, (4,), (5,)),
    ("mix-dual-path", _mix_dual_path, (4,), (5,)),
    ("mix-cumulant-scaling", _cumulant_scaling, (4,), (5,)),
    ("mix-semigroup", _semigroup, (4,), (6,)),
    ("markov-limit-targets", _markov_targets, (), ()),
    ("monte-carlo", _monte_carlo, (200, 5), (1000, 20)),
    ("group-embedding", _embedding, (4,), (6,)),
    ("isolated-split", _isolated_split, (4,), (6,)),
    ("group-psd", _group_psd, (3,), (4,)),
    ("group-cnd", _group_cnd, (3,), (4,)),
    ("group-metric", _group_metric, (4, 0), (4, 0)),
    ("rotation-invariance", _rotation_invariance, (4,), (6,)),
    ("strong-multiplicativity", _strong_multiplicativity, (4,), (5,)),
    ("moment-cumulant-roundtrip", _roundtrip, (), ()),
    ("group-metric-sampled", _group_metric, None, (6, 100_000)),
)

LEVELS = ("quick", "full")


def run_level(level: str) -> list[CheckResult]:
    if level not in LEVELS:
        raise ValueError("level must be 'quick' or 'full'")
    column = 2 + LEVELS.index(level)
    return [_check(row[0], row[1], row[column]) for row in CHECKS if row[column] is not None]
