"""The three workloads: fixed lists of library calls, each with its check.

A workload is rebuilt from its seed in every benchmark process.  The seed
picks the rational parameters, the Gram matrix and the sampling seeds but
never a size, so every seed does the same amount of work.  Each call looks
its function up on the pairmoments module when it runs, so the tracer's
wrappers see it.  A check gets the answer and the results of the pass so
far; it returns None when the answer is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import numpy as np

import oracles as ref
from pairmoments import moments as mo
from pairmoments import pairings as pa
from pairmoments import permgroup as pg
from pairmoments import randmat as rm
from pairmoments import weights as we

Check = Callable[[object, dict], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One library call; ``call`` gets the pass's earlier results by name."""

    name: str
    call: Callable[[dict], object]
    check: Check


#: Sizes of the calls; ``tiny`` is the self-test's scale.
SIZES = {
    "full": dict(table_n=7, transform_n=8, stream_n=7, gram=12, walk_n=6,
                 mc_rad=(1000, 2), mc_gauss=(300, 4), markov_n=200, hist_n=60,
                 group_n=5, sampled_group_n=6, sampled_triples=4_000),
    "tiny": dict(table_n=4, transform_n=5, stream_n=4, gram=6, walk_n=4,
                 mc_rad=(60, 2), mc_gauss=(40, 2), markov_n=30, hist_n=20,
                 group_n=3, sampled_group_n=4, sampled_triples=200),
}

SPEC_CLASSES = {
    "qcr": we.CrossingPower,
    "scc": we.ComponentPower,
    "bH": we.SingletonHPower,
    "betah": we.SingletonCountPower,
}

#: One denominator per family, so that the exact arithmetic costs about
#: the same whichever parameters a seed picks.
PARAM_POOLS = {
    "qcr": [F(p, 7) for p in range(1, 7)],
    "scc": [F(p, 3) for p in range(1, 6)],
    "bH": [F(p, 5) for p in range(1, 5)],
    "betah": [F(p, 2) for p in range(1, 6)],
}


def make_spec(family: str, param):
    return we.Constant1() if family == "const" else SPEC_CLASSES[family](param)


# --- checks -----------------------------------------------------------------


def _values(x) -> tuple:
    return tuple(x.values) if hasattr(x, "values") else tuple(x)


def equal(expected) -> Check:
    expected = tuple(expected)

    def check(got, res):
        got = _values(got)
        return None if got == expected else f"expected {expected}, got {got}"
    return check


def close(expected, rel: float = 1e-9) -> Check:
    """Floats within ``rel`` of the largest expected magnitude (plus one)."""
    expected = tuple(float(v) for v in expected)
    tol = rel * (1.0 + max(abs(v) for v in expected))

    def check(got, res):
        got = tuple(float(v) for v in _values(got))
        if len(got) == len(expected) and all(abs(a - b) <= tol for a, b in zip(got, expected)):
            return None
        return f"expected {expected}, got {got}"
    return check


def _eig_tol(matrix) -> float:
    return 1e-9 * (1.0 + float(np.abs(matrix).max()))


def psd_verdict(matrix_of: Callable[[], np.ndarray]) -> Check:
    """A (verdict, min_eig) pair: verdict True, min_eig near eigvalsh's."""
    cache: dict = {}

    def check(got, res):
        verdict, min_eig = got
        if "m" not in cache:
            cache["m"] = matrix_of()
        matrix = cache["m"]
        want = ref.min_eig(matrix)
        if verdict is not True:
            return f"verdict {verdict} on a positive semidefinite matrix (eigvalsh {want})"
        if abs(min_eig - want) > _eig_tol(matrix):
            return f"min eigenvalue {min_eig} but eigvalsh gives {want}"
        return None
    return check


def report_cases(cases: int) -> Check:
    def check(rep, res):
        if rep.passed is True and rep.cases == cases:
            return None
        return f"passed={rep.passed} cases={rep.cases}, expected True and {cases}"
    return check


# --- exact-tables -----------------------------------------------------------


def _table_check(n: int) -> Check:
    want = (ref.double_factorial(n), ref.catalan(n), ref.riordan_connected(n)[-1],
            ref.singleton_total(n))

    def check(dist, res):
        counts = dist.counts
        sums = (
            sum(counts.values()),
            sum(v for (cr, _, _), v in counts.items() if cr == 0),
            sum(v for (_, _, cc), v in counts.items() if cc == 1),
            sum(h * v for (_, h, _), v in counts.items()),
        )
        return None if sums == want else f"(total, cr=0, cc=1, sum h) = {sums}, expected {want}"
    return check


def _semigroup_check(lhs: list) -> Check:
    def check(rep, res):
        if rep.passed is not True:
            return f"semigroup report failed: max diff {rep.max_abs_diff}"
        if _values(rep.lhs) != tuple(lhs) or _values(rep.rhs) != tuple(lhs):
            return f"lhs {rep.lhs.values} rhs {rep.rhs.values}, expected {tuple(lhs)}"
        return None
    return check


def exact_tables(rng: random.Random, size: dict) -> list[Op]:
    n = size["table_n"]
    nt = size["transform_n"]
    ops: list[Op] = []

    def add(name, call, check):
        ops.append(Op(name, call, check))

    for k in range(1, n + 1):
        add(f"statistic_distribution({k})",
            lambda res, k=k: pa.statistic_distribution(k), _table_check(k))
    add("sequence catalan", lambda res: [pa.count_nc_pairings(k) for k in range(1, n + 1)],
        equal(ref.catalan(k) for k in range(1, n + 1)))
    add("sequence connected", lambda res: pa.riordan_connected(n),
        equal(ref.riordan_connected(n)))
    add("sequence singletons", lambda res: [pa.total_singletons(k) for k in range(1, n + 1)],
        equal(ref.singleton_total(k) for k in range(1, n + 1)))
    markov = ref.moments_from_cumulants([2] + ref.riordan_connected(n)[1:])
    add("sequence moments", lambda res: mo.markov_limit_moments(n), equal(markov))
    add("sequence moments by convolution",
        lambda res: mo.free_convolve(mo.semicircle_moments(n), mo.gaussian_moments(n)),
        equal(markov))
    q = rng.choice(PARAM_POOLS["qcr"])
    add(f"statistic_polynomial(cr) at q={q}",
        lambda res: [we.statistic_polynomial(we.CrossingPower, k).evaluate(q)
                     for k in range(1, n + 1)],
        equal(ref.touchard_riordan(k, q) for k in range(1, n + 1)))

    specs = [("const", None)] + [
        (family, p) for family in SPEC_CLASSES for p in rng.sample(PARAM_POOLS[family], 3)
    ]
    for family, p in specs:
        spec = make_spec(family, p)
        add(f"moments_of_weight({family} {p})",
            lambda res, spec=spec: mo.moments_of_weight(spec, n),
            equal(ref.family_moments(family, p, n)))
        add(f"cumulants_from_connected({family} {p})",
            lambda res, spec=spec: mo.cumulants_from_connected(spec, n),
            equal(ref.family_cumulants(family, p, n)))

    mixes = [("const", None, b) for b in rng.sample(PARAM_POOLS["bH"], 2)] + [
        (family, rng.choice(PARAM_POOLS[family]), rng.choice(PARAM_POOLS["bH"]))
        for family in ("qcr", "scc", "bH")
    ]
    for family, p, b in mixes:
        name = f"semicircle_mix_moments({family} {p}, b={b})"
        cumulants = ref.mixture_cumulants(family, p, b, n)
        moments = ref.moments_from_cumulants(cumulants)
        spec = make_spec(family, p)
        add(name, lambda res, spec=spec, b=b: mo.semicircle_mix_moments(spec, b, n),
            equal(moments))
        if family == "const":
            # r_2 = 1 and r_2k = b^k c_2k
            add(f"cumulants_from_moments of {name}",
                lambda res, name=name: mo.cumulants_from_moments(res[name]),
                equal(cumulants))
            add(f"hankel_psd of {name}", lambda res, name=name: mo.hankel_psd(res[name]),
                psd_verdict(lambda m=moments: ref.hankel(m)))

    b, c = rng.sample(PARAM_POOLS["bH"], 2)
    add(f"check_mix_semigroup(b={b}, c={c})", lambda res: mo.check_mix_semigroup(b, c, n),
        _semigroup_check(ref.moments_from_cumulants(
            ref.mixture_cumulants("const", None, b * c, n))))

    doubled = [2 ** k * ref.catalan(k) for k in range(1, nt + 1)]
    add("free_convolve(semicircle, semicircle)",
        lambda res: mo.free_convolve(mo.semicircle_moments(nt), mo.semicircle_moments(nt)),
        equal(doubled))
    add("hankel_psd of free_convolve(semicircle, semicircle)",
        lambda res: mo.hankel_psd(res["free_convolve(semicircle, semicircle)"]),
        psd_verdict(lambda: ref.hankel(doubled)))
    add("moments_from_cumulants(r = 1)",
        lambda res: mo.moments_from_cumulants(mo.CumulantSequence((F(1),) * nt)),
        equal(ref.ternary(k) for k in range(1, nt + 1)))

    # a-dilated semicircle plus s-dilated normal: r_2 = a + s, r_2k = s^k c_2k
    a, s = rng.choice(PARAM_POOLS["bH"]), rng.choice(PARAM_POOLS["scc"])
    conv_r = [a + s] + [s ** k * c for k, c in enumerate(ref.riordan_connected(nt), 1)][1:]
    conv_m = ref.moments_from_cumulants(conv_r)
    conv = "free_convolve(dilated semicircle, dilated normal)"
    for kind, cast in (("Fraction", F), ("float", float)):
        add(f"{conv} {kind}",
            lambda res, cast=cast: mo.free_convolve(
                mo.dilate_sq(mo.semicircle_moments(nt), cast(a)),
                mo.dilate_sq(mo.gaussian_moments(nt), cast(s))),
            equal(conv_m) if cast is F else close(conv_m))
    add(f"hankel_psd of {conv}", lambda res: mo.hankel_psd(res[f"{conv} Fraction"]),
        psd_verdict(lambda: ref.hankel(conv_m)))

    r_exact = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nt)]
    r_float = [rng.uniform(-2.0, 2.0) for _ in range(nt)]
    for kind, r, exact in (("Fraction", r_exact, True), ("float", r_float, False)):
        fwd = f"moments_from_cumulants {kind}"
        want = ref.moments_from_cumulants(r)
        add(fwd, lambda res, r=r: mo.moments_from_cumulants(mo.CumulantSequence(tuple(r))),
            equal(want) if exact else close(want))
        # the round trip gives back its input: exactly, or to roundoff for floats
        add(f"cumulants_from_moments {kind} round trip",
            lambda res, fwd=fwd: mo.cumulants_from_moments(res[fwd]),
            equal(r) if exact else close(r, rel=1e-9 * (1 + max(abs(v) for v in want))))
    qg = rng.choice(PARAM_POOLS["qcr"])
    qg_moments = [ref.touchard_riordan(k, qg) for k in range(1, n + 1)]
    add(f"hankel_psd of q-Gaussian q={qg}",
        lambda res: mo.hankel_psd(mo.moments_of_weight(we.CrossingPower(qg), n)),
        psd_verdict(lambda: ref.hankel(qg_moments)))
    return ops


# --- pairing-streams --------------------------------------------------------


def _stream(k: int) -> tuple[int, int]:
    # consumed inside the call, so the whole walk is timed
    count = first_12 = 0
    for part in pa.enumerate_pairings(k):
        count += 1
        first_12 += part.blocks[0] == (1, 2)
    return count, first_12


def _brute_force_check(family: str, p, rows: list) -> Check:
    cache: dict = {}

    def check(got, res):
        if "want" not in cache:
            cache["want"] = ref.mixed_moment(family, p, rows)
        return None if got == cache["want"] else (
            f"mixed moment {got}, brute force gives {cache['want']}")
    return check


def pairing_streams(rng: random.Random, size: dict) -> list[Op]:
    n = size["stream_n"]
    walk = size["walk_n"]
    walked = sum(ref.double_factorial(k) for k in range(1, walk + 1))
    ops: list[Op] = []

    def add(name, call, check):
        ops.append(Op(name, call, check))

    for k in range(1, n + 1):
        # (2k-1)!! pairings, (2k-3)!! of them pair 1 with 2
        add(f"enumerate_pairings({k})", lambda res, k=k: _stream(k),
            equal((ref.double_factorial(k), ref.double_factorial(k - 1))))

    k = size["gram"]
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = F(rng.randint(-5, 5), rng.randint(1, 4))
    gram = mo.GramMatrix.from_rows(rows)
    family = rng.choice(sorted(SPEC_CLASSES))
    p = rng.choice(PARAM_POOLS[family])
    spec = make_spec(family, p)
    add(f"mixed_moment({family} {p}, {k}x{k} Gram)", lambda res: mo.mixed_moment(spec, gram),
        _brute_force_check(family, p, rows))

    add(f"check_traceability(H, {walk})", lambda res: we.check_traceability("H", walk),
        report_cases(walked))
    q, b = rng.choice(PARAM_POOLS["qcr"]), rng.choice(PARAM_POOLS["bH"])
    product = we.Product((we.CrossingPower(q), we.SingletonHPower(b)))
    add(f"check_strong_multiplicativity(q^cr b^H, q={q}, b={b}, {walk})",
        lambda res: we.check_strong_multiplicativity(product, walk), report_cases(walked))
    add(f"embedding_consistency({walk})", lambda res: pg.embedding_consistency(walk),
        report_cases(math.factorial(walk)))
    return ops


# --- spectral-checks --------------------------------------------------------


def _mc_check(cfg) -> Check:
    even = ref.moments_from_cumulants([2] + ref.riordan_connected(cfg.kmax // 2)[1:])
    targets = [0.0 if k % 2 else float(even[k // 2 - 1]) for k in range(1, cfg.kmax + 1)]
    first: dict = {}

    def check(rep, res):
        if [r.k for r in rep.rows] != list(range(1, cfg.kmax + 1)):
            return f"rows for orders {[r.k for r in rep.rows]}"
        for row, target in zip(rep.rows, targets):
            if row.target != target:
                return f"order {row.k}: target {row.target}, expected {target}"
            # run_mc's rule: z is 0 or inf when the trials tie (stderr 0)
            if row.stderr > 0:
                z = (row.mean - target) / row.stderr
            else:
                z = 0.0 if row.mean == target else math.inf
            if not math.isclose(row.z, z, rel_tol=1e-12, abs_tol=1e-12):
                return f"order {row.k}: z {row.z} does not follow from mean and stderr"
        # about 7 standard deviations of one trial's second moment
        if abs(rep.rows[1].mean - 2.0) > 10.0 / math.sqrt(cfg.n):
            return f"second moment {rep.rows[1].mean} far from 2"
        even_pass = all(abs(r.z) <= 4.0 for r in rep.rows if r.k % 2 == 0)
        if rep.even_pass != even_pass:
            return f"even_pass {rep.even_pass} but |z| <= 4 is {even_pass}"
        means = [r.mean for r in rep.rows]
        if first.setdefault("means", means) != means:
            return "the same seed gave different means"
        return None
    return check


def _markov_check(dist: str) -> Check:
    def check(m, res):
        a = m.matrix
        if not np.array_equal(a, a.T):
            return "matrix not symmetric"
        worst = float(np.abs(a.sum(axis=1)).max())
        if worst > 1e-9 * a.shape[0]:
            return f"row sums up to {worst}"
        if dist == "rademacher" and not np.all(np.abs(a[~np.eye(len(a), dtype=bool)]) == 1.0):
            return "off-diagonal entries are not +-1"
        return None
    return check


def _trace_check(name: str, kmax: int) -> Check:
    def check(got, res):
        a = res[name].matrix
        lam = np.linalg.eigvalsh(a) / math.sqrt(len(a))
        return close([float(np.mean(lam ** k)) for k in range(1, kmax + 1)])(got, res)
    return check


def _histogram_check(name: str) -> Check:
    def check(rows, res):
        a = res[name].matrix
        lam = np.linalg.eigvalsh(a) / math.sqrt(len(a))
        held = sum(c for _, _, c in rows)
        if held != len(a):
            return f"histogram holds {held} of {len(a)} eigenvalues"
        tol = _eig_tol(a)
        if abs(rows[0][0] - lam[0]) > tol or abs(rows[-1][1] - lam[-1]) > tol:
            return f"edges {rows[0][0]}..{rows[-1][1]}, eigvalsh {lam[0]}..{lam[-1]}"
        return None
    return check


def _cnd_check(g: int, big_h: np.ndarray) -> Check:
    def check(rep, res):
        k = ref.group_kernel(g, big_h)
        proj = np.eye(len(k)) - 1.0 / len(k)
        centered = ref.min_eig(-(proj @ k @ proj))
        if rep.passed is not True:
            return f"CND check failed: {rep.detail}"
        if abs(rep.centered_min_eig - centered) > _eig_tol(k):
            return f"centered min eig {rep.centered_min_eig}, eigvalsh {centered}"
        return None
    return check


def _metric_check(triples: int, exhaustive: bool) -> Check:
    def check(rep, res):
        if (rep.passed, rep.triples_checked, rep.exhaustive) == (True, triples, exhaustive):
            return None
        return (f"passed={rep.passed} triples={rep.triples_checked} "
                f"exhaustive={rep.exhaustive}, expected {triples} {exhaustive}")
    return check


def spectral_checks(rng: random.Random, size: dict) -> list[Op]:
    ops: list[Op] = []

    def add(name, call, check):
        ops.append(Op(name, call, check))

    seeds = [rng.randrange(2 ** 32) for _ in range(5)]
    for (dim, trials), dist, seed in ((size["mc_rad"], "rademacher", seeds[0]),
                                      (size["mc_gauss"], "gaussian", seeds[1])):
        cfg = rm.McConfig(n=dim, trials=trials, kmax=6, dist=dist, seed=seed)
        add(f"run_mc({dist}, n={dim}, trials={trials})", lambda res, cfg=cfg: rm.run_mc(cfg),
            _mc_check(cfg))

    markov = f"sample_markov(rademacher, n={size['markov_n']})"
    add(markov, lambda res: rm.sample_markov(size["markov_n"], "rademacher", seeds[2]),
        _markov_check("rademacher"))
    add("empirical_moments", lambda res: rm.empirical_moments(res[markov], 6),
        _trace_check(markov, 6))
    hist = f"sample_markov(gaussian, n={size['hist_n']})"
    add(hist, lambda res: rm.sample_markov(size["hist_n"], "gaussian", seeds[3]),
        _markov_check("gaussian"))
    add("eigenvalue_histogram", lambda res: rm.eigenvalue_histogram(res[hist], bins=16),
        _histogram_check(hist))

    # Fixed kernel parameters (the CLI's defaults): Jacobi's sweep count
    # depends on the matrix, so seeded ones would make the work seed-dependent.
    # The exp(-xH) Gram test is the Schoenberg certificate, so check_cnd runs
    # its centered certificate only.
    g = size["group_n"]
    h = ref.group_h(g)
    big_h = g - h
    b, x = 2.0, 1.0
    kernels = (
        ("h", lambda s: float(pg.isolated_fixed_points(s)), h),
        (f"b^h b={b}", lambda s: b ** pg.isolated_fixed_points(s), b ** h),
        (f"exp(-{x}H)", lambda s: math.exp(-x * pg.big_h(s)), np.exp(-x * big_h)),
    )
    for label, f, values in kernels:
        add(f"check_positive_definite({g}, {label})",
            lambda res, f=f: pg.check_positive_definite(g, f),
            psd_verdict(lambda values=values: ref.group_kernel(g, values)))
    add(f"check_cnd({g}, exponents=())", lambda res: pg.check_cnd(g, exponents=()),
        _cnd_check(g, big_h))

    add(f"metric_checks({g})", lambda res: pg.metric_checks(g),
        _metric_check(math.factorial(g) ** 3, True))
    sg, triples = size["sampled_group_n"], size["sampled_triples"]
    add(f"metric_checks({sg}, triples={triples})",
        lambda res: pg.metric_checks(sg, triples=triples, seed=seeds[4]),
        _metric_check(triples, False) if sg > 5 else
        _metric_check(math.factorial(sg) ** 3, True))
    return ops


BUILDERS = {
    "exact-tables": exact_tables,
    "pairing-streams": pairing_streams,
    "spectral-checks": spectral_checks,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    return BUILDERS[workload](random.Random(seed), SIZES["tiny" if tiny else "full"])
