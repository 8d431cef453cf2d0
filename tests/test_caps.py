"""One size cap per path, the same at every entry point.

Everything answered from tables (the joint (cr, h, cc) table, the
moment-cumulant transforms and the weighted sums over them) stops at
``TABLE_MAX_N = 20``; everything that walks partitions one at a time stops
at ``STREAM_MAX_N = 8``.  Each entry point answers at its cap and raises
:class:`SizeLimitError` one past it.  Past the cap, stand-ins for the table
builders, the walks and numpy itself fail the test if any work starts,
which shows that the refusal comes first.
"""

import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

from pairmoments import _arrays as ar
from pairmoments import cli, exceptions
from pairmoments import moments as mo
from pairmoments import pairings as pa
from pairmoments import permgroup as pg
from pairmoments import randmat as rm
from pairmoments import rng
from pairmoments import weights as we
from pairmoments.exceptions import SizeLimitError, _check_limit

TABLE, STREAM = pa.TABLE_MAX_N, pa.STREAM_MAX_N


def test_the_two_caps():
    assert (STREAM, TABLE) == (8, 20)


@pytest.mark.parametrize("kind", exceptions._LIMITS)
def test_one_check_per_limit(kind):
    least, cap, name, what = exceptions._LIMITS[kind]
    assert getattr(exceptions, name) == cap
    _check_limit(kind, least)
    _check_limit(kind, cap)
    refusal = rf"^{what} {cap + 1} exceeds the {kind} cap {cap} \({name}\)$"
    with pytest.raises(SizeLimitError, match=refusal):
        _check_limit(kind, cap + 1)
    with pytest.raises(ValueError, match=f"^{what} must be >= {least}, got {least - 1}$") as below:
        _check_limit(kind, least - 1)
    assert type(below.value) is ValueError
    for value in (float(cap), str(least)):
        refusal = f"^{what} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=refusal) as refused:
            _check_limit(kind, value)
        assert type(refused.value) is ValueError


def _no_work(*args, **kwargs):
    raise AssertionError("work started above the cap")


@pytest.fixture
def no_tables(monkeypatch):
    # every joint table starts from the Touchard-Riordan moments, and every
    # transform from the even non-crossing type tables
    monkeypatch.setattr(pa, "_touchard_riordan", _no_work)
    monkeypatch.setattr(pa, "_nc_even_types", _no_work)
    # and no matrix is read or multiplied
    monkeypatch.setattr(rm, "np", _NoArrays())


TABLE_ENTRIES = {
    "statistic_distribution": pa.statistic_distribution,
    "statistic_polynomial": lambda n: we.statistic_polynomial(we.CrossingPower, n),
    "moments_from_cumulants":
        lambda n: mo.moments_from_cumulants(mo.CumulantSequence((F(1),) * n)),
    "cumulants_from_moments": lambda n: mo.cumulants_from_moments(mo.gaussian_moments(n)),
    "free_convolve":
        lambda n: mo.free_convolve(mo.semicircle_moments(n), mo.gaussian_moments(n)),
    "moments_of_weight": lambda n: mo.moments_of_weight(we.CrossingPower(F(1, 3)), n),
    "cumulants_from_connected":
        lambda n: mo.cumulants_from_connected(we.ComponentPower(F(2, 3)), n),
    "markov_limit_moments": mo.markov_limit_moments,
    "semicircle_mix_moments":
        lambda n: mo.semicircle_mix_moments(we.Constant1(), F(1, 4), n),
    "check_mix_semigroup": lambda n: mo.check_mix_semigroup(F(1, 2), F(1, 3), n),
    # the sequences the tables are checked against
    "semicircle_moments": mo.semicircle_moments,
    "gaussian_moments": mo.gaussian_moments,
    "riordan_connected": pa.riordan_connected,
    # order-2n targets need half-size n: kmax 40 and 41 pass, 42 does not
    "McConfig.kmax": lambda n: rm.McConfig(n=2, trials=2, kmax=2 * n),
    "empirical_moments.kmax": lambda n: rm.empirical_moments(np.eye(2), 2 * n),
    # the (N + 1) x (N + 1) Hankel matrix of an order-N sequence
    "hankel_psd": lambda n: mo.hankel_psd(mo.MomentSequence((1,) * n)),
}


@pytest.mark.parametrize("entry", TABLE_ENTRIES)
def test_table_entry_answers_at_cap(entry):
    assert TABLE_ENTRIES[entry](TABLE) is not None


def test_sequences_below_the_cap():
    assert mo.semicircle_moments(0).values == mo.gaussian_moments(0).values == ()
    for build in (mo.semicircle_moments, mo.gaussian_moments, pa.riordan_connected):
        with pytest.raises(ValueError, match="must be >= "):
            build(-1)
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        pa.riordan_connected(0)


@pytest.mark.parametrize("entry", TABLE_ENTRIES)
def test_table_entry_refuses_past_cap(entry, no_tables):
    with pytest.raises(SizeLimitError, match="table cap"):
        TABLE_ENTRIES[entry](TABLE + 1)


#: Entries whose size is the length of a sequence: an int whatever is given.
SIZED_BY_LENGTH = {"moments_from_cumulants", "hankel_psd"}


@pytest.mark.parametrize("entry", [e for e in TABLE_ENTRIES if e not in SIZED_BY_LENGTH])
def test_table_entry_refuses_non_integral(entry, no_tables):
    # kmax is named itself, not as the half-size of its target
    refusal = r"^(half-size|order N|kmax) must be an integer, got \d+\.0$"
    with pytest.raises(ValueError, match=refusal) as refused:
        TABLE_ENTRIES[entry](float(TABLE))
    assert type(refused.value) is ValueError


@pytest.mark.parametrize("spec", [we.CrossingPower(F(1, 3)), we.CrossingPower(0.5)],
                         ids=["graded", "loop"])
def test_table_sums_refuse_before_any_table(spec, no_tables, monkeypatch):
    monkeypatch.setattr(pa, "_joint_tables", _no_work)
    monkeypatch.setattr(pa, "_marginal", _no_work)
    with pytest.raises(ValueError, match=r"^order N must be >= 0, got -1$"):
        we._table_sums(-1, spec)
    refusal = r"^half-size 21 exceeds the table cap 20 \(TABLE_MAX_N\)$"
    with pytest.raises(SizeLimitError, match=refusal):
        we._table_sums(TABLE + 1, spec, mix=F(1, 4))


def test_total_singletons_cross_checks_up_to_the_cap(monkeypatch):
    asked = []
    real = pa.statistic_distribution
    monkeypatch.setattr(pa, "statistic_distribution", lambda n: asked.append(n) or real(n))
    p = [pa.pairing_count(k) for k in range(TABLE + 1)]
    assert pa.total_singletons(TABLE) == TABLE * sum(
        p[k] * p[TABLE - 1 - k] for k in range(TABLE))
    assert asked == [TABLE]
    # past the cap the closed form comes back without a table
    monkeypatch.setattr(pa, "statistic_distribution", _no_work)
    n = TABLE + 1
    assert pa.total_singletons(n) == n * sum(p[k] * p[n - 1 - k] for k in range(n))


def test_singleton_closed_form_equals_the_double_factorial_sum():
    # the closed form builds (2k - 1)!! up once; each term equals pairing_count's
    for n in range(61):
        p = [pa.pairing_count(k) for k in range(n)]
        assert pa._singleton_total(n) == n * sum(p[k] * p[n - 1 - k] for k in range(n))


TABLE_COMMANDS = [
    ["sequences", "--which", which, "--max"]
    for which in ("catalan", "connected", "singletons", "moments")
] + [["moments", "--weight", "qcr", "--param", "1/3", "--mix", "1/4", "--N"]]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_cli_table_command_at_cap(argv, capsys):
    assert cli.main(argv + [str(TABLE)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == TABLE + 1
    if argv[0] == "sequences":
        assert all(row.endswith(",true") for row in rows[1:])


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_cli_table_command_refuses_past_cap(argv, capsys, no_tables):
    assert cli.main(argv + [str(TABLE + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "table cap" in err


class _Started(Exception):
    """The stream at the half-size under test was asked for."""


def _stub_streams(monkeypatch, top):
    # Streams below half-size `top` are recorded and empty, with no chunks,
    # so a check over n = 1..top stays fast.  At `top`, the array stream
    # stops the call as soon as it is asked for, and the enumerate_pairings
    # walk runs the real stream up to its first partition (its cap check
    # fires there).
    below = []

    def stream(n):
        _check_limit("enumeration", n)  # as the real _stream does first
        if n < top:
            below.append(n)
            return ar._Stream(ar.np.empty(0, dtype=ar.np.int16), (), ())
        raise _Started(n)

    def chunks(n):
        assert n < top  # the stream of n was asked for first
        return iter(())

    def walk(n, real=pa.enumerate_pairings):
        if n < top:
            below.append(n)
            return iter(())
        raise _Started(n, next(real(n)))

    monkeypatch.setattr(ar, "_stream", stream)
    monkeypatch.setattr(ar, "_chunks", chunks)
    monkeypatch.setattr(pa, "enumerate_pairings", walk)
    return below


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used above the cap")


def _gram(n):
    return mo.GramMatrix.from_rows([[1] * (2 * n)] * (2 * n))


STREAM_ENTRIES = {
    "enumerate_pairings": lambda n: pa.enumerate_pairings(n),
    "iter_statistics": lambda n: next(pa.iter_statistics(n)),
    "mixed_moment": lambda n: mo.mixed_moment(we.Constant1(), _gram(n)),
    "check_traceability": lambda n: we.check_traceability("cr", n),
    "check_strong_multiplicativity":
        lambda n: we.check_strong_multiplicativity(we.Constant1(), n),
    "sequences --which pairings":
        lambda n: cli.main(["sequences", "--which", "pairings", "--max", str(n)]),
}


@pytest.mark.parametrize("entry", STREAM_ENTRIES)
def test_stream_entry_walks_at_cap(entry, monkeypatch):
    _stub_streams(monkeypatch, STREAM)
    with pytest.raises(_Started):
        STREAM_ENTRIES[entry](STREAM)


@pytest.mark.parametrize("entry", STREAM_ENTRIES)
def test_stream_entry_refuses_past_cap(entry, monkeypatch, capsys):
    below = _stub_streams(monkeypatch, STREAM + 1)
    monkeypatch.setattr(pa, "_block_batches", _no_work)
    monkeypatch.setattr(ar, "np", _NoArrays())
    if entry.startswith("sequences"):
        assert STREAM_ENTRIES[entry](STREAM + 1) == 2
        out, err = capsys.readouterr()
        assert out == "" and "enumeration cap" in err
    else:
        with pytest.raises(SizeLimitError, match="enumeration cap"):
            STREAM_ENTRIES[entry](STREAM + 1)
    assert below == []


@pytest.mark.parametrize("entry", [e for e in STREAM_ENTRIES if e != "mixed_moment"])
def test_stream_entry_refuses_non_integral(entry, monkeypatch, capsys):
    # mixed_moment's half-size is half a Gram matrix's int size
    below = _stub_streams(monkeypatch, STREAM)
    monkeypatch.setattr(pa, "_block_batches", _no_work)
    monkeypatch.setattr(ar, "np", _NoArrays())
    if entry.startswith("sequences"):  # --max is parsed as an int
        with pytest.raises(SystemExit) as exc:
            STREAM_ENTRIES[entry](float(STREAM))
        assert exc.value.code == 2 and capsys.readouterr().out == ""
    else:
        refusal = rf"^half-size must be an integer, got {float(STREAM)}$"
        with pytest.raises(ValueError, match=refusal) as refused:
            STREAM_ENTRIES[entry](float(STREAM))
        assert type(refused.value) is ValueError
    assert below == []


def test_group_and_sampling_sizes_refuse_non_integral():
    pg.enumerate_group(3)  # cached; 3.0 must still be refused, not served
    entries = [(lambda: pg.enumerate_group(3.0), "group degree", 3.0),
               (lambda: pg.embedding_consistency(3.0), "group degree", 3.0),
               (lambda: rm.sample_markov(10.5), "matrix dimension", 10.5),
               (lambda: rm.eigenvalue_histogram(np.eye(2), bins=5.0), "bins", 5.0),
               (lambda: rm.sample_markov(4, "rademacher", 2.5), "seed", 2.5),
               (lambda: pg.metric_checks(6, triples=10, seed=1.5), "seed", 1.5),
               (lambda: rng.mix64(1.5), "seed", 1.5),
               (lambda: rng.substream_seed(1.5, 0), "seed", 1.5),
               (lambda: rng.substream_seed(7, 1.5), "index", 1.5),
               (lambda: rng.Xorshift64Star(1).randrange(1.5), "bound", 1.5),
               (lambda: rng.Xorshift64Star(1).rademacher(1.5), "count", 1.5),
               (lambda: rng.Xorshift64Star(1).normals(1.5), "count", 1.5),
               (lambda: mo.MomentSequence((1, 3)).moment(2.0), "moment order", 2.0),
               (lambda: mo.CumulantSequence((1, 0)).cumulant(2.0), "cumulant order", 2.0),
               (lambda: pg.Permutation((2, 1))(1.5), "point", 1.5),
               (lambda: pg.Permutation.identity(2.0), "degree", 2.0),
               (lambda: pg.Permutation((2, 1)).extend(3.0), "degree", 3.0)]
    for entry, what, value in entries:
        with pytest.raises(ValueError, match=rf"^{what} must be an integer, got {value}$"):
            entry()
    refusals = [(lambda: pg.Permutation.identity(-1), "degree", 0, -1),
                (lambda: rng.Xorshift64Star(1).randrange(0), "bound", 1, 0),
                (lambda: rng.Xorshift64Star(1).rademacher(-1), "count", 0, -1),
                (lambda: rng.Xorshift64Star(1).normals(-1), "count", 0, -1)]
    for entry, what, least, value in refusals:
        with pytest.raises(ValueError, match=rf"^{what} must be >= {least}, got {value}$"):
            entry()
    assert pg.enumerate_group(np.int64(3)) == pg.enumerate_group(3)
    assert mo.MomentSequence((1, 3)).moment(np.int64(4)) == 3
    assert pg.Permutation((2, 1))(np.int64(1)) == 2
    # numpy seeds, indices and bounds are read as their Python int; negative
    # seeds and indices mod 2^64
    for seed in (np.int64(7), np.uint64(7), np.uint32(7), -7):
        plain = int(seed) % 2 ** 64
        assert rng.mix64(seed) == rng.mix64(plain)
        assert rng.substream_seed(seed, seed) == rng.substream_seed(plain, int(seed))
        assert (rng.Xorshift64Star(seed)._words(3).tolist()
                == rng.Xorshift64Star(plain)._words(3).tolist())
        want = rm.sample_markov(4, "rademacher", plain).matrix
        assert np.array_equal(rm.sample_markov(4, "rademacher", seed).matrix, want)
    draws = [rng.Xorshift64Star(3).randrange(bound) for bound in (np.int64(7), 7)]
    assert draws[0] == draws[1] and type(draws[0]) is int


def test_stream_array_widths_hold_the_stream_cap():
    # _crossings keeps one bit per block in a uint8.  _case_keys packs one
    # byte per component into an int64: 1 + ((size - 1) << 5 | crossings),
    # with twice the crossings summed in one byte first.  _stream numbers
    # the distinct keys in int16; a key lists (size, crossings) pairs whose
    # sizes sum to n, so there are at most f(n), f(n) = sum_s (C(s, 2) + 1)
    # * f(n - s), f(0) = 1.
    n = STREAM
    keys = [1]
    for m in range(1, n + 1):
        keys.append(sum((math.comb(s, 2) + 1) * keys[m - s] for s in range(1, m + 1)))
    most = math.comb(n, 2)  # crossings in one component
    fits = (n <= np.iinfo(np.uint8).bits
            and n <= np.dtype(np.int64).itemsize
            and most < 2 ** 5 and 2 * most <= np.iinfo(np.uint8).max
            and 1 + ((n - 1) << 5 | most) <= np.iinfo(np.uint8).max
            and keys[n] <= np.iinfo(np.int16).max)
    assert fits, (f"STREAM_MAX_N = {n} passes the fixed widths of "
                  "_arrays._crossings and _arrays._case_keys")


@pytest.mark.parametrize("nmax", [0, -1])
@pytest.mark.parametrize("entry", ["iter_statistics", "check_traceability",
                                   "check_strong_multiplicativity"])
def test_stream_entry_refuses_below_one(entry, nmax, monkeypatch):
    # one rule for the walks and the checks over them: no check passes "on
    # 0 partitions" where iter_statistics refuses
    monkeypatch.setattr(ar, "np", _NoArrays())
    with pytest.raises(ValueError, match=rf"^half-size must be >= 1, got {nmax}$") as below:
        STREAM_ENTRIES[entry](nmax)
    assert type(below.value) is ValueError


def test_stream_arrays_refused_before_allocation(monkeypatch):
    monkeypatch.setattr(ar, "np", _NoArrays())
    with pytest.raises(SizeLimitError, match="enumeration cap"):
        ar._stream(STREAM + 1)
    assert STREAM + 1 not in ar._STREAMS
