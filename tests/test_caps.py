"""One size cap per path, the same at every entry point.

Everything answered from tables (the joint (cr, h, cc) table, the
moment-cumulant transforms and the weighted sums over them) stops at
``TABLE_MAX_N = 20``; everything that walks partitions one at a time stops
at ``STREAM_MAX_N = 8``.  Each entry point answers at its cap and raises
:class:`SizeLimitError` one past it.  Past the cap, stand-ins for the table
builders, the walks and numpy itself fail the test if any work starts,
which shows that the refusal comes first.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from pairmoments import _arrays as ar
from pairmoments import cli, exceptions
from pairmoments import moments as mo
from pairmoments import pairings as pa
from pairmoments import randmat as rm
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


def test_stream_arrays_refused_before_allocation(monkeypatch):
    monkeypatch.setattr(ar, "np", _NoArrays())
    with pytest.raises(SizeLimitError, match="enumeration cap"):
        ar._stream(STREAM + 1)
    assert STREAM + 1 not in ar._STREAMS
