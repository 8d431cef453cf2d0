import hashlib
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pairmoments import cli
from pairmoments import moments as mo
from pairmoments import pairings as pa
from pairmoments import permgroup as pg
from pairmoments import randmat as rm
from pairmoments import verify as ve
from pairmoments import weights as we


def _no_sampling(*args, **kwargs):
    raise AssertionError("sample_markov must not run for a rejected configuration")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSequences:
    def test_singletons(self, capsys):
        code, out, _ = run(capsys, "sequences", "--which", "singletons", "--max", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,oracle,agree"
        values = [int(line.split(",")[1]) for line in lines[1:]]
        assert values == [1, 4, 21, 144, 1245, 13140, 164745]
        assert all(line.endswith("true") for line in lines[1:])

    def test_connected(self, capsys):
        code, out, _ = run(capsys, "sequences", "--which", "connected", "--max", "5")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == [1, 1, 4, 27, 248]

    def test_pairings(self, capsys):
        code, out, _ = run(capsys, "sequences", "--which", "pairings", "--max", "4")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == [1, 3, 15, 105]

    def test_catalan(self, capsys):
        code, out, _ = run(capsys, "sequences", "--which", "catalan", "--max", "6")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == [1, 2, 5, 14, 42, 132]

    def test_moments_sequence(self, capsys):
        code, out, _ = run(capsys, "sequences", "--which", "moments", "--max", "4")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == [2, 9, 56, 431]

    def test_over_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sequences", "--which", "pairings", "--max", "12")
        assert code == 2
        assert "cap" in err

    def test_threads_flag_identical_output(self, capsys):
        # --threads did nothing and is gone: every value is the same unknown
        # argument, exit 2 with nothing on stdout
        results = []
        for value in ("1", "2"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["sequences", "--which", "catalan", "--max", "5", "--threads", value])
            captured = capsys.readouterr()
            results.append((exc.value.code, captured.out))
            assert "unrecognized arguments: --threads" in captured.err
        assert results == [(2, ""), (2, "")]

    def test_cap_override_allows_nine_max(self, capsys):
        # the tables answer past 8 without an override; the stream stops at 8
        # and --cap is gone
        code, out, _ = run(capsys, "sequences", "--which", "catalan", "--max", "9")
        assert code == 0
        assert out.splitlines()[-1] == "9,4862,4862,true"
        code, out, err = run(capsys, "sequences", "--which", "pairings", "--max", "9")
        assert (code, out) == (2, "")
        assert "enumeration cap 8" in err
        with pytest.raises(SystemExit) as exc:
            cli.main(["sequences", "--which", "pairings", "--max", "3", "--cap", "9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap" in capsys.readouterr().err


class TestMoments:
    def test_betah_param_two(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--weight", "betah", "--param", "2", "--N", "3"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[1] for r in rows] == ["2", "9", "56"]

    def test_const_mix_zero_is_catalan(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--weight", "const", "--N", "4", "--mix", "0"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["1", "2", "5", "14"]

    def test_const_mix_half(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--weight", "const", "--N", "2", "--mix", "0.5"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["1", "9/4"]

    def test_missing_param_usage_error(self, capsys):
        code, _, err = run(capsys, "moments", "--weight", "qcr", "--N", "3")
        assert code == 2
        assert "param" in err

    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--weight", "const", "--N", "3",
            "--mix", "1/2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == [
            "command", "weight", "param", "N", "mix", "mix_paths_agree", "rows",
        ]
        assert doc["mix"] == "1/2"
        assert doc["mix_paths_agree"] is True
        assert doc["rows"][1]["mix_moment"] == "9/4"

    def test_largest_printable_param(self, capsys):
        # the digit bound at N = 20 is 24 + 190 * 74 * log10(2) < 4300 digits
        code, out, _ = run(capsys, "moments", "--weight", "qcr", "--param", "1e22", "--N", "20")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0b43458a7d8464bd5d7831025b30e2ea81595cefa0d526a853296e9843836f75")

    @pytest.mark.parametrize("argv,digits", [
        ("--weight qcr --param 1e23 --N 20", 4428),
        ("--weight qcr --param 1e4000 --N 8", 112009),
        ("--weight qcr --param 1/3 --N 20 --mix 1e-300", 6140),
        ("--weight bH --param 1e300 --N 20", 6026),
        # --param is printed in the meta even where the weight ignores it
        ("--weight const --param 1e4300 --N 1", 4301),
    ])
    def test_unprintable_report_refused_first(self, capsys, monkeypatch, argv, digits):
        def no_tables(*args):
            raise AssertionError("table work started for a refused report")

        monkeypatch.setattr(mo, "moments_of_weight", no_tables)
        code, out, err = run(capsys, "moments", *argv.split())
        assert (code, out) == (2, "")
        assert f"could print {digits}-digit numbers, past the int-to-str limit" in err
        assert err.endswith("sys.get_int_max_str_digits() = 4300\n")

    def test_digit_limit_zero_means_none(self, monkeypatch):
        monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 0)
        q = Fraction(10 ** 100)
        cli._check_printable(we.CrossingPower(q), q, Fraction(1, 10 ** 100), 20)

    @pytest.mark.parametrize("argv", [
        "--weight qcr --param 1e10000000 --N 2",  # seconds inside Fraction
        "--weight qcr --param 1e1000000 --N 3",
        "--weight qcr --param 1e100000 --N 8",
        "--weight const --param 1e5000 --N 1",
        "--weight qcr --param 1E-4301 --N 2",
        "--weight const --N 2 --mix 1e+4301",
        "--weight qcr --param 1e1_0000000 --N 2",
        # int-to-str refuses these digits
        pytest.param(f"--weight qcr --param {'1' * 5000} --N 3", id="5000-digit integer"),
        pytest.param(f"--weight qcr --param 1/{'7' * 4301} --N 3", id="4301-digit denominator"),
        pytest.param(f"--weight qcr --param 0.{'5' * 4300} --N 3", id="4301-digit decimal"),
    ])
    def test_refused_before_parsing(self, capsys, monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("a number was built from refused text")

        monkeypatch.setattr(cli, "Fraction", no_work)
        monkeypatch.setattr(cli, "float", no_work, raising=False)
        code, out, err = run(capsys, "moments", *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: a ") and err.endswith(
            "-character number passes the int-to-str limit "
            "sys.get_int_max_str_digits() = 4300 in its digits or exponent\n")

    def test_parse_rational_at_the_digit_limit(self, monkeypatch):
        assert cli.parse_rational("1e4300") == 10 ** 4300
        assert cli.parse_rational("-1e-4300") == Fraction(-1, 10 ** 4300)
        assert cli.parse_rational("9" * 4300) == 10 ** 4300 - 1
        for text in ("inf", "-inf", "infinity", "nan", "1/0"):  # no finite rational reading
            with pytest.raises(ValueError, match="is not an integer, p/q or decimal"):
                cli.parse_rational(text)
        monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 0)
        assert cli.parse_rational("1e5000") == 10 ** 5000

    @pytest.mark.parametrize("argv", [
        "moments --weight qcr --param nan --N 3",
        "moments --weight qcr --param inf --N 3",
        "moments --weight const --N 3 --mix=-Infinity",
        "moments --weight bH --param 1/0 --N 3",
        "permcheck --n 3 --b inf",
    ])
    def test_non_finite_rationals_are_usage_errors(self, capsys, argv):
        # exit 0 says every check agreed, which nan or inf moments cannot
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: '") and err.endswith(
            "' is not an integer, p/q or decimal\n")

    def test_error_mid_report_leaves_stdout_empty(self, capsys, monkeypatch):
        # past the up-front bound, int-to-str fails while the CSV is written;
        # nothing of the report reaches stdout
        monkeypatch.setattr(cli, "_check_printable", lambda *args: None)
        code, out, err = run(capsys, "moments", "--weight", "qcr", "--param", "1e23", "--N", "20")
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit (4300 digits)")


GOLDEN = Path(__file__).parent / "golden"


class TestNegativeFractions:
    # argparse takes a spaced value that starts with "-" for an option
    # unless it looks like -1 or -0.5, so a negative fraction needs --flag=value
    @pytest.mark.parametrize("argv, key, value, code", [
        (("permcheck", "--n", "3", "--b=-1/2"), "b", "-1/2", 1),
        (("moments", "--weight", "qcr", "--param=-1/3", "--N", "4"), "param", "-1/3", 0),
    ])
    def test_equals_form_runs(self, capsys, argv, key, value, code):
        status, out, _ = run(capsys, *argv, "--format", "json")
        assert status == code  # b^h with b = -1/2 is not positive definite on S(3)
        assert json.loads(out)[key] == value

    @pytest.mark.parametrize("argv", [
        ("permcheck", "--n", "3", "--b", "-1/2"),
        ("moments", "--weight", "qcr", "--param", "-1/3", "--N", "4"),
        ("moments", "--weight", "qcr", "--param", "-1e-1", "--N", "4"),
    ])
    def test_spaced_form_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "expected one argument" in err


class TestGoldenStdout:
    """Exact-table reports, byte for byte as first recorded (tests/golden)."""

    @pytest.mark.parametrize("argv,name", [
        ("moments --weight qcr --param 1/3 --N 20 --mix 1/4", "moments-qcr-1_3-N20-mix-1_4.csv"),
        ("moments --weight qcr --param 0.3 --N 8 --mix 1/4", "moments-qcr-0.3-N8-mix-1_4.csv"),
        ("moments --weight scc --param 2/3 --N 20 --mix 1/4", "moments-scc-2_3-N20-mix-1_4.csv"),
        ("moments --weight bH --param 1/2 --N 20 --mix 1/4", "moments-bH-1_2-N20-mix-1_4.csv"),
        ("moments --weight const --N 20 --mix 1/4", "moments-const-N20-mix-1_4.csv"),
        ("sequences --which connected --max 20", "sequences-connected-max20.csv"),
        ("sequences --which pairings --max 6", "sequences-pairings-max6.csv"),
        ("sequences --which catalan --max 20", "sequences-catalan-max20.csv"),
        ("sequences --which singletons --max 7", "sequences-singletons-max7.csv"),
        ("sequences --which moments --max 20", "sequences-moments-max20.csv"),
    ])
    def test_golden_stdout(self, capsys, argv, name):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    def test_golden_stdout_of_an_unnormalized_weight(self, capsys):
        # beta^h is beta, not 1, on the one-pair partition, so the two
        # mixture paths disagree at order 2: exit 1, and the report keeps
        # the moments and cumulants without the mixture column
        code, out, err = run(capsys, *"moments --weight betah --param 3/2 --N 20 --mix 1/4".split())
        assert code == 1
        assert err == "error: mixture moment paths disagree: 3/2 vs 9/8\n"
        assert out == (GOLDEN / "moments-betah-3_2-N20-mix-1_4.csv").read_text()


class TestRandmat:
    def test_deterministic_output(self, capsys):
        args = ("randmat", "--n", "40", "--trials", "3", "--kmax", "4", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_tiny_smoke(self, capsys):
        # one trial has no standard error, so it is a usage error (exit 2)
        code, out, err = run(capsys, "randmat", "--n", "2", "--trials", "1", "--kmax", "2")
        assert (code, out) == (2, "")
        assert "error:" in err and "trials" in err
        # two trials of a 2x2 matrix: deterministic report, and the tied
        # empirical moments sit far from the asymptotic target with zero
        # stderr, so the z-gate correctly reports failure (exit 1)
        args = ("randmat", "--n", "2", "--trials", "2", "--kmax", "2", "--seed", "1")
        code, out, _ = run(capsys, *args)
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "k,mean,stderr,target,z,passed"
        assert len(lines) == 3
        code2, out2, _ = run(capsys, *args)
        assert out2 == out

    def test_histogram_export(self, capsys, tmp_path):
        path = tmp_path / "hist.csv"
        code, _, _ = run(
            capsys, "randmat", "--n", "100", "--trials", "5", "--kmax", "4",
            "--seed", "3", "--hist", str(path), "--bins", "8",
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 9
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 100

    def test_histogram_is_trial_zero(self, capsys, tmp_path):
        # the sidecar bins the spectrum of run_mc's first matrix
        from pairmoments.rng import substream_seed

        path = tmp_path / "hist.csv"
        code, _, _ = run(
            capsys, "randmat", "--n", "30", "--trials", "3", "--kmax", "4",
            "--dist", "gaussian", "--seed", "7", "--hist", str(path), "--bins", "9",
        )
        assert code in (0, 1)
        csv = ["bin_left,bin_right,count\n" + "".join(
            f"{left:.15g},{right:.15g},{count}\n" for left, right, count in rm.eigenvalue_histogram(
                rm.sample_markov(30, "gaussian", substream_seed(7, t)), bins=9)) for t in (0, 1)]
        assert path.read_text() == csv[0] != csv[1]

    def test_histogram_size_guard(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "randmat", "--n", "2001", "--trials", "2", "--kmax", "2",
            "--seed", "3", "--hist", str(tmp_path / "h.csv"),
        )
        assert code == 2
        assert "MAX_MATRIX_DIM" in err
        assert not (tmp_path / "h.csv").exists()

    def test_histogram_size_checked_before_sampling(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(rm, "sample_markov", _no_sampling)
        for extra in (("--hist", str(tmp_path / "h.csv")), ()):
            code, out, err = run(
                capsys, "randmat", "--n", "2001", "--trials", "2", "--kmax", "4",
                "--seed", "3", *extra,
            )
            assert (code, out) == (2, "")
            assert "error:" in err and "2001" in err

    def test_histogram_runs_past_400(self, capsys, tmp_path):
        # --hist runs for every dimension up to MAX_MATRIX_DIM
        path = tmp_path / "hist.csv"
        code, _, _ = run(
            capsys, "randmat", "--n", "401", "--trials", "2", "--kmax", "2",
            "--seed", "3", "--hist", str(path), "--bins", "5",
        )
        assert code in (0, 1)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 401

    @pytest.mark.parametrize("bins", ["0", "-3", "10001", "10000000000000"])
    def test_bins_checked_before_sampling(self, capsys, tmp_path, monkeypatch, bins):
        monkeypatch.setattr(rm, "sample_markov", _no_sampling)
        path = tmp_path / "h.csv"
        code, out, err = run(
            capsys, "randmat", "--n", "10", "--trials", "2", "--kmax", "2",
            "--hist", str(path), "--bins", bins,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--bins" in err
        assert not path.exists()

    @pytest.mark.parametrize("trials", ["10001", "10000000000000"])
    def test_trials_beyond_cap_checked_before_sampling(self, capsys, monkeypatch, trials):
        monkeypatch.setattr(rm, "sample_markov", _no_sampling)
        code, out, err = run(capsys, "randmat", "--n", "2", "--trials", trials, "--kmax", "2")
        assert (code, out) == (2, "")
        assert "error:" in err and "trials cap 10000 (MAX_TRIALS)" in err

    def test_kmax_beyond_cap_checked_before_sampling(self, capsys, monkeypatch):
        monkeypatch.setattr(rm, "sample_markov", _no_sampling)
        code, out, err = run(
            capsys, "randmat", "--n", "300", "--trials", "2", "--kmax", "42", "--seed", "1",
        )
        assert (code, out) == (2, "")
        # the order-42 target needs the table at half-size 21
        assert "error:" in err and "half-size 21 exceeds the table cap 20 (TABLE_MAX_N)" in err

    def test_histogram_unwritable_path(self, capsys, tmp_path):
        # the sidecar is written before the report: a path that cannot be
        # opened is a usage error with nothing on stdout
        path = tmp_path / "missing-dir" / "h.csv"
        code, out, err = run(
            capsys, "randmat", "--n", "10", "--trials", "2", "--kmax", "2",
            "--hist", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "missing-dir" in err
        assert not path.parent.exists()

    def test_histogram_dash_refused(self, capsys, tmp_path, monkeypatch):
        # '-' means stdout for --out, and stdout carries the report, so
        # --hist - is refused before any sampling instead of naming a file
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(rm, "sample_markov", _no_sampling)
        code, out, err = run(
            capsys, "randmat", "--n", "10", "--trials", "2", "--kmax", "2", "--hist", "-",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--hist" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_dist_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "randmat", "--n", "10", "--trials", "1", "--dist", "cauchy")
        assert exc.value.code == 2


class TestPermcheck:
    def test_s3_all_pass(self, capsys):
        code, out, _ = run(capsys, "permcheck", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        checks = [line.split(",")[0] for line in lines[1:]]
        assert checks == [
            "isolated-split", "psd-h", "psd-b^h(b=2)", "psd-exp(-1H)", "cnd-H", "metric",
        ]

    def test_s4_with_flags(self, capsys):
        code, out, _ = run(
            capsys, "permcheck", "--n", "4", "--b", "2", "--x", "0.5"
        )
        assert code == 0
        assert "psd-exp(-0.5H)" in out

    def test_oversize_rejected(self, capsys):
        code, _, err = run(capsys, "permcheck", "--n", "9")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("n,message", [
        ("1", "--n must be >= 2, got 1"),
        ("-4", "--n must be >= 2, got -4"),
        ("6", "--n: group degree 6 exceeds the kernel cap 5 (MAX_KERNEL_DEGREE)"),
        ("10000000000", "--n: group degree 10000000000 exceeds the kernel cap 5"),
    ])
    def test_degree_refused_before_any_kernel(self, capsys, monkeypatch, n, message):
        monkeypatch.setattr(pg, "enumerate_group", lambda n: pytest.fail("work started"))
        code, out, err = run(capsys, "permcheck", "--n", n)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_kernel_past_the_float_range_is_a_usage_error(self, capsys):
        for flag, value, message in [
            # exp(1e13 * H) overflows at the first H > 0
            ("--x", "-10000000000000", "--x -10000000000000: exp(-xH)"),
            ("--x", "-1000", "--x -1000: exp(-xH)"),
            # (1e308)^h overflows at h = 2, and 1e400 is past the float range
            ("--b", "1e308", "--b 1e308: b^h"),
            ("--b", "1e400", "--b 1e400: b^h"),
        ]:
            code, out, err = run(capsys, "permcheck", "--n", "3", flag, value)
            assert (code, out) == (2, "")
            assert err == f"error: {message} overflows a float on S(3)\n"

    def test_non_finite_kernel_is_a_usage_error(self, capsys):
        # exp(-inf * H) is NaN at the identity
        code, out, err = run(capsys, "permcheck", "--n", "3", "--x", "inf")
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_tolerance_not_finite_and_positive_is_a_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "permcheck", "--n", "2", f"--tol={tol}")
        assert (code, out) == (2, "")
        # the library's rule and message (permgroup._check_tol)
        assert err == f"error: tol must be finite and positive, got {float(tol)}\n"

    def test_s5_report_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "permcheck", "--n", "5")
        code2, out2, _ = run(capsys, "permcheck", "--n", "5")
        assert code1 == code2 == 0
        assert out1 == out2


    def test_s5_golden_stdout(self, capsys):
        # recorded before the kernels and the metric moved onto index tables;
        # the text must match exactly and every number to 1e-12, since the
        # min_eig digits near zero are LAPACK rounding and may differ
        # between BLAS builds
        code, out, _ = run(capsys, "permcheck", "--n", "5")
        assert code == 0
        number = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?")
        assert number.sub("#", out) == number.sub("#", PERMCHECK_S5_CSV)
        got, want = number.findall(out), number.findall(PERMCHECK_S5_CSV)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert float(a) == pytest.approx(float(b), rel=1e-12, abs=1e-12)


PERMCHECK_S5_CSV = """\
check,passed,min_eig,detail
isolated-split,true,,identity holds on all 120 elements
psd-h,true,-8.9537672873332e-15,
psd-b^h(b=2),true,12.9999999999999,
psd-exp(-1H),true,0.61959776404679,
cnd-H,true,-4.63660680947083e-14,centered min eig -4.637e-14; exp(-0.1H) min eig \
1.132e-02; exp(-0.5H) min eig 2.511e-01; exp(-1.0H) min eig 6.196e-01; exp(-2.0H) min eig \
9.345e-01
metric,true,,all 120^3 = 1728000 triangle triples and left translations pass
"""


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--level", "quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,passed,detail"
        assert len(lines) > 15
        assert all(line.split(",")[1] == "true" for line in lines[1:])
        assert "pairing-counts: ok" in err  # timings live on stderr

    def test_quick_report_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--level", "quick")
        _, out2, _ = run(capsys, "verify", "--level", "quick")
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--level", "quick", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert all(row["passed"] for row in doc["rows"])


#: The detail lines of the checks that read the sequence rows, per level.
SEQUENCE_DETAILS = {
    "quick": {
        "pairing-counts": "stream lengths match (2n-1)!! for n <= 6",
        "noncrossing-counts": "non-crossing counts equal Catalan numbers for n <= 6",
        "connected-counts": "recurrence matches joint table for n <= 5: [1, 1, 4, 27, 248]",
        "singleton-totals": "closed form equals joint table for n <= 5: [1, 4, 21, 144, 1245]",
        "markov-limit-targets": "sum of 2^h equals free convolution: (2, 9, 56)",
    },
    "full": {
        "pairing-counts": "stream lengths match (2n-1)!! for n <= 8",
        "noncrossing-counts": "non-crossing counts equal Catalan numbers for n <= 8",
        "connected-counts":
            "recurrence matches joint table for n <= 6: [1, 1, 4, 27, 248, 2830]",
        "singleton-totals": "closed form equals joint table for n <= 7: "
                            "[1, 4, 21, 144, 1245, 13140, 164745]",
        "markov-limit-targets": "sum of 2^h equals free convolution: (2, 9, 56)",
    },
}


#: (sequence, its verify check, the one n made wrong, verify's detail)
WITNESS_CASES = (
    ("pairings", "pairing-counts", 4, "n=4: stream 104 != (2n-1)!! 105"),
    ("catalan", "noncrossing-counts", 3, "n=3: Catalan 6 != cr=0 count 5"),
    ("connected", "connected-counts", 4, "n=4: recurrence 28 != joint table 27"),
    ("singletons", "singleton-totals", 3, "n=3: closed form 22 != joint table 21"),
    ("moments", "markov-limit-targets", 2, "n=2: sum of 2^h 10, free convolution 9, expected 9"),
)


def _verify_only(monkeypatch, level, names):
    # run_level over the rows of CHECKS named in `names`, as {name: result}
    monkeypatch.setattr(ve, "CHECKS", tuple(row for row in ve.CHECKS if row[0] in names))
    return {r.name: r for r in ve.run_level(level)}


def _bumped(values, n_bad):
    # values indexed from n = 1, one added at n_bad
    return [v + (n == n_bad) for n, v in enumerate(values, start=1)]


class TestSequenceWitness:
    """One path wrong at one n: verify names n and both values; sequences
    flags that row only and exits 1."""

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_details_pinned(self, monkeypatch, level):
        got = _verify_only(monkeypatch, level, SEQUENCE_DETAILS[level])
        assert {name: (r.passed, r.detail) for name, r in got.items()} == {
            name: (True, detail) for name, detail in SEQUENCE_DETAILS[level].items()}

    @pytest.mark.parametrize("which, check, n_bad, detail", [
        pytest.param(*case, id=case[0]) for case in WITNESS_CASES])
    def test_one_wrong_path_names_its_row(self, capsys, monkeypatch, which, check, n_bad,
                                          detail):
        if which == "pairings":
            walk = pa.enumerate_pairings
            monkeypatch.setattr(pa, "enumerate_pairings", lambda n: itertools.islice(
                walk(n), pa.pairing_count(n) - (n == n_bad)))
        elif which == "catalan":
            catalan = pa.count_nc_pairings
            monkeypatch.setattr(pa, "count_nc_pairings", lambda n: catalan(n) + (n == n_bad))
        elif which == "connected":
            riordan = pa.riordan_connected
            monkeypatch.setattr(pa, "riordan_connected",
                                lambda nmax: _bumped(riordan(nmax), n_bad))
        elif which == "singletons":
            closed = pa._singleton_total
            monkeypatch.setattr(pa, "_singleton_total", lambda n: closed(n) + (n == n_bad))

            def raising_cross_check(n):
                # a DualPathMismatchError here would be a traceback, not agree=false
                raise AssertionError("the singletons row must not call total_singletons")
            monkeypatch.setattr(pa, "total_singletons", raising_cross_check)
        else:
            markov = mo.markov_limit_moments
            monkeypatch.setattr(mo, "markov_limit_moments", lambda n: mo.MomentSequence(
                tuple(_bumped(markov(n).values, n_bad))))
        result = _verify_only(monkeypatch, "quick", {check})[check]
        assert (result.passed, result.detail) == (False, detail)

        code, out, _ = run(capsys, "sequences", "--which", which, "--max", "5")
        assert code == 1
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows if row[3] == "false"] == [str(n_bad)]

    def test_markov_targets_read_the_oracle_too(self, capsys, monkeypatch):
        # the free-convolution path wrong at n = 3 only
        convolve = mo.free_convolve
        monkeypatch.setattr(mo, "free_convolve", lambda *args: mo.MomentSequence(
            tuple(_bumped(convolve(*args).values, 3))))
        result = _verify_only(monkeypatch, "quick", {"markov-limit-targets"})
        assert result["markov-limit-targets"].detail == \
            "n=3: sum of 2^h 56, free convolution 57, expected 56"
        code, out, _ = run(capsys, "sequences", "--which", "moments", "--max", "4")
        assert code == 1
        assert [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]] == \
            ["true", "true", "false", "true"]

    def test_unknown_sequence(self):
        with pytest.raises(ValueError, match="unknown sequence 'squares'"):
            ve.sequence_rows("squares", 3)


class TestThreads:
    # --threads and $PAIRMOMENTS_THREADS had no effect and were removed: the
    # flag is an unknown argument and the variable is not read
    @pytest.mark.parametrize("value", ["abc", "", "0", "-2", "1.5"])
    def test_environment_is_ignored(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PAIRMOMENTS_THREADS", value)
        code, out, _ = run(capsys, "sequences", "--which", "catalan", "--max", "3")
        assert code == 0
        assert out.splitlines()[-1] == "3,5,5,true"

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_bad_flag_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--level", "quick", "--threads", value])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_flag_unknown_with_environment_set(self, capsys, monkeypatch):
        monkeypatch.setenv("PAIRMOMENTS_THREADS", "2")
        with pytest.raises(SystemExit) as exc:
            cli.main(["sequences", "--which", "catalan", "--max", "3", "--threads", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --threads 2" in captured.err


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "seq.csv"
        argv = ["sequences", "--which", "catalan", "--max", "3"]
        _, out, _ = run(capsys, *argv)
        code = cli.main(argv + ["--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().splitlines()[0] == "n,value,oracle,agree"
        assert path.read_text() == out

    @pytest.mark.parametrize("argv", [
        ["sequences", "--which", "connected", "--max", "21"],
        ["randmat", "--n", "10", "--trials", "2", "--kmax", "2", "--bins", "0"],
    ])
    def test_usage_error_keeps_existing_report(self, capsys, tmp_path, argv):
        path = tmp_path / "s.csv"
        path.write_text("an earlier report\n")
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert path.read_text() == "an earlier report\n"

    @pytest.mark.parametrize("argv", [
        ["sequences", "--which", "connected", "--max", "21"],
        ["randmat", "--n", "10", "--trials", "2", "--kmax", "2", "--bins", "0"],
    ])
    def test_usage_error_creates_no_file(self, capsys, tmp_path, argv):
        path = tmp_path / "s.csv"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 2
        assert not path.exists()

    def test_failed_check_still_writes_report(self, capsys, tmp_path):
        # exit 1 is a report, not a usage error: the tied 2x2 run fails its row
        path = tmp_path / "r.csv"
        code, out, _ = run(capsys, "randmat", "--n", "2", "--trials", "2", "--kmax", "2",
                           "--seed", "1", "--out", str(path))
        assert (code, out) == (1, "")
        assert path.read_text().startswith("k,mean,stderr,target,z,passed\n")

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "seq.csv"
        code, out, err = run(capsys, "sequences", "--which", "catalan", "--max", "3",
                             "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
