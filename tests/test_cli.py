import json

import pytest

from pairmoments import cli
from pairmoments import randmat as rm


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
        code1, out1, _ = run(
            capsys, "sequences", "--which", "catalan", "--max", "5", "--threads", "1"
        )
        code2, out2, _ = run(
            capsys, "sequences", "--which", "catalan", "--max", "5", "--threads", "2"
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_cap_override_allows_nine_max(self, capsys):
        code, _, err = run(
            capsys, "sequences", "--which", "pairings", "--max", "3", "--cap", "9"
        )
        assert code == 0
        code, _, err = run(
            capsys, "sequences", "--which", "pairings", "--max", "3", "--cap", "10"
        )
        assert code == 2
        assert "ceiling" in err


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

    def test_kmax_beyond_cap_checked_before_sampling(self, capsys, monkeypatch):
        monkeypatch.setattr(rm, "sample_markov", _no_sampling)
        code, out, err = run(
            capsys, "randmat", "--n", "300", "--trials", "2", "--kmax", "18", "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "error:" in err and "kmax 18" in err

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

    def test_non_finite_kernel_is_a_usage_error(self, capsys):
        # exp(-inf * H) is NaN at the identity
        code, out, err = run(capsys, "permcheck", "--n", "3", "--x", "inf")
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_s5_report_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "permcheck", "--n", "5")
        code2, out2, _ = run(capsys, "permcheck", "--n", "5")
        assert code1 == code2 == 0
        assert out1 == out2


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


class TestThreads:
    @pytest.mark.parametrize("value", ["abc", "", "0", "-2", "1.5"])
    def test_bad_environment_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PAIRMOMENTS_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sequences", "--which", "catalan", "--max", "3"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_bad_flag_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--level", "quick", "--threads", value])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("PAIRMOMENTS_THREADS", "abc")
        code, out, _ = run(
            capsys, "sequences", "--which", "catalan", "--max", "3", "--threads", "1"
        )
        assert code == 0
        assert out.splitlines()[-1] == "3,5,5,true"


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
        code = cli.main(
            ["sequences", "--which", "catalan", "--max", "3", "--out", str(path)]
        )
        assert code == 0
        assert path.read_text().splitlines()[0] == "n,value,oracle,agree"
