"""Random command lines never end in a traceback.

Every subcommand and flag is drawn, each flag present or left out, with
values from a fixed pool: negative, zero, huge, inf, nan, non-numeric and
small valid sizes.  Whatever the mix, ``cli.main`` must return (or argparse
must exit) with a code in {0, 1, 2} and print no traceback.  The valid
sizes are small enough that no example starts more than about a second of
work; ``verify --level full`` (several seconds) is the one valid value left
out of the pool.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from pairmoments import cli

BAD = ["-3", "0", "10000000000000", "inf", "-inf", "nan", "abc", "", "-1e308", "1e400"]
SIZES = ["1", "2", "3"]
PARAMS = ["1/3", "1/2", "2", "0.5", "1"]
PATHS = ["-", "{tmp}/report.txt", "{tmp}/missing/report.txt", "{tmp}", ""]

#: subcommand -> flag -> values; a flag's value is drawn from these or from
#: these and BAD, half the time each.  Path flags draw only from PATHS, and
#: each example runs with a fresh directory as its working directory, so
#: absolute and relative paths alike stay inside it.
FLAGS = {
    "sequences": {
        "--which": ["pairings", "catalan", "connected", "singletons", "moments", "primes"],
        "--max": SIZES,
    },
    "moments": {
        "--weight": [*cli.WEIGHT_CHOICES, "none"],
        "--param": PARAMS,
        "--N": SIZES,
        "--mix": ["0", "1/4", "1"],
    },
    "randmat": {
        "--n": ["2", "3", "10"],
        "--trials": ["2", "3"],
        "--kmax": ["2", "4"],
        "--dist": ["rademacher", "gaussian", "cauchy"],
        "--seed": ["0", "7"],
        "--hist": PATHS,
        "--bins": ["1", "5"],
    },
    "permcheck": {
        "--n": ["2", "3", "4"],
        "--b": PARAMS,
        "--x": PARAMS,
        "--tol": ["1e-8", "0.1"],
    },
    "verify": {
        "--level": ["quick", "QUICK"],
    },
    "--version": {},
    "bogus": {},
}
COMMON = {"--format": ["csv", "json", "xml"], "--out": PATHS}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(FLAGS)))
    argv = [command]
    for flag, values in {**FLAGS[command], **COMMON}.items():
        if draw(st.integers(0, 3)):  # present three times in four
            pool = values if values is PATHS else values + BAD
            argv += [flag, draw(st.sampled_from(values) | st.sampled_from(pool))]
    if not draw(st.integers(0, 3)):
        argv.append(draw(st.sampled_from(["--unknown", "--threads", "2", "extra"])))
    return argv


@contextlib.contextmanager
def _inside(path):
    # the working directory, so that a relative path ("-" given to --hist)
    # lands in the example's directory and is seen by the check on it
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_no_traceback_and_a_known_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors and --version
                code = exc.code
        written = set(os.listdir(tmp))
    assert written <= {"report.txt"}, written
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
