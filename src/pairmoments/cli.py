"""Command-line interface.

Subcommands: ``sequences`` (integer sequences with dual computation paths),
``moments`` (weighted moments, cumulants, semicircle mixtures), ``randmat``
(Monte Carlo spectral checks), ``permcheck`` (symmetric-group positivity and
metric suite), ``verify`` (the self-verification suites).

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
configuration error.  Output is CSV (default) or JSON with insertion-ordered
keys; exact rationals print as ``p/q`` and floats with 15 significant
digits.  Identical invocations produce byte-identical output.

``randmat`` and ``permcheck`` import their modules, and with them numpy,
when they run; the parser reads the caps from :mod:`pairmoments.exceptions`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction

from . import __version__
from . import moments as mo
from . import pairings as pa
from . import verify as ve
from . import weights as we
from .exceptions import (ENTRY_DISTRIBUTIONS, MAX_BINS, MAX_KERNEL_DEGREE, MAX_MATRIX_DIM,
                         MAX_TRIALS, DualPathMismatchError, _check_limit)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: The --weight names and the weight each one builds.
WEIGHT_CHOICES = {"const": we.Constant1, "qcr": we.CrossingPower, "scc": we.ComponentPower,
                  "bH": we.SingletonHPower, "betah": we.SingletonCountPower}


def format_number(x) -> str:
    """p/q for rationals, 15 significant digits for floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _json_ready(x):
    if isinstance(x, (bool, int)) or x is None:
        return x
    if isinstance(x, Fraction):
        return format_number(x)
    if isinstance(x, float):
        return float(f"{x:.15g}") if math.isfinite(x) else str(x)
    return str(x)


def emit(rows: list[dict], meta: dict, fmt: str, out) -> None:
    """Write one table. CSV: header then rows; JSON: meta plus `rows`."""
    if fmt == "json":
        doc = {k: _json_ready(v) for k, v in meta.items()}
        doc["rows"] = [{k: _json_ready(v) for k, v in row.items()} for row in rows]
        out.write(json.dumps(doc, indent=2, sort_keys=False))
        out.write("\n")
        return
    if rows:
        writer = csv.writer(out, lineterminator="\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(row[k]) for k in header])


def parse_rational(text: str):
    """Exact Fraction for p/q, integer, or decimal strings; ValueError otherwise.

    Digits or a decimal exponent past the int-to-str limit are refused first.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)\s*$", text)
    if limit and (sum(map(str.isdigit, text)) > limit
                  or exponent and abs(int(exponent[1])) > limit):
        raise ValueError(f"a {len(text)}-character number passes the int-to-str limit "
                         f"sys.get_int_max_str_digits() = {limit} in its digits or exponent")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not an integer, p/q or decimal") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--out", default="-", metavar="PATH",
                   help="output file, '-' for stdout (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairmoments",
        description="Pair-partition combinatorics, moment calculus, and group positivity checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sequences", help="integer sequences with dual computation paths")
    p.add_argument("--which", required=True, choices=tuple(ve.SEQUENCES))
    p.add_argument("--max", type=int, required=True, metavar="N",
                   help=f"largest half-size n: at most {pa.STREAM_MAX_N} for pairings "
                        f"(a stream), {pa.TABLE_MAX_N} otherwise (tables)")
    _add_common(p)

    p = sub.add_parser("moments", help="moments and free cumulants of a weight")
    p.add_argument("--weight", required=True, choices=WEIGHT_CHOICES,
                   help="const: 1; qcr: q^cr; scc: s^(n-cc); bH: b^(n-h); betah: beta^h")
    p.add_argument("--param", default=None,
                   help="weight parameter (fraction/decimal parsed exactly)")
    p.add_argument("--N", type=int, required=True,
                   help=f"half-orders 1..N, N at most {pa.TABLE_MAX_N} (the table cap)")
    p.add_argument("--mix", default=None, metavar="B",
                   help="also mix with a free semicircle at weight b in [0,1]")
    _add_common(p)

    p = sub.add_parser("randmat", help="Monte Carlo spectral moments of Markov matrices")
    p.add_argument("--n", type=int, required=True,
                   help=f"matrix dimension (2..{MAX_MATRIX_DIM})")
    p.add_argument("--trials", type=int, required=True,
                   help=f"independent trials (2..{MAX_TRIALS})")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--dist", choices=ENTRY_DISTRIBUTIONS, default="rademacher")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hist", default=None, metavar="PATH",
                   help="also write a histogram CSV of trial 0's eigenvalues "
                        "(LAPACK eigvalsh; any --n up to the dimension cap)")
    p.add_argument("--bins", type=int, default=50,
                   help=f"histogram bins (1..{MAX_BINS}, default 50)")
    _add_common(p)

    p = sub.add_parser("permcheck", help="positivity and metric suite on S(n)")
    p.add_argument("--n", type=int, required=True,
                   help=f"group degree (at most {MAX_KERNEL_DEGREE})")
    p.add_argument("--b", default="2", help="base for the b^h kernel (default 2)")
    p.add_argument("--x", type=float, default=1.0, help="rate for exp(-x*H) (default 1)")
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument("--level", choices=ve.LEVELS, required=True)
    _add_common(p)

    return parser


def cmd_sequences(args, out) -> int:
    rows = ve.sequence_rows(args.which, args.max)
    emit(rows, {"command": "sequences", "which": args.which, "max": args.max},
         args.format, out)
    return EXIT_OK if all(r["agree"] for r in rows) else EXIT_CHECK_FAILED


def _make_weight(name: str, param) -> we.WeightSpec:
    if name == "const":
        return we.Constant1()
    if param is None:
        raise ValueError(f"--param is required for weight {name!r}")
    return WEIGHT_CHOICES[name](param)


def _check_flag(flag: str, kind: str, value: int) -> None:
    # The library's size check, its refusal named by the flag
    try:
        _check_limit(kind, value)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _check_printable(spec: we.WeightSpec, param, b, n: int) -> None:
    # Refuse before any work a report int-to-str would refuse: each printed
    # numerator and denominator is at most (2N-1)!! * M^E * B^N, M = max(|num|,
    # den) of --param, B that of --mix, E the top exponent of the weight's
    # statistics (>= 1: --param is printed).  log10 M is read off bit lengths.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    top = max([pa._statistic_top(s, n) for s in we._statistic_powers(spec) or ()] + [1])
    bits = sum(e * max(abs(x.numerator), x.denominator).bit_length()
               for e, x in ((top, param), (n, b)) if isinstance(x, Fraction))
    digits = len(str(pa.pairing_count(n))) + bits * math.log10(2)
    if limit and digits > limit:
        raise ValueError(f"--param and --mix at N={n} could print {int(digits)}-digit numbers, "
                         f"past the int-to-str limit sys.get_int_max_str_digits() = {limit}")


def cmd_moments(args, out) -> int:
    param = parse_rational(args.param) if args.param is not None else None
    b = parse_rational(args.mix) if args.mix is not None else None
    spec = _make_weight(args.weight, param)
    _check_limit("table", args.N)
    _check_printable(spec, param, b, args.N)
    seq = mo.moments_of_weight(spec, args.N)
    cums = mo.cumulants_from_connected(spec, args.N)
    mix_seq = None
    status = EXIT_OK
    if args.mix is not None:
        try:
            mix_seq = mo.semicircle_mix_moments(spec, b, args.N)
        except DualPathMismatchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = EXIT_CHECK_FAILED
    rows = []
    for n in range(1, args.N + 1):
        row = {"order": 2 * n,
               "moment": seq.moment(2 * n),
               "cumulant": cums.cumulant(2 * n)}
        if mix_seq is not None:
            row["mix_moment"] = mix_seq.moment(2 * n)
        rows.append(row)
    meta = {"command": "moments", "weight": args.weight,
            "param": param, "N": args.N}
    if args.mix is not None:
        meta["mix"] = b
        meta["mix_paths_agree"] = status == EXIT_OK
    emit(rows, meta, args.format, out)
    return status


def cmd_randmat(args, out) -> int:
    from . import randmat as rm

    if args.hist == "-":
        raise ValueError("--hist needs a file path: stdout ('-') carries the report")
    _check_flag("--bins", "bins", args.bins)
    cfg = rm.McConfig(n=args.n, trials=args.trials, kmax=args.kmax,
                      dist=args.dist, seed=args.seed)
    report = rm.run_mc(cfg)
    if args.hist is not None:
        hist = rm.eigenvalue_histogram(cfg._trial_matrix(0), bins=args.bins)
        with open(args.hist, "w") as fh:
            emit([{"bin_left": left, "bin_right": right, "count": count}
                  for left, right, count in hist], {}, "csv", fh)
    rows = [
        {"k": r.k, "mean": r.mean, "stderr": r.stderr,
         "target": r.target, "z": r.z, "passed": r.passed}
        for r in report.rows
    ]
    meta = {"command": "randmat", "n": cfg.n, "trials": cfg.trials,
            "kmax": cfg.kmax, "dist": cfg.dist, "seed": cfg.seed,
            "even_pass": report.even_pass, "odd_pass": report.odd_pass}
    emit(rows, meta, args.format, out)
    return EXIT_OK if report.even_pass else EXIT_CHECK_FAILED


def cmd_permcheck(args, out) -> int:
    from . import permgroup as pg

    n = args.n
    if n < 2:
        raise ValueError(f"--n must be >= 2, got {n}")
    _check_flag("--n", "kernel", n)
    pg._check_tol(args.tol)
    b = parse_rational(args.b)
    x = args.x
    rows = []

    split = pg.check_isolated_split(n - 1)
    rows.append({"check": "isolated-split", "passed": split.passed,
                 "min_eig": "", "detail": split.detail})

    # (row name, the flag and kernel a float overflow is charged to, kernel)
    kernels = [
        ("psd-h", "h", lambda s: float(pg.isolated_fixed_points(s))),
        (f"psd-b^h(b={format_number(b)})", f"--b {args.b}: b^h",
         lambda s: float(b) ** pg.isolated_fixed_points(s)),
        (f"psd-exp(-{format_number(x)}H)", f"--x {format_number(x)}: exp(-xH)",
         lambda s: math.exp(-x * pg.big_h(s))),
    ]
    for name, what, f in kernels:
        try:
            ok, min_eig = pg.check_positive_definite(n, f, tol=args.tol)
        except OverflowError:
            raise ValueError(f"{what} overflows a float on S({n})") from None
        rows.append({"check": name, "passed": ok, "min_eig": min_eig, "detail": ""})

    cnd = pg.check_cnd(n, tol=args.tol)
    rows.append({"check": "cnd-H", "passed": cnd.passed,
                 "min_eig": cnd.centered_min_eig, "detail": cnd.detail})

    metric = pg.metric_checks(n)
    rows.append({"check": "metric", "passed": metric.passed,
                 "min_eig": "", "detail": metric.detail})

    emit(rows, {"command": "permcheck", "n": n, "b": b, "x": x, "tol": args.tol},
         args.format, out)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_CHECK_FAILED


def cmd_verify(args, out) -> int:
    results = ve.run_level(args.level)
    # timings go to stderr so the report itself is deterministic
    for r in results:
        print(f"{r.name}: {'ok' if r.passed else 'FAILED'} in {r.elapsed:.2f}s",
              file=sys.stderr)
    rows = [{"check": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    emit(rows, {"command": "verify", "level": args.level}, args.format, out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "sequences": cmd_sequences,
        "moments": cmd_moments,
        "randmat": cmd_randmat,
        "permcheck": cmd_permcheck,
        "verify": cmd_verify,
    }[args.command]
    # The report is built in memory and written only once the handler
    # returns: an error leaves stdout empty and --out as it was.
    out = io.StringIO()
    try:
        status = handler(args, out)
        if args.out == "-":
            sys.stdout.write(out.getvalue())
            return status
    except (ValueError, OSError, OverflowError) as exc:  # SizeLimitError is a ValueError
        # OverflowError: float arithmetic past the float range that no
        # handler named first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.out, "w") as fh:
            fh.write(out.getvalue())
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


if __name__ == "__main__":
    sys.exit(main())
