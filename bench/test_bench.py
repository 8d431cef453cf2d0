"""Self-test of the benchmark: every workload at a tiny size, and every check
shown to reject a deliberately wrong answer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles as ref  # noqa: E402
import workloads  # noqa: E402
from pairmoments import moments as mo  # noqa: E402
from pairmoments import randmat as rm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_pass(ops) -> dict:
    results: dict = {}
    for op in ops:
        results[op.name] = op.call(results)
    return results


def perturb(x):
    """A wrong version of an answer, of the same type."""
    if isinstance(x, (mo.MomentSequence, mo.CumulantSequence)):
        return type(x)(x.values[:-1] + (x.values[-1] + 1,))
    if isinstance(x, rm.SymMatrix):
        a = x.matrix.copy()
        a[0, 1] = a[1, 0] = a[0, 1] + 1.0
        return rm.SymMatrix(a)
    if isinstance(x, rm.McReport):
        row = dataclasses.replace(x.rows[-1], target=x.rows[-1].target + 1.0)
        return dataclasses.replace(x, rows=x.rows[:-1] + (row,))
    if hasattr(x, "counts"):  # a joint (cr, h, cc) table
        key = next(iter(x.counts))
        return dataclasses.replace(x, counts={**x.counts, key: x.counts[key] + 1})
    if dataclasses.is_dataclass(x):
        for field, change in (("cases", 1), ("triples_checked", 1), ("centered_min_eig", 1.0)):
            if hasattr(x, field):
                return dataclasses.replace(x, **{field: getattr(x, field) + change})
        return dataclasses.replace(x, passed=False)
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], bool):
        return (x[0], x[1] + 1.0)  # a verdict with a wrong minimum eigenvalue
    if isinstance(x, (list, tuple)):
        last = x[-1]
        if isinstance(last, tuple):  # histogram rows
            return list(x[:-1]) + [last[:-1] + (last[-1] + 1,)]
        return type(x)(list(x[:-1]) + [last + 1])
    if isinstance(x, (int, Fraction, float)):
        return x + 1
    raise TypeError(f"no wrong value defined for {type(x).__name__}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    ops = workloads.build(workload, seed=5, tiny=True)
    results = run_pass(ops)
    for op in ops:
        assert op.check(results[op.name], results) is None, op.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_check_rejects_a_wrong_answer(workload):
    ops = workloads.build(workload, seed=5, tiny=True)
    results = run_pass(ops)
    for op in ops:
        wrong = perturb(results[op.name])
        assert op.check(wrong, results) is not None, op.name


def test_wrong_verdict_is_rejected():
    op = next(op for op in workloads.build("exact-tables", 1, tiny=True)
              if op.name.startswith("hankel_psd"))
    results = run_pass(workloads.build("exact-tables", 1, tiny=True))
    verdict, min_eig = results[op.name]
    assert op.check((not verdict, min_eig), results) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    names = lambda seed: [op.name for op in workloads.build(workload, seed)]  # noqa: E731
    assert names(3) == names(3)
    assert len(set(names(3))) == len(names(3))  # results are keyed by name
    if workload != "spectral-checks":  # there the seed picks sampling seeds only
        assert names(3) != names(4)


def test_oracles_agree_with_brute_force():
    q = Fraction(1, 3)
    for n in range(1, 6):
        pairings = list(ref._pairings(tuple(range(2 * n))))
        assert len(pairings) == ref.double_factorial(n)
        stats = [ref.chord_statistics(b) for b in pairings]
        assert sum(q ** cr for cr, _, _ in stats) == ref.touchard_riordan(n, q)
        assert sum(1 for _, _, cc in stats if cc == 1) == ref.riordan_connected(n)[-1]
        assert sum(h for _, h, _ in stats) == ref.singleton_total(n)
    r = [Fraction(1, 2), Fraction(-3, 4), Fraction(2)]
    assert ref.cumulants_from_moments(ref.moments_from_cumulants(r)) == r
    k = ref.group_kernel(3, ref.group_h(3))
    assert np.array_equal(k, k.T) and k[0, 0] == 3


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_reports_every_metric(workload):
    args = ["--workload", workload, "--seed", "2", "--seconds", "1", "--tiny"]
    plain = result_of(bench(*args, "--trace", "0"))
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    first = result_of(bench(*args, "--trace", "1"))["metrics"]
    second = result_of(bench(*args, "--trace", "1"))["metrics"]
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k for k, v in first.items() if v["unit"] != "s"}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
