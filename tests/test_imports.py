"""What importing the package loads.

``import pairmoments`` and the exact paths (the joint tables, the weighted
sums, the transforms, the walk) load no numpy; ``randmat`` and
``permgroup`` and their names load on first use.  The gates run in fresh
interpreters, since this process has imported numpy long before.
"""

import ast
import os
import subprocess
import sys

import pytest

import pairmoments
from pairmoments import exceptions

SRC = os.path.dirname(os.path.dirname(pairmoments.__file__))

#: Every name the package exported when it still imported everything eagerly.
EXPORTED = (
    "CheckReport", "ChordStatistics", "ComponentPower", "Constant1", "CrossingPower",
    "CumulantSequence", "DualPathMismatchError", "GramMatrix", "McConfig", "McReport",
    "MomentSequence", "PairPartition", "Permutation", "Product", "STREAM_MAX_N",
    "SingletonCountPower", "SingletonHPower", "SizeLimitError", "StatisticDistribution",
    "StatisticPolynomial", "SymMatrix", "TABLE_MAX_N", "WeightSpec", "__version__", "big_h",
    "check_cnd", "check_isolated_split", "check_mix_semigroup", "check_positive_definite",
    "check_strong_multiplicativity", "check_traceability", "component_support_partition",
    "connected_components", "count_nc_pairings", "crossings", "cumulants_from_connected",
    "cumulants_from_moments", "dilate", "dilate_sq", "eigenvalue_histogram", "embed",
    "embedding_consistency", "empirical_moments", "enumerate_group", "enumerate_pairings",
    "evaluate", "exceptions", "free_convolve", "gaussian_moments", "hankel_psd",
    "isolated_fixed_points", "jacobi", "kernel_matrix", "markov_limit_moments",
    "metric_checks", "mixed_moment", "moments", "moments_from_cumulants",
    "moments_of_weight", "pairing_count", "pairings", "permgroup", "randmat",
    "riordan_connected", "rng", "rotate", "run_mc", "sample_markov",
    "semicircle_mix_moments", "semicircle_moments", "singleton_blocks", "spectrum",
    "statistic_distribution", "statistic_polynomial", "statistics", "total_singletons",
    "weights",
)


def _run(script):
    # runs the script in a fresh interpreter; the modules it holds at the end
    script += "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    return done.stdout.splitlines()


def test_exact_core_loads_no_numpy():
    modules = _run(
        "from fractions import Fraction as F\n"
        "import pairmoments as pm\n"
        "assert pm.statistic_distribution(20).total() == pm.pairing_count(20)\n"
        "pm.moments_of_weight(pm.CrossingPower(F(1, 3)), 20)\n"
        "pm.semicircle_mix_moments(pm.Constant1(), F(1, 4), 20)\n"
        "pm.free_convolve(pm.semicircle_moments(20), pm.gaussian_moments(20))\n"
        "assert sum(1 for v in pm.enumerate_pairings(6) if pm.rotate(v)) == 10395\n")
    assert "numpy" not in modules
    assert "pairmoments.randmat" not in modules and "pairmoments.permgroup" not in modules


@pytest.mark.parametrize("argv", [
    ["sequences", "--which", "connected", "--max", "20"],
    ["moments", "--weight", "qcr", "--param", "1/3", "--N", "20", "--mix", "1/4"],
], ids=lambda argv: argv[0])
def test_table_commands_load_no_numpy(argv):
    modules = _run(
        "import contextlib, io\n"
        "from pairmoments import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n")
    assert "numpy" not in modules


def test_pairings_imports_nothing_from_moments():
    # the non-crossing kernel lives in pairings, and moments imports it from
    # there: an import back, at module level or inside a function, is a cycle
    with open(os.path.join(SRC, "pairmoments", "pairings.py")) as fh:
        tree = ast.parse(fh.read())
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            named += [node.module or ""] + [alias.name for alias in node.names]
    assert "exceptions" in named  # the walk sees the module's imports
    assert not [name for name in named if "moments" in name.split(".")]


def test_randmat_brings_the_traced_eigensolver():
    # the benchmark traces the eigensolver layer as pairmoments.jacobi
    modules = _run("import pairmoments.randmat\n")
    assert "pairmoments.jacobi" in modules and "numpy" in modules


def test_lazy_names_are_the_modules_own():
    assert pairmoments.run_mc is pairmoments.randmat.run_mc
    assert pairmoments.check_cnd is pairmoments.permgroup.check_cnd
    from pairmoments import McConfig, Permutation

    assert (McConfig, Permutation) == (pairmoments.randmat.McConfig,
                                       pairmoments.permgroup.Permutation)


def test_dir_lists_every_exported_name():
    names = dir(pairmoments)
    assert set(EXPORTED) <= set(names)
    for name in names:
        getattr(pairmoments, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pairmoments.no_such_name
    assert not hasattr(pairmoments, "verify_all")


CAPS = {"STREAM_MAX_N": 8, "TABLE_MAX_N": 20, "MAX_GROUP_DEGREE": 8, "MAX_KERNEL_DEGREE": 5,
        "MAX_MATRIX_DIM": 2000, "MAX_TRIALS": 10_000, "MAX_BINS": 10_000}


def _modules():
    # (file name, syntax tree) of every module of the package
    package = os.path.join(SRC, "pairmoments")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                yield name, ast.parse(fh.read())


def test_caps_defined_once():
    assert {name: getattr(exceptions, name) for name in CAPS} == CAPS
    homes = {pairmoments.pairings: ("STREAM_MAX_N", "TABLE_MAX_N"),
             pairmoments.randmat: ("ENTRY_DISTRIBUTIONS", "MAX_MATRIX_DIM", "MAX_TRIALS",
                                   "MAX_BINS"),
             pairmoments.permgroup: ("MAX_GROUP_DEGREE", "MAX_KERNEL_DEGREE"),
             pairmoments: ("STREAM_MAX_N", "TABLE_MAX_N")}
    for module, names in homes.items():
        for name in names:
            assert getattr(module, name) is getattr(exceptions, name)
    # small ints are shared objects, so `is` alone would pass a copy
    assigned = {(module, node.targets[0].id) for module, tree in _modules() for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in CAPS}
    assert assigned == {("exceptions.py", name) for name in CAPS}


def test_only_exceptions_refuses_past_a_cap():
    # every cap is checked by exceptions._check_limit: no other module raises
    # SizeLimitError, and a cap is compared with a value only where it picks
    # a branch instead of refusing
    raised, compared = [], set()
    for module, tree in _modules():
        if module == "exceptions.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                if "SizeLimitError" in ast.unparse(node.exc):
                    raised.append(module)
            elif isinstance(node, ast.Compare):
                names = (getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node))
                compared |= {(module, name) for name in names if name in CAPS}
    assert raised == []
    # total_singletons cross-checks within the table cap; metric_checks is
    # exhaustive within the kernel cap
    assert compared == {("pairings.py", "TABLE_MAX_N"), ("permgroup.py", "MAX_KERNEL_DEGREE")}


def test_no_undeclared_dependencies():
    # scipy and sympy may be installed where the tests run, but pyproject.toml
    # declares neither, so an import of them would fail on a clean install
    tests = os.path.dirname(os.path.abspath(__file__))
    files = [os.path.join(root, name) for top in (os.path.join(SRC, "pairmoments"), tests)
             for root, _, names in os.walk(top) for name in names if name.endswith(".py")]
    found = []
    for path in files:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                named = [node.module or ""]
            else:
                continue
            found += [(path, name) for name in named
                      if name.split(".")[0] in ("scipy", "sympy")]
    assert os.path.join(tests, "test_imports.py") in files  # the walk sees this file
    assert found == []
