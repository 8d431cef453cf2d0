"""What importing the package loads.

``import pairmoments`` and the exact paths (the joint tables, the weighted
sums, the transforms, the walk) load no numpy; ``randmat`` and
``permgroup`` and their names load on first use.  The gates run in fresh
interpreters, since this process has imported numpy long before.
"""

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


def test_caps_defined_once():
    rm, pg = pairmoments.randmat, pairmoments.permgroup
    for name in ("ENTRY_DISTRIBUTIONS", "MAX_MATRIX_DIM", "MAX_TRIALS", "MAX_BINS"):
        assert getattr(rm, name) is getattr(exceptions, name)
    assert pg.MAX_KERNEL_DEGREE is exceptions.MAX_KERNEL_DEGREE
