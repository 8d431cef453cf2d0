"""Pair-partition combinatorics and the moment calculus built on top of it.

Subpackages:

* :mod:`pairmoments.pairings`  -- pair partitions and chord statistics
* :mod:`pairmoments.weights`   -- weight functions and their property checks
* :mod:`pairmoments.moments`   -- free moment/cumulant transforms
* :mod:`pairmoments.randmat`   -- Markov random-matrix Monte Carlo
* :mod:`pairmoments.permgroup` -- positive definiteness on symmetric groups
* :mod:`pairmoments.cli`       -- the ``pairmoments`` command-line tool
"""

from .exceptions import DualPathMismatchError, SizeLimitError
from .pairings import (
    STREAM_MAX_N,
    TABLE_MAX_N,
    ChordStatistics,
    PairPartition,
    StatisticDistribution,
    count_nc_pairings,
    crossings,
    connected_components,
    component_support_partition,
    enumerate_pairings,
    pairing_count,
    riordan_connected,
    rotate,
    singleton_blocks,
    statistic_distribution,
    statistics,
    total_singletons,
)
from .weights import (
    CheckReport,
    ComponentPower,
    Constant1,
    CrossingPower,
    Product,
    SingletonCountPower,
    SingletonHPower,
    StatisticPolynomial,
    WeightSpec,
    check_strong_multiplicativity,
    check_traceability,
    evaluate,
    statistic_polynomial,
)
from .moments import (
    CumulantSequence,
    GramMatrix,
    MomentSequence,
    check_mix_semigroup,
    cumulants_from_connected,
    cumulants_from_moments,
    dilate,
    dilate_sq,
    free_convolve,
    gaussian_moments,
    hankel_psd,
    markov_limit_moments,
    mixed_moment,
    moments_from_cumulants,
    moments_of_weight,
    semicircle_mix_moments,
    semicircle_moments,
)
from .randmat import (
    McConfig,
    McReport,
    SymMatrix,
    eigenvalue_histogram,
    empirical_moments,
    run_mc,
    sample_markov,
    spectrum,
)
from . import jacobi  # noqa: F401  (the benchmark's name for the eigensolver layer)
from .permgroup import (
    Permutation,
    big_h,
    check_cnd,
    check_isolated_split,
    check_positive_definite,
    embed,
    embedding_consistency,
    enumerate_group,
    isolated_fixed_points,
    kernel_matrix,
    metric_checks,
)

__version__ = "0.1.0"
