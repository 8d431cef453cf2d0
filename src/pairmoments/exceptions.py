"""Exception types, and every size cap with its one check, ``_check_limit``.

Every entry point checks its sizes here before any work, so a cap moves by
editing one constant; ``_check_order`` checks a sequence's half-order N the
same way.  A size that is not an integer (numpy's are) raises ValueError.
The caps are free of numpy, for the command-line parser; pairings, randmat
and permgroup re-export them under these names.
"""

from numbers import Integral

ENTRY_DISTRIBUTIONS = ("rademacher", "gaussian")

#: Largest half-size streamed one partition at a time (2n = 16 points,
#: 2,027,025 partitions): every per-partition stream and every check that
#: visits each partition.
STREAM_MAX_N = 8

#: Largest half-size answered from tables, which visit no partition: the
#: joint (cr, h, cc) table (3,401 cells at n = 20, every k <= 20 in about
#: 0.1 s), the moment-cumulant transforms up to order 2 * TABLE_MAX_N, the
#: weighted sums over them and the sequences they are checked against.
TABLE_MAX_N = 20

#: Largest degree whose whole group is ever listed (order 8! = 40,320); it
#: also bounds the cache of ``permgroup.enumerate_group``.
MAX_GROUP_DEGREE = 8

#: Largest degree for which full kernel matrices are built (order 5! = 120).
MAX_KERNEL_DEGREE = 5

#: Largest Markov matrix dimension sampled; at 2000 one dense float matrix
#: is 32 MB, and a ``randmat --n 2000 --kmax 6 --hist`` run (sampling,
#: trace powers and the spectrum) peaks below 180 MB of resident memory;
#: with ``--kmax 41``, which holds eight powers at once, it peaks at 330 MB.
MAX_MATRIX_DIM = 2000

#: Most trials in one run, and most bins in one histogram.  Both bound the
#: work and output a single command can start.
MAX_TRIALS = 10_000
MAX_BINS = 10_000

#: Most sampled triples in one ``permgroup.metric_checks`` call (about 6 s
#: at S(6); the work is linear in the count).
MAX_TRIPLES = 1_000_000


class SizeLimitError(ValueError):
    """A size passed the cap of the path that would have to handle it.

    The message always names the offending size, the cap and its constant.
    """


# kind -> (least value, cap, the cap's name, what is counted)
_LIMITS = {
    "enumeration": (1, STREAM_MAX_N, "STREAM_MAX_N", "half-size"),
    "table": (1, TABLE_MAX_N, "TABLE_MAX_N", "half-size"),
    "group": (0, MAX_GROUP_DEGREE, "MAX_GROUP_DEGREE", "group degree"),
    "kernel": (0, MAX_KERNEL_DEGREE, "MAX_KERNEL_DEGREE", "group degree"),
    "dimension": (2, MAX_MATRIX_DIM, "MAX_MATRIX_DIM", "matrix dimension"),
    "trials": (2, MAX_TRIALS, "MAX_TRIALS", "trials"),
    "bins": (1, MAX_BINS, "MAX_BINS", "bins"),
    "triples": (1, MAX_TRIPLES, "MAX_TRIPLES", "triples"),
}


def _check_least(value: int, least: int, what: str) -> None:
    if not isinstance(value, (int, Integral)):  # int first: the ABC's check is slow
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


def _check_limit(kind: str, value: int) -> None:
    # _check_least for the kind, then SizeLimitError past its cap
    least, cap, name, what = _LIMITS[kind]
    _check_least(value, least, what)
    if value > cap:
        raise SizeLimitError(f"{what} {value} exceeds the {kind} cap {cap} ({name})")


def _check_order(n: int, table: bool = True) -> None:
    # A half-order N counts entries, so N = 0 is the empty sequence; one
    # built from the tables is at most TABLE_MAX_N.
    _check_least(n, 0, "order N")
    if n and table:
        _check_limit("table", n)


class DualPathMismatchError(RuntimeError):
    """Two independent computation paths disagreed.

    Carries both results so the discrepancy can be inspected.
    """

    def __init__(self, message, path_a=None, path_b=None):
        super().__init__(message)
        self.path_a = path_a
        self.path_b = path_b
