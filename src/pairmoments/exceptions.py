"""Exception types and size caps shared across the package.

The caps of :mod:`pairmoments.randmat` and :mod:`pairmoments.permgroup`
live here, free of numpy, so the command-line parser can name them without
loading either module; both modules re-export them under the same names.
"""

ENTRY_DISTRIBUTIONS = ("rademacher", "gaussian")

#: Largest Markov matrix dimension sampled; at 2000 one dense float matrix
#: is 32 MB, and a ``randmat --n 2000 --kmax 6 --hist`` run (sampling,
#: trace powers and the spectrum) peaks below 180 MB of resident memory;
#: with ``--kmax 41``, which holds eight powers at once, it peaks at 330 MB.
MAX_MATRIX_DIM = 2000

#: Most trials in one run, and most bins in one histogram.  Both bound the
#: work and output a single command can start.
MAX_TRIALS = 10_000
MAX_BINS = 10_000

#: Largest degree for which full kernel matrices are built (order 5! = 120).
MAX_KERNEL_DEGREE = 5


class SizeLimitError(ValueError):
    """A stream, table, group-degree or matrix-dimension cap was exceeded.

    The message always names the offending size and the cap it exceeds.
    """


class DualPathMismatchError(RuntimeError):
    """Two independent computation paths disagreed.

    Carries both results so the discrepancy can be inspected.
    """

    def __init__(self, message, path_a=None, path_b=None):
        super().__init__(message)
        self.path_a = path_a
        self.path_b = path_b
