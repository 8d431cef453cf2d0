"""The eigensolver layer under the name the benchmark traces.

Every eigenvalue in the package comes from :func:`pairmoments.randmat.spectrum`
(LAPACK ``eigvalsh``); the cyclic Jacobi solver that used to live here is gone.
The benchmark's tracer (``bench/tracing.py``) still records the eigensolver
layer as ``pairmoments.jacobi.jacobi_eigenvalues``, which feeds its
``jacobi.self_s``, ``jacobi.calls`` and ``jacobi.max_order`` metrics.  This
alias is that same function under the old name, so the tracer wraps every
``spectrum`` call there.  Library code calls ``spectrum``; the alias goes once
the benchmark names the layer after ``randmat.spectrum``.
"""

from .randmat import spectrum as jacobi_eigenvalues

__all__ = ["jacobi_eigenvalues"]
