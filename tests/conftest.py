"""Pins the BLAS thread count before numpy loads.

OpenBLAS takes its thread count from the core count unless told otherwise,
and a GEMM split over another number of threads may sum in another order.
The digests of ``test_bit_gate.py`` and the byte-identity checks were taken
at two threads, so every test run uses two, as ``perfbench/run.py`` does.
The count is read once, when the BLAS library loads, so it must be set
before the first ``import numpy``.
"""

import os
import sys

BLAS_THREADS = "2"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin the BLAS thread "
        f"count; set {', '.join(BLAS_ENV)} to {BLAS_THREADS} in the environment"
    )
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS
