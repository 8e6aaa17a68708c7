"""The ``stokesgreen`` command: ``python -m stokesgreen`` and the console
script both run ``main``."""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    # One BLAS thread unless the caller set a count: OpenBLAS threads the
    # short dot, axpy and GEMV calls of the Krylov loop, which makes small
    # solves two to three times slower on two cores, and the thread count
    # moves the last digits of the representation row.  Set before numpy
    # loads, which the lazy package exports leave to the cli import.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
