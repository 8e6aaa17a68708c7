import os

# One BLAS thread, as perfbench/run.py sets: a 16^3 Green pair runs two to
# three times slower with two on a 2-core machine, because OpenBLAS threads
# the short dot, axpy and GEMV calls of the Gram-Schmidt loop in
# ConormalOperator.solve (BENCH_distinct_blocks.json).  Set before numpy
# loads; a value the user set wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from stokesgreen.acceptance import AcceptanceSuite
from stokesgreen.coefficients import constant_identity
from stokesgreen.domain import build_box
from stokesgreen.system import ConormalOperator


@pytest.fixture(scope="session")
def box8():
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 8)
    coeffs = constant_identity(domain)
    return domain, coeffs, ConormalOperator(domain, coeffs)


@pytest.fixture(scope="session")
def box16():
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    coeffs = constant_identity(domain)
    return domain, coeffs, ConormalOperator(domain, coeffs)


@pytest.fixture(scope="session")
def suite():
    """Shared deep-preset acceptance context (one built pipeline per grid)."""
    return AcceptanceSuite(preset="deep", seed=0, tol=1e-9)


@pytest.fixture(scope="session")
def green32(suite):
    """The sharpest-mollifier Green function at the 32^3 center pole."""
    pipe = suite.pipeline(32)
    return pipe.green(pipe.poles["interior"], 2.0 / 32)


def direct_velocity(op, rhs):
    """Mean-zero velocity of K x = rhs by sparse LU, a reference for the
    iterative solve."""
    import scipy.sparse.linalg as spla

    x = spla.spsolve(op.K.tocsc(), rhs)
    u = x[: op.nu].reshape(3, -1)
    return u - u.mean(axis=1, keepdims=True)


def random_elliptic_tensor(rng, lam=0.25):
    """A random tensor satisfying the ellipticity pair for the given lam."""
    A = 0.3 * rng.standard_normal((3, 3, 3, 3))
    M = A.transpose(0, 2, 1, 3).reshape(9, 9)
    sym_min = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
    shift = max(0.0, lam - sym_min) + 0.05
    for a in range(3):
        for i in range(3):
            A[a, a, i, i] += shift
    # rescale so the block norm respects 1/lam
    from stokesgreen.coefficients import block_norm, coercivity_lower_bound

    scale = min(1.0, (1.0 / lam) / block_norm(A))
    A *= scale
    if coercivity_lower_bound(A) < lam:
        # fall back to a tame perturbation of the identity
        from stokesgreen.coefficients import identity_tensor

        A = identity_tensor(1.0) + 0.1 * scale * rng.standard_normal((3, 3, 3, 3))
        A = 0.5 * lam * (A / block_norm(A)) + identity_tensor(0.9)
    return A
