import gc
import itertools
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from stokesgreen import system
from stokesgreen.coefficients import (
    CoefficientField,
    adjoint_field,
    build_coefficients,
    constant_identity,
    identity_tensor,
)
from stokesgreen.domain import build_box, build_l_shape, build_voxel_ball
from stokesgreen.errors import CompatibilityError, GeometryError, SolverError
from stokesgreen.green import compute_green, mollified_rhs
from stokesgreen.system import (
    ConormalOperator,
    assemble,
    grid_operators,
    lp_norm,
    poincare_constant,
    shared_operator,
    solve_conormal,
    solve_divergence,
)

from conftest import direct_velocity, random_elliptic_tensor


def make_field(domain, tensor, lam):
    return CoefficientField(domain.shape, domain.h, np.asarray(tensor)[None],
                            np.zeros(domain.ncells, dtype=np.int32), lam)


def linear_velocity(domain, slopes):
    centers = domain.cell_centers
    return np.stack([centers @ np.asarray(b, dtype=float) for b in slopes])


# -- assembly ----------------------------------------------------------------


def test_b_block_transpose_consistency(box8):
    domain, _, op = box8
    rng = np.random.default_rng(0)
    u = rng.standard_normal(op.nu)
    q = rng.standard_normal(op.nc)
    assert np.dot(op.B @ q, u) == pytest.approx(np.dot(q, op.B.T @ u), abs=1e-12)


def test_identity_energy_exact_on_linear_probes():
    # hand value: for u_i = b_i . x the viscous energy is sum_i |b_i|^2 |Omega|
    domain = build_box((1.0, 1.0, 1.0), 0.25)
    coeffs = constant_identity(domain)
    op = ConormalOperator(domain, coeffs)
    slopes = [(1.0, 2.0, -1.0), (0.5, 0.0, 3.0), (0.0, -2.0, 1.0)]
    u = linear_velocity(domain, slopes)
    energy = float(u.ravel() @ (op.K[:op.nu, :op.nu] @ u.ravel()))
    expected = sum(np.dot(b, b) for b in slopes) * domain.volume
    assert energy == pytest.approx(expected, abs=1e-10)


def test_general_tensor_energy_exact_on_linear_probes():
    domain = build_box((1.0, 1.0, 1.0), 0.25)
    rng = np.random.default_rng(3)
    A = random_elliptic_tensor(rng)
    coeffs = make_field(domain, A, 0.1)
    op = ConormalOperator(domain, coeffs)
    slopes = np.array([(1.0, 2.0, -1.0), (0.5, 0.0, 3.0), (0.0, -2.0, 1.0)])
    u = linear_velocity(domain, slopes)
    energy = float(u.ravel() @ (op.K[:op.nu, :op.nu] @ u.ravel()))
    # D_beta u^j = slopes[j][beta] everywhere, corners included
    expected = domain.volume * np.einsum(
        "abij,jb,ia->", A, slopes, slopes
    )
    assert energy == pytest.approx(expected, rel=1e-12)


def test_zero_data_gives_zero_rhs(box8):
    domain, coeffs, op = box8
    system = assemble(op)
    assert np.all(system.rhs == 0.0)


def test_constant_f_projects_to_zero(box8):
    domain, coeffs, op = box8
    f = np.ones((3, domain.ncells)) * np.array([[2.0], [-1.0], [0.5]])
    system = assemble(op, f=f)
    assert np.allclose(system.rhs, 0.0, atol=1e-14)
    assert system.mean_projection == pytest.approx(2.0)


def test_data_shape_mismatch():
    domain = build_box((1.0, 1.0, 1.0), 0.25)
    coeffs = constant_identity(domain)
    with pytest.raises(GeometryError):
        assemble(ConormalOperator(domain, coeffs), f=np.zeros((3, 7)))


def test_adjoint_operator_is_transpose():
    # the transposed K against an independent assembly of the adjoint
    # coefficients: same pattern, values equal to rounding
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 6)
    rng = np.random.default_rng(5)
    coeffs = make_field(domain, random_elliptic_tensor(rng), 0.1)
    op = ConormalOperator(domain, coeffs)
    op_adj = op.adjoint()
    assert op_adj is not op and op.adjoint() is op_adj  # built once
    assembled = ConormalOperator(domain, adjoint_field(coeffs)).K
    assert op_adj.K.has_sorted_indices
    assert np.array_equal(op_adj.K.indptr, assembled.indptr)
    assert np.array_equal(op_adj.K.indices, assembled.indices)
    scale = abs(op.K).max()
    assert np.abs(op_adj.K.data - assembled.data).max() <= 1e-15 * scale
    assert np.array_equal(op_adj.coeffs.tensors, adjoint_field(coeffs).tensors)


def test_nonsymmetric_adjoint_constructs_nothing_and_shares_blocks(monkeypatch):
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 6)
    coeffs = make_field(domain, random_elliptic_tensor(np.random.default_rng(2)), 0.1)
    assert not coeffs.is_self_adjoint()
    op = ConormalOperator(domain, coeffs)
    built = []
    original = ConormalOperator.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ConormalOperator, "__init__", counted)
    adj = op.adjoint()
    assert built == []
    assert all(getattr(adj, name) is getattr(op, name) for name in ("ops", "B", "C", "E", "_prec"))
    assert np.array_equal(adj.K.toarray(), op.K.T.toarray())
    # no back-reference: the direct operator dies with its last user, cycle
    # collector off, while its adjoint lives on
    gc.disable()
    try:
        alive = weakref.ref(op)
        del op
        assert alive() is None
    finally:
        gc.enable()
    x, _ = adj.solve(assemble(adj, f=linear_velocity(domain, np.eye(3)) - 0.5).rhs)
    assert np.all(np.isfinite(x))


def test_shared_operator_registry():
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 6)
    registry = grid_operators(domain).operators
    # content-equal fields built separately have one digest and one operator
    a, b = constant_identity(domain), build_coefficients(domain, {"kind": "identity"})
    assert a is not b and a.digest() == b.digest()
    op = shared_operator(domain, a)
    assert shared_operator(domain, b) is op
    assert shared_operator(domain, b, c_s=0.2) is not op
    other = build_coefficients(domain, {"kind": "checkerboard", "period": 0.5, "lam": 0.5})
    other_op = shared_operator(domain, other)
    assert other_op is not op and other_op.coeffs is other
    # the grid is checked on every call, hits included
    with pytest.raises(GeometryError):
        shared_operator(domain, constant_identity(build_box((1.0, 1.0, 1.0), 1.0 / 4)))
    # an equal digest with other content is not a hit
    forged = CoefficientField(a.shape, a.h, 2.0 * a.tensors, a.index, a.lam)
    forged.digest = a.digest
    assert shared_operator(domain, forged) is not op
    # weak values: no entry outlives the last user of its operator
    del op, other_op
    assert len(registry) == 0


def test_solve_divergence_borrows_the_live_identity_operator(monkeypatch):
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 8)
    g = np.where(domain.cell_centers[:, 0] < 0.5, 1.0, -1.0)
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return ConormalOperator(*args, **kwargs)

    monkeypatch.setattr(system, "ConormalOperator", counted)
    op = shared_operator(domain, build_coefficients(domain, {"kind": "identity"}))
    borrowed = solve_divergence(domain, g)
    assert len(built) == 1
    del op
    # without a live one it builds its own, and drops it afterwards
    assert solve_divergence(domain, g).quotient == borrowed.quotient
    assert len(built) == 2 and len(grid_operators(domain).operators) == 0


def test_grid_operators_die_with_their_domain():
    # the domain holds its grid operators; they hold no reference back, so
    # they and the touched Krylov workspace go with the domain's last
    # reference, without the cycle collector
    gc.disable()
    try:
        domain = build_box((1.0, 1.0, 1.0), 1.0 / 6)
        op = shared_operator(domain, constant_identity(domain))
        op.solve(assemble(op, f=linear_velocity(domain, np.eye(3)) - 0.5).rhs)
        ops = weakref.ref(op.ops)
        del op, domain
        assert ops() is None
    finally:
        gc.enable()


def triple_product_reference_K(op):
    """K with each viscous block summed one triple product at a time,
    ``dbar_a^T diag(h^3 a^{ab}_ij) dbar_b`` and
    ``dkap_a^T diag(h^3 a^{aa}_ij) dkap_a``, zero-weight terms left out."""
    ops, coeffs, flat = op.ops, op.coeffs, op.domain.flat_ids
    nc, h3 = op.nc, op.domain.h**3
    blocks = [[sp.csr_matrix((nc, nc)) for _ in range(3)] for _ in range(3)]
    for i, j, a in itertools.product(range(3), repeat=3):
        for b in range(3):
            w = coeffs.entry(a, b, i, j, flat)
            if np.any(w):
                blocks[i][j] += ops.dbar[a].T @ sp.diags(h3 * w) @ ops.dbar[b]
        w = coeffs.entry(a, a, i, j, flat)
        if np.any(w):
            blocks[i][j] += ops.dkap[a].T @ sp.diags(h3 * w) @ ops.dkap[a]
    B = sp.vstack([h3 * D.T for D in ops.dbar])
    E = sp.kron(sp.eye(3), np.full((1, nc), h3))
    return sp.bmat([[sp.bmat(blocks), B, E.T],
                    [B.T, -op.C, None],
                    [E, None, None]], format="csr")


def per_block_reference_K(op):
    """K with every viscous block (i, j) formed by its own ``D^T W_ij D``
    product from 12 per-cell weight gathers, zero-weight terms left out,
    and the block rows stacked and sorted as ``ConormalOperator`` does."""
    ops, coeffs, flat = op.ops, op.coeffs, op.domain.flat_ids
    nc, h3 = op.nc, op.domain.h**3
    cells = np.arange(nc)
    terms = [(a, b, a, b) for a in range(3) for b in range(3)]
    terms += [(3 + a, 3 + a, a, a) for a in range(3)]

    def block(i, j):
        w = [(r, c, coeffs.entry(a, b, i, j, flat)) for r, c, a, b in terms]
        w = [(h3 * v, r * nc + cells, c * nc + cells) for r, c, v in w if np.any(v)]
        if not w:
            return sp.csr_matrix((nc, nc))
        vals, rows, cols = map(np.concatenate, zip(*w))
        W = sp.csr_matrix((vals, (rows, cols)), shape=(6 * nc,) * 2)
        return ops.DT @ (W @ ops.D)

    div = [h3 * D for D in ops.dbar]
    grad = [D.T.tocsr() for D in div]
    E = [sp.csr_matrix((np.full(nc, h3), (np.full(nc, i), cells)), shape=(3, nc))
         for i in range(3)]
    rows = [sp.hstack([block(i, j) for j in range(3)] + [grad[i], E[i].T.tocsr()],
                      format="csr") for i in range(3)]
    rows += [sp.hstack(div + [-op.C, sp.csr_matrix((nc, 3))], format="csr"),
             sp.hstack(E + [sp.csr_matrix((3, nc + 3))], format="csr")]
    for row in rows:
        row.sort_indices()
    return sp.vstack(rows, format="csr")


def coo_reference_grid(domain):
    """``dbar``, ``dkap`` and ``lap_scalar`` built axis by axis from COO
    triplets, each ``dbar_a`` and ``dkap_a`` its own CSR matrix."""
    nc, h = domain.ncells, domain.h
    ijk, cells = domain.cell_ijk, np.arange(nc)
    dbar, dkap, lap = [], [], sp.csr_matrix((nc, nc))
    for a in range(3):
        nb = []
        for step in (-1, 1):
            q = ijk.copy()
            q[:, a] += step
            ok = (q[:, a] >= 0) & (q[:, a] < domain.shape[a])
            ids = -np.ones(nc, dtype=np.int64)
            ids[ok] = domain.cell_id[q[ok, 0], q[ok, 1], q[ok, 2]]
            nb.append(ids)
        minus, plus = nb
        both = (minus >= 0) & (plus >= 0)
        only_p, only_m = (plus >= 0) & (minus < 0), (minus >= 0) & (plus < 0)
        nboth, c = both.sum(), cells[both]
        rows = [c, c, cells[only_p], cells[only_p], cells[only_m], cells[only_m]]
        cols = [plus[both], minus[both], plus[only_p], cells[only_p],
                cells[only_m], minus[only_m]]
        vals = [np.full(nboth, 0.5 / h), np.full(nboth, -0.5 / h),
                np.full(only_p.sum(), 1.0 / h), np.full(only_p.sum(), -1.0 / h),
                np.full(only_m.sum(), 1.0 / h), np.full(only_m.sum(), -1.0 / h)]
        dbar.append(sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                   np.concatenate(cols))), shape=(nc, nc)).tocsr())
        kvals = np.concatenate([np.full(nboth, 0.5 / h), np.full(nboth, -1.0 / h),
                                np.full(nboth, 0.5 / h)])
        kcols = np.concatenate([plus[both], c, minus[both]])
        dkap.append(sp.coo_matrix((kvals, (np.tile(c, 3), kcols)), shape=(nc, nc)).tocsr())
        fc = cells[plus >= 0]
        face = sp.coo_matrix((np.tile([1.0 / h, -1.0 / h], len(fc)),
                              (np.repeat(np.arange(len(fc)), 2),
                               np.stack([plus[plus >= 0], fc], axis=1).ravel())),
                             shape=(len(fc), nc)).tocsr()
        lap = lap + (face.T * h**3) @ face
    return dbar, dkap, lap.tocsr()


def assert_same_arrays(got, want):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _full_tensor_field(domain, seed):
    A = random_elliptic_tensor(np.random.default_rng(seed), lam=0.1)
    return CoefficientField(domain.shape, domain.h, A[None],
                            np.zeros(int(np.prod(domain.shape)), dtype=np.int32), 0.1)


def _assembly_case(kind):
    from stokesgreen.coefficients import (Frame, checkerboard, identity_tensor,
                                          piecewise_in_direction)

    box8 = build_box((1.0, 1.0, 1.0), 1.0 / 8)
    if kind == "identity-box16":
        domain = build_box((1.0, 1.0, 1.0), 1.0 / 16)
        return domain, constant_identity(domain)
    if kind == "tensor-box8":
        return box8, _full_tensor_field(box8, 11)
    if kind == "checkerboard":
        return box8, checkerboard(box8, 1, 0.25, identity_tensor(1.0),
                                  identity_tensor(0.25), 0.25)
    if kind == "layered":
        rng = np.random.default_rng(13)
        profile = [(start, random_elliptic_tensor(rng, lam=0.1))
                   for start in (-1.0, 0.3, 0.6)]
        return box8, piecewise_in_direction(box8, profile, Frame.identity(), 0.1)
    if kind == "lshape12":
        domain = _l_shape(12)
        return domain, constant_identity(domain)
    domain = build_voxel_ball(0.4, 1.0 / 12)
    return domain, _full_tensor_field(domain, 17)


@pytest.mark.parametrize("kind", ["identity-box16", "tensor-box8", "checkerboard",
                                  "layered", "lshape12", "voxel-ball"])
def test_dtwd_assembly_matches_triple_products(kind):
    # same pattern and nnz, values to rounding; exact on the identity box,
    # where every sum is of dyadic numbers
    domain, coeffs = _assembly_case(kind)
    op = ConormalOperator(domain, coeffs)
    ref = triple_product_reference_K(op)
    K = op.K
    assert K.has_sorted_indices and ref.has_sorted_indices
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    if kind == "identity-box16":
        assert np.array_equal(K.data, ref.data)
    assert np.abs(K.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


def _reuse_case(kind):
    from stokesgreen.coefficients import checkerboard, identity_tensor

    if kind == "checker12":
        # equal diagonal blocks at a non-dyadic h
        domain = build_box((1.0, 1.0, 1.0), 1.0 / 12)
        return domain, checkerboard(domain, 0, 0.25, identity_tensor(1.0),
                                    identity_tensor(0.3), 0.3)
    if kind == "lshape24":
        domain = _l_shape(24)
        return domain, constant_identity(domain)
    if kind == "mixed-terms":
        # a full tensor whose off-diagonal blocks above the diagonal keep
        # only the a == b terms and those below only the a != b ones:
        # three zero patterns, so three blocks are held
        domain = build_box((1.0, 1.0, 1.0), 1.0 / 12)
        A = random_elliptic_tensor(np.random.default_rng(19), lam=0.1)
        same = np.eye(3, dtype=bool)[:, :, None, None]
        upper = np.triu(np.ones((3, 3), dtype=bool), 1)[None, None]
        A[~same & upper] = 0.0
        A[same & upper.transpose(0, 1, 3, 2)] = 0.0
        return domain, make_field(domain, A, 0.1)
    if kind == "aniso-diagonal":
        # a^{aa}_ii = d[a, i], all distinct: three different diagonal
        # blocks of one zero pattern, and zero off-diagonal ones
        domain = build_box((1.0, 0.5, 0.75), 1.0 / 16)
        A = np.zeros((3, 3, 3, 3))
        d = np.array([[1.0, 0.7, 0.4], [0.8, 1.2, 0.5], [0.6, 0.9, 1.1]])
        for a, i in itertools.product(range(3), repeat=2):
            A[a, a, i, i] = d[a, i]
        return domain, make_field(domain, A, 0.4)
    for name, extent, h in (("slab", (1.0, 1.0, 1.0 / 16), 1.0 / 16),
                            ("aniso-box", (1.0, 0.5, 0.75), 1.0 / 16), ("box7", (1.0,) * 3, 1.0 / 7)):
        # a slab of one cell layer, whose dbar_2 and dkap_2 rows are empty;
        # a 16 x 8 x 12 box, whose axis strides differ; and a 7^3 box, whose
        # h rounds lap_scalar's diagonal differently in another sum order
        if kind.startswith(name + "-"):
            domain = build_box(extent, h)
            return domain, (constant_identity(domain) if kind.endswith("identity")
                            else _full_tensor_field(domain, 7))
    return _assembly_case(kind)


@pytest.mark.parametrize("kind", ["identity-box16", "tensor-box8", "checkerboard", "layered",
                                  "lshape12", "voxel-ball", "checker12", "lshape24",
                                  "slab-identity", "slab-tensor",
                                  "aniso-box-identity", "aniso-box-tensor", "box7-identity",
                                  "mixed-terms", "aniso-diagonal"])
def test_distinct_block_assembly_matches_per_block_reference(kind):
    # forming each distinct viscous block once reuses only identical
    # products, K's scatter places every entry where stacking puts it, the
    # stencil builds of D and lap_scalar equal the COO ones, and the row
    # views of D are D's own arrays: every array equal
    domain, coeffs = _reuse_case(kind)
    op = ConormalOperator(domain, coeffs)
    assert_same_arrays(op.K, per_block_reference_K(op))
    ops = op.ops
    dbar, dkap, lap = coo_reference_grid(domain)
    D = sp.vstack(dbar + dkap, format="csr")
    assert_same_arrays(ops.D, D)
    assert_same_arrays(ops.DT, D.T.tocsr())
    assert_same_arrays(ops.lap_scalar, lap)
    for got, want in zip(ops.dbar + ops.dkap, dbar + dkap):
        assert_same_arrays(got, want)
        if got.nnz:  # the slab's empty axis-2 blocks have no memory to share
            assert np.shares_memory(got.data, ops.D.data)
            assert np.shares_memory(got.indices, ops.D.indices)
    assert not hasattr(ops, "dface") and not hasattr(ops, "neighbors")


@pytest.mark.parametrize("kind, gathers", [("identity", 6), ("full-tensor", 108)])
def test_assembly_gathers_only_nonzero_terms_of_distinct_blocks(kind, gathers, monkeypatch):
    # identity: the three equal diagonal blocks gather their six nonzero
    # weights once, and the zero off-diagonal blocks gather nothing; a full
    # tensor has nine distinct blocks of 12 nonzero weights
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    coeffs = (constant_identity(domain) if kind == "identity"
              else _full_tensor_field(domain, 5))
    calls = []
    entry = CoefficientField.entry

    def counted(self, *args):
        calls.append(args)
        return entry(self, *args)

    monkeypatch.setattr(CoefficientField, "entry", counted)
    ConormalOperator(domain, coeffs)
    assert len(calls) == gathers


def test_assembly_peak_memory_stays_below_three_copies_of_K(helper, monkeypatch):
    # K's arrays are allocated once, after the first block of each zero
    # pattern is formed, and every block is placed as it is formed, so
    # construction (grid operators already built) peaks at K beside one
    # block's SpGEMM per thread: at most 1.5735 copies of K for a full
    # tensor on one CPU and 1.8542 on two in 20 runs (bounds 5% above),
    # and 2.0835 for the identity, whose one block is held while K is
    # allocated.  Holding every distinct block beside K reached 2.12 and
    # 2.11, stacking K by block rows 2.19 and 2.77
    cases = [({0}, "full-tensor", 1.65), ({0, 1}, "full-tensor", 1.95),
             ({0}, "identity", 2.15), ({0, 1}, "identity", 2.15)]
    for cpus, kind, bound in cases:
        monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        domain = build_box((1.0, 1.0, 1.0), 1.0 / 16)
        coeffs = (constant_identity(domain) if kind == "identity"
                  else _full_tensor_field(domain, 5))
        grid_operators(domain)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op = ConormalOperator(domain, coeffs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        K = op.K
        assert K.has_canonical_format
        assert peak <= bound * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes), (kind, cpus)


# -- solves -------------------------------------------------------------------


def test_zero_data_solves_to_zero(box8):
    domain, coeffs, op = box8
    system = assemble(op)
    field, report = solve_conormal(system)
    assert np.all(field.u == 0.0)
    assert np.all(field.p == 0.0)
    assert report.iterations == 0


def test_dense_oracle_small_grid():
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 6)
    rng = np.random.default_rng(11)
    coeffs = make_field(domain, random_elliptic_tensor(rng), 0.1)
    op = ConormalOperator(domain, coeffs)
    assert not coeffs.is_self_adjoint()
    f = rng.standard_normal((3, domain.ncells))
    g = rng.standard_normal(domain.ncells)
    system = assemble(op, f=f, g=g)
    field, report = solve_conormal(system, tol=1e-10)
    dense = np.linalg.solve(op.K.toarray(), system.rhs)
    u_dense = dense[: op.nu].reshape(3, -1)
    u_dense -= u_dense.mean(axis=1, keepdims=True)
    assert np.abs(field.u - u_dense).max() <= 1e-7
    assert np.abs(field.p - dense[op.nu : op.nu + op.nc]).max() <= 1e-7


def test_adjoint_duality_dense_oracle():
    # <K^-1 b1, b2> == <b1, K*^-1 b2> since the adjoint system is the transpose
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 6)
    rng = np.random.default_rng(13)
    coeffs = make_field(domain, random_elliptic_tensor(rng), 0.1)
    op = ConormalOperator(domain, coeffs)
    op_adj = ConormalOperator(domain, adjoint_field(coeffs))
    b1 = rng.standard_normal(op.ntot)
    b2 = rng.standard_normal(op.ntot)
    x1 = np.linalg.solve(op.K.toarray(), b1)
    x2 = np.linalg.solve(op_adj.K.toarray(), b2)
    assert np.dot(x1, b2) == pytest.approx(np.dot(b1, x2), rel=1e-9)


def test_uniqueness_across_initial_guesses(box16):
    domain, coeffs, op = box16
    rng = np.random.default_rng(17)
    f = rng.standard_normal((3, domain.ncells))
    system = assemble(op, f=f)
    f1, _ = solve_conormal(system, tol=1e-10)
    f2, _ = solve_conormal(system, tol=1e-10, x0=rng.standard_normal(op.ntot))
    diff = np.sqrt(op.ops.grad_energy_sq(f1.u - f2.u)) + lp_norm(
        domain, f1.p - f2.p, 2
    )
    assert diff <= 10 * 1e-10 * max(1.0, np.sqrt(op.ops.grad_energy_sq(f1.u)))


def test_energy_quotient_stable_under_refinement():
    # same continuum data family across two grids; Lemma-type stability
    quotients = []
    for n in (8, 16):
        domain = build_box((1.0, 1.0, 1.0), 1.0 / n)
        coeffs = constant_identity(domain)
        op = ConormalOperator(domain, coeffs)
        c = domain.cell_centers
        f = np.stack([
            np.sin(2 * np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1]),
            np.cos(np.pi * c[:, 2]),
            c[:, 0] * c[:, 1],
        ])
        system = assemble(op, f=f)
        _, report = solve_conormal(system, tol=1e-9)
        quotients.append(report.energy_quotient)
    assert max(quotients) / min(quotients) <= 1.25


def _mms_fields(domain):
    # u = grad(chi), p = pi^2 chi with chi = cos(pi x) cos(pi y) cos(pi z):
    # div u = -3 pi^2 chi, f = -2 pi^2 grad(chi), and the conormal data
    # vanishes exactly on every face of the unit box
    c = domain.cell_centers
    cx, cy, cz = (np.cos(np.pi * c[:, a]) for a in range(3))
    sx, sy, sz = (np.sin(np.pi * c[:, a]) for a in range(3))
    chi = cx * cy * cz
    grad_chi = np.stack([-np.pi * sx * cy * cz, -np.pi * cx * sy * cz,
                         -np.pi * cx * cy * sz])
    return grad_chi, np.pi**2 * chi, -2 * np.pi**2 * grad_chi, -3 * np.pi**2 * chi


def test_natural_bc_manufactured_solution_converges():
    errors = {}
    for n in (8, 16):
        domain = build_box((1.0, 1.0, 1.0), 1.0 / n)
        coeffs = constant_identity(domain)
        op = ConormalOperator(domain, coeffs)
        u_exact, p_exact, f, g = _mms_fields(domain)
        system = assemble(op, f=f, g=g)
        field, _ = solve_conormal(system, tol=1e-10)
        err = np.sqrt(sum(lp_norm(domain, field.u[i] - u_exact[i], 2) ** 2
                          for i in range(3)))
        scale = np.sqrt(sum(lp_norm(domain, u_exact[i], 2) ** 2 for i in range(3)))
        errors[n] = err / scale
    assert errors[8] < 0.06
    assert errors[16] < errors[8] / 1.8  # no boundary rows modified; BC natural


def test_weak_residual_reproduces_boundary_functional():
    # for u = (y^2 - z^2, 0, 0), p = 0 the interior equation is exact and
    # the weak residual paired with smooth phi converges to the conormal
    # boundary term, here exactly 4/pi for this test field
    vals = {}
    for n in (8, 32):
        domain = build_box((1.0, 1.0, 1.0), 1.0 / n)
        op = ConormalOperator(domain, constant_identity(domain))
        c = domain.cell_centers
        u = np.stack([c[:, 1] ** 2 - c[:, 2] ** 2, np.zeros(domain.ncells),
                      np.zeros(domain.ncells)])
        x = np.concatenate([(u - u.mean(axis=1, keepdims=True)).ravel(),
                            np.zeros(domain.ncells + 3)])
        resid = (op.K @ x)[: op.nu].reshape(3, -1)
        phi = np.stack([np.sin(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1]),
                        np.cos(np.pi * c[:, 2]) * c[:, 0],
                        np.sin(np.pi * c[:, 1]) * c[:, 2]])
        vals[n] = abs(np.einsum("ic,ic->", resid, phi))
    exact = 4.0 / np.pi
    assert vals[32] == pytest.approx(exact, rel=0.02)
    assert abs(vals[32] - exact) < abs(vals[8] - exact)


def test_solver_failure_carries_best_residual(box16):
    domain, coeffs, op = box16
    rng = np.random.default_rng(23)
    f = rng.standard_normal((3, domain.ncells))
    system = assemble(op, f=f)
    with pytest.raises(SolverError) as err:
        solve_conormal(system, tol=1e-9, max_iter=3)
    assert err.value.best_residual is not None
    assert err.value.best_residual > 1e-9


def test_non_finite_data_raises_solver_error(box8):
    # a NaN residual compares false with the target; it must not pass
    domain, coeffs, op = box8
    rhs = assemble(op, f=np.ones((3, domain.ncells))).rhs
    rhs[5] = np.nan
    with pytest.raises(SolverError) as err:
        op.solve(rhs)
    assert np.isnan(err.value.best_residual)


def test_solve_matches_sparse_direct_reference(box8):
    domain, coeffs, op = box8
    rng = np.random.default_rng(29)
    f = rng.standard_normal((3, domain.ncells))
    system = assemble(op, f=f)
    field, report = solve_conormal(system)
    assert report.residual <= 1e-9
    direct = direct_velocity(op, system.rhs)
    assert np.abs(field.u - direct).max() <= 1e-8 * np.abs(direct).max()


def _l_shape(n):
    return build_l_shape((1.0, 1.0, 1.0), ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)), 1.0 / n)


def test_masked_preconditioner_spd_and_h_independent():
    # the velocity block of the preconditioner, the box DCT inverse
    # restricted to the included cells, must stay symmetric and positive
    rng = np.random.default_rng(31)
    for domain in (_l_shape(12), build_voxel_ball(0.5, 1.0 / 12)):
        assert not domain.mask.all()
        op = ConormalOperator(domain, constant_identity(domain))
        P = op.preconditioner()
        for _ in range(4):
            x, y = np.zeros((2, op.ntot))
            x[: op.nu], y[: op.nu] = rng.standard_normal((2, op.nu))
            Px, Py = P @ x, P @ y
            assert abs(x @ Py - y @ Px) <= 1e-12 * abs(x @ Py)
            assert x @ Px > 0 and y @ Py > 0
    steps = []
    for n in (16, 24):
        domain = _l_shape(n)
        f = np.zeros((3, domain.ncells))
        f[0] = mollified_rhs(domain, (0.3, 0.3, 0.3), 2.0 / n).phi
        op = ConormalOperator(domain, constant_identity(domain))
        _, report = solve_conormal(assemble(op, f=f))
        steps.append(report.iterations)
    assert abs(steps[1] - steps[0]) <= 0.1 * min(steps)


def test_block_triangular_preconditioner_h_independent_on_box():
    steps = []
    for n in (16, 24):
        domain = build_box((1.0, 1.0, 1.0), 1.0 / n)
        f = np.zeros((3, domain.ncells))
        f[0] = mollified_rhs(domain, (0.5, 0.5, 0.5), 2.0 / n).phi
        op = ConormalOperator(domain, constant_identity(domain))
        _, report = solve_conormal(assemble(op, f=f))
        assert report.residual <= 1e-9
        steps.append(report.iterations)
    assert abs(steps[1] - steps[0]) <= 0.1 * min(steps)


def dct_reference_preconditioner(op):
    """The block preconditioner with its pressure and velocity blocks
    applied per component by ``scipy.fft.dctn``/``idctn`` on a fresh zero
    box."""
    from scipy import fft as sfft

    dom = op.domain
    h, shape, shift = dom.h, dom.shape, op._scalar_shift()
    eigs = sum(np.meshgrid(*[h * (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))
                             for n in shape], indexing="ij"))
    eigs.flat[0] = shift
    h3, nc, nu = h**3, op.nc, op.nu
    # box symbol of C + B^T A^-1 B: c_s h^2 (-Laplacian) plus the centred
    # gradient's sin^2 over the compact Laplacian, h^3 on constants
    theta = np.meshgrid(*[np.pi * np.arange(n) / n for n in shape], indexing="ij")
    lap = sum(2.0 - 2.0 * np.cos(t) for t in theta)
    grad_sq = sum(np.sin(t) ** 2 for t in theta)
    lap.flat[0] = 1.0
    schur = h3 * (op.c_s * lap + grad_sq / lap)
    schur.flat[0] = h3

    def box_solve(values, symbol):
        box = np.zeros(shape)
        box[dom.mask] = values
        coef = sfft.dctn(box, type=2, norm="ortho") / symbol
        return sfft.idctn(coef, type=2, norm="ortho")[dom.mask]

    def prec(x):
        out = np.empty_like(x)
        p = out[nu : nu + nc] = -box_solve(x[nu : nu + nc], schur)
        lam = out[nu + nc :] = -x[nu + nc :] / (h3 * dom.volume / shift)
        rest = x[:nu] - op.B @ p - op.E.T @ lam
        for i in range(3):
            out[i * nc : (i + 1) * nc] = box_solve(rest[i * nc : (i + 1) * nc], eigs)
        return out

    return prec


def test_velocity_block_matches_dct_reference(box16):
    rng = np.random.default_rng(41)
    nonsquare = build_box((1.0, 0.5, 0.75), 1.0 / 16)
    assert nonsquare.shape == (16, 8, 12)
    for domain in (box16[0], nonsquare, _l_shape(12)):
        op = ConormalOperator(domain, constant_identity(domain))
        P, ref = op.preconditioner(), dct_reference_preconditioner(op)
        xs = rng.standard_normal((3, op.ntot))
        first = P @ xs[0]
        for x in xs:
            got, want = P @ x, ref(x)
            assert np.array_equal(got[op.nu + op.nc :], want[op.nu + op.nc :])
            for part in (slice(op.nu, op.nu + op.nc), slice(0, op.nu)):
                err = np.linalg.norm(got[part] - want[part])
                assert err <= 1e-13 * np.linalg.norm(want[part])
        # the masked box is reused across applies and must leak nothing
        assert np.array_equal(P @ xs[0], first)
    domain, coeffs, op = box16
    green = compute_green(domain, coeffs, (0.5, 0.5, 0.5), 2.0 / 16, operator=op)
    assert [r.iterations for r in green.reports] == [25, 25, 25]


def test_pressure_block_symmetric_positive():
    # the pressure block -S^-1, S the box Schur symbol restricted to the
    # included cells, on a block of random pressure-only vectors
    rng = np.random.default_rng(53)
    for domain in (build_box((1.0, 1.0, 1.0), 1.0 / 16), _l_shape(12)):
        op = ConormalOperator(domain, constant_identity(domain))
        P = op.preconditioner()
        X = np.zeros((6, op.ntot))
        X[:, op.nu : op.nu + op.nc] = rng.standard_normal((6, op.nc))
        gram = -X @ np.stack([P @ x for x in X]).T
        assert np.abs(gram - gram.T).max() <= 1e-13 * np.abs(gram).max()
        assert np.linalg.eigvalsh(0.5 * (gram + gram.T)).min() > 0


def test_unstabilized_divergence_solve_meets_target():
    # c_s = 0 gives the minimal-energy u with div_h u = g exactly; the
    # Schur pressure block keeps its application count far below the 179
    # that the scaled-identity block needed at 16^3
    for n in (8, 16):
        domain = build_box((1.0, 1.0, 1.0), 1.0 / n)
        g = np.where(domain.cell_centers[:, 0] < 0.5, 1.0, -1.0)
        op = ConormalOperator(domain, constant_identity(domain), c_s=0)
        x, info = op.solve(assemble(op, g=g).rhs, tol=1e-9)
        assert info["residual"] <= 1e-9
        div = op.ops.divergence(x[: op.nu].reshape(3, -1))
        assert lp_norm(domain, div - g, 2) <= 1e-8 * lp_norm(domain, g, 2)
    assert info["iterations"] <= 100  # at 16^3


def test_checkerboard_column_matches_direct():
    # lam = 0.25 layers: the hardest scaling for the block preconditioner;
    # 12^3 because the sparse LU reference takes 24 s at 16^3
    from stokesgreen.coefficients import checkerboard, identity_tensor
    from stokesgreen.green import check_green_invariants, compute_green

    domain = build_box((1.0, 1.0, 1.0), 1.0 / 12)
    coeffs = checkerboard(domain, 1, 0.25, identity_tensor(1.0),
                          identity_tensor(0.25), 0.25)
    pole = (0.5, 0.5, 0.5)
    green = compute_green(domain, coeffs, pole, 3.0 / 12)
    assert check_green_invariants(domain, green)["ok"]
    assert all(r.residual <= 1e-9 for r in green.reports)
    f = np.zeros((3, domain.ncells))
    f[0] = mollified_rhs(domain, pole, 3.0 / 12).phi
    op = ConormalOperator(domain, coeffs)
    direct = direct_velocity(op, assemble(op, f=f).rhs)
    assert np.abs(green.G[:, 0, :] - direct).max() <= 1e-8 * np.abs(direct).max()


def test_iterations_count_preconditioner_applications(box16):
    domain, coeffs, _ = box16
    op = ConormalOperator(domain, coeffs)
    inner = op.preconditioner()
    applies = [0]

    def counted(v):
        applies[0] += 1
        return inner @ v

    op.preconditioner = lambda: spla.LinearOperator(inner.shape, matvec=counted, dtype=float)
    f = np.random.default_rng(37).standard_normal((3, domain.ncells))
    _, report = solve_conormal(assemble(op, f=f))
    assert report.iterations == applies[0] > 0


def test_solve_report_records_krylov_history(box16):
    domain, coeffs, _ = box16
    f = np.zeros((3, domain.ncells))
    f[0] = mollified_rhs(domain, (0.5, 0.5, 0.5), 2.0 / 16).phi
    op = ConormalOperator(domain, coeffs)
    K = op.K
    applied = [0]

    def counted(v):
        applied[0] += 1
        return K @ v

    op.K = spla.LinearOperator(K.shape, matvec=counted, dtype=float)
    _, report = solve_conormal(assemble(op, f=f))
    assert report.history[-1] == report.residual <= 1e-9
    assert report.history[0] == 1.0  # x0 = 0: the residual is the data
    assert all(r > 1e-9 for r in report.history[:-1])
    assert len(report.history) == report.cycles + 1 >= 2
    # x0 = 0 needs no first matvec, and the last residual is not recomputed,
    # so each preconditioner application has exactly one K application
    assert report.matvecs == applied[0] == report.iterations > 0
    assert report.iterations <= report.cycles * 41
    assert report.matvec_s > 0 and report.prec_s > 0
    applied[0] = 0
    _, again = solve_conormal(assemble(op, f=f), x0=np.zeros(op.ntot))
    assert again.matvecs == applied[0] == again.iterations + 1
    assert again.history == report.history


def test_solve_report_times_the_krylov_remainder(box16):
    # krylov_s is the solve's wall time outside K and the preconditioner
    # (Gram-Schmidt, rotations and dx), so the three parts fit in the
    # caller's wall time around the solve
    domain, coeffs, op = box16
    f = np.zeros((3, domain.ncells))
    f[0] = mollified_rhs(domain, (0.5, 0.5, 0.5), 2.0 / 16).phi
    saddle = assemble(op, f=f)
    t0 = time.perf_counter()
    _, report = solve_conormal(saddle)
    wall = time.perf_counter() - t0
    assert report.krylov_s >= 0
    assert report.matvec_s + report.prec_s + report.krylov_s <= wall
    assert op.solve(np.zeros(op.ntot))[1]["krylov_s"] == 0.0


def _lgmres_reference(op, rhs, tol=1e-9):
    """SciPy's lgmres with the arguments of ``ConormalOperator.solve``,
    and its preconditioner applications."""
    inner = op.preconditioner()
    applies = [0]

    def counted(v):
        applies[0] += 1
        return inner @ v

    max_iter = 40 * int(np.cbrt(op.nc)) + 400
    inner_m = min(40, max_iter - 1)
    x, _ = spla.lgmres(op.K, rhs, rtol=tol, atol=0.0, inner_m=inner_m, outer_k=3,
                       maxiter=max_iter // (inner_m + 1),
                       M=spla.LinearOperator(inner.shape, matvec=counted, dtype=float))
    return x, applies[0]


@pytest.mark.parametrize("case", ["box16", "lshape12", "nonsym12", "divergence24"])
def test_lgmres_matches_scipy_reference(case, monkeypatch):
    # divergence24 (c_s = 0) runs five outer cycles, so the augmentation
    # vectors enter the Arnoldi process; the cycles start with 0, 1, 2, 3
    # and 3 of them, the last OUTER_K
    import stokesgreen.system as system

    carried = []
    cycle = system._lgmres_cycle

    def recording(x, beta, ptol, workspace, kept, *args):
        carried.append(len(set(kept)))
        return cycle(x, beta, ptol, workspace, kept, *args)

    monkeypatch.setattr(system, "_lgmres_cycle", recording)
    n = {"box16": 16, "divergence24": 24}.get(case, 12)
    domain = _l_shape(n) if case == "lshape12" else build_box((1.0, 1.0, 1.0), 1.0 / n)
    if case == "nonsym12":
        coeffs = make_field(domain, random_elliptic_tensor(np.random.default_rng(0)), 0.25)
        assert not coeffs.is_self_adjoint()
    else:
        coeffs = constant_identity(domain)
    op = ConormalOperator(domain, coeffs, c_s=0 if case == "divergence24" else 0.1)
    if case == "divergence24":
        rhs = assemble(op, g=np.where(domain.cell_centers[:, 0] < 0.5, 1.0, -1.0)).rhs
    else:
        f = np.zeros((3, domain.ncells))
        f[0] = mollified_rhs(domain, (0.3, 0.3, 0.3), 3.0 / n).phi
        rhs = assemble(op, f=f).rhs
    want, applies = _lgmres_reference(op, rhs)
    got, info = op.solve(rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert info["iterations"] == applies
    if case == "divergence24":
        assert carried == [0, 1, 2, 3, 3]


def test_preconditioner_apply_allocates_few_temporaries(box16):
    # one apply allocates its output (1 vector), B p (3/4) and two DCT
    # intermediates of the velocity block (3/4 each); a negated copy of the
    # pressure input and a fresh velocity right-hand side made it 4.01
    domain, coeffs, op = box16
    M = op.preconditioner()
    x = np.random.default_rng(0).standard_normal(op.ntot)
    M @ x
    tracemalloc.start()
    try:
        M @ x
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * op.ntot


def test_repeat_solve_allocates_no_krylov_basis(box16, monkeypatch):
    # the basis lives in one workspace per domain, so a repeat solve
    # allocates only x beyond the temporaries of one K and one
    # preconditioner application (SciPy's lgmres allocated ~25 vectors)
    domain, coeffs, op = box16
    f = np.zeros((3, domain.ncells))
    f[0] = mollified_rhs(domain, (0.5, 0.5, 0.5), 2.0 / 16).phi
    rhs = assemble(op, f=f).rhs
    op.solve(rhs)
    P, v, vector = op.preconditioner(), np.ones(op.ntot), 8 * op.ntot
    tracemalloc.start()
    try:
        P @ (op.K @ v)
        _, step = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        op.solve(rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start - step < 2 * vector
    # solve_divergence's own operator solves in the same buffer
    work = op.ops.krylov_workspace()
    used = []
    original = ConormalOperator.solve

    def recording(self, *args, **kwargs):
        used.append(self.ops.krylov_workspace())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ConormalOperator, "solve", recording)
    solve_divergence(domain, np.where(domain.cell_centers[:, 0] < 0.5, 1.0, -1.0))
    assert used and all(ws is work for ws in used)


# -- K products split across two threads ---------------------------------------


class _HelperView:
    """The helper's worker thread, or None before the first post."""

    @property
    def thread(self):
        pool = system._POOL.get("helper")
        return next(iter(pool._threads), None) if pool is not None else None


@pytest.fixture
def helper():
    """A fresh, unstarted helper in place of the process's one."""
    kept = system._POOL.pop("helper", None)
    yield _HelperView()
    fresh = system._POOL.pop("helper", None)
    if fresh is not None:
        fresh.shutdown(wait=False)
    if kept is not None:
        system._POOL["helper"] = kept


def _split_case(kind):
    if kind == "tensor-box16":
        domain = build_box((1.0, 1.0, 1.0), 1.0 / 16)
        return ConormalOperator(domain, _full_tensor_field(domain, 23)).K
    domain = _l_shape(12)
    return ConormalOperator(domain, constant_identity(domain)).K


@pytest.mark.parametrize("kind", ["tensor-box16", "lshape12"])
def test_split_product_equals_csr_product(kind, helper):
    K = _split_case(kind)
    row = system._split_row(K)
    assert 0 < row < K.shape[0]
    assert abs(K.indptr[row] - K.nnz / 2) <= np.diff(K.indptr).max()
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = rng.standard_normal(K.shape[1])
        assert np.array_equal(system._split_matvec(K, row, v), K @ v)
    assert helper.thread.is_alive()
    # neither thread keeps K's arrays once the product is returned
    data = weakref.ref(K.data)
    del K
    for _ in range(100):
        if data() is None:
            break
        time.sleep(0.01)
    assert data() is None


def test_caller_computes_a_held_back_helper_block(helper, monkeypatch):
    K = _split_case("lshape12")
    held = threading.Event()
    monkeypatch.setattr(system, "_pin_off", lambda cpu: held.wait(60))  # never serves
    ran_on, got, csr_matvec = [], [], system._csr_matvec

    def recorded(*args):
        ran_on.append(threading.current_thread())
        return csr_matvec(*args)

    monkeypatch.setattr(system, "_csr_matvec", recorded)
    v = np.random.default_rng(6).standard_normal(K.shape[1])
    # a caller that waited for the held-back helper would hang: run it on
    # a thread of its own, so that fails the test instead
    caller = threading.Thread(target=lambda: got.append(
        system._split_matvec(K, system._split_row(K), v)), daemon=True)
    caller.start()
    try:
        caller.join(30)
    finally:
        held.set()
    assert not caller.is_alive()
    assert np.array_equal(got[0], K @ v)
    assert ran_on == [caller] * 2


def test_helper_error_reaches_the_caller(helper, monkeypatch):
    K = _split_case("lshape12")
    claimed, raised_on, csr_matvec = threading.Event(), [], system._csr_matvec

    def failing(n_row, n_col, indptr, *rest):
        if indptr[0] == 0:  # the caller's block waits for the helper's
            assert claimed.wait(30)
            return csr_matvec(n_row, n_col, indptr, *rest)
        claimed.set()
        raised_on.append(threading.current_thread())
        raise ValueError("helper block failed")

    monkeypatch.setattr(system, "_csr_matvec", failing)
    with pytest.raises(ValueError, match="helper block failed"):
        system._split_matvec(K, system._split_row(K), np.ones(K.shape[1]))
    assert raised_on == [helper.thread]
    monkeypatch.setattr(system, "_csr_matvec", csr_matvec)
    v = np.ones(K.shape[1])
    assert np.array_equal(system._split_matvec(K, system._split_row(K), v), K @ v)


def test_caller_error_waits_for_the_helper_block(helper, monkeypatch):
    # the caller's block fails while the helper holds its own: the error is
    # raised once the helper's block is done, and the caller runs no block
    # in its place
    K = _split_case("lshape12")
    started, ran_on, done, csr_matvec = threading.Event(), [], [], system._csr_matvec

    def failing(n_row, n_col, indptr, *rest):
        ran_on.append(threading.current_thread())
        if indptr[0] == 0:
            assert started.wait(30)
            raise ValueError("caller block failed")
        started.set()
        time.sleep(0.2)
        done.append(csr_matvec(n_row, n_col, indptr, *rest))

    monkeypatch.setattr(system, "_csr_matvec", failing)
    with pytest.raises(ValueError, match="caller block failed"):
        system._split_matvec(K, system._split_row(K), np.ones(K.shape[1]))
    assert done == [None]
    assert len(ran_on) == 2 and set(ran_on) == {threading.current_thread(), helper.thread}
    monkeypatch.setattr(system, "_csr_matvec", csr_matvec)
    v = np.random.default_rng(10).standard_normal(K.shape[1])
    assert np.array_equal(system._split_matvec(K, system._split_row(K), v), K @ v)


def test_two_first_posts_start_one_helper(helper, monkeypatch):
    # both threads read their CPU, the step before the pool is built, at
    # the same time, so each builds one; only one worker starts
    K = _split_case("lshape12")
    row, vs = system._split_row(K), np.random.default_rng(11).standard_normal((2, K.shape[1]))
    both_read, current_cpu, pin_off = threading.Barrier(2), system._current_cpu, system._pin_off
    started, got = [], {}

    def reading(*args):
        try:
            both_read.wait(5)
        except threading.BrokenBarrierError:
            pass
        return current_cpu(*args)

    def pinning(cpu):
        started.append(threading.current_thread())
        pin_off(cpu)

    monkeypatch.setattr(system, "_current_cpu", reading)
    monkeypatch.setattr(system, "_pin_off", pinning)
    posts = [threading.Thread(target=lambda k=k: got.setdefault(k, system._split_matvec(K, row, vs[k])),
                              daemon=True) for k in range(2)]
    for t in posts:
        t.start()
    for t in posts:
        t.join(30)
    assert not any(t.is_alive() for t in posts)
    assert all(np.array_equal(got[k], K @ vs[k]) for k in range(2))
    assert started == [helper.thread]  # the initializer runs once per worker


def _on_helper(helper, job):
    """``job()``, run by the helper while the caller waits for it."""
    got, done = [], threading.Event()
    system._both(lambda: done.wait(30),
                 lambda: got.append((threading.current_thread(), job())) or done.set())
    assert [thread for thread, _ in got] == [helper.thread]
    return got[0][1]


@pytest.mark.skipif(len(system._cpus()) < 2, reason="needs a second CPU")
def test_helper_runs_off_the_callers_cpu(helper, monkeypatch):
    cpus, current_cpu, seen = system._cpus(), system._current_cpu, []
    monkeypatch.setattr(system, "_current_cpu", lambda: seen.append(current_cpu()) or seen[-1])
    affinity = _on_helper(helper, lambda: os.sched_getaffinity(0))
    assert len(seen) == 1 and affinity == cpus - {seen[0]}


def test_helper_that_cannot_pin_still_serves(helper, monkeypatch):
    K = _split_case("lshape12")
    refused = []

    def refusing(pid, cpus):
        refused.append(cpus)
        raise OSError("affinity refused")

    monkeypatch.setattr(system.os, "sched_setaffinity", refusing)
    _on_helper(helper, lambda: None)
    row, rng = system._split_row(K), np.random.default_rng(12)
    for _ in range(3):
        v = rng.standard_normal(K.shape[1])
        assert np.array_equal(system._split_matvec(K, row, v), K @ v)
    assert len(refused) == 1
    _on_helper(helper, lambda: None)


@st.composite
def _csr_matrices(draw):
    n, m = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                                      st.floats(-1e6, 1e6, allow_nan=False)),
                            max_size=3 * n))
    rows, cols, vals = (np.array(a) for a in zip(*entries)) if entries else ([], [], [])
    K = sp.csr_matrix((vals, (rows, cols)), shape=(n, m), dtype=float)
    index = draw(st.sampled_from([np.int32, np.int64]))
    K.indptr, K.indices = K.indptr.astype(index), K.indices.astype(index)
    return K


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_csr_matrices(), st.integers(0, 2**32 - 1))
def test_split_product_of_any_csr_matrix_is_bit_identical(K, seed):
    # empty rows, no stored entries, one row, int32 and int64 indices
    v = np.random.default_rng(seed).standard_normal(K.shape[1])
    assert np.array_equal(system._split_matvec(K, system._split_row(K), v), K @ v)


def _two_branch_case(kind):
    if kind.startswith("box16-tensor"):
        domain = build_box((1.0, 1.0, 1.0), 1.0 / 16)
        coeffs = _full_tensor_field(domain, 31)
        return domain, (adjoint_field(coeffs) if kind.endswith("adjoint") else coeffs)
    return _reuse_case(kind)


@pytest.mark.parametrize("kind", ["tensor-box8", "slab-tensor", "aniso-box-tensor",
                                  "box16-tensor", "box16-tensor-adjoint", "mixed-terms",
                                  "aniso-diagonal"])
def test_blocks_formed_on_one_or_two_cpus_give_the_same_K(kind, helper, monkeypatch):
    # with a second CPU the caller and the helper each take the next job:
    # a held block, a block to form or a fixed piece, placed straight into
    # K; K is array-equal to the reference on one CPU and on two
    domain, coeffs = _two_branch_case(kind)
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        op = ConormalOperator(domain, coeffs)
        assert (helper.thread is not None) == (len(cpus) > 1)
        assert_same_arrays(op.K, per_block_reference_K(op))


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_block_whose_terms_cancel_gets_its_own_row_counts(cpus, helper, monkeypatch):
    # the cross terms of block (0, 1) cancel exactly, so SpGEMM drops
    # entries that block (1, 0), of the same zero pattern, keeps: (1, 0)
    # does not fit the row counts taken from (0, 1), becomes a class of its
    # own, and K is laid out once more
    monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid: cpus)
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 8)
    A = identity_tensor(1.0)
    A[0, 1, 0, 1], A[1, 0, 0, 1] = 0.2, -0.2
    A[0, 1, 1, 0], A[1, 0, 1, 0] = 0.2, 0.3
    layouts, Ks, stream, empty = [], [], system._stream_csr, system._empty_csr

    def counted(*args):
        layouts.append(dict(args[2]))
        return stream(*args)

    def recorded(counts, shape):
        out = empty(counts, shape)
        if shape[0] == 4 * domain.ncells + 3:
            Ks.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(system, "_stream_csr", counted)
    monkeypatch.setattr(system, "_empty_csr", recorded)
    # the first layout's K is freed by reference counts, even when the
    # mismatch is raised on the helper and carried to this thread
    gc.disable()
    try:
        op = ConormalOperator(domain, make_field(domain, A, 0.5))
        assert len(Ks) == 2 and Ks[0]() is None
    finally:
        gc.enable()
    assert len(layouts) == 2
    assert len(set(layouts[0].values())) == 2 and len(set(layouts[1].values())) == 3
    assert_same_arrays(op.K, per_block_reference_K(op))


@pytest.mark.parametrize("kind, cpus, trims", [("tensor-box8", {0, 1}, 1),
                                               ("tensor-box8", {0}, 0),
                                               ("aniso-diagonal", {0, 1}, 1),
                                               ("lshape12", {0, 1}, 0)])
def test_heap_is_trimmed_after_blocks_formed_on_the_helper(kind, cpus, trims, helper,
                                                           monkeypatch):
    # blocks the helper formed were freed into its own malloc arena, whose
    # free pages go back to the system; an assembly with one block to form
    # or one CPU starts no helper and trims nothing
    monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid: cpus)
    calls = []
    monkeypatch.setattr(system, "_malloc_trim", calls.append)
    ConormalOperator(*_reuse_case(kind))
    assert calls == [0] * trims
    assert (helper.thread is not None) == bool(trims)


def test_malloc_trim_is_a_no_op_without_the_c_function(monkeypatch):
    assert isinstance(system._malloc_trim(0), int)

    class NoTrim:
        pass

    monkeypatch.setattr(system.ctypes, "CDLL", lambda name: NoTrim())
    assert system._libc_malloc_trim()(0) == 0


def test_helper_block_error_reaches_the_caller(helper, monkeypatch):
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 8)
    coeffs = _full_tensor_field(domain, 11)
    monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid: {0, 1})
    caller, failed, raised_on = threading.current_thread(), threading.Event(), []
    entry = CoefficientField.entry

    def failing(self, a, b, i, j, cells):
        if threading.current_thread() is caller and (i, j) != (0, 0):
            # block (0, 0), the one held, is formed before the helper
            # starts; the caller's first block after it waits, so the
            # helper takes the rest
            assert failed.wait(30)
        elif (i, j) == (2, 2):
            raised_on.append(threading.current_thread())
            failed.set()
            raise ValueError("helper block failed")
        return entry(self, a, b, i, j, cells)

    monkeypatch.setattr(CoefficientField, "entry", failing)
    with pytest.raises(ValueError, match="helper block failed"):
        ConormalOperator(domain, coeffs)
    assert raised_on == [helper.thread]
    monkeypatch.setattr(CoefficientField, "entry", entry)
    K = _split_case("lshape12")
    v = np.ones(K.shape[1])
    assert np.array_equal(system._split_matvec(K, system._split_row(K), v), K @ v)
    op = ConormalOperator(domain, coeffs)
    assert_same_arrays(op.K, per_block_reference_K(op))


def test_operators_assembled_by_many_threads_equal_the_reference(helper, monkeypatch):
    # four threads assemble at once, so their block jobs overwrite each
    # other on the one helper; a block formed twice, lost or stored under
    # another operator's key would change some K
    monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid: {0, 1})
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 8)
    fields = [_full_tensor_field(domain, 40 + k) for k in range(4)]
    want = [per_block_reference_K(ConormalOperator(domain, c)) for c in fields]
    bad = []

    def worker(k):
        for _ in range(10):
            K = ConormalOperator(domain, fields[k]).K
            if not all(np.array_equal(getattr(K, a), getattr(want[k], a))
                       for a in ("indptr", "indices", "data")):
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(k,), daemon=True) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and bad == []
    assert helper.thread.is_alive()


def test_split_products_from_many_threads_run_each_block_once(helper):
    # csr_matvec adds into its output, so a block run twice, or by two
    # threads at once, would not equal K @ v
    K = _split_case("lshape12")
    row, bad = system._split_row(K), []
    vs = np.random.default_rng(9).standard_normal((4, K.shape[1]))
    want = [K @ v for v in vs]

    def worker(k):
        for _ in range(50):
            if not np.array_equal(system._split_matvec(K, row, vs[k]), want[k]):
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(k,), daemon=True) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and bad == []
    assert helper.thread.is_alive()


def _green_column_solve(op, f_seed=41):
    f = np.zeros((3, op.domain.ncells))
    f[0] = mollified_rhs(op.domain, (0.5, 0.5, 0.5), 2.0 / 16).phi
    f[1] = np.random.default_rng(f_seed).standard_normal(op.domain.ncells)
    return op.solve(assemble(op, f=f).rhs)


def test_split_solve_is_bit_identical_to_serial(box16, helper, monkeypatch):
    op = ConormalOperator(box16[0], _full_tensor_field(box16[0], 29))
    # construction may start the helper to form blocks, so a fresh one
    # shows that the serial solve makes no split product
    system._POOL.pop("helper", None)
    serial, serial_info = _green_column_solve(op)
    assert helper.thread is None  # 16^3 K is far below the threshold
    monkeypatch.setattr(system, "SPLIT_NNZ", 0)
    monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid: {0, 1})
    split, split_info = _green_column_solve(op)
    assert helper.thread is not None
    assert np.array_equal(split, serial)
    assert split_info["history"] == serial_info["history"]


def test_one_cpu_starts_no_helper(box16, helper, monkeypatch):
    monkeypatch.setattr(system, "SPLIT_NNZ", 0)
    monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid: {0})
    _, info = _green_column_solve(ConormalOperator(box16[0], box16[1]))
    assert info["matvecs"] > 0 and helper.thread is None


def test_non_csr_K_runs_as_one_product(box16, helper, monkeypatch):
    # perfbench's tracer replaces K by a LinearOperator that counts products
    monkeypatch.setattr(system, "SPLIT_NNZ", 0)
    monkeypatch.setattr(system.os, "sched_getaffinity", lambda pid: {0, 1})
    op = ConormalOperator(box16[0], box16[1])
    K, applied = op.K, [0]

    def counted(v):
        applied[0] += 1
        return K @ v

    op.K = spla.LinearOperator(K.shape, matvec=counted, dtype=float)
    _, info = _green_column_solve(op)
    assert info["matvecs"] == applied[0] > 0 and helper.thread is None


def test_forked_child_starts_its_own_helper(helper):
    K = _split_case("lshape12")
    row, v = system._split_row(K), np.random.default_rng(8).standard_normal(K.shape[1])
    system._split_matvec(K, row, v)
    parent_thread = helper.thread
    assert parent_thread.is_alive()

    def child():
        # the parent's helper thread does not exist here
        assert "helper" not in system._POOL and helper.thread is None
        assert np.array_equal(system._split_matvec(K, row, v), K @ v)
        assert helper.thread not in (None, parent_thread)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(60)
    if proc.is_alive():
        proc.kill()
    assert proc.exitcode == 0


# -- divergence equation -------------------------------------------------------


def test_divergence_zero_gives_zero(box8):
    domain, _, _ = box8
    sol = solve_divergence(domain, np.zeros(domain.ncells))
    assert np.all(sol.u == 0.0)
    assert sol.quotient == 0.0


def test_divergence_requires_mean_zero(box8):
    domain, _, _ = box8
    g = np.ones(domain.ncells)
    g[0] += 1.0
    with pytest.raises(CompatibilityError):
        solve_divergence(domain, g)


def test_divergence_quotient_stable(box8, box16):
    quotients = []
    for domain, _, op in (box8, box16):
        g = np.where(domain.cell_centers[:, 0] < 0.5, 1.0, -1.0)
        sol = solve_divergence(domain, g)
        assert abs(domain.h**3 * sol.u.sum(axis=1)).max() <= 1e-9
        quotients.append(sol.quotient)
    assert max(quotients) / min(quotients) <= 1.25


def test_divergence_smooth_data_reaches_tolerance(box16):
    domain, _, op = box16
    c = domain.cell_centers
    g = np.sin(2 * np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1])
    g -= g.mean()
    sol = solve_divergence(domain, g)
    gnorm = lp_norm(domain, g, 2)
    # stabilization leaves a documented high-frequency remainder; the
    # correction sweeps must still reduce it well below the first solve
    first = solve_divergence(domain, g, max_sweeps=1)
    assert sol.div_residual < 0.5 * first.div_residual
    assert sol.div_residual <= 0.05 * gnorm


# -- Poincare constant ----------------------------------------------------------


def test_poincare_matches_linear_probe_oracle(box16):
    domain, _, _ = box16
    # oracle: for phi = x1 - 1/2, ||phi||_L6 = (integral |x-1/2|^6)^(1/6)
    xs = np.linspace(0.0, 1.0, 20001)
    oracle = np.trapezoid(np.abs(xs - 0.5) ** 6, xs) ** (1.0 / 6.0)
    assert oracle == pytest.approx((1.0 / 448.0) ** (1.0 / 6.0), rel=1e-6)
    k0 = poincare_constant(domain, probes=3)
    assert k0 == pytest.approx(oracle, rel=0.02)


def test_poincare_monotone_in_probe_count(box8):
    domain, _, _ = box8
    vals = [poincare_constant(domain, probes=p, seed=1) for p in (1, 3, 6, 10)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_a_block_coercive_with_ellipticity_constant():
    # the discrete viscous form inherits a(u, u) >= lam * |u|_{1,h}^2 exactly
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 6)
    rng = np.random.default_rng(43)
    lam = 0.25
    for trial in range(5):
        A = random_elliptic_tensor(rng, lam=lam)
        coeffs = make_field(domain, A, lam)
        op = ConormalOperator(domain, coeffs)
        u = rng.standard_normal((3, domain.ncells))
        energy = float(u.ravel() @ (op.K[:op.nu, :op.nu] @ u.ravel()))
        grad_sq = op.ops.grad_energy_sq(u)
        assert energy >= lam * grad_sq - 1e-10 * grad_sq


def test_a_block_rayleigh_positive_on_mean_zero_probes(box16):
    domain, coeffs, op = box16
    rng = np.random.default_rng(47)
    k0 = poincare_constant(domain, probes=6)
    floor = 0.5 * 1.0 / (domain.volume ** (1.0 / 3) * k0) ** 2
    for _ in range(5):
        u = rng.standard_normal((3, domain.ncells))
        u -= u.mean(axis=1, keepdims=True)
        energy = float(u.ravel() @ (op.K[:op.nu, :op.nu] @ u.ravel()))
        l2 = domain.h**3 * float(np.sum(u**2))
        assert energy / l2 >= floor
