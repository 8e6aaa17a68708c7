"""Discrete conormal Stokes saddle-point systems on voxel domains.

Discretization: collocated cell-centered unknowns (velocity 3-vector and
pressure per cell).  The viscous bilinear form is integrated with a
per-corner quadrature of one-sided face differences, which decomposes into
a centered-gradient term plus a jump penalty weighted by the diagonal
coefficient blocks; the penalty inherits coercivity from the ellipticity
constant and removes the velocity checkerboard.  Each viscous block is one
sparse product D^T W D of the stacked per-cell differences D with a matrix
W of per-cell weights.  For identity coefficients the viscous block
reduces to the compact face-difference Laplacian, and the quadrature is
exact on cellwise-linear probes.

The pressure-velocity coupling uses the centered divergence; the pressure
checkerboard is controlled by a Brezzi-Pitkaranta stabilization block
``c_s * h^2 * (grad_h p, grad_h q)`` whose pollution of ``div u`` is
reported.  The conormal boundary condition is natural: no boundary rows
are modified.  Velocity means are pinned by one symmetric Lagrange row per
component.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import math
import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_blas_funcs, lstsq
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .coefficients import adjoint_field
from .errors import CompatibilityError, GeometryError, SolverError

DIM = 3
DEFAULT_TOL = 1e-9
DEFAULT_STAB = 0.1
COMPAT_REL = 1e-10
# LGMRES: Krylov steps per cycle and augmentation pairs carried over
INNER_M = 40
OUTER_K = 3
EPS = np.finfo(float).eps
# K products with at least this many stored entries run as two row blocks
# on two threads; shorter ones stay serial (notes/decisions.md, "Long K
# products run as two row blocks").  The same helper thread also forms
# and places viscous blocks during assembly ("K placed block by block")
SPLIT_NNZ = 3_000_000
_axpy, _dot, _nrm2 = get_blas_funcs(("axpy", "dot", "nrm2"), dtype=np.float64)


# ---------------------------------------------------------------------------
# grid operators


class GridOperators:
    """Sparse difference operators on the included cells of a domain.

    Keeps only ``ncells`` and ``h`` of the domain, not the domain itself:
    the domain holds these operators, so a back-reference would be a cycle
    that keeps them (and the Krylov workspace) alive until the cyclic
    collector runs.  ``operators`` is the weak-valued registry of
    ``shared_operator``.  ``dbar[a]`` and ``dkap[a]`` are views of row
    blocks of ``D``, so writing to one writes to ``D``.
    """

    def __init__(self, domain):
        self.ncells = nc = domain.ncells
        self.h = h = domain.h
        cells = np.arange(nc)
        # the minus and plus neighbour of every cell along each axis (-1
        # outside), sliced from the padded id grid.  Ids grow with the flat
        # index, so minus_0 < minus_1 < minus_2 < cell < plus_2 < plus_1 <
        # plus_0 wherever they exist, and rows listed in that order are sorted
        pad = np.pad(domain.cell_id, 1, constant_values=-1)
        minus, plus = [], []
        for a in range(DIM):
            for side, step in ((minus, -1), (plus, 1)):
                index = [slice(1, -1)] * DIM
                index[a] = slice(1 + step, pad.shape[a] - 1 + step)
                side.append(pad[tuple(index)][domain.mask])
        has_m = [m >= 0 for m in minus]
        has_p = [p >= 0 for p in plus]

        # D = [dbar_0..2; dkap_0..2] (6n x n), shared by every operator.
        # dbar_a is the centered difference with one-sided closures at the
        # staircase boundary; dkap_a is the curvature (half second difference)
        stencils = []
        for a in range(DIM):
            step = np.where(has_m[a] & has_p[a], 0.5 / h, 1.0 / h)
            stencils.append(([np.where(has_m[a], minus[a], cells),
                              np.where(has_p[a], plus[a], cells)],
                             [-step, step], has_m[a] | has_p[a]))
        for a in range(DIM):
            stencils.append(([minus[a], cells, plus[a]], [0.5 / h, -1.0 / h, 0.5 / h],
                             has_m[a] & has_p[a]))
        self.D = D = _csr_from_stencils(stencils, (2 * DIM * nc, nc))
        self.DT = D.T.tocsr()

        def rows(k):
            # the constructor copies a slice this much smaller than its base,
            # so the views are set on an empty matrix instead
            start, stop = D.indptr[k * nc], D.indptr[(k + 1) * nc]
            block = sp.csr_matrix((nc, nc))
            block.indptr = D.indptr[k * nc : (k + 1) * nc + 1] - start
            block.indices, block.data = D.indices[start:stop], D.data[start:stop]
            return block

        self.dbar = [rows(a) for a in range(DIM)]
        self.dkap = [rows(DIM + a) for a in range(DIM)]
        # (grad p, grad q) on cells, the sum over axes of the face-difference
        # products F_a^T h^3 F_a: -v to each face neighbour and v per face on
        # the diagonal, with v = ((1/h) h^3) (1/h), summed axis by axis; a
        # cell with no face has no diagonal entry, as the products drop it
        v = (1.0 / h * h**3) * (1.0 / h)
        f0, f1, f2 = (v * (1.0 * m + p) for m, p in zip(has_m, has_p))
        diag = (f0 + f1) + f2
        vals = np.full((nc, 2 * DIM + 1), -v)
        vals[:, DIM] = diag
        cols = np.stack(minus + [cells] + plus[::-1], axis=1)
        keep = np.stack(has_m + [diag > 0] + has_p[::-1], axis=1)
        self.lap_scalar = lap = _empty_csr(np.count_nonzero(keep, axis=1), (nc, nc))
        lap.indices[:], lap.data[:] = cols[keep], vals[keep]
        self._krylov = None
        self.operators = weakref.WeakValueDictionary()

    def krylov_workspace(self):
        """The LGMRES workspace of every operator on this domain (each has
        4 ncells + 3 unknowns), made at the first solve: the Arnoldi basis
        (``INNER_M + OUTER_K + 1`` rows), then the augmentation vectors z
        and M K z (``OUTER_K + 1`` rows each), views of one array.  Pages
        are touched only as solves reach a row.  Not reentrant: nothing
        solves on one domain concurrently."""
        if self._krylov is None:
            nv = INNER_M + OUTER_K + 1
            work = np.empty((nv + 2 * (OUTER_K + 1), (DIM + 1) * self.ncells + DIM))
            self._krylov = (work[:nv], work[nv : nv + OUTER_K + 1], work[nv + OUTER_K + 1 :])
        return self._krylov

    def gradient(self, values):
        """Centered per-cell gradient of a cellwise scalar, shape (3, n)."""
        return np.stack([D @ values for D in self.dbar])

    def divergence(self, u):
        """Centered per-cell divergence of a cellwise vector field (3, n)."""
        return sum(self.dbar[a] @ u[a] for a in range(DIM))

    def grad_sq(self, u):
        """Per-cell squared Frobenius norm of the centered gradient of the
        component fields ``u`` (..., n), summed over components in order."""
        total = np.zeros(self.ncells)
        for comp in np.reshape(u, (-1, self.ncells)):
            g = self.gradient(comp)
            total += np.einsum("ac,ac->c", g, g)
        return total

    def grad_energy_sq(self, u):
        """Quadrature of the squared gradient matching the viscous form."""
        h3 = self.h**3
        total = 0.0
        for comp in np.atleast_2d(u):
            for a in range(DIM):
                total += h3 * float(
                    np.sum((self.dbar[a] @ comp) ** 2) + np.sum((self.dkap[a] @ comp) ** 2)
                )
        return total


def _empty_csr(counts, shape):
    """CSR matrix of ``shape`` whose row r has room for ``counts[r]``
    entries, its indices and data left to fill; 32-bit indices where they
    fit, as in SciPy's own conversions."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    idx = np.int32 if max(nnz, *shape) <= np.iinfo(np.int32).max else np.int64
    return sp.csr_matrix((np.empty(nnz), np.empty(nnz, dtype=idx), indptr.astype(idx)),
                         shape=shape)


def _csr_from_stencils(stencils, shape):
    """CSR matrix stacked from row blocks ``(cols, vals, keep)``: row r of
    a block holds ``cols[m][r]`` with value ``vals[m][r]`` (or the scalar
    ``vals[m]``) for each m in order if ``keep[r]``, and nothing otherwise.
    Each column is gathered straight into the matrix's arrays."""
    out = _empty_csr(np.concatenate([len(cols) * keep for cols, _, keep in stencils]), shape)
    start = 0
    for cols, vals, keep in stencils:
        block = (np.count_nonzero(keep), len(cols))
        stop = start + block[0] * block[1]
        ind, dat = (x[start:stop].reshape(block) for x in (out.indices, out.data))
        for m, (c, v) in enumerate(zip(cols, vals)):
            ind[:, m] = c[keep]
            dat[:, m] = v[keep] if np.ndim(v) else v
        start = stop
    return out


def _stream_csr(form, blocks, classes, fixed, nc, shape):
    """K of ``shape`` from its distinct viscous blocks and the ``fixed``
    pieces ``(M, row, col)``, each block placed as soon as it is formed.

    ``blocks`` maps the key of each distinct nonzero block to the (i, j)
    that use it, ``form(i, j)`` forms it (nc x nc, sorted rows), and
    ``classes`` maps each key to its class: blocks of one class have the
    same row counts, so one ``indptr``.  The first block of each class is
    formed and held, and K's arrays are allocated once from every piece's
    row counts before the other blocks exist (the two phases of Gustavson's
    SpGEMM, ACM TOMS 4, 1978).  Then this thread and, when a block is left
    to form and the process may run on a second CPU, the helper each take
    the next job: a held block, a block to form, or a fixed piece.  A block
    is placed at every (i, j) that uses it and dropped; pieces fill
    disjoint slots, so no lock is taken.  A formed block whose row counts
    are not its class's raises ``_RowCountMismatch``.
    """
    # every piece's (row, col, indptr); a class's indptr outlives its block
    held, indptr = {}, {}
    for key, uses in blocks.items():
        if classes[key] not in indptr:
            # a copy keeps only the entries of SpGEMM's longer arrays
            held[key] = M = form(*uses[0]).copy()
            indptr[classes[key]] = M.indptr
    layout = [(i * nc, j * nc, indptr[classes[key]]) for key, uses in blocks.items()
              for i, j in uses]
    layout += [(row, col, M.indptr) for M, row, col in fixed]
    total = np.zeros(shape[0], dtype=np.int64)
    for row, _, ptr in layout:
        total[row : row + len(ptr) - 1] += np.diff(ptr)
    K = _empty_csr(total, shape)
    del total

    def put(M, row, col):
        # each row's first slot: K's row start plus the entries of the
        # pieces to its left, computed here and dropped after the placement
        m = M.shape[0]
        start = K.indptr[row : row + m].astype(np.intp)
        for r, c, ptr in layout:
            lo, hi = max(r, row), min(r + len(ptr) - 1, row + m)
            if c < col and lo < hi:
                start[lo - row : hi - row] += np.diff(ptr[lo - r : hi - r + 1])
        start -= M.indptr[:-1]
        # about 2^14 entries at a time, so the scatter indices stay small
        step = max(1, (m << 14) // max(M.nnz, 1))
        for lo in range(0, m, step):
            ptr = M.indptr[lo : lo + step + 1]
            dest = np.repeat(start[lo : lo + step], np.diff(ptr))
            dest += np.arange(ptr[0], ptr[-1])
            K.indices[dest] = M.indices[ptr[0] : ptr[-1]] + col
            K.data[dest] = M.data[ptr[0] : ptr[-1]]

    def block(key):
        M = held.pop(key, None)
        if M is None:
            M = form(*blocks[key][0])
            if not np.array_equal(M.indptr, indptr[classes[key]]):
                todo.clear()  # the other thread stops after its current job
                raise _RowCountMismatch(key)
        for i, j in blocks[key]:
            put(M, i * nc, j * nc)

    # popped from the end: the held blocks first, so they are freed before
    # more blocks are formed, and the short fixed pieces last
    todo = [functools.partial(put, *piece) for piece in fixed]
    todo += [functools.partial(block, key) for key in reversed(blocks) if key not in held]
    todo += [functools.partial(block, key) for key in reversed(held)]

    def take():
        while True:
            try:
                job = todo.pop()
            except IndexError:
                return
            job()

    if len(held) < len(blocks) and len(_cpus()) > 1:
        _both(take, take)
        # the blocks the helper formed were freed into its own malloc arena
        _malloc_trim(0)
    else:
        take()
    return K


class _RowCountMismatch(Exception):
    """The key of a formed viscous block whose row counts are not its
    class's."""


def _libc_malloc_trim():
    """glibc's ``malloc_trim``, which returns the free pages of every malloc
    arena to the system, or a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda pad: 0
    trim.argtypes = [ctypes.c_size_t]
    return trim


_malloc_trim = _libc_malloc_trim()


def grid_operators(domain):
    ops = getattr(domain, "_grid_ops", None)
    if ops is None:
        ops = GridOperators(domain)
        domain._grid_ops = ops
    return ops


def _dct_matrix(n):
    """Orthonormal DCT-II matrix, ``Q[k, j] = sqrt((2 - delta_k0) / n)
    cos(pi k (j + 1/2) / n)``."""
    k = np.arange(n)[:, None]
    Q = np.sqrt(2.0 / n) * np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
    Q[0] /= np.sqrt(2.0)
    return Q


# ---------------------------------------------------------------------------
# operator assembly


class ConormalOperator:
    """Assembled saddle-point operator for one (domain, coefficients) pair.

    Unknown layout: velocity components (3 blocks of ncells), pressure
    (ncells), then 3 Lagrange multipliers pinning the velocity means.
    Viscous block (i, j) is ``D^T W_ij D`` with ``D = [dbar_0..2;
    dkap_0..2]``: ``W_ij`` carries ``h^3 a^{ab}_ij`` from the ``dbar_b``
    column to the ``dbar_a`` row and ``h^3 a^{aa}_ij`` on the ``dkap_a``
    diagonal.  Blocks with equal weights (the three diagonal blocks of an
    isotropic tensor) are formed once, and zero blocks not at all.  K's
    arrays are allocated once, after only the first block of each zero
    pattern is formed: its row counts serve every block of that pattern.
    Each block is then formed, on this thread and the helper when a second
    CPU is free, placed straight into K and dropped, so K never sits beside
    more than one block per thread; only ``K`` keeps the viscous blocks.
    The free heap pages left by blocks formed on the helper are returned
    to the system after the assembly (``malloc_trim``).
    """

    def __init__(self, domain, coeffs, c_s=DEFAULT_STAB):
        _check_grid(domain, coeffs)
        self.domain = domain
        self.coeffs = coeffs
        self.c_s = float(c_s)
        ops = grid_operators(domain)
        self.ops = ops
        nc = domain.ncells
        h = domain.h
        h3 = h**3
        flat = domain.flat_ids

        # (row, column) of D for each weight a^{ab}_ij; zero-weight terms are
        # left out, so K keeps the pattern of the sum of triple products.
        # Whether a term is zero is read from the codebook entries the cells
        # use, so a zero term costs no per-cell gather
        cells, every_row = np.arange(nc), np.ones(nc, dtype=bool)
        terms = [(a, b, a, b) for a in range(DIM) for b in range(DIM)]
        terms += [(DIM + a, DIM + a, a, a) for a in range(DIM)]
        codebook = coeffs.tensors[np.unique(coeffs.index[flat])]

        def form(i, j):
            # row block r of W holds, in every row, one entry per used term
            # of that row at column c nc + cell, in column order
            used = [[(c, a, b) for r2, c, a, b in terms
                     if r2 == r and np.any(codebook[:, a, b, i, j])] for r in range(2 * DIM)]
            WD = _csr_from_stencils([([c * nc + cells for c, _, _ in u],
                                      [h3 * coeffs.entry(a, b, i, j, flat) for _, a, b in u],
                                      every_row) for u in used], (2 * DIM * nc,) * 2) @ ops.D
            # SpGEMM leaves each row unsorted; the block is placed and
            # dropped, so its rows are sorted where they are, with no copy
            M = ops.DT @ WD
            M.sort_indices()
            return M

        # blocks whose weights agree on every used codebook entry are equal,
        # so each distinct nonzero block is formed once and placed at every
        # (i, j) that uses it; zero blocks have no entries.  A block's pattern
        # follows from which of its weights are zero on each codebook entry,
        # its class, unless nonzero terms cancel exactly.  A block that turns
        # out to differ from its class becomes a class of its own (its key,
        # which no zero pattern equals) and K is laid out again
        blocks = {}
        for i in range(DIM):
            for j in range(DIM):
                if np.any(codebook[..., i, j]):
                    blocks.setdefault(codebook[..., i, j].tobytes(), []).append((i, j))
        classes = {key: (codebook[..., i, j] != 0).tobytes()
                   for key, ((i, j), *_) in blocks.items()}

        self.B = sp.vstack([(h3 * D).T.tocsr() for D in ops.dbar], format="csr")
        self.C = (self.c_s * h * h) * ops.lap_scalar
        self.E = sp.csr_matrix((np.full(DIM * nc, h3), np.arange(DIM * nc),
                                np.arange(0, DIM * nc + 1, nc)), shape=(DIM, DIM * nc))
        nu = DIM * nc
        fixed = [(self.B, 0, nu), (self.E.T.tocsr(), 0, nu + nc), (self.B.T.tocsr(), nu, 0),
                 (-self.C, nu, nu), (self.E, nu + nc, 0)]
        while True:
            try:
                self.K = _stream_csr(form, blocks, classes, fixed, nc, (nu + nc + DIM,) * 2)
                break
            except _RowCountMismatch as exc:
                classes[exc.args[0]] = exc.args[0]
        self.nc = nc
        self.nu = nu
        self.ntot = self.K.shape[0]
        self._prec = None
        self._adjoint = None

    def adjoint(self):
        """The operator of the adjoint coefficients: ``self`` for
        self-adjoint coefficients, otherwise built once and kept.

        Its K is this K's transpose, ``K.T.tocsr()`` with sorted indices,
        so nothing is assembled: the adjoint system is the transposed one
        by construction (G*(x, y) = G(y, x)^T).  It shares ``ops``, ``B``,
        ``C``, ``E`` and the preconditioner, which reads only the domain,
        ``c_s`` and B, and carries ``adjoint_field(self.coeffs)``.  It holds
        no reference back to this operator, so the pair forms no cycle.
        """
        if self.coeffs.is_self_adjoint():
            return self
        if self._adjoint is None:
            self.preconditioner()  # built here, so the copy shares it
            adj = copy.copy(self)
            adj.coeffs = adjoint_field(self.coeffs)
            adj.K = self.K.T.tocsr()
            adj.K.sort_indices()
            self._adjoint = adj
        return self._adjoint

    # -- preconditioner ---------------------------------------------------

    def _scalar_shift(self):
        nmax = max(self.domain.shape)
        return self.domain.h * (2.0 - 2.0 * np.cos(np.pi / nmax))

    def _build_prec(self):
        """Block upper-triangular preconditioner on the DCT basis of the
        bounding box.

        With theta_a = pi k_a / n_a and L(k) = sum_a (2 - 2 cos theta_a),
        the velocity block inverts the shifted Neumann Laplacian h L of the
        box on all three components, after the coupling ``B p + E^T lam`` is
        moved to the right-hand side.  The pressure block inverts the box
        symbol of the Schur complement C + B^T A^-1 B,
        ``h^3 (c_s L + sum_a sin^2 theta_a / L)`` with ``h^3`` at k = 0, and
        the multiplier block is the scaled identity ``-h^3 |Omega| / shift``
        (Elman-Silvester-Wathen, ch. 4).  Both inverses are diagonal in the
        DCT-II basis, so they are applied as stacked products with the
        orthonormal DCT-II matrices of the three axes (fast
        diagonalization, Lynch, Rice & Thomas 1964).  Masked domains
        zero-extend to the box, invert there and restrict (a
        fictitious-domain preconditioner).
        """
        dom = self.domain
        h = dom.h
        shape = dom.shape
        shift = self._scalar_shift()
        h3 = h**3
        theta = [np.pi * np.arange(n) / n for n in shape]

        def box_symbol(f):
            # sum of 1-D symbols, broadcast into the (n1, n0, n2) layout
            # the kernel divides in
            f0, f1, f2 = (f(t) for t in theta)
            return f1[:, None, None] + f0[None, :, None] + f2[None, None, :]

        eigs_t = box_symbol(lambda t: h * (2.0 - 2.0 * np.cos(t)))  # h L
        eigs_t[0, 0, 0] = shift
        # h^3 (c_s L + sum_a sin^2 theta_a / L), and h^3 at k = 0
        schur_t = h**2 * (self.c_s * eigs_t
                          + h**2 * box_symbol(lambda t: np.sin(t) ** 2) / eigs_t)
        schur_t[0, 0, 0] = h3
        Q0, Q1, Q2 = (_dct_matrix(n) for n in shape)
        Q2t = np.ascontiguousarray(Q2.T)  # a transposed view halves matmul speed

        def box_inverse(arr, symbol):
            # arr is (m, n0, n1, n2); every product is a stack of small
            # GEMMs, and axis 0 is reached through a strided view
            c = Q1 @ (arr @ Q2t)
            c = Q0 @ c.transpose(0, 2, 1, 3)
            c /= symbol
            c = (Q0.T @ c).transpose(0, 2, 1, 3)
            return (Q1.T @ c) @ Q2

        mult_scale = h3 * dom.volume / shift
        nc, nu = self.nc, self.nu
        B = self.B
        # the pressure block is -(Schur)^-1: negating the symbol is exact,
        # so no negated copy of the input is made
        neg_schur_t = -schur_t
        if dom.mask.all():

            def apply_box(rest, out, symbol):
                out[:] = box_inverse(rest.reshape((-1,) + shape), symbol).ravel()

        else:
            # one box per operator, so this preconditioner is not reentrant
            # (nothing applies it concurrently); the zero extension is one
            # gather through the box-to-domain index, then the excluded
            # cells are zeroed.  Every index is in range, and mode="clip"
            # skips the buffered copy that np.take makes under "raise"
            box = np.empty((DIM,) + shape)
            flat_box = box.reshape(DIM, -1)
            cells = np.flatnonzero(dom.mask)
            outside = np.flatnonzero(~dom.mask)
            source = np.maximum(dom.cell_id, 0).ravel()

            def apply_box(rest, out, symbol):
                m = rest.size // nc
                np.take(rest.reshape(m, nc), source, axis=1, out=flat_box[:m], mode="clip")
                flat_box[:m, outside] = 0.0
                res = box_inverse(box[:m], symbol).reshape(m, -1)
                np.take(res, cells, axis=1, out=out.reshape(m, nc), mode="clip")

        def prec(x):
            out = np.empty_like(x)
            p = out[nu : nu + nc]
            apply_box(x[nu : nu + nc], p, neg_schur_t)
            lam = out[nu + nc :] = -x[nu + nc :] / mult_scale
            # apply_box reads all of its input before it writes its output,
            # so rest can live in the velocity block it is mapped to
            rest = np.subtract(x[:nu], B @ p, out=out[:nu])
            rest.reshape(DIM, nc)[:] -= (h3 * lam)[:, None]
            apply_box(rest, rest, eigs_t)
            return out

        return prec

    def preconditioner(self):
        if self._prec is None:
            self._prec = self._build_prec()
        return spla.LinearOperator(
            (self.ntot, self.ntot), matvec=self._prec, dtype=float
        )

    # -- solves -----------------------------------------------------------

    def solve(self, rhs, tol=DEFAULT_TOL, max_iter=None, x0=None):
        """Solve K x = rhs to a true relative residual below tol.

        Left-preconditioned LGMRES (Baker, Jessup & Manteuffel, SIAM J.
        Matrix Anal. Appl. 26, 2005), step for step as SciPy's ``lgmres``
        with ``inner_m = min(40, max_iter - 1)`` and ``outer_k = 3``.  The
        true residual is checked at each outer-cycle start; the outer
        budget is ``max_iter // (inner_m + 1)`` cycles.  K and the
        preconditioner are applied only through ``self.K`` and
        ``self.preconditioner()``.  A CSR K of at least ``SPLIT_NNZ``
        stored entries is applied as two row blocks on two threads when
        the process may run on more than one CPU, with the same result
        bit for bit.  Iterations are preconditioner applications.
        Returns ``(x, info)``; ``info`` holds ``iterations``, ``residual``
        (the last cycle-start residual, so no matvec recomputes it),
        ``history`` (the true relative residual at each cycle start),
        ``cycles``, the matvec and preconditioner counts and seconds, and
        ``krylov_s``, the seconds of the solve spent outside both;
        ``matvec_s`` (``SolveReport.matvec_s``) is the wall time of each
        whole product, both blocks included.  Raises SolverError on
        non-convergence, carrying the residual reached.
        """
        t_solve = time.perf_counter()
        info = {"iterations": 0, "prec_s": 0.0, "matvecs": 0, "matvec_s": 0.0,
                "krylov_s": 0.0, "cycles": 0, "history": []}
        bnorm = np.linalg.norm(rhs)
        if bnorm == 0:
            info.update(residual=0.0, history=[0.0])
            return np.zeros(self.ntot), info
        if max_iter is None:
            max_iter = 40 * int(np.cbrt(self.nc)) + 400
        # one outer cycle applies M at most inner_m + 1 times
        inner_m = min(INNER_M, max(max_iter - 1, 1))
        max_cycles = max(max_iter // (inner_m + 1), 1)
        K, M = self.K, self.preconditioner()
        product = _product(K)

        def matvec(v):
            t0 = time.perf_counter()
            out = product(v)
            info["matvec_s"] += time.perf_counter() - t0
            info["matvecs"] += 1
            return out

        def psolve(v):
            t0 = time.perf_counter()
            out = M.matvec(v)
            info["prec_s"] += time.perf_counter() - t0
            info["iterations"] += 1
            return out

        workspace = self.ops.krylov_workspace()
        x = np.zeros(self.ntot) if x0 is None else np.array(x0, dtype=float)
        history = info["history"]
        kept = []  # workspace slots of the augmentation pairs, oldest first
        ptol_max = 1.0
        for k in range(max_cycles + 1):
            if k == 0 and x0 is None:
                r = -rhs  # K 0 - rhs, without the matvec
            else:
                r = matvec(x)
                r -= rhs
            rnorm = np.linalg.norm(r)
            history.append(float(rnorm / bnorm))
            if rnorm <= tol * bnorm or k == max_cycles:
                break
            info["cycles"] += 1
            w = psolve(r)
            del r
            beta = _nrm2(w)
            if beta == 0:
                raise SolverError("preconditioner returned a zero vector",
                                  best_residual=history[-1], iterations=info["iterations"])
            np.multiply(w, -1.0 / beta, out=workspace[0][0])
            del w  # only x and the workspace stay alive through the cycle
            ptol = min(ptol_max, tol * bnorm / rnorm)
            res = _lgmres_cycle(x, beta, ptol, workspace, kept, inner_m, matvec, psolve)
            if res is None:  # overflow or NaN: x keeps its checked residual
                break
            # the adaptive inner tolerance of SciPy's lgmres
            ptol_max = min(1.0, 1.5 * ptol_max) if res > ptol else max(1e-16, 0.25 * ptol_max)
        info["residual"] = residual = history[-1]
        # the rest of the solve: Gram-Schmidt, rotations and dx
        info["krylov_s"] = max(0.0, time.perf_counter() - t_solve
                               - info["matvec_s"] - info["prec_s"])
        if not residual <= tol:  # a NaN residual fails too
            raise SolverError(
                f"lgmres stalled at relative residual {residual:.3e} "
                f"(target {tol:.1e}) after {info['iterations']} preconditioner applications",
                best_residual=residual,
                iterations=info["iterations"],
            )
        return x, info


def _check_grid(domain, coeffs):
    if coeffs.shape != domain.shape or abs(coeffs.h - domain.h) > 1e-15:
        raise GeometryError("coefficient grid does not match the domain grid")


def shared_operator(domain, coeffs, c_s=DEFAULT_STAB):
    """The live ``ConormalOperator`` of (domain, coefficients, c_s), or a
    new one.

    The domain's ``GridOperators`` keep a weak-valued registry keyed by
    ``(coeffs.digest(), c_s)``, so callers that use the same operator at
    the same time share one K, and no operator outlives its last user.
    An operator is shared only while a caller holds it: calls that keep
    none, such as two ``compute_green`` calls with ``operator=None``,
    assemble once each.  The digest is 64 bits and leaves out the grid:
    the grid is checked on every call, and a hit is taken only if its
    codebook, index and lam equal those of ``coeffs``.
    """
    _check_grid(domain, coeffs)
    registry = grid_operators(domain).operators
    key = (coeffs.digest(), float(c_s))
    op = registry.get(key)
    if op is None or not (np.array_equal(op.coeffs.tensors, coeffs.tensors)
                          and np.array_equal(op.coeffs.index, coeffs.index)
                          and op.coeffs.lam == coeffs.lam):
        op = registry[key] = ConormalOperator(domain, coeffs, c_s)
    return op


# ---------------------------------------------------------------------------
# K products split across two threads


def _cpus():
    """The CPUs this process may run on."""
    try:
        return os.sched_getaffinity(0)
    except AttributeError:  # no affinity call on this platform
        return set(range(os.cpu_count() or 1))


def _current_cpu():
    """The CPU the calling thread last ran on, or None where the kernel
    does not say (field 39 of ``/proc/thread-self/stat``)."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _pin_off(cpu):
    """Pin the calling thread, the helper, off ``cpu``, the CPU of the
    thread whose post started it: under a cpuset without load balancing a
    new thread stays on its creator's CPU, and two blocks on one CPU take
    as long as one product."""
    try:
        os.sched_setaffinity(0, _cpus() - {cpu})
    except (AttributeError, OSError, ValueError):
        pass  # left where it started; raised, it would break the pool


# "helper": the one-worker pool of ``_both``, built at the first post; a
# forked child starts with none, so it never waits on its parent's thread
_POOL = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL.clear)


def _both(mine, theirs):
    """Run ``mine`` here and ``theirs`` on the helper, or here too if the
    helper has not started it; an error of either is raised here.

    The helper computes the second block of each split product, and forms
    and places viscous blocks beside the caller while an operator is
    assembled.  The blocks it forms are freed into its own malloc arena,
    whose free pages the assembly returns to the system.  A helper that is
    late never holds the caller up, and jobs posted by several threads at
    once each run whole; one that loses its CPU mid-job holds the caller up
    by what it has started: one row block of a product, or one viscous
    block or piece of K.
    """
    pool = _POOL.get("helper")
    if pool is None:
        # two first posts may each build a pool: setdefault keeps one, and
        # the other, never posted to, starts no thread
        pool = _POOL.setdefault("helper", ThreadPoolExecutor(
            1, "stokesgreen-helper", initializer=_pin_off, initargs=(_current_cpu(),)))
    job = pool.submit(theirs)
    try:
        mine()
    finally:
        taken_back = job.cancel()  # the helper has not started it
        error = None if taken_back else job.exception()  # waits for the helper
        job = None  # it holds the error, whose traceback will hold this frame
    if taken_back:
        theirs()
    elif error is not None:
        try:
            raise error
        finally:
            error = None  # so no cycle runs through this frame


def _split_row(K):
    """The row that splits K's stored entries in half."""
    return int(np.searchsorted(K.indptr, K.nnz // 2))


def _split_matvec(K, row, v):
    """K @ v for a CSR ``K`` as the row blocks ``[0, row)``, computed
    here, and ``[row, n)``, computed on the helper thread, written into
    one output.  Each row is summed as SciPy's CSR product sums it, so
    the result equals ``K @ v`` bit for bit."""
    n, m = K.shape
    indptr, indices, data = K.indptr, K.indices, K.data
    out = np.zeros(n)

    def block(a, b):
        return lambda: _csr_matvec(b - a, m, indptr[a : b + 1], indices, data, v, out[a:b])

    _both(block(0, row), block(row, n))
    return out


def _product(K):
    """K·v for the Krylov loop: split in two row blocks when K is a CSR
    matrix (float64, as assembled) of at least ``SPLIT_NNZ`` stored
    entries and the process may run on more than one CPU, otherwise
    ``K @ v``."""
    if sp.issparse(K) and K.format == "csr" and K.nnz >= SPLIT_NNZ and len(_cpus()) > 1:
        row = _split_row(K)
        return lambda v: _split_matvec(K, row, v)
    return lambda v: K @ v


def _lgmres_cycle(x, beta, ptol, workspace, kept, inner_m, matvec, psolve):
    """One inner GMRES cycle of LGMRES from ``V[0]``, the unit preconditioned
    residual of norm ``beta``.  Adds the correction dx to x and returns the
    inner residual reached (relative to beta), or None if it is not finite.

    ``workspace`` is ``(V, Z, MKZ)``: the Arnoldi basis, and the
    augmentation pairs (dx, M K dx) / |dx| of the last ``OUTER_K`` cycles in
    the slots listed oldest first in ``kept``, plus one spare slot.  The
    basis is orthogonalized by modified Gram-Schmidt, one BLAS dot and axpy
    per row; the least-squares problem is updated by Givens rotations.
    """
    V, Z, MKZ = workspace
    m = inner_m + len(kept)
    H = np.zeros((m + 1, m))  # the Hessenberg matrix, kept for M K dx
    R = np.zeros((m, m))  # its triangular factor under the rotations
    g = np.zeros(m + 1)  # the rotated first unit vector
    g[0] = 1.0
    rot = []
    for j in range(m):
        if j < inner_m:
            w = psolve(matvec(V[j]))
        else:  # the augmentation vectors follow the Krylov vectors
            w = V[j + 1]
            w[:] = MKZ[kept[j - inner_m]]
        wnorm = _nrm2(w)
        h = H[: j + 2, j]
        for i in range(j + 1):
            h[i] = _dot(V[i], w)
            _axpy(V[i], w, a=-h[i])
        h[j + 1] = _nrm2(w)
        # w is (numerically) in the span of the basis, or not finite
        breakdown = not h[j + 1] > EPS * wnorm
        with np.errstate(over="ignore", divide="ignore"):
            alpha = 1.0 / h[j + 1]
        if np.isfinite(alpha):
            np.multiply(w, alpha, out=V[j + 1])
        else:
            V[j + 1] = w
        del w  # so the next step's applications are the only temporaries
        col = h.tolist()
        for i, (c, s) in enumerate(rot):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        d = math.hypot(col[j], col[j + 1])
        c, s = (col[j] / d, col[j + 1] / d) if d else (1.0, 0.0)
        rot.append((c, s))
        col[j] = d
        R[: j + 1, j] = col[: j + 1]
        g[j + 1], g[j] = -s * g[j], c * g[j]
        res = abs(g[j + 1])
        if res < ptol or breakdown:
            break
    k = j + 1
    if not np.isfinite(R[j, j]):
        return None
    # lstsq, as SciPy: R may be singular after a breakdown
    y = lstsq(R[:k, :k], g[:k], check_finite=False)[0] * beta
    if not np.isfinite(y).all():
        return None
    nk = min(k, inner_m)
    free = next(slot for slot in range(len(Z)) if slot not in kept)
    dx = Z[free]
    np.dot(y[:nk], V[:nk], out=dx)
    for slot, c in zip(kept, y[nk:]):
        _axpy(Z[slot], dx, a=c)
    x += dx
    nx = _nrm2(dx)
    if nx > 0:
        np.dot(H[: k + 1, :k] @ y, V[: k + 1], out=MKZ[free])
        dx /= nx
        MKZ[free] /= nx
        kept.append(free)
        del kept[:-OUTER_K]
    return res


# ---------------------------------------------------------------------------
# public data types


@dataclass
class Field:
    """A discrete velocity/pressure pair on the included cells."""

    u: np.ndarray  # (3, ncells)
    p: np.ndarray  # (ncells,)


@dataclass
class SolveReport:
    iterations: int  # preconditioner applications
    residual: float  # true relative residual of the returned solution
    grad_norm: float
    p_norm: float
    energy_quotient: float | None
    stab_slack: float
    # the Krylov run: true relative residual at each outer-cycle start (the
    # last is ``residual``), outer cycles, K matvecs and the seconds spent
    # in K, in the preconditioner and in the rest of the solve
    history: list = dc_field(default_factory=list)
    cycles: int = 0
    matvecs: int = 0
    matvec_s: float = 0.0
    prec_s: float = 0.0
    krylov_s: float = 0.0


@dataclass
class SaddleSystem:
    """An assembled operator with one concrete right-hand side."""

    operator: ConormalOperator
    rhs: np.ndarray
    data_norms: dict = dc_field(default_factory=dict)
    mean_projection: float = 0.0


# ---------------------------------------------------------------------------
# assembly and solves


def _cellwise(domain, val, vector=False):
    nc = domain.ncells
    if val is None:
        return np.zeros((DIM, nc)) if vector else np.zeros(nc)
    arr = np.asarray(val, dtype=float)
    want = (DIM, nc) if vector else (nc,)
    if arr.shape != want:
        raise GeometryError(f"data shape {arr.shape} does not match cells {want}")
    return arr


def lp_norm(domain, values, p, cells=slice(None)):
    """Cellwise midpoint-quadrature L_p norm, over the given cells."""
    v = np.abs(np.asarray(values, dtype=float)[cells])
    return float((domain.h**3 * np.sum(v**p)) ** (1.0 / p))


def assemble(op, f=None, g=None):
    """Assemble the weak-form system of the operator for data (f, g).

    ``f`` is a cellwise vector (3, ncells) projected to mean zero (the
    projection magnitude is reported); ``g`` is a cellwise scalar.  No
    boundary rows are modified: the conormal condition is natural in the
    weak form.
    """
    domain = op.domain
    nc = domain.ncells
    h3 = domain.h**3
    fv = _cellwise(domain, f, vector=True)
    gv = _cellwise(domain, g)
    means = fv.mean(axis=1)
    ftil = fv - means[:, None]
    rhs = np.zeros(op.ntot)
    for i in range(DIM):
        rhs[i * nc : (i + 1) * nc] = -h3 * ftil[i]
    rhs[op.nu : op.nu + nc] = h3 * gv
    data_norms = {
        "f_L6over5": lp_norm(domain, np.sqrt((ftil**2).sum(axis=0)), 1.2),
        "g_L2": lp_norm(domain, gv, 2),
    }
    return SaddleSystem(
        operator=op,
        rhs=rhs,
        data_norms=data_norms,
        mean_projection=float(np.abs(means).max()),
    )


def solve_conormal(system, tol=DEFAULT_TOL, max_iter=None, x0=None):
    """Solve the assembled conormal problem; returns (Field, SolveReport)."""
    op = system.operator
    x, info = op.solve(system.rhs, tol=tol, max_iter=max_iter, x0=x0)
    nc = op.nc
    u = x[: op.nu].reshape(DIM, nc).copy()
    p = x[op.nu : op.nu + nc].copy()
    u -= u.mean(axis=1, keepdims=True)  # constants are in the operator kernel
    dom = op.domain
    slack = lp_norm(dom, (op.C @ p) / dom.h**3, 2)
    grad = np.sqrt(op.ops.grad_energy_sq(u))
    pn = lp_norm(dom, p, 2)
    denom = sum(system.data_norms.values())
    quotient = (grad + pn) / denom if denom > 0 else None
    report = SolveReport(
        grad_norm=grad,
        p_norm=pn,
        energy_quotient=quotient,
        stab_slack=slack,
        **info,
    )
    return Field(u=u, p=p), report


@dataclass
class DivergenceSolution:
    u: np.ndarray  # (3, ncells) velocity with div u = g
    quotient: float  # ||Du|| / ||g||
    div_residual: float  # ||div u - g||
    sweeps: int
    div_target: float  # div_tol ||g||
    converged: bool  # div_residual <= div_target


def solve_divergence(domain, g, tol=DEFAULT_TOL, div_tol=1e-8, max_sweeps=16):
    """Minimal-energy velocity with prescribed divergence (mean-zero g).

    Solves the identity-coefficient conormal system with data (0, 0, g) on
    ``shared_operator(domain, constant_identity(domain))``, so a caller
    holding the domain's identity operator at the default ``c_s`` lends it
    and nothing is assembled; the stabilization pollution of ``div u`` is
    removed by correction sweeps on the constraint data until
    ``||div u - g|| <= div_tol ||g||`` or the reduction stalls.
    ``converged`` records whether that bound held.
    """
    from .coefficients import constant_identity

    gv = _cellwise(domain, g)
    gnorm = lp_norm(domain, gv, 2)
    if gnorm == 0:
        return DivergenceSolution(np.zeros((DIM, domain.ncells)), 0.0, 0.0, 0, 0.0, True)
    if abs(gv.mean()) * domain.volume > COMPAT_REL * gnorm:
        raise CompatibilityError(
            f"divergence data must have zero mean: |(g)| = {abs(gv.mean()):.3e}"
        )
    op = shared_operator(domain, constant_identity(domain))
    ops = op.ops
    g_in = gv.copy()
    x0 = None
    best = None
    prev = np.inf
    for sweep in range(max_sweeps):
        x, _ = op.solve(assemble(op, g=g_in).rhs, tol=tol, x0=x0)
        u = x[: op.nu].reshape(DIM, -1)
        u -= u.mean(axis=1, keepdims=True)  # constants are in the operator kernel
        div = ops.divergence(u)
        resid = lp_norm(domain, div - gv, 2)
        if best is None or resid < best[0]:
            best = (resid, u, sweep + 1)
        if resid <= div_tol * gnorm or resid > 0.97 * prev:  # done or stalling
            break
        prev = resid
        g_in = g_in + (gv - div)
        x0 = np.concatenate([u.ravel(), x[op.nu : op.nu + op.nc], np.zeros(DIM)])
    resid, u, sweeps = best
    quotient = np.sqrt(ops.grad_energy_sq(u)) / gnorm
    target = div_tol * gnorm
    return DivergenceSolution(u, float(quotient), float(resid), sweeps,
                              float(target), bool(resid <= target))


def poincare_constant(domain, probes=8, seed=0):
    """Lower bound for the Poincare-Sobolev constant of the domain.

    Maximizes ``||phi||_L6 / ||D phi||_L2`` over mean-zero probe fields:
    the three coordinate functions first, then seeded random quadratic
    polynomials.  The probe family is nested in the probe count.
    """
    probes = int(probes)
    if probes < 1:
        raise GeometryError("at least one probe is required")
    ops = grid_operators(domain)
    centers = domain.cell_centers
    xc = centers - centers.mean(axis=0)
    rng = np.random.default_rng(seed)
    best = 0.0
    ext = max(domain.extent)
    for k in range(probes):
        if k < DIM:
            phi = xc[:, k].copy()
        else:
            coef = rng.standard_normal(9)
            x, y, z = (xc / ext).T
            phi = (
                coef[0] * x + coef[1] * y + coef[2] * z
                + coef[3] * x * y + coef[4] * y * z + coef[5] * x * z
                + coef[6] * x * x + coef[7] * y * y + coef[8] * z * z
            )
        phi = phi - phi.mean()
        grad_sq = ops.grad_energy_sq(phi[None])
        if grad_sq <= 1e-28:
            continue  # constant probe: mean-zero forces phi == 0
        quotient = lp_norm(domain, phi, 6) / np.sqrt(grad_sq)
        best = max(best, float(quotient))
    return best
