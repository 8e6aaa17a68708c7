"""Approximated Green functions and their cross-pole identities.

The approximated Green function at pole y with smoothing radius eps is the
triple of conormal solves with data ``f = Phi_{eps,y} e_k``, where Phi is
the characteristic-function mollifier (minus the averaged indicator of the
eps-ball around the pole, plus the global background making the data
mean-free).  The adjoint pair solves the same problem with the adjoint
coefficients, which yields the exact transpose of the discrete operator;
symmetry, averaging, and representation identities are checked against the
solver tolerance and as refinement trends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CompatibilityError,
    DomainError,
    GeometryError,
    ResolutionError,
    SeparationError,
)
from .system import (
    COMPAT_REL,
    DEFAULT_TOL,
    DIM,
    SolveReport,
    assemble,
    grid_operators,
    lp_norm,
    shared_operator,
    solve_conormal,
)

D_EXP = (2.0 - DIM) / (2.0 * DIM)  # exponent in the energy bound |Omega_eps|^((2-d)/2d)
# check_green_invariants: the divergence floor, and the column-mean bound
# relative to max |G|
INVARIANT_DIV_TOL = 1e-8
INVARIANT_MEAN_TOL = 1e-10


@dataclass
class MollifiedSource:
    """Cellwise mollified point-source data for one pole."""

    phi: np.ndarray
    y: np.ndarray  # snapped pole (a cell center)
    y_requested: np.ndarray
    snap_distance: float
    eps: float
    omega_eps: float


def mollified_rhs(domain, y, eps):
    """Characteristic-function mollifier of the unit point mass at y.

    Phi = -|Omega_eps(y)|^-1 on cells of Omega_eps(y) plus |Omega|^-1
    everywhere; exactly mean-free in cell arithmetic.  The pole snaps to
    the nearest included cell center (snap distance at most h sqrt(3)/2).
    """
    y_req = np.asarray(y, dtype=float)
    if not (0 < eps <= 1):
        raise ResolutionError(f"eps must lie in (0, 1], got {eps}")
    if eps < 2 * domain.h:
        raise ResolutionError(f"eps = {eps} is below the resolvable 2h = {2 * domain.h}")
    if not domain.contains(y_req):
        raise DomainError(f"pole {y_req.tolist()} is outside the domain")
    # the one center, not a row of ``cell_centers``: a view of that row
    # would keep the whole (ncells, 3) array alive with the Green pair
    y_snap = (domain.cell_ijk[domain.nearest_cell(y_req)] + 0.5) * domain.h
    ball = domain.cells_in_ball(y_snap, eps)
    omega_eps = len(ball) * domain.h**3
    phi = np.full(domain.ncells, 1.0 / domain.volume)
    phi[ball] -= 1.0 / omega_eps
    return MollifiedSource(
        phi=phi,
        y=y_snap,
        y_requested=y_req,
        snap_distance=float(np.linalg.norm(y_snap - y_req)),
        eps=float(eps),
        omega_eps=float(omega_eps),
    )


@dataclass
class GreenApprox:
    """The pair (G_eps(., y), Pi_eps(., y)) on the included cells.

    ``G[j, k]`` is component j of the column solving the problem with unit
    direction k; ``Pi[k]`` is the matching pressure row entry.
    """

    y: np.ndarray
    y_requested: np.ndarray
    snap_distance: float
    eps: float
    omega_eps: float
    G: np.ndarray  # (3, 3, ncells)
    Pi: np.ndarray  # (3, ncells)
    reports: list
    adjoint: bool = False

    def magnitude(self):
        """Pointwise Frobenius norm |G(x, y)| per cell."""
        return np.sqrt(np.einsum("jkc,jkc->c", self.G, self.G))

    def pressure_magnitude(self):
        return np.sqrt(np.einsum("kc,kc->c", self.Pi, self.Pi))

    def grad_magnitude(self, domain):
        """Pointwise Frobenius norm of the centered gradient |D_x G|."""
        return np.sqrt(grid_operators(domain).grad_sq(self.G))

    def value_at(self, domain, x):
        """The 3x3 matrix G(x, y) at the cell center nearest to x."""
        cid = domain.nearest_cell(x)
        return self.G[:, :, cid].copy()

    def column_divergence(self, domain):
        ops = grid_operators(domain)
        return np.array(
            [lp_norm(domain, ops.divergence(self.G[:, k, :]), 2) for k in range(DIM)]
        )

    def column_means(self, domain):
        return np.array([
            np.abs(self.G[:, k, :].mean(axis=1)).max() for k in range(DIM)
        ])

    def energy_envelope(self):
        """C-hat = (||DG|| + ||Pi||) * |Omega_eps|^((d-2)/2d), d = 3."""
        total = sum(r.grad_norm + r.p_norm for r in self.reports)
        return total * self.omega_eps ** (-D_EXP)

    def export(self, path, extra_meta=None):
        """Flat binary: 12 doubles per cell (G row-major, then Pi)."""
        path = Path(path)
        nc = self.G.shape[2]
        dense = np.concatenate(
            [self.G.reshape(9, nc), self.Pi.reshape(3, nc)], axis=0
        ).T
        path.write_bytes(np.ascontiguousarray(dense).tobytes())
        meta = {
            "y": self.y.tolist(),
            "y_requested": self.y_requested.tolist(),
            "snap_distance": self.snap_distance,
            "eps": self.eps,
            "omega_eps": self.omega_eps,
            "adjoint": self.adjoint,
            "solver": [
                {"iterations": r.iterations, "residual": r.residual,
                 "stab_slack": r.stab_slack, "grad_norm": r.grad_norm,
                 "p_norm": r.p_norm}
                for r in self.reports
            ],
        }
        if extra_meta:
            meta.update(extra_meta)
        path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=1))

    @classmethod
    def import_file(cls, path, domain):
        path = Path(path)
        meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        nc = domain.ncells
        dense = np.frombuffer(path.read_bytes(), dtype=float).reshape(nc, 12).T
        reports = [
            SolveReport(
                iterations=r["iterations"], residual=r["residual"],
                grad_norm=r.get("grad_norm", 0.0), p_norm=r.get("p_norm", 0.0),
                energy_quotient=None, stab_slack=r["stab_slack"],
            )
            for r in meta["solver"]
        ]
        return cls(
            y=np.array(meta["y"]),
            y_requested=np.array(meta["y_requested"]),
            snap_distance=meta["snap_distance"],
            eps=meta["eps"],
            omega_eps=meta["omega_eps"],
            G=dense[:9].reshape(DIM, DIM, nc).copy(),
            Pi=dense[9:].reshape(DIM, nc).copy(),
            reports=reports,
            adjoint=meta.get("adjoint", False),
        )


def compute_green(domain, coeffs, y, eps, tol=DEFAULT_TOL, operator=None):
    """Approximated Green function (G_eps(., y), Pi_eps(., y)).

    Solves one conormal problem per unit direction with data
    ``f = Phi_{eps,y} e_k`` and no divergence source, on ``operator`` or,
    without one, on ``shared_operator(domain, coeffs)``.  Errors raised by
    a column solve are re-raised with the column index prefixed to their
    message and their attributes (a ``SolverError``'s residual) kept.
    """
    src = mollified_rhs(domain, y, eps)
    op = operator if operator is not None else shared_operator(domain, coeffs)
    nc = domain.ncells
    G = np.zeros((DIM, DIM, nc))
    Pi = np.zeros((DIM, nc))
    reports = [None] * DIM
    for k in range(DIM):
        f = np.zeros((DIM, nc))
        f[k] = src.phi
        system = assemble(op, f=f)
        try:
            field, report = solve_conormal(system, tol=tol)
        except Exception as exc:
            exc.args = (f"column {k + 1}: {exc}",)
            raise
        G[:, k, :] = field.u
        Pi[k] = field.p
        reports[k] = report
    return GreenApprox(
        y=src.y,
        y_requested=src.y_requested,
        snap_distance=src.snap_distance,
        eps=src.eps,
        omega_eps=src.omega_eps,
        G=G,
        Pi=Pi,
        reports=reports,
    )


def compute_adjoint_green(domain, coeffs, x, sigma, tol=DEFAULT_TOL, operator=None):
    """Approximated Green function of the adjoint operator at pole x.

    ``coeffs`` are the direct coefficients and ``operator`` is the adjoint
    operator; without one, it is ``shared_operator(domain,
    coeffs).adjoint()``, whose K is the direct K transposed.
    """
    op = operator if operator is not None else shared_operator(domain, coeffs).adjoint()
    out = compute_green(domain, op.coeffs, x, sigma, tol=tol, operator=op)
    out.adjoint = True
    return out


def check_green_invariants(domain, green):
    """Divergence-free columns, mean-zero normalization, finite envelope.

    Returns a dict with per-column measurements and an overall pass flag.
    The divergence tolerance is the larger of ``INVARIANT_DIV_TOL`` and the
    reported stabilization slack; column means are held to
    ``INVARIANT_MEAN_TOL`` times max |G|.
    """
    div = green.column_divergence(domain)
    slack = np.array([r.stab_slack for r in green.reports])
    means = green.column_means(domain)
    gmax = float(np.abs(green.G).max())
    div_ok = bool(np.all(div <= np.maximum(INVARIANT_DIV_TOL, slack * (1 + 1e-9)) + 1e-300))
    mean_ok = bool(np.all(means <= INVARIANT_MEAN_TOL * max(gmax, 1e-300)))
    return {
        "div_residuals": div,
        "stab_slack": slack,
        "col_means": means,
        "max_abs": gmax,
        "energy_envelope": green.energy_envelope(),
        "div_ok": div_ok,
        "mean_ok": mean_ok,
        "ok": div_ok and mean_ok,
    }


@dataclass
class CrossPoleCheck:
    """One cross-pole identity: ||a - b|| / max(||a||, ||b||) of its two
    3x3 sides."""

    discrepancy: float


def _cross_pole_check(name, direct, adjoint, a, b):
    # the second pair must be adjoint-side, and the averaging region around
    # x must stay clear of the mollifier at y: a half-(eps+sigma) gap beyond
    # the touching distance
    if not adjoint.adjoint:
        raise GeometryError(f"{name} check needs an adjoint-side GreenApprox")
    gap = float(np.linalg.norm(adjoint.y - direct.y))
    need = 1.5 * (direct.eps + adjoint.eps)
    if gap + 1e-12 < need:
        raise SeparationError(
            f"poles are {gap:.4g} apart; the check requires at least "
            f"1.5 (eps + sigma) = {need:.4g}"
        )
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return CrossPoleCheck(float(np.linalg.norm(a - b) / scale) if scale > 0 else 0.0)


def averaging_identity_check(domain, direct, adjoint):
    """Compare G*_sigma(y, x) with the sigma-average of G_eps(., y)^T.

    The identity is exact only in the eps -> 0 limit; callers sweep eps and
    watch the trend, sharing one adjoint GreenApprox at pole x.
    """
    ball = domain.cells_in_ball(adjoint.y, adjoint.eps)
    return _cross_pole_check("averaging", direct, adjoint,
                             adjoint.value_at(domain, direct.y),  # G*_sigma(y, x)
                             direct.G[:, :, ball].mean(axis=2).T)  # avg of G_eps(z, y)^T


def symmetry_check(domain, direct, adjoint):
    """Compare G_eps(x, y) against G*_sigma(y, x)^T at nearest cell centers."""
    return _cross_pole_check("symmetry", direct, adjoint,
                             direct.value_at(domain, adjoint.y),
                             adjoint.value_at(domain, direct.y).T)


@dataclass
class RepresentationCheck:
    error_avg: float  # duality form: u averaged over Omega_eps(y)
    error_point: float  # continuum form: u at the snapped pole cell
    predicted: np.ndarray
    u_max: float


def representation_check(domain, coeffs, green, f=None, g=None, tol=DEFAULT_TOL,
                         adjoint_operator=None):
    """Reproduce the adjoint-problem solution from the Green pair.

    Solves the adjoint conormal problem with data (f, g) (f mean-zero,
    bounded) on ``adjoint_operator`` or, without one, on
    ``shared_operator(domain, coeffs).adjoint()``, the transpose of the
    direct operator, and compares ``u`` near the pole against
    ``-int G^T f + int Pi^T g``.  With a shared discrete operator the
    eps-averaged form is exact up to solver tolerance; the pointwise form
    carries the averaging error and is checked as a refinement trend.
    """
    nc = domain.ncells
    h3 = domain.h**3
    fv = np.zeros((DIM, nc)) if f is None else np.asarray(f, dtype=float)
    gv = np.zeros(nc) if g is None else np.asarray(g, dtype=float)
    fnorm = np.sqrt(h3 * np.sum(fv**2))
    if fnorm > 0 and abs(fv.mean(axis=1)).max() * domain.volume > COMPAT_REL * fnorm:
        raise CompatibilityError("representation data f must be mean-zero")
    op = adjoint_operator
    if op is None:
        op = shared_operator(domain, coeffs).adjoint()
    field, _ = solve_conormal(assemble(op, f=fv, g=gv), tol=tol)

    predicted = np.empty(DIM)
    for k in range(DIM):
        predicted[k] = -h3 * np.einsum("jc,jc->", green.G[:, k, :], fv) + h3 * np.dot(
            green.Pi[k], gv
        )
    ball = domain.cells_in_ball(green.y, green.eps)
    u_avg = field.u[:, ball].mean(axis=1)
    u_point = field.u[:, domain.nearest_cell(green.y)]
    umax = float(np.abs(field.u).max())
    scale = max(umax, 1e-300)
    return RepresentationCheck(
        error_avg=float(np.abs(u_avg - predicted).max() / scale),
        error_point=float(np.abs(u_point - predicted).max() / scale),
        predicted=predicted,
        u_max=umax,
    )


@dataclass
class EpsilonConvergenceRow:
    eps_coarse: float
    eps_fine: float
    diff_l2_annulus: float
    diff_l1_ball: float


@dataclass
class EpsilonConvergenceTable:
    rows: list
    greens: list
    monotone_annulus: bool


def epsilon_convergence(domain, coeffs, y, eps_list, R, tol=DEFAULT_TOL, operator=None):
    """Cauchy table for the eps sweep of approximated Green functions.

    For consecutive eps values, measures ||G_i - G_j|| in L2 away from the
    pole ball B_R(y) and in L1 inside it, flagging non-Cauchy growth.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e2 > e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ResolutionError("eps list must be non-increasing")
    if min(eps_list) < 2 * domain.h:
        raise ResolutionError("smallest eps is below the resolvable 2h")
    if not R > 2 * max(eps_list):
        raise ResolutionError("annulus radius R must exceed twice the largest eps")
    op = operator if operator is not None else shared_operator(domain, coeffs)
    greens = [compute_green(domain, coeffs, y, e, tol=tol, operator=op) for e in eps_list]
    ball = domain.cells_in_ball(greens[0].y, R)
    inside = np.zeros(domain.ncells, dtype=bool)
    inside[ball] = True
    h3 = domain.h**3
    rows = []
    for g1, g2 in zip(greens, greens[1:]):
        diff = g1.G - g2.G
        mag = np.sqrt(np.einsum("jkc,jkc->c", diff, diff))
        rows.append(
            EpsilonConvergenceRow(
                eps_coarse=g1.eps,
                eps_fine=g2.eps,
                diff_l2_annulus=float(np.sqrt(h3 * np.sum(mag[~inside] ** 2))),
                diff_l1_ball=float(h3 * np.sum(mag[inside])),
            )
        )
    diffs = [r.diff_l2_annulus for r in rows]
    monotone = all(b <= a * 1.2 for a, b in zip(diffs, diffs[1:]))
    return EpsilonConvergenceTable(rows=rows, greens=greens, monotone_annulus=monotone)
