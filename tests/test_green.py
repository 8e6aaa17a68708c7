import numpy as np
import pytest

from stokesgreen.coefficients import CoefficientField, identity_tensor
from stokesgreen.domain import build_box, center_pole
from stokesgreen.errors import (
    CompatibilityError,
    DomainError,
    GeometryError,
    ResolutionError,
    SeparationError,
    SolverError,
)
from stokesgreen.green import (
    GreenApprox,
    averaging_identity_check,
    check_green_invariants,
    compute_adjoint_green,
    compute_green,
    epsilon_convergence,
    mollified_rhs,
    representation_check,
    symmetry_check,
)
from stokesgreen.kernels import normalized_stokeslet, oseen_tensor


def nonsymmetric_field(domain):
    A = identity_tensor(1.0)
    A[0, 1, 0, 2] = 0.25  # breaks A^{ab}_{ij} = A^{ba}_{ji}
    return CoefficientField(domain.shape, domain.h, A[None],
                            np.zeros(domain.ncells, dtype=np.int32), lam=0.25)


# -- mollified source ---------------------------------------------------------


def test_mollifier_mean_zero_exact(box16):
    domain, _, _ = box16
    src = mollified_rhs(domain, (0.53, 0.47, 0.51), 0.2)
    assert abs(np.sum(src.phi) * domain.h**3) <= 1e-12
    assert src.snap_distance <= domain.h * np.sqrt(3) / 2


def test_mollifier_covers_domain_gives_zero(box16):
    domain, _, _ = box16
    src = mollified_rhs(domain, (0.5, 0.5, 0.5), 1.0)
    assert np.allclose(src.phi, 0.0, atol=1e-14)


def test_mollifier_min_value_against_cell_count():
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 32)
    src = mollified_rhs(domain, (0.5, 0.5, 0.5), 1.0 / 8)
    analytic_ball = 4.0 / 3.0 * np.pi * (1.0 / 8) ** 3
    assert src.phi.min() == pytest.approx(-1.0 / analytic_ball + 1.0, rel=0.05)
    assert src.omega_eps == pytest.approx(analytic_ball, rel=0.05)


def test_mollifier_preconditions(box16):
    domain, _, _ = box16
    with pytest.raises(ResolutionError):
        mollified_rhs(domain, (0.5, 0.5, 0.5), domain.h)
    with pytest.raises(DomainError):
        mollified_rhs(domain, (1.5, 0.5, 0.5), 0.25)
    with pytest.raises(ResolutionError):
        mollified_rhs(domain, (0.5, 0.5, 0.5), 1.5)


# -- Green construction ---------------------------------------------------------


def test_green_zero_when_mollifier_covers_domain(box16):
    domain, coeffs, op = box16
    green = compute_green(domain, coeffs, (0.5, 0.5, 0.5), 1.0, operator=op)
    assert np.all(green.G == 0.0)
    assert np.all(green.Pi == 0.0)


def test_green_invariants_hold(box16):
    domain, coeffs, op = box16
    green = compute_green(domain, coeffs, (0.53, 0.47, 0.51), 0.25, operator=op)
    inv = check_green_invariants(domain, green)
    assert inv["ok"]
    assert np.all(inv["div_residuals"] <= np.maximum(1e-8, inv["stab_slack"] * 1.001))
    assert np.all(inv["col_means"] <= 1e-10 * inv["max_abs"])
    assert np.isfinite(inv["energy_envelope"])


def test_green_column_error_keeps_solver_details(box8):
    # 1e-17 is below what any float solve reaches
    domain, coeffs, op = box8
    with pytest.raises(SolverError) as info:
        compute_green(domain, coeffs, (0.5, 0.5, 0.5), 0.25, tol=1e-17, operator=op)
    exc = info.value
    assert str(exc).startswith("column 1: lgmres stalled")
    assert exc.best_residual is not None and 0.0 < exc.best_residual < 1e-12
    assert exc.iterations is not None and exc.iterations > 0


def test_green_near_pole_matches_normalized_stokeslet(suite, green32):
    # oracle: closed-form Stokeslet shifted to the mean-zero normalization
    domain = suite.pipeline(32).domain
    h = domain.h
    ref = normalized_stokeslet(domain, green32.y)
    dist = np.linalg.norm(domain.cell_centers - green32.y, axis=1)
    sel = np.abs(dist - 6 * h) <= 0.6 * h
    num = green32.G[:, :, sel]
    ana = ref[sel].transpose(1, 2, 0)
    err = np.linalg.norm((num - ana).reshape(9, -1), axis=0)
    scale = np.linalg.norm(ana.reshape(9, -1), axis=0)
    assert np.max(err / scale) <= 0.20


def test_raw_stokeslet_misses_normalization(suite, green32):
    # without the mean shift the raw kernel overestimates the field
    domain = suite.pipeline(32).domain
    h = domain.h
    rel = domain.cell_centers - green32.y
    dist = np.linalg.norm(rel, axis=1)
    sel = np.abs(dist - 6 * h) <= 0.6 * h
    raw = oseen_tensor(rel[sel]).transpose(1, 2, 0)
    num = green32.G[:, :, sel]
    err = np.linalg.norm((num - raw).reshape(9, -1)) / np.linalg.norm(raw)
    assert err > 0.20


def test_adjoint_green_equals_direct_for_identity(box8):
    domain, coeffs, op = box8
    y = (0.44, 0.56, 0.52)
    direct = compute_green(domain, coeffs, y, 0.3, operator=op)
    adj = compute_adjoint_green(domain, coeffs, y, 0.3)
    assert adj.adjoint
    assert np.abs(direct.G - adj.G).max() <= 1e-7 * np.abs(direct.G).max()


def test_adjoint_green_differs_for_nonsymmetric_coefficients():
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 6)
    coeffs = nonsymmetric_field(domain)
    y = (0.42, 0.58, 0.5)
    direct = compute_green(domain, coeffs, y, 0.4, tol=1e-10)
    adj = compute_adjoint_green(domain, coeffs, y, 0.4, tol=1e-10)
    rel = np.abs(direct.G - adj.G).max() / np.abs(direct.G).max()
    assert rel > 1e-3


def test_readme_quick_start_assembles_once(monkeypatch):
    # the README sequence holds one shared operator for the direct and the
    # adjoint pair; two calls with operator=None would assemble twice
    from stokesgreen import system
    from stokesgreen.coefficients import constant_identity

    built, operator_class = [], system.ConormalOperator

    def counted(*args):
        built.append(args)
        return operator_class(*args)

    monkeypatch.setattr(system, "ConormalOperator", counted)
    domain = build_box((1.0, 1.0, 1.0), h=1.0 / 8)
    coeffs = constant_identity(domain)
    op = system.shared_operator(domain, coeffs)
    green = compute_green(domain, coeffs, y=(0.8125, 0.8125, 0.5625), eps=2 / 8,
                          operator=op)
    adjoint = compute_adjoint_green(domain, coeffs, x=(0.1875, 0.1875, 0.5625),
                                    sigma=2 / 8, operator=op.adjoint())
    assert np.isfinite(symmetry_check(domain, green, adjoint).discrepancy)
    assert len(built) == 1


# -- cross-pole identities -------------------------------------------------------


def test_separation_guard(box16):
    domain, coeffs, op = box16
    y = (0.4, 0.5, 0.5)
    gd = compute_green(domain, coeffs, y, 0.25, operator=op)
    ga = compute_adjoint_green(domain, coeffs, (0.6, 0.5, 0.5), 0.25)
    with pytest.raises(SeparationError):
        symmetry_check(domain, gd, ga)
    with pytest.raises(SeparationError):
        averaging_identity_check(domain, gd, ga)


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))


def test_cross_pole_checks_measure_the_relative_gap_at_the_snapped_poles(box16):
    domain, coeffs, op = box16
    gd = compute_green(domain, coeffs, (0.22, 0.47, 0.46), 0.125, operator=op)
    ga = compute_adjoint_green(domain, coeffs, (0.72, 0.46, 0.47), 0.125,
                               operator=op.adjoint())
    at_x, at_y = domain.nearest_cell(ga.y), domain.nearest_cell(gd.y)
    averaged = gd.G[:, :, domain.cells_in_ball(ga.y, ga.eps)].mean(axis=2).T
    assert symmetry_check(domain, gd, ga).discrepancy == _relative_gap(
        gd.G[:, :, at_x], ga.G[:, :, at_y].T)
    assert averaging_identity_check(domain, gd, ga).discrepancy == _relative_gap(
        ga.G[:, :, at_y], averaged)


def test_cross_pole_checks_reject_a_direct_side_pair(box16):
    domain, coeffs, op = box16
    gd = compute_green(domain, coeffs, (0.21875, 0.46875, 0.46875), 0.125, operator=op)
    gx = compute_green(domain, coeffs, (0.71875, 0.46875, 0.46875), 0.125, operator=op)
    for name, check in (("symmetry", symmetry_check), ("averaging", averaging_identity_check)):
        with pytest.raises(GeometryError, match=f"^{name} check needs an adjoint-side"):
            check(domain, gd, gx)


def test_symmetry_discrepancy_symmetric_under_swap(box16):
    domain, coeffs, _ = box16
    y, x = (0.21875, 0.46875, 0.46875), (0.71875, 0.46875, 0.46875)
    eps = 0.125
    d_y = compute_green(domain, coeffs, y, eps)
    a_x = compute_adjoint_green(domain, coeffs, x, eps)
    d_x = compute_green(domain, coeffs, x, eps)
    a_y = compute_adjoint_green(domain, coeffs, y, eps)
    s1 = symmetry_check(domain, d_y, a_x)
    s2 = symmetry_check(domain, d_x, a_y)
    assert s1.discrepancy == pytest.approx(s2.discrepancy, rel=1e-6)


def test_averaging_trend_over_eps(suite):
    pipe = suite.pipeline(32)
    domain, op = pipe.domain, pipe.operator
    h = domain.h
    y, x = (0.21875, 0.46875, 0.46875), (0.71875, 0.46875, 0.46875)
    adj = compute_adjoint_green(domain, op.coeffs, x, 2 * h,
                                operator=op.adjoint())
    discs = []
    for eps in (8 * h, 6 * h, 4 * h):
        gd = pipe.green(y, eps)
        discs.append(averaging_identity_check(domain, gd, adj).discrepancy)
    # decreasing with 20% non-monotonicity slack
    assert all(b <= a * 1.2 for a, b in zip(discs, discs[1:]))
    assert discs[-1] < discs[0]


# -- representation --------------------------------------------------------------


def test_representation_zero_data(box16):
    domain, coeffs, op = box16
    green = compute_green(domain, coeffs, (0.53, 0.47, 0.51), 0.25, operator=op)
    rc = representation_check(domain, coeffs, green)
    assert rc.error_avg == 0.0
    assert np.all(rc.predicted == 0.0)


def test_representation_requires_mean_zero_f(box16):
    domain, coeffs, op = box16
    green = compute_green(domain, coeffs, (0.53, 0.47, 0.51), 0.25, operator=op)
    f = np.ones((3, domain.ncells))
    with pytest.raises(CompatibilityError):
        representation_check(domain, coeffs, green, f=f)


def test_representation_duality_exact_to_solver_tol(box8):
    domain, coeffs, op = box8
    green = compute_green(domain, coeffs, (0.3125, 0.5625, 0.5625), 0.5,
                          operator=op, tol=1e-10)
    rng = np.random.default_rng(31)
    f = rng.standard_normal((3, domain.ncells))
    f -= f.mean(axis=1, keepdims=True)
    rc = representation_check(domain, coeffs, green, f=f, tol=1e-10)
    assert rc.error_avg <= 1e-7


def test_representation_pressure_term_alone(box8):
    domain, coeffs, op = box8
    green = compute_green(domain, coeffs, (0.3125, 0.5625, 0.5625), 0.5,
                          operator=op, tol=1e-10)
    c = domain.cell_centers
    g = np.sin(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 2])
    rc = representation_check(domain, coeffs, green, g=g, tol=1e-10)
    assert rc.error_avg <= 1e-7


# -- eps sweep --------------------------------------------------------------------


def test_epsilon_convergence_identical_eps_gives_zero(box16):
    domain, coeffs, op = box16
    h = domain.h
    table = epsilon_convergence(domain, coeffs, (0.53, 0.47, 0.51),
                                [4 * h, 4 * h], R=0.55, operator=op)
    assert table.rows[0].diff_l2_annulus == 0.0
    assert table.rows[0].diff_l1_ball == 0.0


def test_epsilon_convergence_preconditions(box16):
    domain, coeffs, op = box16
    h = domain.h
    with pytest.raises(ResolutionError):
        epsilon_convergence(domain, coeffs, (0.5, 0.5, 0.5), [4 * h, 8 * h],
                            R=0.6, operator=op)
    with pytest.raises(ResolutionError):
        epsilon_convergence(domain, coeffs, (0.5, 0.5, 0.5), [4 * h, h],
                            R=0.6, operator=op)
    with pytest.raises(ResolutionError):
        epsilon_convergence(domain, coeffs, (0.5, 0.5, 0.5), [8 * h, 4 * h],
                            R=0.5, operator=op)


def test_epsilon_convergence_trend(suite):
    # at 32^3 the successive annulus differences decrease over the sweep
    pipe = suite.pipeline(32)
    domain, op = pipe.domain, pipe.operator
    h = domain.h
    table = epsilon_convergence(domain, op.coeffs, center_pole(domain),
                                [8 * h, 4 * h, 2 * h], R=0.52, operator=op)
    diffs = [r.diff_l2_annulus for r in table.rows]
    assert diffs[1] < diffs[0]
    assert table.monotone_annulus


# -- export -----------------------------------------------------------------------


def test_green_export_import_roundtrip(tmp_path, box8):
    domain, coeffs, op = box8
    green = compute_green(domain, coeffs, (0.44, 0.56, 0.52), 0.3, operator=op)
    path = tmp_path / "green.bin"
    green.export(path)
    back = GreenApprox.import_file(path, domain)
    assert np.array_equal(back.G, green.G)
    assert np.array_equal(back.Pi, green.Pi)
    assert back.eps == green.eps
    assert np.array_equal(back.y, green.y)


@pytest.mark.parametrize("kind", ["ball", "lshape", "lshape-nonsym"])
def test_green_on_masked_domains(kind):
    # exercises the box-embedded DCT preconditioner and staircase faces,
    # with symmetric and nonsymmetric coefficients
    from conftest import direct_velocity, random_elliptic_tensor
    from stokesgreen.coefficients import constant_field, constant_identity
    from stokesgreen.domain import build_l_shape, build_voxel_ball
    from stokesgreen.system import ConormalOperator, assemble

    if kind == "ball":
        domain = build_voxel_ball(0.4, 1.0 / 12)
        pole = np.array(domain.extent) / 2
    else:
        domain = build_l_shape((1.0, 1.0, 1.0), ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)),
                               1.0 / 12)
        pole = np.array([0.3, 0.3, 0.3])
    if kind == "lshape-nonsym":
        tensor = random_elliptic_tensor(np.random.default_rng(0))
        assert np.all(tensor != 0)
        coeffs = constant_field(domain, tensor, 0.25)
    else:
        coeffs = constant_identity(domain)
    green = compute_green(domain, coeffs, pole, 3.0 / 12)
    inv = check_green_invariants(domain, green)
    assert inv["ok"]
    assert all(r.residual <= 1e-9 for r in green.reports)
    f = np.zeros((3, domain.ncells))
    f[0] = mollified_rhs(domain, pole, 3.0 / 12).phi
    op = ConormalOperator(domain, coeffs)
    direct = direct_velocity(op, assemble(op, f=f).rhs)
    assert np.abs(green.G[:, 0, :] - direct).max() <= 1e-8 * np.abs(direct).max()


def test_symmetric_layered_green_equals_adjoint():
    # L = L* whenever A^{ab} = (A^{ba})^T; layered scaled identities qualify
    from stokesgreen.coefficients import Frame, piecewise_in_direction

    domain = build_box((1.0, 1.0, 1.0), 1.0 / 12)
    profile = [(-1.0, identity_tensor(1.0)), (0.5, identity_tensor(0.5))]
    layered = piecewise_in_direction(domain, profile, Frame.identity(), 0.5)
    direct = compute_green(domain, layered, (0.53, 0.47, 0.51), 4.0 / 12)
    adj = compute_adjoint_green(domain, layered, (0.53, 0.47, 0.51), 4.0 / 12)
    assert np.abs(direct.G - adj.G).max() <= 1e-8 * np.abs(direct.G).max()


def test_nonsymmetric_coefficients_solve_via_lgmres():
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 12)
    A = identity_tensor(1.0)
    A[0, 1, 0, 2] = 0.3
    A[1, 2, 1, 0] = -0.2
    field = CoefficientField(domain.shape, domain.h, A[None],
                             np.zeros(domain.ncells, dtype=np.int32), 0.25)
    green = compute_green(domain, field, (0.5, 0.5, 0.5), 4.0 / 12)
    inv = check_green_invariants(domain, green)
    assert inv["ok"]
    assert all(r.residual <= 1e-9 for r in green.reports)


def test_green_import_preserves_energy_envelope(tmp_path, box8):
    domain, coeffs, op = box8
    green = compute_green(domain, coeffs, (0.44, 0.56, 0.52), 0.3, operator=op)
    path = tmp_path / "g.bin"
    green.export(path)
    back = GreenApprox.import_file(path, domain)
    assert back.energy_envelope() == pytest.approx(green.energy_envelope())
