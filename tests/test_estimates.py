import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesgreen import estimates as est
from stokesgreen.domain import build_box, dist_to_boundary
from stokesgreen.errors import (
    DataError,
    GeometryError,
    ParameterError,
    ResolutionError,
)
from stokesgreen.green import GreenApprox
from stokesgreen.kernels import normalized_stokeslet, oseen_tensor, stokeslet_pressure
from stokesgreen.system import lp_norm


def distribution_by_sorting(values, thresholds, h):
    """Exact level-set measures |{|v| > t}| via a sorted copy (oracle)."""
    v = np.sort(np.abs(np.asarray(values, dtype=float)))
    t = np.asarray(thresholds, dtype=float)
    counts = len(v) - np.searchsorted(v, t, side="right")
    return counts * h**3


@pytest.fixture(scope="module")
def stokeslet_field():
    """Raw Stokeslet magnitudes sampled at 32^3 cell centers, no PDE solve."""
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 32)
    y = np.array([0.515625] * 3)
    rel = domain.cell_centers - y
    mag = np.linalg.norm(oseen_tensor(rel).reshape(-1, 9), axis=1)
    mag[domain.nearest_cell(y)] = 0.0
    return domain, y, mag


class FixtureGreen:
    """Minimal GreenApprox stand-in for samples of an analytic kernel."""

    def __init__(self, domain, y, mag):
        self.y = np.asarray(y)
        self.eps = 2 * domain.h
        self._mag = mag

    def magnitude(self):
        return self._mag


# -- power-law fitting -----------------------------------------------------------


def test_fit_power_law_exact():
    radii = [0.1, 0.2, 0.4, 0.8]
    slope, intercept, resid = est.fit_power_law((r, 1.0 / r) for r in radii)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_noisy():
    radii = np.linspace(0.1, 1.0, 20)
    slope, _, _ = est.fit_power_law(
        (r, (1.0 / r) * (1 + 0.1 * np.sin(r))) for r in radii
    )
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_fit_power_law_collapses_duplicates():
    with pytest.raises(DataError):
        est.fit_power_law([(0.1, 1.0), (0.1, 1.1), (0.2, 0.5)])
    slope, _, _ = est.fit_power_law([(0.1, 1.0), (0.1, 1.0), (0.2, 0.5), (0.4, 0.25)])
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_power_law_rejects_nonpositive():
    with pytest.raises(DataError):
        est.fit_power_law([(0.1, 1.0), (0.2, -0.5), (0.4, 0.2)])


# -- decay fixture ----------------------------------------------------------------


def test_decay_slope_of_sampled_stokeslet_converges():
    slopes = {}
    for n in (32, 64):
        domain = build_box((1.0, 1.0, 1.0), 1.0 / n)
        y = np.full(3, (n // 2 + 0.5) / n)
        rel = domain.cell_centers - y
        mag = np.linalg.norm(oseen_tensor(rel).reshape(-1, 9), axis=1)
        mag[domain.nearest_cell(y)] = 0.0
        g = FixtureGreen(domain, y, mag)
        radii = [m / 32 for m in (4, 5, 6, 7, 8)]
        rep = est.decay_profile(domain, g, radii)
        slopes[n] = rep.fitted
        assert rep.passed  # within [-1.35, -0.65]
    assert abs(slopes[64] + 1) < abs(slopes[32] + 1)


def test_decay_zero_field_flags(stokeslet_field):
    domain, y, mag = stokeslet_field
    g = FixtureGreen(domain, y, np.zeros_like(mag))
    rep = est.decay_profile(domain, g, [0.125, 0.1875, 0.25])
    assert not rep.passed
    assert "no decay measurable" in rep.flags


def test_decay_empty_shell_raises(stokeslet_field):
    domain, y, mag = stokeslet_field
    g = FixtureGreen(domain, y, mag)
    with pytest.raises(ResolutionError):
        est.decay_profile(domain, g, [2.5])


# -- weak type ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_weak_type_equals_sorting_oracle(seed):
    rng = np.random.default_rng(seed)
    domain = build_box((1.0, 1.0, 1.0), 0.25)
    values = np.abs(rng.standard_normal(domain.ncells)) ** 2
    thresholds = np.geomspace(0.01, values.max() * 1.1, 9)
    rep = est.weak_type_profile(domain, values, 3.0, thresholds, floor=0.0)
    oracle = distribution_by_sorting(values, sorted(thresholds), domain.h)
    assert np.array_equal(np.asarray(rep.samples["measures"]), oracle)


def test_weak_type_zero_field(stokeslet_field):
    domain, _, _ = stokeslet_field
    rep = est.weak_type_profile(domain, np.zeros(domain.ncells), 3.0,
                                [1.0, 2.0], floor=0.5)
    assert rep.envelope_ratio is None
    assert "all level sets empty" in rep.flags
    assert not rep.passed


def test_weak_type_floor_enforced(stokeslet_field):
    domain, _, mag = stokeslet_field
    with pytest.raises(ParameterError):
        est.weak_type_profile(domain, mag, 3.0, [0.1, 1.0], floor=0.5)


def test_weak_type_stokeslet_envelope_flat(stokeslet_field):
    # exact level-set volumes of the Stokeslet scale like t^-3, so the
    # envelope is flat over thresholds whose level sets are grid-resolved
    # and fit inside the box
    domain, y, mag = stokeslet_field
    thresholds = np.geomspace(0.35, 2.0, 12)
    rep = est.weak_type_profile(domain, mag, 3.0, thresholds, floor=0.3)
    assert rep.passed
    assert rep.envelope_ratio <= 5.0


def test_weak_type_theorem_floor_starves_g_at_desk_scale(stokeslet_field):
    # above the theorem floor min(R0, dist)^(2-d) the sampled Stokeslet has
    # fewer cells than a resolved 3x3x3 level set: the G weak-type range
    # is degenerate at 32^3 (the bound holds vacuously there)
    domain, y, mag = stokeslet_field
    floor = min(0.5, dist_to_boundary(domain, y)) ** (-1)
    assert np.count_nonzero(mag > floor) < 27


# -- local Lq ----------------------------------------------------------------------


def test_local_lq_rejects_out_of_range_q(suite, green32):
    domain = suite.pipeline(32).domain
    with pytest.raises(ParameterError):
        est.local_lq_norms(domain, green32, [0.2, 0.3], [3.0], fields=("G",))
    with pytest.raises(ParameterError):
        est.local_lq_norms(domain, green32, [0.2, 0.3], [2.0], fields=("Pi",))


def test_local_lq_q2_admissible_for_g(suite, green32):
    domain = suite.pipeline(32).domain
    reps = est.local_lq_norms(domain, green32, [0.15, 0.2, 0.25], [2.0],
                              fields=("G",), R0=0.5)
    assert "G" in reps and reps["G"].fitted is not None


def test_l2_annulus_local_consistency(suite, green32):
    # ||.||^2 over domain splits exactly across the B_R / annulus partition
    domain = suite.pipeline(32).domain
    mag = green32.magnitude()
    dist = np.linalg.norm(domain.cell_centers - green32.y, axis=1)
    R = 0.22
    inside = np.flatnonzero(dist <= R)
    outside = np.flatnonzero(dist > R)
    total = lp_norm(domain, mag, 2, np.arange(domain.ncells))
    split = np.sqrt(
        lp_norm(domain, mag, 2, inside) ** 2
        + lp_norm(domain, mag, 2, outside) ** 2
    )
    assert split == pytest.approx(total, rel=1e-12)


def test_annulus_beyond_domain_is_empty(suite, green32):
    domain = suite.pipeline(32).domain
    rep = est.annulus_norms(domain, green32, [0.2, 0.3, 0.4, 2.0], R0=1.0,
                            variant="global")
    radii = rep.samples["radii"]
    assert 2.0 not in radii  # empty annulus rows are dropped
    assert rep.fitted is not None


# -- dyadic annuli (C04, C05, C07 measurements) -----------------------------------

H32 = 1.0 / 32
DECAY_RADII = [m * H32 for m in (4, 5, 6, 7, 8)]
# the acceptance suite's profile grid at the centre pole: (2 eps + h/2, dist/2]
PROFILE_RADII = list(np.linspace(4.5 * H32, 0.2421875, 6))
# the C04 poles; C05 and C07 use the centre only
POLES = {"center": np.full(3, 16.5 * H32),
         "near-face": np.array([4.5 * H32, 16.5 * H32, 16.5 * H32])}


def kernel_green(domain, y, U, P):
    """A GreenApprox holding the full 3x3 kernel, its pressure and (through
    ``grad_magnitude``) its centered gradient; the pole cell is zeroed."""
    U = np.array(U, dtype=float)
    P = np.array(P, dtype=float)
    cid = domain.nearest_cell(y)
    U[cid] = 0.0
    P[cid] = 0.0
    return GreenApprox(y=np.asarray(y), y_requested=np.asarray(y), snap_distance=0.0,
                       eps=2 * domain.h, omega_eps=0.0,
                       G=np.ascontiguousarray(U.transpose(1, 2, 0)),
                       Pi=np.ascontiguousarray(P.T), reports=[])


def stokeslet_green(domain, y, mean_zero=False, degree=-1):
    """The Stokeslet pair around y, optionally shifted to mean zero over the
    domain, or multiplied by |x-y|^(1+degree) to make it homogeneous of the
    given degree (the Stokeslet has degree -1)."""
    rel = domain.cell_centers - y
    U = normalized_stokeslet(domain, y) if mean_zero else oseen_tensor(rel)
    P = stokeslet_pressure(rel)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.linalg.norm(rel, axis=1) ** (1 + degree)
    return kernel_green(domain, y, U * scale[:, None, None], P * scale[:, None])


def annulus_fits(domain, green):
    """The reports of the three annulus criteria, keyed by estimate id."""
    reports = [est.annulus_decay_profile(domain, green, DECAY_RADII),
               est.annulus_oscillation_norms(domain, green, PROFILE_RADII),
               *est.annulus_local_l1(domain, green, PROFILE_RADII).values()]
    return {r.estimate_id: r for r in reports}


@pytest.fixture(scope="module")
def box32():
    return build_box((1.0, 1.0, 1.0), H32)


@pytest.fixture(scope="module")
def stokeslet_pair(box32):
    """Raw and mean-zero Stokeslet pairs at each pole."""
    return {name: (stokeslet_green(box32, y), stokeslet_green(box32, y, True))
            for name, y in POLES.items()}


@pytest.mark.parametrize("pole", list(POLES))
def test_annulus_criteria_agree_with_stokeslet_oracle(box32, stokeslet_pair, pole):
    raw, mean_zero = stokeslet_pair[pole]
    fits_raw = annulus_fits(box32, raw)
    fits_zero = annulus_fits(box32, mean_zero)
    ids = fits_raw if pole == "center" else ["annulus-decay"]
    for eid in ids:
        assert fits_zero[eid].fitted == pytest.approx(fits_raw[eid].fitted, abs=1e-9)
        assert fits_raw[eid].passed, (eid, fits_raw[eid].fitted)


@settings(max_examples=8, deadline=None)
@given(shift=st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9))
def test_annulus_criteria_ignore_constant_shift(box32, stokeslet_pair, shift):
    green, _ = stokeslet_pair["center"]
    shifted = copy.deepcopy(green)
    shifted.G += np.reshape(shift, (3, 3, 1))
    base = annulus_fits(box32, green)
    moved = annulus_fits(box32, shifted)
    for eid, rep in base.items():
        assert moved[eid].fitted == pytest.approx(rep.fitted, abs=1e-9), eid


def test_annulus_criteria_reject_degree_minus_two_kernel(box32):
    fits = annulus_fits(box32, stokeslet_green(box32, POLES["center"], degree=-2))
    assert fits["annulus-decay"].fitted < -1.35
    assert fits["annulus-norms"].fitted < -0.85
    assert fits["annulus-L1-G"].fitted < 1.6
    assert not any(rep.passed for rep in fits.values())


def test_annulus_outside_domain_raises(box32, stokeslet_pair):
    green, _ = stokeslet_pair["center"]
    with pytest.raises(ResolutionError):
        est.annulus_cells(box32, green, [0.2, 1.0], 1, 2)


def test_normalized_stokeslet_finite_and_mean_zero():
    domain = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    y = domain.cell_centers[domain.nearest_cell((0.5, 0.5, 0.5))]
    U = normalized_stokeslet(domain, y)
    assert np.isfinite(U).all()
    assert np.all(U[domain.nearest_cell(y)] == 0.0)
    assert np.all(np.abs(U.sum(axis=0)) <= 1e-12 * np.abs(U).sum(axis=0))


# -- Caccioppoli -------------------------------------------------------------------


def test_caccioppoli_constant_field_zero(box16):
    domain, _, _ = box16
    u = np.ones((3, domain.ncells))
    p = np.zeros(domain.ncells)
    q = est.caccioppoli_interior(domain, u, p, 0.0, (0.5, 0.5, 0.5), 0.25)
    assert q == 0.0


def test_caccioppoli_interior_requires_interior_ball(box16):
    domain, _, _ = box16
    u = np.ones((3, domain.ncells))
    with pytest.raises(GeometryError):
        est.caccioppoli_interior(domain, u, np.zeros(domain.ncells), 0.0,
                                 (0.9, 0.5, 0.5), 0.3)


def test_caccioppoli_boundary_requires_boundary_point(box16):
    domain, _, _ = box16
    u = np.ones((3, domain.ncells))
    p = np.zeros(domain.ncells)
    with pytest.raises(GeometryError):
        est.caccioppoli_boundary(domain, u, p, 0.0, (0.5, 0.5, 0.5), 0.2,
                                 theta=1.0)
    with pytest.raises(GeometryError):
        est.caccioppoli_boundary(domain, u, p, 0.0, (1.0, 0.53125, 0.53125),
                                 0.2, theta=0.0)
    with pytest.raises(GeometryError):
        est.caccioppoli_boundary(domain, u, p, 0.0, (1.0, 0.53125, 0.53125),
                                 0.6, theta=1.0, R0=0.5)


# -- reports ----------------------------------------------------------------------


def test_reports_recompute_pass_is_pure(suite, green32):
    domain = suite.pipeline(32).domain
    reports = [
        est.decay_profile(domain, green32, [0.125, 0.15625, 0.1875, 0.25]),
        est.annulus_norms(domain, green32, [0.15, 0.18, 0.21, 0.24], R0=0.5),
    ]
    reports += list(
        est.local_lq_norms(domain, green32, [0.15, 0.2, 0.25], [1.0], R0=0.5).values()
    )
    for rep in reports:
        assert rep.passed == rep.recompute_pass()


def test_report_serialization(tmp_path, suite, green32):
    domain = suite.pipeline(32).domain
    rep = est.decay_profile(domain, green32, [0.125, 0.15625, 0.1875, 0.25])
    csv_path = tmp_path / "reports.csv"
    txt_path = tmp_path / "reports.txt"
    est.write_csv([rep], csv_path)
    est.write_records([rep], txt_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "estimate_id,predicted,fitted,envelope,pass"
    assert lines[1].startswith("decay,")
    assert "[decay]" in txt_path.read_text()
