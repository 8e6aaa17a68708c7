"""Acceptance criteria, one test per criterion at its pinned tolerance.

Each test prints a PASS/FAIL line with the measured quantities.  The
profile criteria C04, C05 and C07 measure on pole-centred dyadic annuli,
where the normalization constant of G drops out; notes/decisions.md holds
the measurements behind that choice (solved Green function against the
Stokeslet oracles, old and new measurement).  A negative control checks
that those criteria still fail on an unresolved pole.
"""

import time

import numpy as np

from stokesgreen import cli, estimates as est
from stokesgreen.acceptance import CRITERIA_BY_PRESET, AcceptanceSuite, CriterionResult
from stokesgreen.domain import build_box


def report(result):
    print(result.line())
    for key, val in result.details.items():
        print(f"    {key}: {val}")
    return result


def test_c01_well_posedness(suite):
    r = report(suite.c01_well_posedness())
    assert r.details["worst_residual"] <= 1e-9
    assert r.details["worst_guess_diff"] <= 1e-8
    assert r.details["seconds"] <= 120
    assert r.passed


def test_c02_divergence_and_normalization(suite):
    r = report(suite.c02_divergence_normalization())
    assert r.passed


def test_c03_energy_scaling(suite):
    r = report(suite.c03_energy_scaling())
    assert r.details["ratio"] <= 2.0
    assert r.passed


def test_c04_pointwise_decay(suite):
    r = report(suite.c04_pointwise_decay())
    lo, hi = r.details["window"]
    assert r.details["seconds"] <= 600
    assert lo <= r.details["boundary_slope"] <= hi
    assert lo <= r.details["interior_slope"] <= hi, (
        "interior annulus decay slope is outside the window at 32^3; "
        "see notes/decisions.md"
    )
    assert r.passed


def test_c05_annulus_bounds(suite):
    r = report(suite.c05_annulus_bounds())
    assert r.passed, (
        f"annulus exponent {r.details['fitted']:.3f} outside -0.5 +/- 0.35 "
        "at 32^3; see notes/decisions.md"
    )


def test_c06_weak_type(suite):
    r = report(suite.c06_weak_type())
    assert r.passed


def test_c07_local_lq(suite):
    r = report(suite.c07_local_lq())
    assert r.passed, (
        f"local L1 exponents {r.details} outside their windows at 32^3; "
        "see notes/decisions.md"
    )


def test_annulus_criteria_fail_on_unresolved_pole(suite):
    # eps = 8h puts the mollifier core across every annulus of the pinned
    # grids; the profile is flat or rising there, never r^(2-d)
    pipe = suite.pipeline(32)
    dom = pipe.domain
    h = dom.h
    pole = pipe.poles["interior"]
    assert pipe.eps_sweep.count(8 * h) == 1
    g8 = pipe.green(pole, 8 * h)
    grid = est.profile_grid(dom, pipe.green(pole, 2 * h))
    decay = est.annulus_decay_profile(dom, g8, [m * h for m in (4, 5, 6, 7, 8)])
    norms = est.annulus_oscillation_norms(dom, g8, grid)
    local = est.annulus_local_l1(dom, g8, grid)
    assert decay.fitted > -1 + est.SLOPE_WINDOW
    assert norms.fitted > -0.5 + est.SLOPE_WINDOW
    assert local["G"].fitted > 2 + est.LQ_SLOPE_WINDOW
    assert not decay.passed and not norms.passed
    assert not any(r.passed for r in local.values())


def test_c08_symmetry_and_averaging(suite):
    r = report(suite.c08_symmetry_averaging())
    assert r.details["32"]["symmetry"] <= 0.15
    assert r.details["32"]["averaging"] <= 0.15
    assert r.details["32"]["symmetry"] < r.details["16"]["symmetry"]
    assert r.details["32"]["averaging"] < r.details["16"]["averaging"]
    assert r.passed


def test_c08_grids_resolve_its_mollifier_in_every_preset():
    # C08 needs 2h <= eps = 0.125 on both of its grids, which are the unit
    # boxes at h = 1/16 and 1/32 whatever the preset; only the domains are
    # built, no operator
    from stokesgreen.acceptance import C08_EPS, C08_GRIDS, C08_POLES
    from stokesgreen.green import mollified_rhs

    assert C08_GRIDS == (16, 32) and C08_EPS == 0.125
    for n in C08_GRIDS:
        domain = build_box((1.0, 1.0, 1.0), 1.0 / n)
        assert 2 * domain.h <= C08_EPS
        for pole in C08_POLES:
            assert mollified_rhs(domain, pole, C08_EPS).phi.any()


def test_c09_representation(suite):
    r = report(suite.c09_representation())
    assert r.details["avg_error_16"] <= r.details["threshold"]
    pe = r.details["point_errors"]
    assert pe[16] < pe[8] and pe[32] < pe[16]
    assert r.passed


def test_criteria_on_one_grid_share_its_green_function(suite, monkeypatch):
    # C09 solves the (0.3125, 0.5625, 0.5625), eps = 4h pair on the 16^3
    # pipeline; C14 tampers with that same pair and solves none of its own
    suite.c09_representation()
    solved = []
    compute_green = cli.compute_green

    def counted(domain, coeffs, y, eps, **kwargs):
        solved.append((domain.h, tuple(y), eps))
        return compute_green(domain, coeffs, y, eps, **kwargs)

    monkeypatch.setattr(cli, "compute_green", counted)
    assert suite.c14_negative_controls().passed
    assert solved == []


def test_c10_bogovskii(suite):
    r = report(suite.c10_bogovskii())
    assert r.details["ratio"] <= 1.25
    assert r.passed


def test_c11_caccioppoli(suite):
    r = report(suite.c11_caccioppoli())
    for key in ("interior", "boundary"):
        quots = [q for q in r.details[key] if q > 0]
        assert max(quots) / min(quots) <= 2.0
    assert r.passed


def test_c12_oscillation(suite):
    r = report(suite.c12_oscillation())
    assert r.details["aligned"] <= r.details["aligned_bound"]
    assert r.details["constant"] == 0.0
    assert r.details["rotated"] > 0.1
    assert r.details["checkerboard"] > 0.1
    assert r.passed


def test_c13_exterior_density(suite):
    r = report(suite.c13_exterior_density())
    assert abs(r.details["box"] - r.details["half_ball"]) <= 0.1 * r.details["half_ball"]
    assert r.details["lshape"] > 0
    assert r.passed


def test_c14_negative_controls(suite):
    r = report(suite.c14_negative_controls())
    assert r.details["ellipticity_rejected"]
    assert r.details["tampered_div_broken"]
    assert r.details["tampered_repr_error"] > 100 * 1e-9
    assert r.passed


def test_run_times_every_criterion_itself(monkeypatch):
    def stub(cid):
        def criterion(self):
            time.sleep(0.012)
            return CriterionResult(cid, "stub", True, {})
        return criterion

    for name in dir(AcceptanceSuite):
        if name[0] == "c" and name[1:3].isdigit():
            monkeypatch.setattr(AcceptanceSuite, name, stub(name[:3].upper()))
    results = AcceptanceSuite("deep").run()
    assert [r.cid for r in results] == CRITERIA_BY_PRESET["deep"]
    assert all(r.seconds >= 0.01 and r.peak_rss_mb > 0 for r in results)
