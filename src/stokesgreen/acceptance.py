"""End-to-end acceptance criteria for the solver and estimate pipeline.

Each criterion is a self-contained check with pinned tolerances, runnable
programmatically (CLI ``verify``) or from the test suite.  The suite keeps
one built ``cli.Pipeline`` per grid, an identity box at h = 1/n, and every
criterion reads its domain, operator, poles, eps sweep and Green cache, so
criteria on one grid share one operator and each Green pair is solved
once.  C08 to C11 measure through the runners of ``stokesgreen run``
(``cli.measure_*``) at their pinned points and apply their own rules.

Presets map to grid sizes: smoke 16^3, standard 24^3, deep 32^3.  The deep
preset runs every criterion at its pinned scale; smaller presets run the
subset that is meaningful at their resolution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import estimates as est
from .cli import (
    PRESET_SIZES,
    ExperimentConfig,
    Pipeline,
    identity_box,
    measure_bogovskii,
    measure_caccioppoli,
    measure_representation,
    measure_symmetry,
    peak_rss_mb,
)
from .coefficients import (
    CoefficientField,
    Frame,
    checkerboard,
    constant_identity,
    identity_tensor,
    partial_oscillation,
    piecewise_in_direction,
    validate_ellipticity,
)
from .domain import (
    BallQuery,
    build_box,
    build_l_shape,
    dist_to_boundary,
    exterior_density,
)
from .errors import StokesGreenError
from .green import check_green_invariants, representation_check
from .system import DEFAULT_TOL, assemble, lp_norm, solve_conormal

# Resident-set need of each preset, used by the graceful memory skip: the
# peak RSS of `stokesgreen verify --preset P` in a fresh process (getrusage
# of the child; numpy 2.4, scipy 1.17, 2-core x86-64 Linux) plus 25%,
# rounded up to 10 MB.  Measured: smoke 190 MB, reached in C12 (C10's
# 32^3 pipeline is still held then); standard 239 MB and deep 227 MB,
# reached in C12 (its 64^3 fields).  Every grid's pipeline lives as long
# as the suite, and each operator keeps the Krylov basis its solves have
# touched.
MEMORY_REQUIREMENT_MB = {"smoke": 240, "standard": 310, "deep": 290}

# C08 is defined at h = 1/16 and h = 1/32 in every preset: its mollifier
# radius eps must be at least 2h on both grids
C08_GRIDS = (16, 32)
C08_POLES = (np.array([0.21875, 0.46875, 0.46875]), np.array([0.71875, 0.46875, 0.46875]))
C08_EPS = 0.125
# C09 measures at this pole with eps = 4h on 8^3, 16^3 and 32^3; C14
# tampers with the same pair on its grid
C09_POLE = np.array([0.3125, 0.5625, 0.5625])

CRITERIA_BY_PRESET = {
    "smoke": ["C01", "C02", "C10", "C12", "C13", "C14"],
    "standard": ["C01", "C02", "C03", "C08", "C10", "C11", "C12", "C13", "C14"],
    "deep": [f"C{i:02d}" for i in range(1, 15)],
}


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: dict
    reports: list = dc_field(default_factory=list)
    seconds: float = 0.0  # wall time of the criterion, set by AcceptanceSuite.run
    peak_rss_mb: float = 0.0  # of the process, when the criterion ended

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{self.cid} {status} {self.title} ({self.seconds:.1f}s)"


class AcceptanceSuite:
    """Runs the acceptance criteria over one built Pipeline per grid."""

    def __init__(self, preset="deep", seed=0, tol=DEFAULT_TOL):
        if preset not in PRESET_SIZES:
            raise StokesGreenError(f"unknown preset {preset!r}")
        self.preset = preset
        self.n = PRESET_SIZES[preset]
        self.seed = seed
        self.tol = tol
        self._pipelines = {}

    def pipeline(self, n):
        """The built identity box at h = 1/n, solving to the suite's tol."""
        if n not in self._pipelines:
            pipe = Pipeline(ExperimentConfig.from_dict(identity_box(n, solver={"tol": self.tol})))
            pipe.build()
            self._pipelines[n] = pipe
        return self._pipelines[n]

    # -- criteria ---------------------------------------------------------

    def c01_well_posedness(self):
        """Five random mean-zero data sets at 16^3 solve to 1e-9 and agree
        across initial guesses to 1e-8 in the energy norm within 2 min."""
        t0 = time.perf_counter()
        pipe = self.pipeline(16)
        dom, op = pipe.domain, pipe.operator
        rng = np.random.default_rng(self.seed + 1)
        worst_diff = 0.0
        worst_res = 0.0
        for _ in range(5):
            f = rng.standard_normal((3, dom.ncells))
            g = rng.standard_normal(dom.ncells)
            g -= g.mean()
            system = assemble(op, f=f, g=g)
            f1, r1 = solve_conormal(system, tol=1e-9)
            x0 = rng.standard_normal(op.ntot)
            f2, r2 = solve_conormal(system, tol=1e-9, x0=x0)
            diff = np.sqrt(op.ops.grad_energy_sq(f1.u - f2.u)) + lp_norm(
                dom, f1.p - f2.p, 2
            )
            worst_diff = max(worst_diff, diff)
            worst_res = max(worst_res, r1.residual, r2.residual)
        elapsed = time.perf_counter() - t0
        passed = worst_res <= 1e-9 and worst_diff <= 1e-8 and elapsed <= 120
        return CriterionResult(
            "C01", "well-posedness: unique solves at 1e-9", passed,
            {"worst_residual": worst_res, "worst_guess_diff": worst_diff,
             "seconds": elapsed},
        )

    def c02_divergence_normalization(self):
        """Every Green column is divergence-free up to the reported
        stabilization slack and mean-zero to 1e-10 relative."""
        pipe = self.pipeline(self.n)
        details = {}
        ok = True
        for eps in pipe.eps_sweep:
            g = pipe.green(pipe.poles["interior"], eps)
            inv = check_green_invariants(pipe.domain, g)
            details[f"eps={g.eps:.4g}"] = {
                "div": inv["div_residuals"].tolist(),
                "slack": inv["stab_slack"].tolist(),
                "means": inv["col_means"].tolist(),
                "ok": inv["ok"],
            }
            ok = ok and inv["ok"]
        return CriterionResult("C02", "Green columns: divergence and normalization", ok,
                               details)

    def c03_energy_scaling(self):
        """C-hat(eps) varies by at most a factor 2 over the eps sweep."""
        pipe = self.pipeline(self.n)
        report = est.energy_envelope_report(
            [pipe.green(pipe.poles["interior"], eps) for eps in pipe.eps_sweep])
        envs = report.samples["quotients"]
        return CriterionResult(
            "C03", "energy envelope uniform over eps sweep", report.passed,
            {"envelopes": envs, "ratio": max(envs) / min(envs)},
            reports=[report],
        )

    def c04_pointwise_decay(self):
        """Annulus decay slope in [-1.35, -0.65] for an interior pole and a
        boundary-near pole: max |G - (G)_A| over the dyadic annulus
        A_r = {r - h/2 < |x-y| <= 2r + h/2}, r in [4h, 8h].  Subtracting the
        annulus mean removes the normalization constant of G, which bends
        a plain shell-max profile at radii comparable to the domain."""
        t0 = time.perf_counter()
        pipe = self.pipeline(self.n)
        dom = pipe.domain
        h = dom.h
        radii = [m * h for m in (4, 5, 6, 7, 8)]
        g_int = pipe.green(pipe.poles["interior"], 2 * h)
        rep_int = est.annulus_decay_profile(dom, g_int, radii, "annulus-decay-interior")
        g_bnd = pipe.green(pipe.poles["boundary"], 2 * h)
        rep_bnd = est.annulus_decay_profile(dom, g_bnd, radii, "annulus-decay-boundary")
        elapsed = time.perf_counter() - t0
        passed = rep_int.passed and rep_bnd.passed and elapsed <= 600
        return CriterionResult(
            "C04", "pointwise decay slope (interior and boundary poles)", passed,
            {"interior_slope": rep_int.fitted, "boundary_slope": rep_bnd.fitted,
             "window": [-1 - est.SLOPE_WINDOW, -1 + est.SLOPE_WINDOW],
             "seconds": elapsed},
            reports=[rep_int, rep_bnd],
        )

    def c05_annulus_bounds(self):
        """Combined annulus norm exponent within 0.35 of (2-d)/2 = -1/2:
        ||G - (G)_A||_L6 + ||DG||_L2 + ||Pi - (Pi)_A||_L2 on the dyadic
        annulus A_R = {R < |x-y| <= 2R} inside Omega minus B_R.  The
        annulus keeps its shape as R grows, where the full exterior is cut
        off by the cube's faces."""
        pipe = self.pipeline(self.n)
        dom = pipe.domain
        g = pipe.green(pipe.poles["interior"], 2 * dom.h)
        grid = est.profile_grid(dom, g)
        report = est.annulus_oscillation_norms(dom, g, grid, estimate_id="annulus-norms")
        return CriterionResult(
            "C05", "annulus norm exponent vs (2-d)/2", report.passed,
            {"fitted": report.fitted, "predicted": report.predicted,
             "radii": report.samples["radii"]},
            reports=[report],
        )

    def c06_weak_type(self):
        """Envelopes t^p |{.>t}| flat within a factor 5 over the admissible,
        grid-resolved threshold range."""
        pipe = self.pipeline(self.n)
        dom = pipe.domain
        g = pipe.green(pipe.poles["interior"], 2 * dom.h)
        base = min(0.5, dist_to_boundary(dom, g.y))  # R0 = 1/2
        names = ("G", "DG", "Pi")
        reports = [est.weak_type_envelope(dom, g, name, base, f"T1-weak-{name}")
                   for name in names]
        details = {name: {"ratio": rep.envelope_ratio, "floor": rep.context["floor"],
                          "flags": rep.flags}
                   for name, rep in zip(names, reports)}
        return CriterionResult(
            "C06", "weak-type envelopes flat within factor 5",
            all(rep.passed for rep in reports), details,
            reports=reports,
        )

    def c07_local_lq(self):
        """Local L1 exponents within 0.4 of 2 (G) and 1 (DG, Pi), measured
        on the annulus A' = {R/2 < |x-y| <= R} inside B_R: the L1 norms of
        G - (G)_A', DG and Pi.  Leaving out the inner ball keeps the
        unresolved mollifier core (R is only 2.25-3.9 eps) out of the fit."""
        pipe = self.pipeline(self.n)
        dom = pipe.domain
        g = pipe.green(pipe.poles["interior"], 2 * dom.h)
        grid = est.profile_grid(dom, g)
        reports = est.annulus_local_l1(dom, g, grid, id_prefix="annulus-L1")
        ok = all(r.passed for r in reports.values())
        return CriterionResult(
            "C07", "local L1 growth exponents near the pole", ok,
            {name: {"fitted": r.fitted, "predicted": r.predicted}
             for name, r in reports.items()},
            reports=list(reports.values()),
        )

    def c08_symmetry_averaging(self):
        """Symmetry and averaging discrepancies below 15% at h = 1/32 and
        strictly smaller than at h = 1/16 for the same physical setup."""
        y, x = C08_POLES
        out = {}
        for n in C08_GRIDS:
            sym, avg = measure_symmetry(self.pipeline(n), y, x, C08_EPS)
            out[n] = {"symmetry": sym.fitted, "averaging": avg.fitted}
        coarse, fine = C08_GRIDS
        passed = (
            out[fine]["symmetry"] <= 0.15
            and out[fine]["averaging"] <= 0.15
            and out[fine]["symmetry"] < out[coarse]["symmetry"]
            and out[fine]["averaging"] < out[coarse]["averaging"]
        )
        return CriterionResult(
            "C08", "symmetry and averaging identities", passed,
            {str(k): v for k, v in out.items()},
        )

    def c09_representation(self):
        """Discrete duality exact to 10 x solver tolerance at 16^3; the
        pointwise variant decreases over h in {1/8, 1/16, 1/32}."""
        point_errors = {}
        avg_error = None
        scale = None
        for n in (8, 16, 32):
            pipe = self.pipeline(n)
            dom = pipe.domain
            ctr = dom.cell_centers
            f = np.stack([
                np.exp(-((ctr[:, 0] - 0.75) ** 2 + (ctr[:, 1] - 0.4) ** 2
                         + (ctr[:, 2] - 0.6) ** 2) / 0.02),
                0.3 * np.ones(dom.ncells),
                np.sin(np.pi * ctr[:, 1]),
            ])
            f -= f.mean(axis=1, keepdims=True)
            gdata = 0.5 * np.cos(np.pi * ctr[:, 2]) * np.sin(np.pi * ctr[:, 0])
            rc = measure_representation(pipe, C09_POLE, 4 * dom.h, f, gdata)
            point_errors[n] = rc.error_point
            if n == 16:
                data_scale = (lp_norm(dom, np.sqrt((f**2).sum(axis=0)), 2)
                              + lp_norm(dom, gdata, 2)) / max(rc.u_max, 1e-300)
                scale = max(1.0, data_scale)
                avg_error = rc.error_avg
        threshold = 10 * self.tol * scale
        trend = point_errors[16] < point_errors[8] and point_errors[32] < point_errors[16]
        passed = avg_error <= threshold and trend
        return CriterionResult(
            "C09", "representation formula duality and refinement trend", passed,
            {"avg_error_16": avg_error, "threshold": threshold,
             "point_errors": point_errors},
        )

    def c10_bogovskii(self):
        """Divergence-solve quotient varies at most 25% over h refinement."""
        quots = {n: measure_bogovskii(self.pipeline(n)).fitted for n in (8, 16, 32)}
        vals = list(quots.values())
        ratio = max(vals) / min(vals)
        return CriterionResult(
            "C10", "divergence-equation quotient stable under refinement",
            ratio <= 1.25, {"quotients": quots, "ratio": ratio},
        )

    def c11_caccioppoli(self):
        """Interior and boundary Caccioppoli quotients within a factor 2
        across a 3-scale radius sweep."""
        n = self.n
        h = 1.0 / n
        pole = np.full(3, (int(0.27 * n) + 0.5) * h)
        xi = np.full(3, (int(0.70 * n) + 0.5) * h)
        xb = np.array([1.0, xi[1], xi[2]])
        rep_i, rep_b = measure_caccioppoli(self.pipeline(n), pole, 4 * h, xi, 0.28, xb, 0.4)
        passed = rep_i.passed and rep_b.passed
        return CriterionResult(
            "C11", "Caccioppoli quotients stable over radius sweep", passed,
            {"interior": rep_i.samples["quotients"],
             "boundary": rep_b.samples["quotients"]},
            reports=[rep_i, rep_b],
        )

    def c12_oscillation(self):
        """Oscillation functional: zero for aligned layers and constants,
        above 0.1 for cross-frame variation."""
        n = 64
        dom = build_box((1.0, 1.0, 1.0), 1.0 / n)
        lam = 0.5
        profile = [(-1.0, identity_tensor(1.0)), (0.5, identity_tensor(lam))]
        aligned = Frame.identity()
        layered = piecewise_in_direction(dom, profile, aligned, lam)
        ball = BallQuery((0.5, 0.5, 0.5), 0.25)
        bound = 2 * dom.h / ball.radius / lam
        osc_aligned = partial_oscillation(layered, aligned, ball)
        osc_rotated = partial_oscillation(
            layered, Frame.axis_permutation([1, 0, 2]), ball
        )
        cboard = checkerboard(dom, 1, 0.25, identity_tensor(1.0),
                              identity_tensor(lam), lam)
        osc_checker = partial_oscillation(cboard, aligned, ball)
        osc_const = partial_oscillation(constant_identity(dom), aligned, ball)
        passed = (
            osc_aligned <= bound
            and osc_const == 0.0
            and osc_rotated > 0.1
            and osc_checker > 0.1
        )
        return CriterionResult(
            "C12", "partial mean-oscillation functional", passed,
            {"aligned": osc_aligned, "aligned_bound": bound,
             "rotated": osc_rotated, "checkerboard": osc_checker,
             "constant": osc_const},
        )

    def c13_exterior_density(self):
        """Box-face density within 10% of the half-ball value; the L-shape
        density is positive."""
        dom = self.pipeline(self.n).domain
        theta_box = exterior_density(dom, 0.5, samples=40, seed=self.seed + 3)
        half_ball = 2 * np.pi / 3
        lsh = build_l_shape((1.0, 1.0, 1.0), ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)),
                            1.0 / self.n)
        theta_l = exterior_density(lsh, 0.5, samples=60, seed=self.seed + 4)
        passed = abs(theta_box - half_ball) <= 0.1 * half_ball and theta_l > 0
        return CriterionResult(
            "C13", "exterior measure density", passed,
            {"box": theta_box, "half_ball": half_ball, "lshape": theta_l},
        )

    def c14_negative_controls(self):
        """A non-elliptic field is rejected; doubling a stored G breaks the
        divergence check and the representation identity."""
        pipe = self.pipeline(min(self.n, 16))
        dom = pipe.domain
        bad = CoefficientField(
            dom.shape, dom.h, -identity_tensor(1.0)[None],
            np.zeros(int(np.prod(dom.shape)), dtype=np.int32), lam=0.5,
        )
        rejected, worst = validate_ellipticity(bad, trials=32, seed=self.seed)
        rejected = not rejected

        green = pipe.green(C09_POLE, 4 * dom.h)
        import copy

        tampered = copy.deepcopy(green)
        tampered.G *= 2.0
        inv = check_green_invariants(dom, tampered)
        div_broken = not inv["div_ok"]
        ctr = dom.cell_centers
        f = np.stack([np.sin(2 * np.pi * ctr[:, 0]), np.cos(np.pi * ctr[:, 1]),
                      ctr[:, 0] * ctr[:, 2]])
        f -= f.mean(axis=1, keepdims=True)
        rc = representation_check(dom, pipe.coeffs, tampered, f=f, tol=self.tol,
                                  adjoint_operator=pipe.operator.adjoint())
        repr_broken = rc.error_avg > 100 * self.tol
        passed = rejected and div_broken and repr_broken
        return CriterionResult(
            "C14", "negative controls reject faults", passed,
            {"ellipticity_rejected": rejected, "worst_quotient": worst,
             "tampered_div_broken": div_broken,
             "tampered_repr_error": rc.error_avg},
        )

    # -- runner -----------------------------------------------------------

    def run(self):
        """Run the preset's criteria in order, timing each and recording the
        process peak when it ends; a criterion is the method named
        ``c<NN>_...``, looked up when it is called."""
        results = []
        for cid in CRITERIA_BY_PRESET[self.preset]:
            name = next(m for m in dir(self) if m.startswith(f"{cid.lower()}_"))
            t0 = time.perf_counter()
            result = getattr(self, name)()
            result.seconds = time.perf_counter() - t0
            result.peak_rss_mb = peak_rss_mb()
            results.append(result)
            print(result.line())
        return results
