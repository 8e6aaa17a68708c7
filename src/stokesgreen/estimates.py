"""Quantitative estimate measurements for computed Green functions.

Each measurement produces an EstimateReport holding the raw samples, the
fitted quantity, the predicted exponent from the decay theory (kept in
terms of the dimension d so reports print the general form), and a pass
flag that is a pure function of the stored measurements and the acceptance
windows declared once below (``POLICY``), which every report records.

Pointwise magnitudes: |G| is the Frobenius norm of the 3x3 matrix, |DG|
the Frobenius norm over all 27 centered-difference entries, |Pi| the
Euclidean norm of the pressure row.  All integrals are midpoint cell sums.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .domain import dist_to_boundary
from .errors import DataError, GeometryError, ParameterError, ResolutionError
from .system import DIM, grid_operators, lp_norm

D = DIM  # exponents below are the d = 3 values of the general formulas

# acceptance windows of the trend-based checks
SLOPE_WINDOW = 0.35
LQ_SLOPE_WINDOW = 0.4
ENVELOPE_RATIO_MAX = 5.0
QUOTIENT_STABILITY_FACTOR = 2.0
ENERGY_ENVELOPE_FACTOR = 2.0
POLICY = {
    "slope_window": SLOPE_WINDOW,
    "lq_slope_window": LQ_SLOPE_WINDOW,
    "envelope_ratio_max": ENVELOPE_RATIO_MAX,
    "quotient_stability_factor": QUOTIENT_STABILITY_FACTOR,
    "energy_envelope_factor": ENERGY_ENVELOPE_FACTOR,
}


@dataclass
class EstimateReport:
    estimate_id: str
    rule: dict
    samples: dict
    predicted: float | None = None
    fitted: float | None = None
    fit_residual: float | None = None
    envelope_ratio: float | None = None
    passed: bool = False
    policy: dict = dc_field(default_factory=lambda: dict(POLICY))
    context: dict = dc_field(default_factory=dict)
    flags: list = dc_field(default_factory=list)

    def recompute_pass(self):
        """Re-derive the pass flag from stored measurements alone."""
        kind = self.rule.get("kind")
        if kind == "slope":
            if self.fitted is None:
                return False
            return abs(self.fitted - self.rule["target"]) <= self.rule["window"]
        if kind == "envelope":
            if self.envelope_ratio is None:
                return False
            return self.envelope_ratio <= self.rule["max_ratio"]
        if kind == "stability":
            vals = [v for v in self.samples.get("quotients", []) if v > 0]
            if not vals:
                return False
            return max(vals) / min(vals) <= self.rule["factor"]
        if kind == "bound":
            return bool(self.samples.get("measured", np.inf) <= self.rule["max"])
        return False

    def to_record(self):
        lines = [f"[{self.estimate_id}]"]
        lines.append(f"rule={self.rule}")
        if self.predicted is not None:
            lines.append(f"predicted={self.predicted:.6g}")
        if self.fitted is not None:
            lines.append(f"fitted={self.fitted:.6g}")
        if self.fit_residual is not None:
            lines.append(f"fit_residual={self.fit_residual:.6g}")
        if self.envelope_ratio is not None:
            lines.append(f"envelope_ratio={self.envelope_ratio:.6g}")
        for key, val in sorted(self.samples.items()):
            arr = np.asarray(val, dtype=float).ravel()
            lines.append(f"samples.{key}=" + ",".join(f"{v:.8g}" for v in arr))
        for key, val in sorted(self.context.items()):
            lines.append(f"context.{key}={val}")
        if self.flags:
            lines.append("flags=" + ";".join(self.flags))
        lines.append(f"policy={self.policy}")
        lines.append(f"pass={self.passed}")
        return "\n".join(lines)


def bound_report(estimate_id, measured, bound, samples=None, context=None):
    """A measured quantity held to an upper bound.

    ``bound=None`` makes the row informational: it is recorded against an
    infinite bound and always passes.
    """
    report = EstimateReport(
        estimate_id=estimate_id,
        rule={"kind": "bound", "max": float("inf") if bound is None else bound},
        samples={"measured": measured, **(samples or {})},
        fitted=measured,
        policy={"bound": "informational" if bound is None else bound},
        context=dict(context or {}),
    )
    report.passed = bound is None or report.recompute_pass()
    return report


def write_records(reports, path):
    Path(path).write_text("\n\n".join(r.to_record() for r in reports) + "\n")


def write_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimate_id", "predicted", "fitted", "envelope", "pass"])
        for r in reports:
            writer.writerow(
                [
                    r.estimate_id,
                    "" if r.predicted is None else f"{r.predicted:.8g}",
                    "" if r.fitted is None else f"{r.fitted:.8g}",
                    "" if r.envelope_ratio is None else f"{r.envelope_ratio:.8g}",
                    "PASS" if r.passed else "FAIL",
                ]
            )


# ---------------------------------------------------------------------------
# basic fitting and norm helpers


def fit_power_law(samples):
    """Least-squares log-log fit; returns (slope, intercept, rms residual).

    Repeated radii collapse to one point (log values averaged); at least
    three distinct radii with positive values are required.
    """
    pairs = [(float(r), float(v)) for r, v in samples]
    if any(v <= 0 or r <= 0 for r, v in pairs):
        raise DataError("power-law fit requires positive radii and values")
    by_r = {}
    for r, v in pairs:
        by_r.setdefault(r, []).append(np.log(v))
    if len(by_r) < 3:
        raise DataError(f"need at least 3 distinct radii, got {len(by_r)}")
    logs_r = np.array(sorted(by_r))
    logs_v = np.array([np.mean(by_r[r]) for r in sorted(by_r)])
    logs_r = np.log(logs_r)
    A = np.stack([logs_r, np.ones_like(logs_r)], axis=1)
    coef, *_ = np.linalg.lstsq(A, logs_v, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - logs_v) ** 2)))
    return float(coef[0]), float(coef[1]), resid


# ---------------------------------------------------------------------------
# estimate measurements


def decay_profile(domain, green, radii, estimate_id="decay"):
    """Shell-max pointwise decay of |G(., y)| against the prediction r^(2-d).

    Shells are the cells with ``| |x-y| - r | <= h/2``; the max curve is
    fitted in log-log (the mean curve is logged alongside since the
    discrete max is noisy).
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if len(radii) == 0:
        raise ResolutionError("empty radius grid")
    mag = green.magnitude()
    dist = np.linalg.norm(domain.cell_centers - green.y, axis=1)
    maxima, means = [], []
    for r in radii:
        sel = np.abs(dist - r) <= domain.h / 2
        if not sel.any():
            raise ResolutionError(f"decay shell at r = {r:.4g} contains no cells")
        maxima.append(float(mag[sel].max()))
        means.append(float(mag[sel].mean()))
    predicted = float(2 - D)
    rule = {"kind": "slope", "target": predicted, "window": SLOPE_WINDOW}
    report = EstimateReport(
        estimate_id=estimate_id,
        rule=rule,
        samples={"radii": radii, "shell_max": maxima, "shell_mean": means},
        predicted=predicted,
        context={
            "pole": green.y.tolist(),
            "eps": green.eps,
            "h": domain.h,
            "exponent_formula": "2-d",
        },
    )
    if max(maxima) == 0:
        report.flags.append("no decay measurable")
        report.passed = False
        return report
    slope, _, resid = fit_power_law(zip(radii, maxima))
    report.fitted = slope
    report.fit_residual = resid
    report.passed = report.recompute_pass()
    return report


def field_magnitude(domain, green, name):
    """Pointwise magnitude of G, DG or Pi (see the module docstring)."""
    if name == "DG":
        return green.grad_magnitude(domain)
    return green.magnitude() if name == "G" else green.pressure_magnitude()


def profile_grid(domain, green, variant="interior", R0=1.0):
    """Six equally spaced radii from 2 eps + h/2, just outside the mollifier
    core, to dist(y, boundary)/2 (interior) or 0.9 R0 (global)."""
    lo = 2 * green.eps + domain.h / 2
    hi = dist_to_boundary(domain, green.y) / 2 if variant == "interior" else R0 * 0.9
    if hi <= lo:
        hi = lo + 4 * domain.h
    return [lo + k * (hi - lo) / 5.0 for k in range(6)]


def _admissible_radii(domain, green, grid, variant, R0, lower):
    dist = dist_to_boundary(domain, green.y)
    upper = min(R0, dist) if variant == "interior" else R0
    radii = [float(r) for r in grid if lower < r <= upper]
    return sorted(radii), upper


def annulus_norms(domain, green, R_grid, variant="interior", R0=1.0,
                  estimate_id="annulus", fit_part="combined"):
    """Norms on the annulus away from the pole against R^((2-d)/2).

    Measures ``||G||_L6``, ``||DG||_L2``, and ``||Pi||_L2`` on cells
    outside B_R(y) for each admissible R (filtered by the variant's radius
    constraints).  ``fit_part`` selects the curve driving the pass rule:
    "combined" (the sum of all three), "G_DG", or "Pi".
    """
    radii, upper = _admissible_radii(domain, green, R_grid, variant, R0, 2 * green.eps)
    if not radii:
        raise ResolutionError(
            f"no admissible radii in (2 eps, {upper:.4g}) for this grid"
        )
    mag = green.magnitude()
    grad = green.grad_magnitude(domain)
    pres = green.pressure_magnitude()
    dist = np.linalg.norm(domain.cell_centers - green.y, axis=1)
    rows = {"G_L6": [], "DG_L2": [], "Pi_L2": [], "G_DG": [], "combined": []}
    kept = []
    for R in radii:
        out = np.flatnonzero(dist > R)
        if len(out) == 0:
            continue
        g6 = lp_norm(domain, mag, 2 * D / (D - 2), out)
        d2 = lp_norm(domain, grad, 2, out)
        p2 = lp_norm(domain, pres, 2, out)
        kept.append(R)
        rows["G_L6"].append(g6)
        rows["DG_L2"].append(d2)
        rows["Pi_L2"].append(p2)
        rows["G_DG"].append(g6 + d2)
        rows["combined"].append(g6 + d2 + p2)
    curve = {"combined": rows["combined"], "G_DG": rows["G_DG"],
             "Pi": rows["Pi_L2"]}[fit_part]
    predicted = (2 - D) / 2.0
    rule = {"kind": "slope", "target": predicted, "window": SLOPE_WINDOW}
    report = EstimateReport(
        estimate_id=estimate_id,
        rule=rule,
        samples={"radii": kept, **rows},
        predicted=predicted,
        context={
            "pole": green.y.tolist(),
            "eps": green.eps,
            "h": domain.h,
            "variant": variant,
            "R0": R0,
            "fit_part": fit_part,
            "exponent_formula": "(2-d)/2",
        },
    )
    positive = [(r, v) for r, v in zip(kept, curve) if v > 0]
    if len(positive) < 3:
        report.flags.append("fewer than 3 nonempty annuli")
        return report
    slope, _, resid = fit_power_law(positive)
    report.fitted = slope
    report.fit_residual = resid
    report.passed = report.recompute_pass()
    return report


WEAK_TYPE_EXPONENTS = {
    "G": D / (D - 2.0),
    "DG": D / (D - 1.0),
    "Pi": D / (D - 1.0),
}
WEAK_TYPE_FLOOR_POWER = {"G": 2 - D, "DG": 1 - D, "Pi": 1 - D}


def weak_type_profile(domain, values, exponent, thresholds, floor=0.0,
                      estimate_id="weak-type"):
    """Envelope t^p |{|field| > t}| over a threshold grid above the floor.

    The envelope of an exact weak-type field is flat; the report carries
    its sup, inf over populated thresholds, and their ratio.  Thresholds at
    or below the theorem floor are rejected.
    """
    t = np.asarray(sorted(float(v) for v in thresholds))
    if len(t) == 0:
        raise ParameterError("empty threshold grid")
    if t[0] <= floor:
        raise ParameterError(
            f"thresholds must exceed the floor {floor:.4g}, got {t[0]:.4g}"
        )
    v = np.abs(np.asarray(values, dtype=float))
    measures = np.array([domain.h**3 * np.count_nonzero(v > ti) for ti in t])
    envelope = measures * t**exponent
    populated = envelope > 0
    rule = {"kind": "envelope", "max_ratio": ENVELOPE_RATIO_MAX}
    report = EstimateReport(
        estimate_id=estimate_id,
        rule=rule,
        samples={"thresholds": t, "measures": measures, "envelope": envelope},
        predicted=-exponent,
        context={"floor": floor, "h": domain.h, "exponent": exponent},
    )
    if measures.sum() == 0:
        report.flags.append("all level sets empty")
        report.envelope_ratio = None
        return report
    if not populated.all():
        report.flags.append(
            f"{np.count_nonzero(~populated)} of {len(t)} thresholds above the field max"
        )
    sup = float(envelope[populated].max())
    inf = float(envelope[populated].min())
    report.envelope_ratio = sup / inf
    report.samples["envelope_sup"] = sup
    report.samples["envelope_inf"] = inf
    report.passed = report.recompute_pass()
    return report


def weak_type_envelope(domain, green, name, base, estimate_id="weak-type"):
    """Weak-type envelope of the named field above the floor base^power.

    Thresholds run geometrically from just above the floor to the smaller
    of 100 x floor and the 27th largest cell value: smaller level sets are
    below the voxel resolution of the measure.  A cap at or below the floor
    leaves every level set empty, and the report passes vacuously.
    """
    values = field_magnitude(domain, green, name)
    floor = base ** WEAK_TYPE_FLOOR_POWER[name]
    srt = np.sort(values)[::-1]
    tmax = min(floor * 100.0, srt[min(26, len(srt) - 1)] * 0.999)
    if tmax <= floor * 1.01:
        return EstimateReport(
            estimate_id=estimate_id,
            rule={"kind": "envelope", "max_ratio": ENVELOPE_RATIO_MAX},
            samples={"measured": 0.0},
            flags=["field max at or below threshold floor; vacuous"],
            passed=True,
            context={"floor": floor, "field": name},
        )
    thresholds = np.geomspace(floor * 1.01, tmax, 12)
    return weak_type_profile(domain, values, WEAK_TYPE_EXPONENTS[name], thresholds,
                             floor, estimate_id)


LQ_RANGES = {"G": (1.0, D / (D - 2.0)), "DG": (1.0, D / (D - 1.0)),
             "Pi": (1.0, D / (D - 1.0))}
LQ_PREDICTED = {
    "G": lambda q: 2 - D + D / q,
    "DG": lambda q: 1 - D + D / q,
    "Pi": lambda q: 1 - D + D / q,
}


def local_lq_norms(domain, green, R_grid, q_list, variant="interior", R0=1.0,
                   id_prefix="lq", fields=("G", "DG", "Pi")):
    """Local L_q growth of G, DG, Pi near the pole, one report per field.

    Admissible q are the intervals where the predicted norms stay finite:
    [1, d/(d-2)) for G and [1, d/(d-1)) for DG and Pi; a q outside the
    range of any requested field raises.  Fits ||.||_{L_q(B_R(y))} vs R.
    """
    q_list = [float(q) for q in q_list]
    for name in fields:
        lo, hi = LQ_RANGES[name]
        for q in q_list:
            if not (lo <= q < hi):
                raise ParameterError(
                    f"q = {q:g} outside the admissible [{lo:g}, {hi:.4g}) for {name}"
                )
    radii, _ = _admissible_radii(domain, green, R_grid, variant, R0, 2 * green.eps)
    if not radii:
        raise ResolutionError("no admissible radii for the local Lq grid")
    dist = np.linalg.norm(domain.cell_centers - green.y, axis=1)
    ball_cells = [np.flatnonzero(dist <= R) for R in radii]
    reports = {}
    for name in fields:
        values = field_magnitude(domain, green, name)
        samples = {"radii": radii}
        fits = []
        for q in q_list:
            norms = [lp_norm(domain, values, q, c) for c in ball_cells]
            samples[f"norms_q{q:g}"] = norms
            slope, _, resid = fit_power_law(zip(radii, norms))
            fits.append((q, slope, resid))
        predicted = LQ_PREDICTED[name](q_list[0])
        rule = {"kind": "slope", "target": predicted, "window": LQ_SLOPE_WINDOW}
        rep = EstimateReport(
            estimate_id=f"{id_prefix}-{name}",
            rule=rule,
            samples=samples,
            predicted=predicted,
            fitted=fits[0][1],
            fit_residual=fits[0][2],
            context={
                "pole": green.y.tolist(),
                "eps": green.eps,
                "h": domain.h,
                "variant": variant,
                "q": q_list,
                "exponent_formula": "2-d+d/q" if name == "G" else "1-d+d/q",
            },
        )
        rep.samples["all_fits"] = [s for _, s, _ in fits]
        rep.passed = rep.recompute_pass() and all(
            abs(s - LQ_PREDICTED[name](q)) <= LQ_SLOPE_WINDOW
            for q, s, _ in fits
        )
        reports[name] = rep
    return reports


# ---------------------------------------------------------------------------
# pole-centred dyadic annuli
#
# The paper's bounds hold up to a constant that does not depend on r, and
# G(., y) is fixed only up to a constant matrix (here: mean-zero columns).
# On an annulus A = {a r < |x-y| <= b r} the deviation f - (f)_A is at most
# twice mean |f| on A, so it obeys the same bound, is exact for a kernel
# homogeneous in x - y, and ignores any constant added to G.  Fits at radii
# comparable to the domain size are then free of the normalization
# constant (Grueter & Widman 1982 prove the pointwise bound this way).


def annulus_cells(domain, green, radii, inner, outer, pad=0.0):
    """Cells of ``{inner r - pad < |x-y| <= outer r + pad}`` for each r.

    Raises ResolutionError if an annulus holds no cell of the domain.
    """
    dist = np.linalg.norm(domain.cell_centers - green.y, axis=1)
    annuli = []
    for r in radii:
        cells = np.flatnonzero((dist > inner * r - pad) & (dist <= outer * r + pad))
        if len(cells) == 0:
            raise ResolutionError(f"annulus at r = {r:.4g} contains no cells")
        annuli.append(cells)
    return annuli


def annulus_deviation(field, cells):
    """Pointwise norm of ``f - (f)_A`` on the cells A; field is (..., ncells)."""
    sub = np.asarray(field, dtype=float)[..., cells]
    dev = sub - sub.mean(axis=-1, keepdims=True)
    return np.sqrt(np.sum(dev.reshape(-1, len(cells)) ** 2, axis=0))


def _annulus_slope_report(domain, green, estimate_id, radii, samples, curve,
                          predicted, window, annulus, formula):
    rule = {"kind": "slope", "target": predicted, "window": window}
    report = EstimateReport(
        estimate_id=estimate_id,
        rule=rule,
        samples={"radii": list(radii), **samples},
        predicted=predicted,
        context={
            "pole": green.y.tolist(),
            "eps": green.eps,
            "h": domain.h,
            "annulus": annulus,
            "exponent_formula": formula,
        },
    )
    if min(curve) <= 0:
        report.flags.append("annulus quantity vanishes; no decay measurable")
        return report
    slope, _, resid = fit_power_law(zip(radii, curve))
    report.fitted = slope
    report.fit_residual = resid
    report.passed = report.recompute_pass()
    return report


def annulus_decay_profile(domain, green, radii, estimate_id="annulus-decay"):
    """Pointwise decay: max |G - (G)_A| on A_r = {r - h/2 < |x-y| <= 2r + h/2}
    fitted against r^(2-d)."""
    radii = sorted(float(r) for r in radii)
    maxima = [float(annulus_deviation(green.G, cells).max())
              for cells in annulus_cells(domain, green, radii, 1, 2, domain.h / 2)]
    return _annulus_slope_report(
        domain, green, estimate_id, radii, {"annulus_max": maxima}, maxima,
        float(2 - D), SLOPE_WINDOW,
        "r-h/2 < |x-y| <= 2r+h/2", "2-d",
    )


def annulus_oscillation_norms(domain, green, radii, estimate_id="annulus-norms"):
    """``||G - (G)_A||_L6 + ||DG||_L2 + ||Pi - (Pi)_A||_L2`` on
    A_R = {R < |x-y| <= 2R} fitted against R^((2-d)/2)."""
    radii = sorted(float(r) for r in radii)
    grad = green.grad_magnitude(domain)
    rows = {"G_L6": [], "DG_L2": [], "Pi_L2": []}
    for cells in annulus_cells(domain, green, radii, 1, 2):
        rows["G_L6"].append(lp_norm(domain, annulus_deviation(green.G, cells),
                                    2 * D / (D - 2)))
        rows["DG_L2"].append(lp_norm(domain, grad, 2, cells))
        rows["Pi_L2"].append(lp_norm(domain, annulus_deviation(green.Pi, cells), 2))
    combined = [sum(parts) for parts in zip(*rows.values())]
    return _annulus_slope_report(
        domain, green, estimate_id, radii, {**rows, "combined": combined},
        combined, (2 - D) / 2.0, SLOPE_WINDOW,
        "R < |x-y| <= 2R", "(2-d)/2",
    )


def annulus_local_l1(domain, green, radii, id_prefix="annulus-L1"):
    """L1 norms of G - (G)_A, DG and Pi on A' = {R/2 < |x-y| <= R}, one
    report per field, fitted against R^(2-d+d/q) (G) and R^(1-d+d/q) (DG,
    Pi) at q = 1."""
    radii = sorted(float(r) for r in radii)
    annuli = annulus_cells(domain, green, radii, 0.5, 1)
    grad = green.grad_magnitude(domain)
    pres = green.pressure_magnitude()
    norms = {
        "G": [lp_norm(domain, annulus_deviation(green.G, c), 1) for c in annuli],
        "DG": [lp_norm(domain, grad, 1, c) for c in annuli],
        "Pi": [lp_norm(domain, pres, 1, c) for c in annuli],
    }
    return {
        name: _annulus_slope_report(
            domain, green, f"{id_prefix}-{name}", radii, {"norms_q1": curve},
            curve, LQ_PREDICTED[name](1.0), LQ_SLOPE_WINDOW,
            "R/2 < |x-y| <= R", "2-d+d/q" if name == "G" else "1-d+d/q",
        )
        for name, curve in norms.items()
    }


# ---------------------------------------------------------------------------
# Caccioppoli quotients


def caccioppoli_interior(domain, u, p, f_inf, x0, R):
    """Interior energy-vs-lower-order quotient on B_R(x0) with C removed.

    quotient = (||Du||_{L2(B_{R/2})} + ||p - (p)_{B_{R/2}}||_{L2(B_{R/2})})
             / (R^-1 ||u||_{L2(B_R)} + R^((d+2)/2) ||f||_inf).
    """
    x0 = np.asarray(x0, dtype=float)
    if dist_to_boundary(domain, x0) < R:
        raise GeometryError("interior Caccioppoli ball must lie inside the domain")
    return _caccioppoli(domain, u, p, f_inf, x0, R, subtract_p_mean=True)


def caccioppoli_boundary(domain, u, p, f_inf, x0, R, theta, R0=1.0):
    """Boundary variant on Omega_R(x0), x0 on the staircase boundary.

    The pressure enters without mean subtraction (the conormal condition
    pins it); requires R < R0 and a verified positive exterior density.
    """
    x0 = np.asarray(x0, dtype=float)
    if not theta > 0:
        raise GeometryError("boundary Caccioppoli requires a positive exterior density")
    if not R < R0:
        raise GeometryError(f"boundary Caccioppoli requires R < R0 = {R0}")
    d, _ = domain._kdtree().query(x0)
    if d > domain.h / 4:
        raise GeometryError("x0 must lie on the staircase boundary")
    return _caccioppoli(domain, u, p, f_inf, x0, R, subtract_p_mean=False)


def _caccioppoli(domain, u, p, f_inf, x0, R, subtract_p_mean):
    h3 = domain.h**3
    inner = domain.cells_in_ball(x0, R / 2)
    outer = domain.cells_in_ball(x0, R)
    if len(inner) == 0 or len(outer) == 0:
        raise ResolutionError(f"Caccioppoli balls at R = {R:.4g} contain no cells")
    grad_sq = grid_operators(domain).grad_sq(u)
    du = float(np.sqrt(h3 * grad_sq[inner].sum()))
    p_in = np.asarray(p, dtype=float)[inner]
    if subtract_p_mean:
        p_in = p_in - p_in.mean()
    pn = float(np.sqrt(h3 * np.sum(p_in**2)))
    u_arr = np.atleast_2d(u)
    un = float(np.sqrt(h3 * np.sum(u_arr[:, outer] ** 2)))
    rhs = un / R + R ** ((D + 2) / 2.0) * float(f_inf)
    if rhs == 0:
        return 0.0 if (du + pn) == 0 else np.inf
    return (du + pn) / rhs


def caccioppoli_sweep(domain, u, p, f_inf, x0, radii, variant="interior", theta=None,
                      R0=1.0, estimate_id="caccioppoli"):
    """Quotient stability across a radius sweep; pass if max/min <= factor."""
    quots = []
    for R in radii:
        if variant == "interior":
            quots.append(caccioppoli_interior(domain, u, p, f_inf, x0, R))
        else:
            quots.append(caccioppoli_boundary(domain, u, p, f_inf, x0, R, theta, R0))
    rule = {"kind": "stability", "factor": QUOTIENT_STABILITY_FACTOR}
    report = EstimateReport(
        estimate_id=estimate_id,
        rule=rule,
        samples={"radii": list(radii), "quotients": quots},
        context={"variant": variant, "x0": list(np.asarray(x0, float)), "h": domain.h},
    )
    report.passed = report.recompute_pass()
    return report


def energy_envelope_report(greens, estimate_id="energy-envelope"):
    """Uniform-boundedness check of C-hat(eps) across an eps sweep."""
    envs = [g.energy_envelope() for g in greens]
    rule = {"kind": "stability", "factor": ENERGY_ENVELOPE_FACTOR}
    report = EstimateReport(
        estimate_id=estimate_id,
        rule=rule,
        samples={"eps": [g.eps for g in greens], "quotients": envs},
        context={"exponent_formula": "|Omega_eps|^((2-d)/(2d))"},
    )
    report.passed = report.recompute_pass()
    return report
