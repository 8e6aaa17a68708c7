"""Config-driven experiment pipelines and the command-line interface.

Pipelines: build domain -> coefficients -> Green sweep -> estimate reports,
with every artifact exported alongside a manifest carrying the full
configuration digest.  Subcommands:

  run     execute the estimates selected in the config
  verify  run the acceptance-criteria suite (presets smoke/standard/deep),
          or re-check a stored fixture when ``fixture_dir`` is set
  export  build and export domain/coefficients/Green fields, no estimates

A config that cannot run (an eps_sweep entry outside [2h, 1], a pole or a
point a selected runner places in no included cell, a coefficient file on
another grid) is a config error, found by ``Pipeline.build`` before the
assembly.  Exit codes, mapped in ``main`` only: 0 pass, 1 estimate failure
or any other library error, 2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import estimates as est
from .coefficients import (
    Frame,
    adjoint_field,
    build_coefficients,
    partial_oscillation,
)
from .domain import BallQuery, boundary_pole, build_domain, center_pole, dist_to_boundary
from .errors import ConfigError, SolverError, StokesGreenError
from .green import (
    GreenApprox,
    averaging_identity_check,
    check_green_invariants,
    compute_adjoint_green,
    compute_green,
    representation_check,
    symmetry_check,
)
from .system import (
    DEFAULT_STAB,
    DEFAULT_TOL,
    ConormalOperator,
    _check_grid,
    poincare_constant,
    shared_operator,
    solve_divergence,
)

PRESET_SIZES = {"smoke": 16, "standard": 24, "deep": 32}


def peak_rss_mb():
    """Peak resident set of this process so far, in MB (getrusage's
    ru_maxrss, which Linux reports in kB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


# -- estimate runners ---------------------------------------------------------
#
# Each entry of ESTIMATES maps (pipeline, estimate id) to a list of reports.
# The paper items that `verify` also measures have one runner each,
# measure_*, whose points, eps and data are parameters: the entry passes the
# CLI's values and the acceptance criterion its pinned ones.  Library
# functions are looked up by module-global name at call time, so a caller
# that replaces them (for tracing or timing) sees every call.


def _variant(eid):
    return "interior" if eid.startswith("T1") else "global"


def _theorem_green(pipe, eid):
    # T1 estimates measure at the interior pole, T2 at the boundary-near one
    kind = "interior" if eid.startswith("T1") else "boundary"
    return pipe.green(pipe.poles[kind], 2 * pipe.domain.h)


# the field each weak-type (iii-v) and local L_q (vi-viii) item measures
_THEOREM_FIELD = {"iii": "G", "iv": "DG", "v": "Pi", "vi": "G", "vii": "DG", "viii": "Pi"}


def _annulus_norms(pipe, eid):
    g = _theorem_green(pipe, eid)
    variant, R0 = _variant(eid), pipe.config.R0
    grid = est.profile_grid(pipe.domain, g, variant, R0)
    part = "G_DG" if eid.endswith("-i") else "Pi"
    return [est.annulus_norms(pipe.domain, g, grid, variant=variant, R0=R0,
                              estimate_id=eid, fit_part=part)]


def _weak_type(pipe, eid):
    g = _theorem_green(pipe, eid)
    R0 = pipe.config.R0
    base = R0 if _variant(eid) == "global" else min(R0, dist_to_boundary(pipe.domain, g.y))
    name = _THEOREM_FIELD[eid.split("-")[1]]
    return [est.weak_type_envelope(pipe.domain, g, name, base, estimate_id=eid)]


def _local_lq(pipe, eid):
    g = _theorem_green(pipe, eid)
    variant, R0 = _variant(eid), pipe.config.R0
    grid = est.profile_grid(pipe.domain, g, variant, R0)
    name = _THEOREM_FIELD[eid.split("-")[1]]
    reps = est.local_lq_norms(pipe.domain, g, grid, [1.0], variant=variant, R0=R0,
                              id_prefix=eid, fields=(name,))
    return list(reps.values())


def _decay(pipe, eid):
    dom, R0 = pipe.domain, pipe.config.R0
    h = dom.h
    out = []
    for kind in ("interior", "boundary"):
        g = pipe.green(pipe.poles[kind], 2 * h)
        hi = dist_to_boundary(dom, g.y) / 2 if kind == "interior" else R0 * 0.9
        lo = 4 * h
        if hi < lo + 2 * h:
            hi = min(8 * h, R0)
        radii = sorted({lo + k * (hi - lo) / 4.0 for k in range(5)})
        out.append(est.decay_profile(dom, g, radii, estimate_id=f"decay-{kind}"))
    return out


def _runner_points(domain):
    """The points the symmetry and caccioppoli runners measure at, by id:
    boundary_pole and its mirror across x = extent/2 (opposite
    near-boundary poles keep the mollifier balls apart even on coarse
    grids), and the interior Caccioppoli centre 0.7 extent.  The boundary
    Caccioppoli centre is a face centroid of the domain, so needs no
    check."""
    y = boundary_pole(domain)
    return {"symmetry": (y, np.array([domain.extent[0] - y[0], y[1], y[2]])),
            "caccioppoli": (np.full(3, 0.7 * min(domain.extent)),)}


def measure_symmetry(pipe, y, x, eps):
    """Symmetry and averaging discrepancies of the direct pair at y and the
    adjoint pair at x, both mollified at eps, each held to 0.15."""
    dom = pipe.domain
    gd = pipe.green(y, eps)
    ga = compute_adjoint_green(dom, pipe.coeffs, x, eps, tol=pipe.tol,
                               operator=pipe.operator.adjoint())
    context = {"x": x.tolist(), "y": y.tolist(), "eps": eps}
    return [est.bound_report(name, check(dom, gd, ga).discrepancy, 0.15, context=context)
            for name, check in (("symmetry", symmetry_check),
                                ("averaging", averaging_identity_check))]


def _symmetry(pipe, eid):
    y, x = pipe.points["symmetry"]
    return measure_symmetry(pipe, y, x, 2 * pipe.domain.h)


def measure_representation(pipe, pole, eps, f, g):
    """The RepresentationCheck of data (f, g) against the pair at (pole, eps)."""
    return representation_check(pipe.domain, pipe.coeffs, pipe.green(pole, eps), f=f, g=g,
                                tol=pipe.tol, adjoint_operator=pipe.operator.adjoint())


def _representation(pipe, eid):
    dom = pipe.domain
    pole, eps = pipe.poles["interior"], 4 * dom.h
    ctr = dom.cell_centers
    rng = np.random.default_rng(pipe.config.seed + 11)
    f = rng.standard_normal((3, dom.ncells))
    f -= f.mean(axis=1, keepdims=True)
    gd = np.sin(np.pi * ctr[:, 0]) * np.cos(np.pi * ctr[:, 1])
    rc = measure_representation(pipe, pole, eps, f, gd)
    g = pipe.green(pole, eps)
    return [est.bound_report("representation", rc.error_avg, 1e-6,
                             samples={"point_error": rc.error_point},
                             context={"pole": g.y.tolist(), "eps": g.eps})]


def measure_caccioppoli(pipe, pole, eps, xi, R, xb, Rb):
    """Caccioppoli sweeps of the first column of the pair at (pole, eps):
    interior at xi over radii R, R/sqrt(2), R/2, and boundary at xb over Rb,
    Rb/sqrt(2), Rb/2."""
    dom = pipe.domain
    g = pipe.green(pole, eps)
    u, p = g.G[:, 0, :], g.Pi[0]
    f_inf = 1.0 / dom.volume
    return [
        est.caccioppoli_sweep(dom, u, p, f_inf, xi, [R, R / np.sqrt(2), R / 2],
                              variant="interior", estimate_id="caccioppoli-interior"),
        est.caccioppoli_sweep(dom, u, p, f_inf, xb, [Rb, Rb / np.sqrt(2), Rb / 2],
                              variant="boundary", theta=2.0, R0=pipe.config.R0,
                              estimate_id="caccioppoli-boundary"),
    ]


def _caccioppoli(pipe, eid):
    dom = pipe.domain
    ext = min(dom.extent)
    (centre,) = pipe.points["caccioppoli"]
    xi = dom.cell_centers[dom.nearest_cell(centre)]
    R = min(0.28 * ext, dist_to_boundary(dom, xi) * 0.95)
    Rb = min(0.4 * ext, pipe.config.R0 * 0.9)
    return measure_caccioppoli(pipe, pipe.poles["interior"], 4 * dom.h, xi, R,
                               dom.boundary_face_centroids[-1], Rb)


def _oscillation(pipe, eid):
    dom = pipe.domain
    ext = min(dom.extent)
    ball = BallQuery(tuple(np.array(dom.extent) / 2), min(ext / 2, max(ext / 4, 4 * dom.h)))
    gamma = partial_oscillation(pipe.coeffs, Frame.identity(), ball)
    return [est.bound_report("oscillation", gamma, None,
                             context={"frame": "identity", "R": ball.radius})]


def measure_bogovskii(pipe):
    """The divergence-solve quotient for the mean-free +-1 data split at
    x = extent/2, with its sweeps and residual."""
    dom = pipe.domain
    gpat = np.where(dom.cell_centers[:, 0] < dom.extent[0] / 2, 1.0, -1.0)
    gpat -= gpat.mean()
    sol = solve_divergence(dom, gpat, tol=pipe.tol)
    report = est.bound_report("bogovskii", sol.quotient, None,
                              samples={"div_residual": sol.div_residual},
                              context={"sweeps": sol.sweeps})
    if not sol.converged:
        report.flags.append(f"divergence residual {sol.div_residual:.3e} above its "
                            f"target {sol.div_target:.3e} (div_tol ||g||)")
    return report


def _poincare(pipe, eid):
    k0 = poincare_constant(pipe.domain, probes=8, seed=pipe.config.seed)
    return [est.bound_report("poincare", k0, None, context={"probes": 8})]


# T1-* are the interior estimates, T2-* the global ones up to the boundary;
# items i-ii are annulus norms, iii-v weak-type envelopes, vi-viii local L_q
_THEOREM_ITEMS = {"i": _annulus_norms, "ii": _annulus_norms, "iii": _weak_type,
                  "iv": _weak_type, "v": _weak_type, "vi": _local_lq,
                  "vii": _local_lq, "viii": _local_lq}
ESTIMATES = {
    **{f"{thm}-{item}": run for thm in ("T1", "T2") for item, run in _THEOREM_ITEMS.items()},
    "decay": _decay,
    "symmetry": _symmetry,
    "representation": _representation,
    "caccioppoli": _caccioppoli,
    "oscillation": _oscillation,
    "bogovskii": lambda pipe, eid: [measure_bogovskii(pipe)],
    "poincare": _poincare,
}
VALID_ESTIMATES = list(ESTIMATES)


def identity_box(n, **fields):
    """Raw config of the identity-coefficient unit box at h = 1/n."""
    return {"domain": {"kind": "box", "extent": [1.0, 1.0, 1.0], "h": 1.0 / n},
            "coefficients": {"kind": "identity"}, **fields}


PRESET_CONFIGS = {
    preset: identity_box(PRESET_SIZES[preset], poles=poles, eps_sweep="auto",
                         estimates=estimates)
    for preset, poles, estimates in (
        ("smoke", "auto-boundary", ["decay"]),
        ("standard", "auto", ["decay", "T1-i", "T1-ii", "bogovskii", "poincare"]),
        ("deep", "auto", list(VALID_ESTIMATES)),
    )
}


def _number(v, kind=(int, float), above=-math.inf):  # finite, above the bound, not a bool
    return isinstance(v, kind) and not isinstance(v, bool) and above < v < math.inf


def _nonempty_list(v, is_entry):
    return isinstance(v, list) and len(v) > 0 and all(map(is_entry, v))


def _is_descriptor(v):
    return isinstance(v, dict) and "kind" in v


def _checked(is_valid, want, **default):
    """A config field carrying its check: is_valid(value), and what a valid
    value is; the keys inside 'domain' and 'coefficients' are checked by
    their builders."""
    return dc_field(metadata={"check": (is_valid, want)}, **default)


@dataclass
class ExperimentConfig:
    """Validated experiment description; every field's default and check
    are declared here."""

    domain: dict = _checked(_is_descriptor, "a mapping with a 'kind'", default=None)
    coefficients: dict = _checked(_is_descriptor, "a mapping with a 'kind'",
                                  default_factory=lambda: {"kind": "identity"})
    poles: object = _checked(
        lambda v: v in ("auto", "auto-boundary") or (
            isinstance(v, list) and len(v) == 1 and isinstance(v[0], (list, tuple))
            and len(v[0]) == 3 and all(map(_number, v[0]))),
        "'auto', 'auto-boundary' or a list of one finite 3-vector", default="auto")
    eps_sweep: object = _checked(
        lambda v: v == "auto" or _nonempty_list(v, lambda e: _number(e, above=0)),
        "'auto' or a non-empty list of positive lengths", default="auto")
    solver: dict = _checked(
        lambda v: isinstance(v, dict) and set(v) <= {"tol", "c_s"}
        and all(_number(x, above=0) for x in v.values()),
        "a mapping of 'tol' and 'c_s' to positive numbers",
        default_factory=lambda: {"tol": DEFAULT_TOL, "c_s": DEFAULT_STAB})
    estimates: list = _checked(
        lambda v: isinstance(v, list) and all(isinstance(e, str) and e in ESTIMATES for e in v),
        f"a list of ids from {VALID_ESTIMATES}", default_factory=list)
    R0: float = _checked(lambda v: _number(v, above=0) and v <= 1, "a number in (0, 1]",
                         default=0.5)
    out: str = _checked(lambda v: isinstance(v, str) and v != "", "a non-empty path",
                        default="stokesgreen-out")
    seed: int = _checked(lambda v: _number(v, int, -1), "a non-negative integer", default=0)
    memory_budget_mb: int = _checked(lambda v: v is None or _number(v, int, 0),
                                     "a positive integer or null", default=8192)
    fixture_dir: str | None = _checked(lambda v: v is None or isinstance(v, str),
                                       "a path or null", default=None)
    preset: str | None = _checked(
        lambda v: v is None or (isinstance(v, str) and v in PRESET_SIZES),
        f"null or one of {sorted(PRESET_SIZES)}", default=None)

    @classmethod
    def from_dict(cls, raw, **overrides):
        """Validate raw once, with overrides (command-line settings) applied."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        raw = {**raw, **overrides}
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path, **overrides):
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw, **overrides)

    def validate(self):
        for f in fields(self):
            is_valid, want = f.metadata["check"]
            value = getattr(self, f.name)
            if not is_valid(value):
                raise ConfigError(f"'{f.name}' must be {want}, got {value!r}")

    def canonical(self):
        keys = sorted(self.__dataclass_fields__)
        return json.dumps({k: getattr(self, k) for k in keys}, sort_keys=True)

    def digest(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _build_fields(cfg, stage=lambda name, build: build()):
    """Domain and coefficients of a config; a descriptor a builder rejects,
    or coefficients on another grid than the domain's, is a config error."""
    try:
        domain = stage("domain", lambda: build_domain(cfg.domain))
        coeffs = stage("coefficients", lambda: build_coefficients(domain, cfg.coefficients))
        _check_grid(domain, coeffs)
        return domain, coeffs
    except StokesGreenError as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


class Pipeline:
    """Executes one experiment config, keeping partial results on failure."""

    def __init__(self, config):
        self.config = config
        self.out = Path(config.out)
        self.reports = []
        import scipy

        self.manifest = {
            "version": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "config_digest": config.digest(),
            "seed": config.seed,
            "stages": {},
            "stage_peak_rss_mb": {},  # process peak when each stage ended
            "status": "incomplete",
        }
        self._greens = {}
        self.tol = config.solver.get("tol", DEFAULT_TOL)

    # -- construction stages ----------------------------------------------

    def _stage(self, name, fn):
        t0 = time.perf_counter()
        out = fn()
        self.manifest["stages"][name] = round(time.perf_counter() - t0, 3)
        self.manifest["stage_peak_rss_mb"][name] = peak_rss_mb()
        return out

    def build(self):
        cfg = self.config
        self.domain, self.coeffs = _build_fields(cfg, self._stage)
        # the pole each runner measures at, by kind; "auto-boundary" and an
        # explicit pole give both kinds their one pole
        if cfg.poles == "auto":
            self.poles = {"interior": center_pole(self.domain),
                          "boundary": boundary_pole(self.domain)}
        else:
            one = (boundary_pole(self.domain) if cfg.poles == "auto-boundary"
                   else np.asarray(cfg.poles[0], dtype=float))
            self.poles = {"interior": one, "boundary": one}
        # every point a selected estimate measures at must lie in an included
        # cell: the poles, and the points the symmetry and caccioppoli
        # runners place themselves
        self.points = _runner_points(self.domain)
        placed = (f" (placed by poles {cfg.poles!r}); give an explicit pole"
                  if isinstance(cfg.poles, str) else "")
        checked = [("pole", pole, placed) for pole in self.poles.values()]
        checked += [(f"{eid} point", point, f" (placed by the {eid} runner)")
                    for eid in cfg.estimates for point in self.points.get(eid, ())]
        for what, point, hint in checked:
            if not self.domain.contains(point):
                raise ConfigError(f"{what} {point.tolist()} lies in no included cell{hint}")
        h = self.domain.h
        if cfg.eps_sweep == "auto":
            self.eps_sweep = [8 * h, 6 * h, 4 * h, 2 * h]
        else:
            self.eps_sweep = [float(e) for e in cfg.eps_sweep]
        for eps in self.eps_sweep:  # the range mollified_rhs accepts
            if not 2 * h <= eps <= 1:
                raise ConfigError(f"eps_sweep entry {eps} is outside [2h, 1] = [{2 * h}, 1]")
        self.operator = self._stage(
            "assemble",
            lambda: shared_operator(self.domain, self.coeffs,
                                    cfg.solver.get("c_s", DEFAULT_STAB)),
        )

    def green(self, pole, eps):
        key = (tuple(np.round(pole, 12)), round(eps, 12))
        if key not in self._greens:
            self._greens[key] = compute_green(
                self.domain, self.coeffs, pole, eps,
                tol=self.tol, operator=self.operator,
            )
        return self._greens[key]

    def run_estimate(self, eid):
        """Reports of one estimate id, stamped with the coefficients digest."""
        if eid not in ESTIMATES:
            raise ConfigError(f"unknown estimate id {eid!r}")
        reports = ESTIMATES[eid](self, eid)
        digest = self.coeffs.digest()
        for rep in reports:
            rep.context.setdefault("coefficients_digest", digest)
        return reports

    # -- outputs ------------------------------------------------------------

    def export_artifacts(self):
        self.out.mkdir(parents=True, exist_ok=True)
        self.domain.export_mask(self.out / "domain.bin")
        (self.out / "config.json").write_text(self.config.canonical())
        for (pole, eps), g in self._greens.items():
            tag = f"green_y{'_'.join(f'{v:.6g}' for v in pole)}_eps{eps:.6g}"
            g.export(self.out / f"{tag}.bin",
                     extra_meta={"coefficients": self.config.coefficients})

    def finalize(self, status):
        self.out.mkdir(parents=True, exist_ok=True)
        if self.reports:
            est.write_csv(self.reports, self.out / "reports.csv")
            est.write_records(self.reports, self.out / "reports.txt")
        self.manifest["status"] = status
        self.manifest["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        (self.out / "manifest.json").write_text(json.dumps(self.manifest, indent=1))


def run_experiment(config):
    """Execute the configured pipeline; 0 if every report passes, else 1.  A
    library error after ``build`` is recorded in the manifest and raised."""
    pipe = Pipeline(config)
    pipe.build()
    try:
        for eid in config.estimates:
            pipe.reports.extend(pipe._stage(f"estimate:{eid}", lambda: pipe.run_estimate(eid)))
        pipe.export_artifacts()
    except StokesGreenError as exc:
        pipe.manifest["error"] = f"{type(exc).__name__}: {exc}"
        pipe.finalize("failed")
        raise
    all_pass = all(r.passed for r in pipe.reports)
    pipe.finalize("ok" if all_pass else "estimate-failures")
    for r in pipe.reports:
        print(f"{r.estimate_id}: {'PASS' if r.passed else 'FAIL'}")
    return 0 if all_pass else 1


def verify_fixture(config):
    """Re-check a stored Green export against its invariants."""
    fdir = Path(config.fixture_dir)
    stored = ExperimentConfig.from_file(fdir / "config.json")
    domain, coeffs = _build_fields(stored)
    exports = sorted(fdir.glob("green_*.bin"))
    if not exports:
        raise ConfigError(f"fixture dir {fdir} has no green exports")
    # assembled from the adjoint coefficients, not transposed: the check
    # then rests on an assembly independent of the run that exported
    adjoint = ConormalOperator(
        domain, coeffs if coeffs.is_self_adjoint() else adjoint_field(coeffs),
        stored.solver.get("c_s", DEFAULT_STAB))
    failures = []
    for path in exports:
        try:
            green = GreenApprox.import_file(path, domain)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            failures.append(f"{path.name}: unreadable export ({exc})")
            continue
        inv = check_green_invariants(domain, green)
        if not inv["ok"]:
            failures.append(f"{path.name}: divergence/normalization check failed")
        rng = np.random.default_rng(stored.seed + 5)
        f = rng.standard_normal((3, domain.ncells))
        f -= f.mean(axis=1, keepdims=True)
        rc = representation_check(domain, coeffs, green, f=f,
                                  tol=stored.solver.get("tol", DEFAULT_TOL),
                                  adjoint_operator=adjoint)
        if not rc.error_avg <= 1e-6:  # NaN (no cell in the eps-ball) fails too
            failures.append(
                f"{path.name}: representation check failed (err {rc.error_avg:.3e})"
            )
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print(f"OK fixture {fdir}: {len(exports)} exports verified")
    return 1 if failures else 0


def verify(config):
    """Run the acceptance suite for the configured preset."""
    if config.fixture_dir:
        return verify_fixture(config)
    from .acceptance import MEMORY_REQUIREMENT_MB, AcceptanceSuite

    preset = config.preset or "smoke"
    need = MEMORY_REQUIREMENT_MB[preset]
    if config.memory_budget_mb is not None and config.memory_budget_mb < need:
        print(
            f"SKIP preset {preset}: requires ~{need} MB, budget is "
            f"{config.memory_budget_mb} MB"
        )
        return 0
    suite = AcceptanceSuite(preset=preset, seed=config.seed,
                            tol=config.solver.get("tol", DEFAULT_TOL))
    results = suite.run()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = [r for res in results for r in res.reports]
    if reports:
        est.write_csv(reports, out / "acceptance_reports.csv")
        est.write_records(reports, out / "acceptance_reports.txt")
    manifest = {
        "version": __version__,
        "preset": preset,
        "config_digest": config.digest(),
        "criteria": {r.cid: {"passed": bool(r.passed), "seconds": round(r.seconds, 2),
                             "peak_rss_mb": r.peak_rss_mb}
                     for r in results},
        "status": "ok" if all(r.passed for r in results) else "criterion-failures",
    }
    (out / "verify_manifest.json").write_text(json.dumps(manifest, indent=1))
    return 0 if all(r.passed for r in results) else 1


def export(config):
    pipe = Pipeline(config)
    pipe.build()
    for eps in pipe.eps_sweep:  # the interior pole only; exports are per-pole heavy
        pipe.green(pipe.poles["interior"], eps)
    pipe.export_artifacts()
    pipe.finalize("ok")
    print(f"exported {len(pipe._greens)} Green fields to {pipe.out}")
    return 0


def _load_config(args):
    overrides = {k: v for k, v in (("preset", args.preset), ("out", args.out)) if v}
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    if args.preset:
        return ExperimentConfig.from_dict(PRESET_CONFIGS[args.preset], **overrides)
    raise ConfigError("either --config or --preset is required")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stokesgreen",
        description="Green functions of conormal Stokes systems: experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "run the configured estimate pipeline"),
        ("verify", "run the acceptance-criteria suite"),
        ("export", "build and export fields without estimates"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--preset", choices=sorted(PRESET_SIZES),
                       help="built-in preset (smoke/standard/deep)")
    args = parser.parse_args(argv)
    command = {"run": run_experiment, "verify": verify, "export": export}[args.command]
    try:
        return command(_load_config(args))
    except StokesGreenError as exc:  # the one place an error becomes an exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, SolverError) else 1
