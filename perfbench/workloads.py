"""The three benchmark workloads.

Each workload makes its inputs from the seed when it is created, builds its
state in ``setup`` (domain, coefficients, ellipticity validation, operator
assembly and preconditioner build), runs one unit of work in ``run_pass``
and checks that work's outputs in ``check``, outside the timed region.
Library functions are called through their modules, so that the traced run
sees every call.

Why these three:

- ``deep-pipeline`` is what users run: the deep preset through ``cli.Pipeline``.
  It is the only workload that runs ``estimates``, the ``cli`` export and
  ``solve_divergence``, all on the DCT-preconditioned MINRES path.
- ``lshape-24`` is the only masked-domain path: the sparse-LU preconditioner.
- ``nonsym-adjoint-32`` is the only LGMRES path and the only full 81-entry
  tensor assembly, direct and adjoint.

A Krylov-bound checkerboard on a 48^3 grid is left out: one pass filled a
run, and its time moved too much from run to run to hold a bound.
"""

from __future__ import annotations

import copy
import csv
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stokesgreen.cli as sg_cli
import stokesgreen.coefficients as sg_coefficients
import stokesgreen.domain as sg_domain
import stokesgreen.green as sg_green
import stokesgreen.system as sg_system
from stokesgreen.errors import StokesGreenError
from tracing import patch_everywhere

TOL = 1e-9  # solver target: true relative residual of every column
REFERENCE = Path(__file__).resolve().parent / "reference" / "deep-pipeline"
# reports whose values depend on the config seed (random data or probes)
SEED_DEPENDENT = {"representation", "poincare"}


@dataclass
class Outcome:
    """What one pass produced: pair timings, Green pairs and other outputs."""

    pair_seconds: list = field(default_factory=list)
    greens: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # operation -> error it raised


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.details = {}

    def record(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}")


def check_pairs(domain, out, tally):
    """Every column meets the solver tolerance; every pair keeps its invariants."""
    for what, error in out.errors.items():
        tally.record(what, False, error)
    for n, green in enumerate(out.greens):
        for k, report in enumerate(green.reports):
            tally.details.setdefault("iterations_reported", []).append(report.iterations)
            tally.record(f"pair {n} column {k}", report.residual <= TOL,
                         f"true residual {report.residual:.3e} > {TOL:.0e}")
        inv = sg_green.check_green_invariants(domain, green)
        tally.record(f"pair {n} invariants", inv["ok"],
                     f"div_ok={inv['div_ok']} mean_ok={inv['mean_ok']}")


def _cell_center(ijk, h):
    return (np.asarray(ijk, dtype=float) + 0.5) * h


def boundary_pole(rng, n, h):
    """A cell center 4.5 h from a seeded box face, central in the other axes."""
    ijk = rng.integers(n // 4, 3 * n // 4, size=3)
    axis = int(rng.integers(3))
    ijk[axis] = 4 if rng.integers(2) == 0 else n - 5
    return _cell_center(ijk, h), axis


def _validated(coeffs, seed):
    ok, worst = sg_coefficients.validate_ellipticity(coeffs, trials=16, seed=seed)
    if not ok:
        raise ValueError(f"workload coefficients fail ellipticity (worst {worst:.4g})")
    return coeffs


def _timed_pair(out, what, solve, *args, **kwargs):
    """Time one Green pair; an error it raises is kept as a failed operation."""
    t0 = time.perf_counter()
    try:
        green = solve(*args, tol=TOL, **kwargs)
    except StokesGreenError as exc:
        out.errors[what] = f"{type(exc).__name__}: {exc}"
        return None
    out.pair_seconds.append(time.perf_counter() - t0)
    out.greens.append(green)
    return green


class LShapePairs:
    """Green pairs at eps = 2h on two seeded poles of the 24^3 L-shape."""

    name = "lshape-24"
    reusable = True

    def __init__(self, seed, out_dir):
        from scipy import ndimage

        self.seed = seed
        self.n = 24
        h = 1.0 / self.n
        # admissible: every cell within 4 cells (2 eps) is in the domain
        ijk = np.indices((self.n,) * 3)
        notch = np.all((ijk + 0.5) * h > 0.5, axis=0)
        inside = np.pad(~notch, 4, constant_values=False)
        admissible = ndimage.binary_erosion(inside, np.ones((9, 9, 9), bool))[4:-4, 4:-4, 4:-4]
        cells = np.argwhere(admissible)
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(cells), size=2, replace=False)
        self.poles = [_cell_center(cells[i], h) for i in picks]

    def setup(self):
        domain = sg_domain.build_l_shape((1.0, 1.0, 1.0), ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)),
                                         1.0 / self.n)
        coeffs = _validated(sg_coefficients.constant_identity(domain), self.seed)
        op = sg_system.ConormalOperator(domain, coeffs)
        op.preconditioner()
        return domain, coeffs, op

    def run_pass(self, state):
        domain, coeffs, op = state
        out = Outcome()
        for n, y in enumerate(self.poles):
            _timed_pair(out, f"pair at pole {n}", sg_green.compute_green,
                        domain, coeffs, y, 2 * domain.h, operator=op)
        return out

    def check(self, state, out, tally):
        check_pairs(state[0], out, tally)


def nonsymmetric_tensor(rng):
    """Identity plus a seeded perturbation with all 81 entries nonzero.

    Returns the tensor and the largest lam it satisfies: the smaller of its
    coercivity constant and the inverse of its block norm, capped at 1.
    """
    perturbation = rng.uniform(0.02, 0.08, size=(3,) * 4) * rng.choice((-1.0, 1.0), size=(3,) * 4)
    tensor = sg_coefficients.identity_tensor(1.0) + perturbation
    M = tensor.transpose(0, 2, 1, 3).reshape(9, 9)
    coercivity = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
    absolute = np.abs(tensor)
    block_norm = np.maximum(absolute.sum(axis=3).max(axis=2), absolute.sum(axis=2).max(axis=2)).max()
    lam = min(1.0, coercivity, 1.0 / block_norm) * (1 - 1e-9)
    if not (np.all(tensor != 0) and lam > 0 and
            not np.array_equal(tensor, tensor.transpose(1, 0, 3, 2))):
        raise ValueError("seeded tensor is not a strictly elliptic nonsymmetric full tensor")
    return tensor, float(lam)


class NonsymAdjoint:
    """Direct pair near a seeded face, adjoint pair at the mirror pole, checks."""

    name = "nonsym-adjoint-32"
    reusable = True

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.n = 32
        h = 1.0 / self.n
        rng = np.random.default_rng(seed)
        self.tensor, self.lam = nonsymmetric_tensor(rng)
        self.y, axis = boundary_pole(rng, self.n, h)
        self.x = self.y.copy()
        self.x[axis] = 1.0 - self.y[axis]

    def setup(self):
        domain = sg_domain.build_box((1.0, 1.0, 1.0), 1.0 / self.n)
        coeffs = _validated(sg_coefficients.constant_field(domain, self.tensor, self.lam),
                            self.seed)
        adjoint = sg_coefficients.adjoint_field(coeffs)
        op = sg_system.ConormalOperator(domain, coeffs)
        adj_op = sg_system.ConormalOperator(domain, adjoint)
        op.preconditioner()
        adj_op.preconditioner()
        return domain, coeffs, op, adj_op

    def run_pass(self, state):
        domain, coeffs, op, adj_op = state
        out = Outcome()
        eps = 2 * domain.h
        direct = _timed_pair(out, "direct pair", sg_green.compute_green,
                             domain, coeffs, self.y, eps, operator=op)
        adjoint = _timed_pair(out, "adjoint pair", sg_green.compute_adjoint_green,
                              domain, coeffs, self.x, eps, operator=adj_op)
        if direct is None or adjoint is None:
            return out
        for name, check in (("symmetry", sg_green.symmetry_check),
                            ("averaging", sg_green.averaging_identity_check)):
            try:
                out.values[name] = check(domain, direct, adjoint).discrepancy
            except StokesGreenError as exc:
                out.errors[f"{name} check"] = f"{type(exc).__name__}: {exc}"
        return out

    def check(self, state, out, tally):
        check_pairs(state[0], out, tally)
        for name, value in out.values.items():
            tally.record(f"{name} check", math.isfinite(value), f"discrepancy {value}")


class _CallTimer:
    """Times every call of one stokesgreen function and keeps what it returns."""

    def __init__(self, module, name):
        self.calls = []
        original = getattr(module, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            self.calls.append((time.perf_counter() - t0, out))
            return out

        patch_everywhere(original, timed)


class DeepPipeline:
    """The deep preset (identity box at 32^3, every estimate id) via cli.Pipeline."""

    name = "deep-pipeline"
    reusable = False  # a Pipeline caches its Green pairs and keeps its reports

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.raw = copy.deepcopy(sg_cli.PRESET_CONFIGS["deep"])
        self.raw.update(preset="deep", seed=seed)
        self.pairs = _CallTimer(sg_green, "compute_green")
        self.builds = 0

    def setup(self):
        self.builds += 1
        out = self.out_dir / f"deep-pipeline-{self.builds}"
        config = sg_cli.ExperimentConfig.from_dict(dict(self.raw, out=str(out)))
        pipe = sg_cli.Pipeline(config)
        pipe.build()
        pipe.operator.preconditioner()
        return pipe

    def run_pass(self, pipe):
        # the estimate loop of `stokesgreen run`, one stage at a time
        first = len(self.pairs.calls)
        out = Outcome()
        for eid in pipe.config.estimates:
            try:
                reports = pipe.run_estimate(eid)
            except StokesGreenError as exc:
                out.errors[f"estimate {eid}"] = f"{type(exc).__name__}: {exc}"
                continue
            for rep in reports:
                rep.context.setdefault("coefficients_digest", pipe.coeffs.digest())
            pipe.reports.extend(reports)
            out.values.setdefault("rows", {})[eid] = [r.estimate_id for r in reports]
        pipe.export_artifacts()
        pipe.finalize("ok" if all(r.passed for r in pipe.reports) else "estimate-failures")
        calls = self.pairs.calls[first:]
        out.pair_seconds = [seconds for seconds, _ in calls]
        out.greens = [green for _, green in calls]
        return out

    def check(self, pipe, out, tally):
        check_pairs(pipe.domain, out, tally)
        rows = _read_csv(pipe.out / "reports.csv")
        ref = _read_csv(REFERENCE / "reports.csv")
        records = _read_records(pipe.out / "reports.txt")
        ref_records = _read_records(REFERENCE / "reports.txt")
        identical = True
        for eid in pipe.config.estimates:
            if f"estimate {eid}" in out.errors:
                continue  # counted by check_pairs
            problems = []
            for rid in out.values["rows"][eid]:
                got, want = rows.get(rid), ref.get(rid)
                if want is None:
                    problems.append(f"{rid} is not in the reference")
                    continue
                if got["pass"] != want["pass"]:
                    problems.append(f"{rid} {got['pass']} where the reference has {want['pass']}")
                if rid in SEED_DEPENDENT:
                    problems += _seed_dependent_problems(pipe, rid, got)
                elif not _close(got["fitted"], want["fitted"]):
                    problems.append(f"{rid} fitted {got['fitted']} against {want['fitted']}")
                if rid not in SEED_DEPENDENT or pipe.config.seed == 0:
                    identical &= got == want and records.get(rid) == ref_records.get(rid)
            tally.record(f"estimate {eid}", not problems, "; ".join(problems))
        missing = set(ref) - {rid for ids in out.values.get("rows", {}).values() for rid in ids}
        tally.record("reference rows present", not missing, f"missing {sorted(missing)}")
        tally.details["reports_byte_identical"] = bool(identical and not missing)
        tally.details["export_bytes"] = sum(p.stat().st_size for p in pipe.out.rglob("*") if p.is_file())
        shutil.rmtree(pipe.out)


def _read_csv(path):
    with open(path, newline="") as fh:
        return {row["estimate_id"]: row for row in csv.DictReader(fh)}


def _read_records(path):
    records = {}
    for block in path.read_text().strip().split("\n\n"):
        records[block.split("\n", 1)[0].strip("[]")] = block
    return records


def _close(got, want, rtol=1e-6):
    if got == want:
        return True
    if not got or not want:
        return False
    return math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=1e-12)


def _seed_dependent_problems(pipe, rid, row):
    fitted = float(row["fitted"])
    if rid == "representation" and not fitted <= 1e-6:
        return [f"representation error {fitted:.3e} above its 1e-6 bound"]
    if rid == "poincare":
        # the probe family is nested and its first three probes carry no seed
        floor = sg_system.poincare_constant(pipe.domain, probes=3, seed=pipe.config.seed)
        if not fitted >= floor * (1 - 1e-7):
            return [f"poincare constant {fitted} below its seed-free floor {floor}"]
    return []


WORKLOADS = {w.name: w for w in (DeepPipeline, LShapePairs, NonsymAdjoint)}
