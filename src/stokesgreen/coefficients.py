"""Coefficient tensors for the variable-coefficient Stokes operator.

A coefficient field assigns to every bounding-box cell a rank-4 tensor
``A[alpha, beta, i, j]`` (3x3x3x3, dimensionless) together with a declared
ellipticity constant ``lam`` in (0, 1].  Fields are stored as a codebook of
distinct tensors plus a per-cell index, so piecewise fields stay cheap on
large grids.

Block norms ``|A^{ab}|`` are measured as the maximum of row- and
column-sums of absolute entries.  This bounds the spectral norm and is
invariant under the tensor adjoint, so the declared ellipticity survives
``adjoint_field`` exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, ResolutionError, ValidationError

DIM = 3
_ORTHO_TOL = 1e-12
# cells per gathered (cells, 81) block in partial_oscillation
_OSCILLATION_CHUNK = 4096


def identity_tensor(scale=1.0):
    """The tensor of the classical Stokes operator, optionally scaled."""
    A = np.zeros((DIM, DIM, DIM, DIM))
    for a in range(DIM):
        for i in range(DIM):
            A[a, a, i, i] = scale
    return A


def block_norm(tensor):
    """Max over (alpha, beta) of max(row-sum, column-sum) of |A^{ab}|."""
    A = np.abs(np.asarray(tensor, dtype=float))
    rows = A.sum(axis=3).max(axis=2)
    cols = A.sum(axis=2).max(axis=2)
    return float(np.maximum(rows, cols).max())


def coercivity_matrix(tensor):
    """The 9x9 matrix M with xi' M xi = sum A^{ab}_{ij} xi_b^j xi_a^i."""
    A = np.asarray(tensor, dtype=float)
    return A.transpose(0, 2, 1, 3).reshape(DIM * DIM, DIM * DIM)


def coercivity_lower_bound(tensor):
    """Exact coercivity constant: smallest eigenvalue of the symmetric part."""
    M = coercivity_matrix(tensor)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())


@dataclass(frozen=True)
class Frame:
    """A local coordinate system: origin plus orthonormal axis rows."""

    origin: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        R = self.rotation
        if R.shape != (DIM, DIM) or self.origin.shape != (DIM,):
            raise GeometryError("frame requires a 3-vector origin and 3x3 rotation")
        if np.abs(R @ R.T - np.eye(DIM)).max() > _ORTHO_TOL:
            raise GeometryError("frame rotation is not orthonormal to 1e-12")

    def to_frame(self, points):
        """Coordinates of world points in this frame."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.origin) @ self.rotation.T

    @staticmethod
    def identity(origin=(0.0, 0.0, 0.0)):
        return Frame(np.asarray(origin, dtype=float), np.eye(DIM))

    @staticmethod
    def axis_permutation(order, origin=(0.0, 0.0, 0.0)):
        """Frame whose k-th axis is the world axis ``order[k]``."""
        R = np.zeros((DIM, DIM))
        for k, a in enumerate(order):
            R[k, a] = 1.0
        return Frame(np.asarray(origin, dtype=float), R)

    @staticmethod
    def from_first_axis(direction, origin=(0.0, 0.0, 0.0)):
        """Frame whose first axis points along ``direction``."""
        d = np.asarray(direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0:
            raise GeometryError("frame direction must be nonzero")
        e1 = d / n
        helper = np.array([1.0, 0.0, 0.0])
        if abs(e1 @ helper) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        e2 = helper - (helper @ e1) * e1
        e2 /= np.linalg.norm(e2)
        e3 = np.cross(e1, e2)
        return Frame(np.asarray(origin, dtype=float), np.stack([e1, e2, e3]))


class CoefficientField:
    """Per-cell coefficient tensors over a domain's bounding box."""

    def __init__(self, shape, h, tensors, index, lam):
        self.shape = tuple(int(n) for n in shape)
        self.h = float(h)
        self.tensors = np.asarray(tensors, dtype=float)
        self.index = np.asarray(index, dtype=np.int32)
        if self.tensors.ndim != 5 or self.tensors.shape[1:] != (DIM,) * 4:
            raise ValidationError("tensors must have shape (K, 3, 3, 3, 3)")
        if not np.isfinite(self.tensors).all():
            raise ValidationError("tensors must be finite")
        nbbox = int(np.prod(self.shape))
        if self.index.shape != (nbbox,):
            raise ValidationError("index must cover every bounding-box cell")
        if not (0 < lam <= 1):
            raise ValidationError(f"ellipticity constant must be in (0, 1], got {lam}")
        self.lam = float(lam)

    @property
    def nbbox(self):
        return int(np.prod(self.shape))

    def entry(self, alpha, beta, i, j, flat_ids=None):
        """Per-cell values of one tensor entry, optionally restricted."""
        col = self.tensors[:, alpha, beta, i, j]
        idx = self.index if flat_ids is None else self.index[flat_ids]
        return col[idx]

    def is_self_adjoint(self):
        adj = self.tensors.transpose(0, 2, 1, 4, 3)
        return bool(np.array_equal(adj, self.tensors))

    def digest(self):
        import hashlib

        hsh = hashlib.sha256()
        hsh.update(self.tensors.tobytes())
        hsh.update(self.index.tobytes())
        hsh.update(np.float64(self.lam).tobytes())
        return hsh.hexdigest()[:16]

    def export(self, path):
        """Write per-cell tensors as flat binary (81 doubles/cell) + sidecar."""
        path = Path(path)
        dense = self.tensors[self.index].reshape(self.nbbox, 81)
        path.write_bytes(np.ascontiguousarray(dense).tobytes())
        meta = {"shape": list(self.shape), "h": self.h, "lam": self.lam}
        path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=1))

    @classmethod
    def import_file(cls, path):
        """Read an export back; every distinct tensor is checked exactly
        against the declared lam, as the other builders check theirs."""
        path = Path(path)
        meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        nbbox = int(np.prod(meta["shape"]))
        raw = np.frombuffer(path.read_bytes(), dtype=float).reshape(nbbox, 81)
        tensors = raw.reshape(nbbox, DIM, DIM, DIM, DIM)
        field = cls(meta["shape"], meta["h"], tensors, np.arange(nbbox), meta["lam"])
        for row in np.unique(raw, axis=0):
            _check_member(row.reshape((DIM,) * 4), field.lam)
        return field


def _cell_centers(shape, h):
    grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    return np.stack([(g.ravel() + 0.5) * h for g in grids], axis=1)


def _check_member(tensor, lam):
    if block_norm(tensor) > 1.0 / lam + 1e-12:
        raise ValidationError(
            f"member tensor norm {block_norm(tensor):.6g} exceeds 1/lam = {1 / lam:.6g}"
        )
    ce = coercivity_lower_bound(tensor)
    if ce < lam - 1e-12:
        raise ValidationError(
            f"member tensor coercivity {ce:.6g} is below lam = {lam:.6g}"
        )


def constant_identity(domain):
    """The classical Stokes coefficients: A^{ab}_{ij} = delta_ab delta_ij."""
    return CoefficientField(
        domain.shape,
        domain.h,
        identity_tensor()[None],
        np.zeros(int(np.prod(domain.shape)), dtype=np.int32),
        lam=1.0,
    )


def constant_field(domain, tensor, lam):
    """A spatially constant field with the given tensor."""
    _check_member(tensor, lam)
    return CoefficientField(
        domain.shape,
        domain.h,
        np.asarray(tensor, dtype=float)[None],
        np.zeros(int(np.prod(domain.shape)), dtype=np.int32),
        lam=lam,
    )


def piecewise_in_direction(domain, profile, frame, lam):
    """Field taking profile values by the frame-first coordinate.

    ``profile`` is a list of ``(start, tensor)`` with strictly increasing
    starts; a cell takes the tensor of the last segment whose start is at or
    below the frame-first coordinate of its center (the first segment also
    covers everything below its start).
    """
    if not profile:
        raise ValidationError("profile must contain at least one segment")
    starts = np.array([float(b) for b, _ in profile])
    if np.isnan(starts).any() or not (np.diff(starts) > 0).all():
        raise ValidationError("profile breaks must be strictly increasing")
    tensors = np.stack([np.asarray(t, dtype=float) for _, t in profile])
    for t in tensors:
        _check_member(t, lam)
    centers = _cell_centers(domain.shape, domain.h)
    t1 = frame.to_frame(centers)[:, 0]
    index = np.clip(np.searchsorted(starts, t1, side="right") - 1, 0, len(starts) - 1)
    return CoefficientField(domain.shape, domain.h, tensors, index, lam)


def checkerboard(domain, axis, period, tensor_a, tensor_b, lam):
    """Field alternating between two tensors along one axis."""
    if not period >= domain.h:
        raise ValidationError(f"checkerboard period must be at least h = {domain.h}, got {period}")
    for t in (tensor_a, tensor_b):
        _check_member(t, lam)
    centers = _cell_centers(domain.shape, domain.h)
    parity = np.floor(centers[:, axis] / period).astype(np.int64) % 2
    tensors = np.stack(
        [np.asarray(tensor_a, dtype=float), np.asarray(tensor_b, dtype=float)]
    )
    return CoefficientField(domain.shape, domain.h, tensors, parity, lam)


def validate_ellipticity(field, trials=16, seed=0):
    """Check the norm bound and sampled coercivity of a field.

    Returns ``(passed, worst_quotient)`` where the quotient is the smallest
    observed value of the coercivity form divided by ``sum |xi_a|^2`` over
    ``trials`` random xi-tuples evaluated against every distinct tensor
    value.  It samples, so it can pass a field whose exact coercivity is
    below lam.  The exact check is made when a field is built: every
    builder above, and ``CoefficientField.import_file``, rejects such a
    field.  A ``CoefficientField`` constructed directly is not checked
    against lam.
    """
    trials = int(trials)
    if trials < 1:
        raise ValidationError("at least one trial is required")
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((trials, DIM * DIM))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    worst = np.inf
    bound_ok = True
    for tensor in field.tensors:
        if block_norm(tensor) > 1.0 / field.lam + 1e-12:
            bound_ok = False
        M = coercivity_matrix(tensor)
        q = np.einsum("ti,ij,tj->t", xi, M, xi)
        worst = min(worst, float(q.min()))
    passed = bool(bound_ok and worst >= field.lam - 1e-12)
    return passed, worst


def adjoint_field(field):
    """The adjoint coefficients (A*)^{ab}_{ij} = A^{ba}_{ji}."""
    adj = field.tensors.transpose(0, 2, 1, 4, 3).copy()
    return CoefficientField(field.shape, field.h, adj, field.index.copy(), field.lam)


def partial_oscillation(field, frame, q):
    """Mean oscillation of the field over a ball, averaging out the
    frame-perpendicular variables.

    For each tensor block, computes the cell average over ``B_R(z)`` of the
    block norm of ``A(x) - mean of A over the slab at the same frame-first
    coordinate``, where the slab is the radius-R disk of frame-perpendicular
    offsets; returns the maximum over blocks.  Frame-first coordinates are
    quantized into width-h bins (exact for axis-aligned frames).
    """
    R = q.radius
    h = field.h
    if R < 4 * h:
        raise ResolutionError(f"oscillation radius {R} must be at least 4h = {4 * h}")
    z = np.asarray(q.center, dtype=float)
    extent = np.array(field.shape) * h
    if np.any(z - R < -1e-12) or np.any(z + R > extent + 1e-12):
        raise GeometryError("oscillation ball must lie inside the bounding box")

    # cell-centre offsets from z, one (cells, 3) array filled axis by axis;
    # the slab and ball cells are then gathered in chunks of
    # _OSCILLATION_CHUNK, which keeps np.add.at's order and every value
    offsets = np.empty(field.shape + (DIM,))
    for a, n in enumerate(field.shape):
        along = [1] * DIM
        along[a] = n
        offsets[..., a] = ((np.arange(n) + 0.5) * h - z[a]).reshape(along)
    rel = frame.rotation @ offsets.reshape(-1, DIM).T  # frame coords relative to z
    del offsets
    t1 = rel[0]
    perp2 = rel[1] ** 2 + rel[2] ** 2

    slab = np.flatnonzero((perp2 <= R**2) & (np.abs(t1) <= R + h))
    ball = np.flatnonzero(t1**2 + perp2 <= R**2)
    if not len(ball):
        raise ResolutionError("oscillation ball contains no cells")

    # round-half-up keeps every aligned cell layer in exactly one bin even
    # when z sits on a cell-center or cell-face plane
    slab_keys, ball_keys = (np.floor(t1[ids] / h + 0.5).astype(np.int64) for ids in (slab, ball))
    del rel, t1, perp2
    uniq, slab_bin = np.unique(slab_keys, return_inverse=True)
    sums = np.zeros((len(uniq), 81))
    for start in range(0, len(slab), _OSCILLATION_CHUNK):
        cut = slice(start, start + _OSCILLATION_CHUNK)
        np.add.at(sums, slab_bin[cut], field.tensors[field.index[slab[cut]]].reshape(-1, 81))
    counts = np.bincount(slab_bin, minlength=len(uniq)).astype(float)
    means = sums / counts[:, None]

    pos = np.searchsorted(uniq, ball_keys)
    norms = np.empty((len(ball), DIM, DIM))  # per-cell block norms
    for start in range(0, len(ball), _OSCILLATION_CHUNK):
        cut = slice(start, start + _OSCILLATION_CHUNK)
        diff = field.tensors[field.index[ball[cut]]].reshape(-1, 81) - means[pos[cut]]
        diff = np.abs(diff.reshape(-1, DIM, DIM, DIM, DIM))
        np.maximum(diff.sum(axis=4).max(axis=3), diff.sum(axis=3).max(axis=3), out=norms[cut])
    return float(norms.mean(axis=0).max())


def build_coefficients(domain, descriptor):
    """Construct a coefficient field from a config record.

    Recognized kinds: ``identity``; ``layered`` (axis, breaks, scales, lam);
    ``checkerboard`` (axis, period, scale_a, scale_b, lam); ``file`` (path).
    Layered and checkerboard scales multiply the identity tensor.
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise ValidationError("coefficients descriptor must be a mapping with 'kind'")
    kind = descriptor["kind"]
    try:
        if kind == "identity":
            return constant_identity(domain)
        if kind == "layered":
            axis = int(descriptor.get("axis", 0))
            breaks = descriptor["breaks"]
            scales = descriptor["scales"]
            lam = float(descriptor["lam"])
            order = [axis] + [a for a in range(DIM) if a != axis]
            frame = Frame.axis_permutation(order)
            profile = [
                (b, identity_tensor(s)) for b, s in zip(breaks, scales, strict=True)
            ]
            return piecewise_in_direction(domain, profile, frame, lam)
        if kind == "checkerboard":
            return checkerboard(
                domain,
                int(descriptor.get("axis", 1)),
                float(descriptor["period"]),
                identity_tensor(float(descriptor.get("scale_a", 1.0))),
                identity_tensor(float(descriptor.get("scale_b", 0.5))),
                float(descriptor["lam"]),
            )
        if kind == "file":
            return CoefficientField.import_file(descriptor["path"])
    except (LookupError, TypeError, ValueError, ArithmeticError, OSError) as exc:
        raise ValidationError(f"coefficients descriptor field missing or invalid: {exc!r}") from exc
    raise ValidationError(f"unknown coefficients kind {kind!r}")
