"""Voxelized bounded domains in three dimensions.

A domain is an axis-aligned grid of cubic cells of width ``h`` with a
boolean inclusion mask.  The boundary is the staircase surface made of
faces separating included cells from excluded ones (or from the exterior
of the bounding box).  All set measures (volumes, ball intersections,
exterior measures) are computed by cell counting: a cell belongs to a set
iff its center does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import DomainError, GeometryError, ResolutionError

DIM = 3

# 6-connectivity structuring element for the face-connectedness check.
_FACE_STRUCTURE = ndimage.generate_binary_structure(DIM, 1)


@dataclass(frozen=True)
class BallQuery:
    """A Euclidean ball ``B_r(x)`` used in geometric queries."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise GeometryError(f"ball radius must be positive, got {self.radius}")
        if len(self.center) != DIM:
            raise GeometryError("ball center must be a 3-vector")


class VoxelDomain:
    """Axis-aligned voxelization of a bounded domain.

    Attributes:
        dim: spatial dimension (fixed at 3).
        shape: cells per axis of the bounding box.
        h: cell width.
        mask: boolean inclusion flag per bounding-box cell.
        volume: ``h**3`` times the number of included cells.
    """

    dim = DIM

    def __init__(self, shape, h, mask):
        shape = tuple(int(n) for n in shape)
        if len(shape) != DIM or any(n < 1 for n in shape):
            raise GeometryError(f"invalid grid shape {shape}")
        if not h > 0:
            raise GeometryError(f"cell width must be positive, got {h}")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != shape:
            raise GeometryError("mask shape does not match grid shape")
        if not mask.any():
            raise GeometryError("domain mask is empty")
        _, ncomp = ndimage.label(mask, structure=_FACE_STRUCTURE)
        if ncomp != 1:
            raise GeometryError(
                f"included region must be face-connected, found {ncomp} components"
            )
        self.shape = shape
        self.h = float(h)
        self.mask = mask
        self.ncells = int(mask.sum())
        self.volume = self.ncells * self.h**3
        # Map bounding-box cells to compact included-cell ids (-1 outside).
        self.cell_id = -np.ones(shape, dtype=np.int64)
        self.cell_id[mask] = np.arange(self.ncells)
        ii, jj, kk = np.nonzero(mask)
        self.cell_ijk = np.stack([ii, jj, kk], axis=1)
        self.flat_ids = np.flatnonzero(mask.ravel())
        self._boundary_faces = None
        self._face_tree = None

    # -- geometry ---------------------------------------------------------

    @property
    def extent(self):
        return tuple(n * self.h for n in self.shape)

    @property
    def cell_centers(self):
        """Centers of included cells, shape (ncells, 3)."""
        return (self.cell_ijk + 0.5) * self.h

    def contains(self, points):
        """Whether each point lies in an included cell."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.floor(pts / self.h).astype(np.int64)
        ok = np.all((idx >= 0) & (idx < np.array(self.shape)), axis=1)
        inside = np.zeros(len(pts), dtype=bool)
        if ok.any():
            sel = idx[ok]
            inside[ok] = self.mask[sel[:, 0], sel[:, 1], sel[:, 2]]
        return inside if np.asarray(points).ndim > 1 else bool(inside[0])

    @property
    def boundary_faces(self):
        """Boundary faces as (cell_id, axis, orientation) index arrays.

        ``orientation`` is +1 or -1 along ``axis``; the outward normal is
        ``orientation * e_axis``.
        """
        if self._boundary_faces is None:
            cells, axes, orients = [], [], []
            for axis in range(DIM):
                for orient in (-1, +1):
                    nb = np.roll(self.mask, -orient, axis=axis)
                    # Rolling wraps around; cells on the box edge face outside.
                    edge = np.zeros(self.shape, dtype=bool)
                    sl = [slice(None)] * DIM
                    sl[axis] = -1 if orient > 0 else 0
                    edge[tuple(sl)] = True
                    exposed = self.mask & (~nb | edge)
                    ids = self.cell_id[exposed]
                    cells.append(ids)
                    axes.append(np.full(ids.shape, axis, dtype=np.int8))
                    orients.append(np.full(ids.shape, orient, dtype=np.int8))
            self._boundary_faces = (
                np.concatenate(cells),
                np.concatenate(axes),
                np.concatenate(orients),
            )
        return self._boundary_faces

    @property
    def boundary_face_centroids(self):
        cells, axes, orients = self.boundary_faces
        centers = self.cell_centers[cells]
        offsets = np.zeros_like(centers)
        offsets[np.arange(len(cells)), axes] = orients * (self.h / 2.0)
        return centers + offsets

    def _kdtree(self):
        if self._face_tree is None:
            self._face_tree = cKDTree(self.boundary_face_centroids)
        return self._face_tree

    def cells_in_ball(self, center, radius):
        """Ids of included cells whose centers lie in the closed ball."""
        center = np.asarray(center, dtype=float)
        lo = np.maximum(np.floor((center - radius) / self.h).astype(int), 0)
        hi = np.minimum(
            np.ceil((center + radius) / self.h).astype(int), np.array(self.shape)
        )
        if np.any(lo >= hi):
            return np.empty(0, dtype=np.int64)
        grids = np.meshgrid(
            *[np.arange(lo[a], hi[a]) for a in range(DIM)], indexing="ij"
        )
        ijk = np.stack([g.ravel() for g in grids], axis=1)
        ctr = (ijk + 0.5) * self.h
        close = np.einsum("ij,ij->i", ctr - center, ctr - center) <= radius**2
        ijk = ijk[close]
        ids = self.cell_id[ijk[:, 0], ijk[:, 1], ijk[:, 2]]
        return ids[ids >= 0]

    def nearest_cell(self, point):
        """Id of the included cell whose center is nearest to the point.

        That is the cell holding the point, since voxels are the Voronoi
        cells of their centers.  A point in no included cell raises
        DomainError; no nearby included cell is searched for.
        """
        point = np.asarray(point, dtype=float)
        if not self.contains(point):
            raise DomainError(f"point {point.tolist()} is outside the domain")
        idx = np.minimum(
            np.floor(point / self.h).astype(int), np.array(self.shape) - 1
        )
        cid = self.cell_id[idx[0], idx[1], idx[2]]
        return int(cid)

    # -- serialization ----------------------------------------------------

    def export_mask(self, path):
        """Write the mask as flat row-major bytes with a JSON sidecar."""
        path = Path(path)
        path.write_bytes(self.mask.astype(np.uint8).tobytes(order="C"))
        meta = {"shape": list(self.shape), "h": self.h, "dim": DIM}
        path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=1))

    @classmethod
    def import_mask(cls, path):
        path = Path(path)
        meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
        mask = raw.reshape(tuple(meta["shape"])).astype(bool)
        return cls(tuple(meta["shape"]), meta["h"], mask)


def _cells_from_extent(extent, h):
    extent = np.asarray(extent, dtype=float)
    if extent.shape != (DIM,) or not (extent > 0).all():
        raise GeometryError(f"extent must be 3 positive lengths, got {extent}")
    if isinstance(h, bool) or not h > 0:
        raise GeometryError(f"cell width must be a positive number, got {h}")
    n = extent / h
    n_round = np.rint(n)
    if not ((n_round >= 1).all() and (np.abs(n - n_round) <= 1e-3 * n_round).all()):
        raise GeometryError(
            f"cell width {h} does not divide extent {extent.tolist()} within 0.1%"
        )
    return tuple(int(v) for v in n_round)


def build_box(extent, h):
    """Full-mask box domain with the given per-axis extents."""
    shape = _cells_from_extent(extent, h)
    return VoxelDomain(shape, h, np.ones(shape, dtype=bool))


def build_l_shape(extent, notch, h):
    """Box domain with a rectangular notch removed.

    ``notch`` is a pair of corner points ``(lo, hi)``; cells whose centers
    fall inside the open notch box are excluded.
    """
    shape = _cells_from_extent(extent, h)
    lo = np.asarray(notch[0], dtype=float)
    hi = np.asarray(notch[1], dtype=float)
    ext = np.asarray(extent, dtype=float)
    if not (lo < hi).all():
        raise GeometryError("notch corners must satisfy lo < hi componentwise")
    if not ((lo >= -1e-12).all() and (hi <= ext + 1e-12).all()):
        raise GeometryError("notch must lie inside the extent")
    mask = np.ones(shape, dtype=bool)
    grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    centers = [(g + 0.5) * h for g in grids]
    in_notch = np.ones(shape, dtype=bool)
    for a in range(DIM):
        in_notch &= (centers[a] > lo[a]) & (centers[a] < hi[a])
    mask &= ~in_notch
    if not mask.any():
        raise GeometryError("notch removes the entire domain")
    return VoxelDomain(shape, h, mask)


def build_voxel_ball(radius, h):
    """Voxelized ball of the given radius centered in its bounding box."""
    if isinstance(radius, bool) or not radius > 0:
        raise GeometryError(f"ball radius must be a positive number, got {radius}")
    if radius < 4 * h:
        raise ResolutionError(f"ball radius {radius} must be at least 4h = {4 * h}")
    n = int(np.ceil(2 * radius / h))
    shape = (n, n, n)
    center = np.array([n * h / 2.0] * DIM)
    grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    d2 = sum(((g + 0.5) * h - center[a]) ** 2 for a, g in enumerate(grids))
    mask = d2 <= radius**2
    return VoxelDomain(shape, h, mask)


def center_pole(domain):
    """The cell center at the midpoint of the bounding box, or just above it
    along each axis with an even cell count."""
    return (np.array(domain.shape) // 2 + 0.5) * domain.h


def boundary_pole(domain):
    """The cell center 4.5 h off the x = 0 face, at mid-height in y and z."""
    pole = center_pole(domain)
    pole[0] = 4.5 * domain.h
    return pole


def dist_to_boundary(domain, x):
    """Euclidean distance from an interior point to the nearest boundary
    face centroid."""
    x = np.asarray(x, dtype=float)
    if not domain.contains(x):
        raise DomainError(f"point {x.tolist()} is outside the domain")
    d, _ = domain._kdtree().query(x)
    return float(d)


def ball_volume(domain, q):
    """Measure of the intersection of the domain with a ball, by cell count."""
    if not isinstance(q, BallQuery):
        raise GeometryError("ball_volume expects a BallQuery")
    ids = domain.cells_in_ball(q.center, q.radius)
    return len(ids) * domain.h**3


def exterior_density(domain, R0, samples, seed=0):
    """Smallest observed exterior-measure density at the boundary.

    Samples boundary face centroids x0 and evaluates
    ``|B_R(x0) \\ Omega| / R**3`` by cell counting over dyadic radii
    ``R = R0 / 2**j`` in ``(4h, R0]``, returning the minimum.
    """
    if not (0 < R0 <= 1):
        raise GeometryError(f"R0 must lie in (0, 1], got {R0}")
    if R0 <= 4 * domain.h:
        raise ResolutionError(f"R0 = {R0} must exceed 4h = {4 * domain.h}")
    samples = int(samples)
    if samples < 1:
        raise GeometryError("at least one boundary sample point is required")

    centroids = domain.boundary_face_centroids
    rng = np.random.default_rng(seed)
    if samples >= len(centroids):
        picks = centroids
    else:
        picks = centroids[rng.choice(len(centroids), size=samples, replace=False)]

    radii = []
    R = R0
    while R > 4 * domain.h:
        radii.append(R)
        R /= 2.0
    h = domain.h
    best = np.inf
    for R in radii:
        # Lattice covering B_R(x0) in the same grid alignment; cells outside
        # the bounding box are exterior by definition.
        m = int(np.ceil(R / h)) + 1
        offs = np.arange(-m, m + 1)
        og = np.meshgrid(offs, offs, offs, indexing="ij")
        rel = np.stack([g.ravel() for g in og], axis=1)
        for x0 in picks:
            base = np.floor(x0 / h - 0.5).astype(int)
            ijk = rel + base
            ctr = (ijk + 0.5) * h
            inball = np.einsum("ij,ij->i", ctr - x0, ctr - x0) <= R**2
            ijk = ijk[inball]
            inb = np.all((ijk >= 0) & (ijk < np.array(domain.shape)), axis=1)
            inside = np.zeros(len(ijk), dtype=bool)
            if inb.any():
                sel = ijk[inb]
                inside[inb] = domain.mask[sel[:, 0], sel[:, 1], sel[:, 2]]
            ext = np.count_nonzero(~inside) * h**3
            best = min(best, ext / R**3)
    return float(best)


# -- descriptor interface --------------------------------------------------


def build_domain(descriptor):
    """Construct a domain from a config record.

    Recognized kinds: ``box`` (extent, h), ``lshape`` (extent, notch, h),
    ``ball`` (radius, h), ``file`` (path to an exported mask).
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise GeometryError("domain descriptor must be a mapping with a 'kind'")
    kind = descriptor["kind"]
    try:
        if kind == "box":
            return build_box(descriptor["extent"], descriptor["h"])
        if kind == "lshape":
            return build_l_shape(
                descriptor["extent"], descriptor["notch"], descriptor["h"]
            )
        if kind == "ball":
            return build_voxel_ball(descriptor["radius"], descriptor["h"])
        if kind == "file":
            return VoxelDomain.import_mask(descriptor["path"])
    except (LookupError, TypeError, ValueError, ArithmeticError, OSError) as exc:
        raise GeometryError(f"domain descriptor field missing or invalid: {exc!r}") from exc
    raise GeometryError(f"unknown domain kind {kind!r}")
