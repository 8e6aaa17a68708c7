import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesgreen.domain import (
    BallQuery,
    VoxelDomain,
    ball_volume,
    build_box,
    build_domain,
    build_l_shape,
    build_voxel_ball,
    dist_to_boundary,
    exterior_density,
)
from stokesgreen.errors import DomainError, GeometryError, ResolutionError

HALF_BALL = 2 * np.pi / 3  # |B_1| / 2


def test_unit_box_cells_and_volume():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    assert dom.ncells == 16**3
    assert dom.volume == pytest.approx(1.0, rel=1e-12)


def test_box_volume_additivity_of_extents():
    dom = build_box((2.0, 1.0, 1.0), 1.0 / 8)
    assert dom.volume == pytest.approx(2.0, rel=1e-12)


def test_box_rejects_nondivisible_h():
    with pytest.raises(GeometryError):
        build_box((1.0, 1.0, 1.0), 1.0 / 3.07)


def test_box_rejects_nonpositive():
    with pytest.raises(GeometryError):
        build_box((1.0, -1.0, 1.0), 1.0 / 8)
    with pytest.raises(GeometryError):
        build_box((1.0, 1.0, 1.0), 0.0)


def test_l_shape_voxel_aligned_notch_volume():
    dom = build_l_shape((1.0, 1.0, 1.0), ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)), 1.0 / 8)
    assert dom.volume == pytest.approx(7.0 / 8.0, abs=1e-15)


def test_l_shape_full_notch_rejected():
    with pytest.raises(GeometryError):
        build_l_shape((1.0, 1.0, 1.0), ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 1.0 / 8)


def test_voxel_ball_volume_against_refined_count():
    # oracle: cell-count Riemann sum at h = 1/128
    coarse = build_voxel_ball(0.5, 1.0 / 32)
    fine = build_voxel_ball(0.5, 1.0 / 128)
    analytic = 4.0 / 3.0 * np.pi * 0.5**3
    assert fine.volume == pytest.approx(analytic, rel=5e-3)
    assert coarse.volume == pytest.approx(fine.volume, rel=0.05)


def test_voxel_ball_too_coarse():
    with pytest.raises(ResolutionError):
        build_voxel_ball(0.1, 1.0 / 16)


def test_exterior_density_box_face_matches_half_ball():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 32)
    theta = exterior_density(dom, 0.5, samples=40, seed=1)
    assert theta == pytest.approx(HALF_BALL, rel=0.10)


def test_exterior_density_convex_lower_bound():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    theta = exterior_density(dom, 0.4, samples=60, seed=2)
    assert theta >= 0.4 * (4 * np.pi / 3)


def test_exterior_density_l_shape_positive():
    dom = build_l_shape((1.0, 1.0, 1.0), ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)), 1.0 / 64)
    theta = exterior_density(dom, 0.4, samples=50, seed=3)
    assert theta > 0


def test_exterior_density_preconditions():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    with pytest.raises(GeometryError):
        exterior_density(dom, 0.5, samples=0)
    with pytest.raises(ResolutionError):
        exterior_density(dom, 4.0 / 16, samples=4)
    with pytest.raises(GeometryError):
        exterior_density(dom, 1.5, samples=4)


def test_dist_to_boundary_center():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    d = dist_to_boundary(dom, (0.5, 0.5, 0.5))
    assert abs(d - 0.5) <= dom.h


def test_dist_to_boundary_outside_point():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    with pytest.raises(DomainError):
        dist_to_boundary(dom, (1.5, 0.5, 0.5))


def test_ball_volume_interior_accuracy():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 32)
    r = 0.25  # 8h
    vol = ball_volume(dom, BallQuery((0.5, 0.5, 0.5), r))
    analytic = 4.0 / 3.0 * np.pi * r**3
    assert vol == pytest.approx(analytic, rel=0.03)


def test_ball_volume_disjoint_is_zero():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    assert ball_volume(dom, BallQuery((3.0, 3.0, 3.0), 0.5)) == 0.0


def test_ball_volume_capped_by_domain():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    assert ball_volume(dom, BallQuery((0.5, 0.5, 0.5), 10.0)) == pytest.approx(
        dom.volume
    )


@settings(max_examples=25, deadline=None)
@given(
    r1=st.floats(min_value=0.05, max_value=0.45),
    r2=st.floats(min_value=0.05, max_value=0.45),
)
def test_ball_volume_monotone_in_radius(r1, r2):
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    lo, hi = sorted((r1, r2))
    q = (0.4, 0.5, 0.6)
    assert ball_volume(dom, BallQuery(q, lo)) <= ball_volume(dom, BallQuery(q, hi))


def test_volume_additivity_disjoint_masks():
    shape = (8, 8, 8)
    left = np.zeros(shape, dtype=bool)
    left[:4] = True
    right = ~left
    h = 1.0 / 8
    vol_l = VoxelDomain(shape, h, left).volume
    vol_r = VoxelDomain(shape, h, right).volume
    total = VoxelDomain(shape, h, np.ones(shape, dtype=bool)).volume
    assert vol_l + vol_r == total  # exact in integer cell counts


def test_disconnected_mask_rejected():
    shape = (8, 8, 8)
    mask = np.zeros(shape, dtype=bool)
    mask[0, 0, 0] = True
    mask[7, 7, 7] = True
    with pytest.raises(GeometryError):
        VoxelDomain(shape, 1.0 / 8, mask)


def test_boundary_faces_separate_in_and_out():
    dom = build_l_shape((1.0, 1.0, 1.0), ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)), 1.0 / 8)
    cells, axes, orients = dom.boundary_faces
    ijk = dom.cell_ijk[cells]
    step = np.zeros_like(ijk)
    step[np.arange(len(cells)), axes] = orients
    nbr = ijk + step
    inside_box = np.all((nbr >= 0) & (nbr < np.array(dom.shape)), axis=1)
    # every face neighbor is either outside the bounding box or excluded
    sel = nbr[inside_box]
    assert not dom.mask[sel[:, 0], sel[:, 1], sel[:, 2]].any()


def test_interior_cells_have_min_face_distance():
    dom = build_voxel_ball(0.4, 1.0 / 16)
    centers = dom.cell_centers
    dists = [dist_to_boundary(dom, c) for c in centers[:: max(1, len(centers) // 64)]]
    assert min(dists) >= dom.h / 2 - 1e-12


def test_mask_export_import_roundtrip(tmp_path):
    dom = build_l_shape((1.0, 1.0, 1.0), ((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)), 1.0 / 8)
    path = tmp_path / "mask.bin"
    dom.export_mask(path)
    back = VoxelDomain.import_mask(path)
    assert back.shape == dom.shape
    assert back.h == dom.h
    assert np.array_equal(back.mask, dom.mask)


def test_build_domain_descriptors():
    box = build_domain({"kind": "box", "extent": [1.0, 1.0, 1.0], "h": 0.125})
    assert box.ncells == 512
    ball = build_domain({"kind": "ball", "radius": 0.5, "h": 1.0 / 16})
    assert ball.volume < 1.0
    with pytest.raises(GeometryError):
        build_domain({"kind": "torus"})
    with pytest.raises(GeometryError):
        build_domain({"kind": "box", "extent": [1.0, 1.0, 1.0]})


def test_ball_query_validation():
    with pytest.raises(GeometryError):
        BallQuery((0.5, 0.5, 0.5), 0.0)
    with pytest.raises(GeometryError):
        BallQuery((0.5, 0.5), 0.1)
