import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesgreen.coefficients import (
    CoefficientField,
    Frame,
    adjoint_field,
    block_norm,
    checkerboard,
    coercivity_lower_bound,
    constant_identity,
    identity_tensor,
    partial_oscillation,
    piecewise_in_direction,
    validate_ellipticity,
)
from stokesgreen.domain import BallQuery, build_box
from stokesgreen.errors import GeometryError, ResolutionError, ValidationError

from conftest import random_elliptic_tensor


@pytest.fixture(scope="module")
def box64():
    return build_box((1.0, 1.0, 1.0), 1.0 / 64)


def two_layer_field(domain, lam=0.5, break_at=0.5):
    profile = [(-1.0, identity_tensor(1.0)), (break_at, identity_tensor(lam))]
    return piecewise_in_direction(domain, profile, Frame.identity(), lam)


def test_identity_entries():
    dom = build_box((1.0, 1.0, 1.0), 0.25)
    field = constant_identity(dom)
    assert field.entry(0, 0, 0, 0)[0] == 1.0
    assert field.entry(0, 1, 0, 0)[0] == 0.0
    assert field.lam == 1.0


def test_identity_coercivity_is_exact():
    dom = build_box((1.0, 1.0, 1.0), 0.25)
    field = constant_identity(dom)
    passed, worst = validate_ellipticity(field, trials=64, seed=0)
    assert passed
    assert worst == pytest.approx(1.0, abs=1e-12)  # quotient exactly sum|xi|^2


def test_adjoint_of_identity_is_identity():
    dom = build_box((1.0, 1.0, 1.0), 0.25)
    field = constant_identity(dom)
    adj = adjoint_field(field)
    assert np.array_equal(adj.tensors, field.tensors)


def test_adjoint_index_bookkeeping():
    dom = build_box((1.0, 1.0, 1.0), 0.25)
    A = identity_tensor(1.0)
    A[0, 1, 0, 2] = 0.125  # A^{12}_{13} = c
    field = CoefficientField(dom.shape, dom.h, A[None],
                             np.zeros(dom.ncells, dtype=np.int32), lam=0.5)
    adj = adjoint_field(field)
    assert adj.tensors[0][1, 0, 2, 0] == 0.125  # (A*)^{21}_{31} = c


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_adjoint_involution_bit_identical(seed):
    rng = np.random.default_rng(seed)
    dom = build_box((1.0, 1.0, 1.0), 0.5)
    A = random_elliptic_tensor(rng)
    field = CoefficientField(dom.shape, dom.h, A[None],
                             np.zeros(dom.ncells, dtype=np.int32), lam=0.1)
    back = adjoint_field(adjoint_field(field))
    assert np.array_equal(back.tensors, field.tensors)
    assert back.lam == field.lam


def test_adjoint_preserves_block_norm_bound():
    rng = np.random.default_rng(7)
    A = random_elliptic_tensor(rng)
    assert block_norm(A) == pytest.approx(
        block_norm(adjoint_field(
            CoefficientField((1, 1, 1), 1.0, A[None], np.zeros(1, dtype=np.int32), 0.1)
        ).tensors[0])
    )


def test_validate_rejects_sign_violation():
    dom = build_box((1.0, 1.0, 1.0), 0.25)
    A = identity_tensor(1.0)
    A[0, 0, 0, 0] = -1.0
    field = CoefficientField(dom.shape, dom.h, A[None],
                             np.zeros(dom.ncells, dtype=np.int32), lam=0.5)
    passed, worst = validate_ellipticity(field, trials=64, seed=0)
    assert not passed
    assert worst < 0.5


def test_layered_members_pass_at_their_lambda_only():
    dom = build_box((1.0, 1.0, 1.0), 0.125)
    # eigenvalue oracle: the scaled identity has coercivity exactly 0.25
    assert coercivity_lower_bound(identity_tensor(0.25)) == pytest.approx(0.25)
    field = two_layer_field(dom, lam=0.25)
    ok, _ = validate_ellipticity(field, trials=64, seed=1)
    assert ok
    relabeled = CoefficientField(field.shape, field.h, field.tensors, field.index, 0.5)
    ok_at_half, worst = validate_ellipticity(relabeled, trials=64, seed=1)
    assert not ok_at_half
    assert worst < 0.5 - 1e-12


def test_piecewise_rejects_non_elliptic_member():
    dom = build_box((1.0, 1.0, 1.0), 0.25)
    bad = identity_tensor(0.1)  # coercivity 0.1 < declared lam
    with pytest.raises(ValidationError):
        piecewise_in_direction(dom, [(-1.0, bad)], Frame.identity(), lam=0.5)


def test_piecewise_assigns_by_frame_first_coordinate():
    dom = build_box((1.0, 1.0, 1.0), 0.25)
    field = two_layer_field(dom, lam=0.5)
    centers = (dom.cell_ijk + 0.5) * dom.h
    low = centers[:, 0] < 0.5
    vals = field.entry(0, 0, 0, 0)
    assert np.all(vals[low] == 1.0)
    assert np.all(vals[~low] == 0.5)


def test_frame_validation():
    with pytest.raises(GeometryError):
        Frame((0, 0, 0), np.eye(3) * 1.001)
    f = Frame.from_first_axis((0.0, 2.0, 0.0))
    assert np.allclose(f.rotation @ f.rotation.T, np.eye(3), atol=1e-12)
    assert np.allclose(f.rotation[0], [0, 1, 0])


# -- oscillation functional ------------------------------------------------


def brute_force_oscillation(field, frame, q):
    """Independent loop-based quadrature of the mean-oscillation functional."""
    h = field.h
    grids = np.meshgrid(*[np.arange(n) for n in field.shape], indexing="ij")
    centers = np.stack([(g.ravel() + 0.5) * h for g in grids], axis=1)
    z = np.asarray(q.center)
    rel = (centers - z) @ frame.rotation.T
    keys = np.floor(rel[:, 0] / h + 0.5).astype(int)
    in_ball = (rel**2).sum(axis=1) <= q.radius**2
    in_slab = rel[:, 1] ** 2 + rel[:, 2] ** 2 <= q.radius**2
    tensors = field.tensors[field.index]
    worst = 0.0
    for a in range(3):
        for b in range(3):
            acc = 0.0
            for c in np.flatnonzero(in_ball):
                slab = in_slab & (keys == keys[c])
                mean = tensors[slab, a, b].mean(axis=0)
                diff = np.abs(tensors[c, a, b] - mean)
                acc += max(diff.sum(axis=1).max(), diff.sum(axis=0).max())
            worst = max(worst, acc / in_ball.sum())
    return worst


def test_oscillation_aligned_layers_vanish(box64):
    field = two_layer_field(box64, lam=0.5)
    q = BallQuery((0.5, 0.5, 0.5), 0.25)
    gamma = partial_oscillation(field, Frame.identity(), q)
    assert gamma == 0.0
    assert gamma <= 2 * box64.h / q.radius / 0.5


def test_oscillation_rotated_frame_positive_matches_bruteforce():
    dom = build_box((1.0, 1.0, 1.0), 1.0 / 16)
    field = two_layer_field(dom, lam=0.5)
    rot = Frame.axis_permutation([1, 0, 2])
    q = BallQuery((0.5, 0.5, 0.5), 0.25)
    gamma = partial_oscillation(field, rot, q)
    oracle = brute_force_oscillation(field, rot, q)
    assert gamma > 0
    assert gamma == pytest.approx(oracle, rel=1e-12)


def test_oscillation_constant_field_zero_in_any_frame(box64):
    field = constant_identity(box64)
    q = BallQuery((0.5, 0.5, 0.5), 0.25)
    for frame in (Frame.identity(), Frame.from_first_axis((1.0, 1.0, 0.5))):
        assert partial_oscillation(field, frame, q) == 0.0


def test_oscillation_checkerboard_aligned_exceeds_threshold(box64):
    field = checkerboard(box64, 1, 0.25, identity_tensor(1.0),
                         identity_tensor(0.5), lam=0.5)
    q = BallQuery((0.5, 0.5, 0.5), 0.25)
    assert partial_oscillation(field, Frame.identity(), q) > 0.1


def test_oscillation_invariant_under_constant_shift(box64):
    field = two_layer_field(box64, lam=0.5)
    rot = Frame.axis_permutation([1, 0, 2])
    q = BallQuery((0.5, 0.5, 0.5), 0.25)
    shifted = CoefficientField(field.shape, field.h,
                               field.tensors + 0.3 * identity_tensor(1.0),
                               field.index, field.lam)
    a = partial_oscillation(field, rot, q)
    b = partial_oscillation(shifted, rot, q)
    assert a == pytest.approx(b, abs=1e-12)


def test_oscillation_rotated_rate_shrinks_with_h():
    # field constant in the x' variables of a tilted frame: the binning
    # error decays like h/R as the grid refines
    frame = Frame.from_first_axis((1.0, 0.37, 0.0))
    q = BallQuery((0.5, 0.5, 0.5), 0.25)
    vals = {}
    for n in (16, 64):
        dom = build_box((1.0, 1.0, 1.0), 1.0 / n)
        profile = [(-2.0, identity_tensor(1.0)), (0.0, identity_tensor(0.5))]
        field = piecewise_in_direction(dom, profile,
                                       Frame((0.5, 0.5, 0.5), frame.rotation), 0.5)
        vals[n] = partial_oscillation(field, frame, q)
    assert vals[64] < vals[16]
    assert vals[64] <= 2 * (1.0 / 64) / q.radius / 0.5  # O(h/R) envelope


def test_oscillation_chunks_keep_every_value(monkeypatch):
    # the slab and ball cells are gathered in chunks; chunked np.add.at keeps
    # the accumulation order, so any chunk size gives the one-chunk value
    from stokesgreen import coefficients

    dom = build_box((1.0, 1.0, 1.0), 1.0 / 24)
    rng = np.random.default_rng(4)
    field = CoefficientField(dom.shape, dom.h, rng.standard_normal((5, 3, 3, 3, 3)),
                             rng.integers(0, 5, dom.ncells).astype(np.int32), 0.5)
    frame = Frame.from_first_axis((1.0, 0.37, -0.2), origin=(0.1, 0.2, 0.3))
    q = BallQuery((0.45, 0.5, 0.55), 0.25)
    monkeypatch.setattr(coefficients, "_OSCILLATION_CHUNK", 10**9)
    whole = partial_oscillation(field, frame, q)
    monkeypatch.setattr(coefficients, "_OSCILLATION_CHUNK", 97)
    assert partial_oscillation(field, frame, q) == whole


def test_oscillation_peak_memory_on_64_cubed(box64):
    # C12's 64^3 layered field: no (cells x 81) array of the whole slab or
    # ball, and no box-sized array beyond the centre offsets and their
    # frame coordinates (6.3 MB each)
    import tracemalloc

    field = two_layer_field(box64, lam=0.5)
    tracemalloc.start()
    try:
        partial_oscillation(field, Frame.axis_permutation([1, 0, 2]),
                            BallQuery((0.5, 0.5, 0.5), 0.25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_oscillation_preconditions(box64):
    field = constant_identity(box64)
    with pytest.raises(ResolutionError):
        partial_oscillation(field, Frame.identity(), BallQuery((0.5, 0.5, 0.5), 0.02))
    with pytest.raises(GeometryError):
        partial_oscillation(field, Frame.identity(), BallQuery((0.1, 0.5, 0.5), 0.25))


def test_coefficients_export_import_roundtrip(tmp_path):
    dom = build_box((1.0, 1.0, 1.0), 0.25)
    field = two_layer_field(dom, lam=0.5)
    path = tmp_path / "coeffs.bin"
    field.export(path)
    back = CoefficientField.import_file(path)
    assert back.shape == field.shape
    assert back.lam == field.lam
    # the export is per cell: compare the tensor each cell takes
    assert np.array_equal(back.tensors[back.index], field.tensors[field.index])
