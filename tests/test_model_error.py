"""Tests of P0 injection and the model-error bracket."""

import re
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultflow.mesh import (
    MeshError,
    SimplicialMesh,
    build_layered_equidim_mesh,
    build_two_block_geometry,
    import_mesh,
)
from faultflow.model_error import (
    ErrorBounds,
    error_bounds,
    inject_p0,
    l2_norm,
    locate_cells,
)
from helpers import locate_cells_oracle

BUNDLED_3D = (
    Path(__file__).resolve().parents[1]
    / "src" / "faultflow" / "data" / "single_fault_3d.msh"
)


def segment_mesh(n):
    verts = np.linspace(0.0, 1.0, n + 1)[:, None]
    cells = np.stack([np.arange(n), np.arange(n) + 1], axis=1)
    return SimplicialMesh(1, verts, cells)


def test_injection_onto_the_same_mesh_is_identity():
    mesh = segment_mesh(5)
    values = np.array([3.0, -1.0, 2.5, 0.0, 7.0])
    got = inject_p0(mesh, values, mesh.cell_centroids())
    assert np.array_equal(got, values)


def test_coarse_to_fine_injection_repeats_values():
    coarse = segment_mesh(2)
    fine = segment_mesh(4)
    got = inject_p0(coarse, np.array([0.0, 1.0]), fine.cell_centroids())
    assert np.array_equal(got, [0.0, 0.0, 1.0, 1.0])


def test_injection_on_triangles():
    geometry = build_two_block_geometry(2, 2)
    mesh = geometry.matrix
    values = np.arange(mesh.n_cells, dtype=float)
    got = inject_p0(mesh, values, mesh.cell_centroids())
    assert np.array_equal(got, values)

    # a constant field injects as that constant anywhere
    rng = np.random.default_rng(20241011)
    pts = np.column_stack(
        [rng.uniform(0, 2, 50), rng.uniform(0, 1, 50), np.zeros(50)]
    )
    got = inject_p0(mesh, np.full(mesh.n_cells, 4.25), pts)
    assert np.all(got == 4.25)


def _contains(mesh, cell, xy):
    verts = mesh.vertices[mesh.cells[cell], :2]
    T = (verts[1:] - verts[0]).T
    lam = np.linalg.solve(T, np.asarray(xy) - verts[0])
    lam = np.concatenate([[1 - lam.sum()], lam])
    return np.all(lam >= -1e-12)


def test_points_on_shared_faces_take_the_lowest_cell():
    geometry = build_two_block_geometry(1, 1)
    mesh = geometry.matrix
    # the left square splits along its diagonal; a point on the diagonal
    # belongs to both triangles and must resolve to the lower index
    point = [0.5, 0.5]
    containing = [
        c for c in range(mesh.n_cells) if _contains(mesh, c, point)
    ]
    assert len(containing) == 2
    cells = locate_cells(mesh, np.array([point + [0.0]]))
    assert cells[0] == min(containing)


@cache
def oracle_mesh(kind):
    if kind == "segment":
        return segment_mesh(7)
    if kind == "triangles":
        return build_two_block_geometry(3, 2).matrix
    return import_mesh(BUNDLED_3D).matrix


ORACLE_MESHES = ["segment", "triangles", "tetrahedra"]


@pytest.mark.parametrize("kind", ORACLE_MESHES)
def test_locate_cells_matches_oracle_on_vertices_and_shared_faces(kind):
    mesh = oracle_mesh(kind)
    # a vertex is shared by many cells and a shared face by two: both ties
    # must go to the lowest containing index
    shared = mesh.face_cells[:, 1] >= 0
    for points in (mesh.vertices, mesh.face_centroids()[shared]):
        # about 250 of each keep the brute-force oracle quick in 3D
        points = points[:: max(1, len(points) // 250)]
        expected = locate_cells_oracle(mesh, points)
        assert np.all(expected >= 0)
        assert np.array_equal(locate_cells(mesh, points), expected)


@pytest.mark.parametrize("kind", ORACLE_MESHES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_locate_cells_matches_oracle_on_random_points(kind, data):
    mesh = oracle_mesh(kind)
    n = data.draw(st.integers(1, 20))
    cells = data.draw(
        st.lists(st.integers(0, mesh.n_cells - 1), min_size=n, max_size=n)
    )
    weights = np.array(
        data.draw(
            st.lists(
                st.lists(
                    st.floats(0.0, 1.0),
                    min_size=mesh.dim + 1,
                    max_size=mesh.dim + 1,
                ).filter(lambda w: sum(w) > 0.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    weights /= weights.sum(axis=1, keepdims=True)
    # convex combinations of cell corners: inside the mesh, and on a face
    # or vertex wherever a weight is zero
    corners = mesh.vertices[mesh.cells[cells]]
    points = np.einsum("pk,pkx->px", weights, corners)
    expected = locate_cells_oracle(mesh, points)
    assert np.all(expected >= 0)
    assert np.array_equal(locate_cells(mesh, points), expected)


@pytest.mark.parametrize("length", [1.0, 100.0])
def test_tolerance_reaches_across_a_bin_boundary(length):
    # cells numbered right to left; the two bins split [0, L] at L/2
    verts = np.linspace(0.0, length, 5)[:, None]
    mesh = SimplicialMesh(1, verts, [[4, 3], [3, 2], [2, 1], [1, 0]])
    # 1e-13 L left of L/2 the point lies in cell 2 = [L/4, L/2], and in
    # cell 1 = [L/2, 3L/4] by tolerance (coordinate -4e-13): cell 1 wins,
    # also at L = 100, where the point is 1e-11 outside the box of cell 1
    point = np.array([[(0.5 - 1e-13) * length]])
    assert locate_cells_oracle(mesh, point)[0] == 1
    assert locate_cells(mesh, point)[0] == 1


def test_locate_cells_finds_each_tetrahedron_from_its_centroid():
    mesh = oracle_mesh("tetrahedra")
    assert mesh.dim == 3
    got = locate_cells(mesh, mesh.cell_centroids())
    assert np.array_equal(got, np.arange(mesh.n_cells))


def test_first_outside_point_is_named():
    mesh = segment_mesh(4)
    points = np.random.default_rng(17).uniform(0.0, 1.0, (52, 1))
    points[17] = 3.5
    points[30] = -2.0
    message = f"point {(np.float64(3.5),)} lies in no cell"
    with pytest.raises(MeshError, match=re.escape(message)):
        locate_cells(mesh, points)


def test_point_outside_raises():
    mesh = segment_mesh(3)
    with pytest.raises(MeshError, match="no cell"):
        inject_p0(mesh, np.zeros(3), np.array([[2.5]]))


def test_field_shape_is_checked():
    mesh = segment_mesh(3)
    with pytest.raises(MeshError, match="expected"):
        inject_p0(mesh, np.zeros(4), np.array([[0.5]]))


def test_l2_norm_by_hand():
    verts = np.array([[0.0], [0.5], [0.75]])
    cells = np.array([[0, 1], [1, 2]])
    mesh = SimplicialMesh(1, verts, cells)
    # sqrt(1^2 * 0.5 + (-2)^2 * 0.25) = sqrt(1.5)
    assert l2_norm(mesh, [1.0, -2.0]) == pytest.approx(np.sqrt(1.5), rel=1e-14)
    assert l2_norm(mesh, [0.0, 0.0]) == 0.0


def test_bounds_arithmetic():
    b = ErrorBounds(estimate=0.5, gap=0.2)
    assert b.lower == pytest.approx(0.3)
    assert b.upper == pytest.approx(0.7)
    # a gap larger than the estimate clamps the lower bound at zero
    b = ErrorBounds(estimate=0.5, gap=0.8)
    assert b.lower == 0.0
    assert b.upper == pytest.approx(1.3)


def test_error_bounds_with_identical_resolutions_has_zero_gap():
    geometry = build_two_block_geometry(3, 3)
    mesh = geometry.matrix
    reference = build_layered_equidim_mesh(0.1, 0.05, eta=0.025, eta_coarse=0.25)
    p_mixed = mesh.cell_centroids()[:, 0]
    p_ref = reference.cell_centroids()[:, 0]
    bounds = error_bounds(reference, p_ref, mesh, p_mixed, mesh, p_mixed)
    assert bounds.gap == 0.0
    assert bounds.lower == bounds.estimate == bounds.upper

    # the two piecewise-constant interpolants of x differ by O(h)
    assert 0.0 < bounds.estimate < 0.2


def test_error_bounds_sees_refinement():
    geometry_h = build_two_block_geometry(2, 2)
    geometry_h2 = build_two_block_geometry(4, 4)
    reference = build_layered_equidim_mesh(0.1, 0.05, eta=0.05, eta_coarse=0.125)
    f = lambda mesh: mesh.cell_centroids()[:, 0] ** 2
    bounds = error_bounds(
        reference,
        f(reference),
        geometry_h.matrix,
        f(geometry_h.matrix),
        geometry_h2.matrix,
        f(geometry_h2.matrix),
    )
    assert bounds.gap > 0.0
    assert bounds.upper > bounds.estimate > bounds.lower
