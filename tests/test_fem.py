"""Element-kernel tests.

The mass-matrix expectations are frozen from independent integration routes:
a closed-form 1d integral on the unit interval and adaptive 2d quadrature on
the unit right triangle, both computed directly from the basis definition
without any moment formula.  They check the per-cell oracle
``helpers.rt0_local_mass``, which integrates through the barycentric moment
formula; the vectorized kernel, which integrates through the centroid basis
and the second-moment identity, is checked against that oracle cell by cell,
as one mesh's F: the scatter of its cells' entries in the table of local
fluxes, which ``assemble`` uses for every domain.
"""

from itertools import permutations

import numpy as np
import pytest
from scipy import integrate

from faultflow.assembly import _scatter, rt0_entries
from faultflow.fem import rt0_eval_centroids, rt0_local_blocks
from faultflow.mesh import MeshError, SimplicialMesh, build_two_block_geometry
from helpers import rt0_interpolate, rt0_local_mass


def scatter(mesh, weights=1.0):
    """F and C of one mesh: its flux mass matrix (faces x faces) and its
    negated divergence (faces x cells)."""
    return _scatter([rt0_entries(mesh, weights)], mesh.n_faces, mesh.n_cells)


def unit_interval_mesh():
    return SimplicialMesh(1, np.array([[0.0, 0.0], [1.0, 0.0]]),
                          np.array([[0, 1]]))


def unit_right_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return SimplicialMesh(2, verts, np.array([[0, 1, 2]]))


def unit_cube_tet_mesh():
    """The unit cube split into six tetrahedra around its main diagonal:
    one per order in which the path from corner 0 to corner 7 adds x, y
    and z.  Corner k has coordinates (k & 1, k >> 1 & 1, k >> 2 & 1)."""
    verts = np.array([[k & 1, k >> 1 & 1, k >> 2 & 1] for k in range(8)],
                     dtype=float)
    cells = [np.cumsum([0] + [1 << axis for axis in order])
             for order in permutations(range(3))]
    return SimplicialMesh(3, verts, np.array(cells))


def basis_on_cell(mesh, cell):
    """The flux basis functions of one cell, from the dof normalization:
    zeta_i(x) = sign_i (x - v_opposite_i) / (dim * measure)."""
    verts = mesh.vertices[mesh.cells[cell]]
    signs = mesh.cell_face_signs[cell]
    meas = mesh.cell_measures[cell]

    def zeta(i):
        def f(x):
            return signs[i] * (np.asarray(x) - verts[i]) / (mesh.dim * meas)

        return f

    return [zeta(i) for i in range(mesh.dim + 1)]


# ------------------------------------------------------------------ #
#  oracle: closed-form 1d integration on the unit interval
# ------------------------------------------------------------------ #


def test_local_mass_unit_interval_against_quadrature():
    mesh = unit_interval_mesh()
    zetas = basis_on_cell(mesh, 0)
    expected = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            val, err = integrate.quad(
                lambda t, i=i, j=j: float(
                    zetas[i](np.array([t, 0.0, 0.0]))
                    @ zetas[j](np.array([t, 0.0, 0.0]))
                ),
                0.0,
                1.0,
                epsabs=1e-14,
            )
            expected[i, j] = val
    # frozen closed form: int x^2 = 1/3, int x (x - 1) = -1/6
    assert np.allclose(expected, [[1 / 3, -1 / 6], [-1 / 6, 1 / 3]],
                       atol=1e-12)
    got = rt0_local_mass(
        mesh.vertices[mesh.cells[0]], mesh.cell_face_signs[0], 1.0
    )
    assert np.allclose(got, expected, atol=1e-12)


def test_local_mass_interval_weight_scaling():
    mesh = unit_interval_mesh()
    base = rt0_local_mass(
        mesh.vertices[mesh.cells[0]], mesh.cell_face_signs[0], 1.0
    )
    scaled = rt0_local_mass(
        mesh.vertices[mesh.cells[0]], mesh.cell_face_signs[0], 7.5
    )
    assert np.allclose(scaled, 7.5 * base, atol=1e-12)


# ------------------------------------------------------------------ #
#  oracle: adaptive 2d quadrature on the unit right triangle
# ------------------------------------------------------------------ #


def test_local_mass_unit_triangle_against_quadrature():
    mesh = unit_right_triangle_mesh()
    zetas = basis_on_cell(mesh, 0)
    expected = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            val, err = integrate.dblquad(
                lambda y, x, i=i, j=j: float(
                    zetas[i](np.array([x, y, 0.0]))
                    @ zetas[j](np.array([x, y, 0.0]))
                ),
                0.0,
                1.0,
                0.0,
                lambda x: 1.0 - x,
                epsabs=1e-13,
            )
            expected[i, j] = val
    got = rt0_local_mass(
        mesh.vertices[mesh.cells[0]], mesh.cell_face_signs[0], np.eye(3)
    )
    assert np.abs(got - expected).max() < 1e-12


def test_local_mass_random_simplices_spd():
    rng = np.random.default_rng(20240915)
    count = 0
    while count < 1000:
        d = rng.integers(1, 4)
        verts = np.zeros((d + 1, 3))
        verts[:, :d] = rng.uniform(-1, 1, size=(d + 1, d))
        try:
            mesh = SimplicialMesh(d, verts, np.arange(d + 1)[None, :])
        except MeshError:
            continue  # rejected degenerate draw
        if mesh.cell_measures[0] < 1e-3:
            continue  # keep the sample well-shaped
        q = rng.uniform(-1, 1, size=(3, 3))
        W = q @ q.T + 0.5 * np.eye(3)
        M = rt0_local_mass(verts, mesh.cell_face_signs[0], W)
        assert np.abs(M - M.T).max() < 1e-13 * max(1.0, np.abs(M).max())
        assert np.linalg.eigvalsh(M).min() > 0
        count += 1


def test_local_mass_rejects_degenerate_and_bad_weight():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
    with pytest.raises(MeshError):
        rt0_local_mass(verts, np.ones(3), 1.0)
    mesh = unit_right_triangle_mesh()
    with pytest.raises(MeshError):
        rt0_local_mass(
            mesh.vertices[mesh.cells[0]], mesh.cell_face_signs[0], -1.0
        )
    with pytest.raises(MeshError):
        rt0_local_mass(
            mesh.vertices[mesh.cells[0]],
            mesh.cell_face_signs[0],
            np.diag([1.0, -2.0, 1.0]),
        )


# ------------------------------------------------------------------ #
#  divergence
# ------------------------------------------------------------------ #


def test_div_of_interpolated_linear_field():
    # v = (x, y) has divergence 2; the discrete divergence integral over the
    # unit right triangle must equal 2 * measure = 1 exactly.
    mesh = unit_right_triangle_mesh()
    dofs = rt0_interpolate(mesh, lambda p: p * [1.0, 1.0, 0.0])
    _, C = scatter(mesh)
    total = -(C.T @ dofs)[0]
    assert abs(total - 1.0) < 1e-12


def test_div_of_constant_field_is_zero():
    geom = build_two_block_geometry(3, 3)
    mesh = geom.matrix
    dofs = rt0_interpolate(mesh, np.array([0.3, -1.2, 0.0]))
    resid = np.abs(scatter(mesh)[1].T @ dofs)
    assert resid.max() < 1e-12


# ------------------------------------------------------------------ #
#  mesh-level assembly consistency
# ------------------------------------------------------------------ #


def test_mass_matrix_matches_local_loop():
    geom = build_two_block_geometry(2, 3)
    cube = unit_cube_tet_mesh()
    q = np.random.default_rng(20261020).uniform(-1, 1, (cube.n_cells, 3, 3))
    tensors = q @ q.transpose(0, 2, 1) + 0.5 * np.eye(3)  # SPD per cell
    cases = [(mesh, 2.5) for mesh in
             (geom.matrix, geom.damage["left"], geom.fault)]
    for mesh, weights in cases + [(cube, tensors)]:
        A = scatter(mesh, weights)[0].toarray()
        dense = np.zeros_like(A)
        for c in range(mesh.n_cells):
            M = rt0_local_mass(
                mesh.vertices[mesh.cells[c]],
                mesh.cell_face_signs[c],
                weights if np.ndim(weights) == 0 else weights[c],
            )
            idx = mesh.cell_faces[c]
            dense[np.ix_(idx, idx)] += M
        assert np.abs(A - dense).max() < 1e-13


def test_mass_matrix_keeps_exact_zeros_on_square_grids():
    # on a right isosceles triangle the hypotenuse face is orthogonal to
    # both leg faces in the mass inner product; those entries must be 0.0
    # exactly, since a round-off residue would add fill to the factors.
    # The scatter stores none of them: F holds every diagonal entry and
    # the two leg/leg entries of each cell.
    mesh = build_two_block_geometry(3, 3).matrix
    for weights in (1.0, 1.0 / 0.03, np.linspace(0.1, 10.0, mesh.n_cells)):
        blocks = rt0_local_blocks(mesh, weights)
        assert np.count_nonzero(blocks == 0.0) == 4 * mesh.n_cells
        F, _ = scatter(mesh, weights)
        assert F.nnz == mesh.n_faces + 2 * mesh.n_cells
        assert np.all(F.data != 0.0)


def test_mass_matrix_spd_on_two_block():
    mesh = build_two_block_geometry(3, 2).matrix
    A = scatter(mesh, np.full(mesh.n_cells, 3.0))[0].toarray()
    assert np.abs(A - A.T).max() < 1e-13
    np.linalg.cholesky(A)  # raises if not positive definite


def test_constant_field_roundtrip_at_centroids():
    # interpolate a constant field into the flux dofs and evaluate it back
    geom = build_two_block_geometry(4, 3)
    vec = np.array([0.7, -0.2, 0.0])
    for mesh in (geom.matrix, geom.damage["right"], geom.fault):
        v = vec if mesh.dim == 2 else np.array([0.0, 0.4, 0.0])
        dofs = rt0_interpolate(mesh, v)
        vals = rt0_eval_centroids(mesh, dofs)
        if mesh.dim == 1:
            assert np.abs(vals - v).max() < 1e-12
        else:
            assert np.abs(vals - v).max() < 1e-12
