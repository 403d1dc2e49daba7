"""Shared fixtures-by-hand for the solver and acceptance tests.

The series problem drives uniform flow across both blocks, both interfaces
and the fault core; its exact solution is one resistance chain.  The patch
problem imposes a pressure linear along the fault, which every domain must
reproduce without any exchange flow.  Both are closed forms the discrete
scheme reproduces exactly on the aligned two-block grids.

``rt0_local_mass`` and ``rt0_interpolate`` are the per-cell and per-face
oracles the element-kernel tests compare the vectorized kernels against;
``locate_cells_oracle`` is the cell-by-cell oracle of point location.
"""

import numpy as np

from faultflow.assembly import BoundaryConditions, CoefficientSet
from faultflow.fem import _bary_weights
from faultflow.mesh import (
    SIDES,
    MeshError,
    SimplicialMesh,
    build_two_block_geometry,
)


def series_setup(n, interface_resist, exchange_resist,
                 matrix_resist=1.0, damage_resist=2.0, fault_resist=5.0):
    """Two blocks with uniform coefficients, pressure 0 on the far left
    boundary and 1 on the far right; every other external face keeps the
    default zero-flux condition."""
    geometry = build_two_block_geometry(n, n)
    coeff = CoefficientSet.for_geometry(
        geometry,
        matrix_resist=matrix_resist,
        damage_resist=damage_resist,
        fault_resist=fault_resist,
        matrix_damage_resist=interface_resist,
        damage_fault_resist=exchange_resist,
    )
    bc = BoundaryConditions()
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 0.0
    for f in geometry.matrix.faces_with_tag("right"):
        bc.pressure[("matrix", int(f))] = 1.0
    return geometry, coeff, bc


def series_flux(interface_resist, exchange_resist, matrix_resist=1.0):
    """Signed horizontal Darcy velocity of the series problem: two matrix
    legs, two interface resistances and two exchange resistances in a
    chain, driven by a unit pressure drop."""
    total = 2.0 * (matrix_resist + interface_resist + exchange_resist)
    return -1.0 / total


def series_solution_vector(system, interface_resist, exchange_resist):
    """The exact solution of ``series_setup`` written into the unknown
    layout of ``system`` (matrix resistance 1 assumed)."""
    a, b = interface_resist, exchange_resist
    u = series_flux(a, b)
    geometry = system.geometry
    x = np.zeros(system.n_dofs)

    matrix = geometry.matrix
    x[system.offsets["matrix_flux"]] = (
        u * matrix.face_normals[:, 0] * matrix.face_measures
    )
    cx = matrix.cell_centroids()[:, 0]
    x[system.offsets["matrix_pressure"]] = np.where(
        cx < 1.0, -u * cx, -u * (cx - 1.0) - u * (1 + 2 * a + 2 * b)
    )

    # layers carry no tangential flow; their pressures are flat per side
    p_damage = {"left": -u * (1 + a), "right": -u * (1 + a + 2 * b)}
    damage = system.sided(x[system.offsets["damage_pressure"]])  # views of x
    for side in SIDES:
        damage[side][:] = p_damage[side]
    x[system.offsets["fault_pressure"]] = -u * (1 + a + b)

    n_fault = geometry.fault.n_cells
    x[system.offsets["exchange_flux"]] = np.concatenate(
        [np.full(n_fault, u), np.full(n_fault, -u)]
    )
    return x


def patch_setup(n_x, n_y, matrix_resist=2.0, damage_resist=None,
                fault_resist=7.0, interface_resist=0.25,
                exchange_resist=11.0):
    """Pressure equal to the fault-parallel coordinate on every external
    face of every domain.  The exact solution is p = y everywhere with a
    uniform fault-parallel velocity per domain and no exchange flow."""
    geometry = build_two_block_geometry(n_x, n_y)
    coeff = CoefficientSet.for_geometry(
        geometry,
        matrix_resist=matrix_resist,
        damage_resist=damage_resist or {"left": 3.0, "right": 5.0},
        fault_resist=fault_resist,
        matrix_damage_resist=interface_resist,
        damage_fault_resist=exchange_resist,
    )
    bc = BoundaryConditions()
    for dom, mesh in geometry.domains.items():
        mids = mesh.face_centroids()
        for f in geometry.external_faces(dom):
            bc.pressure[(dom, int(f))] = float(mids[f, 1])
    return geometry, coeff, bc


def _as_weight_tensor(weight) -> np.ndarray:
    w = np.asarray(weight, dtype=float)
    if w.ndim == 0:
        if w <= 0:
            raise MeshError(f"weight must be positive, got {float(w)}")
        return float(w) * np.eye(3)
    if w.shape == (2, 2):
        out = np.eye(3)
        out[:2, :2] = w
        w = out
    if w.shape != (3, 3):
        raise MeshError("tensor weight must be 2x2 or 3x3")
    if not np.allclose(w, w.T, atol=1e-12 * max(1.0, np.abs(w).max())):
        raise MeshError("weight tensor must be symmetric")
    if np.linalg.eigvalsh(w).min() <= 0:
        raise MeshError("weight tensor must be positive definite")
    return w


def _simplex_measure(verts: np.ndarray) -> float:
    d = len(verts) - 1
    if d == 1:
        return float(np.linalg.norm(verts[1] - verts[0]))
    if d == 2:
        return float(
            0.5 * np.linalg.norm(np.cross(verts[1] - verts[0],
                                          verts[2] - verts[0]))
        )
    mat = np.stack([verts[i] - verts[0] for i in (1, 2, 3)])
    return float(abs(np.linalg.det(mat)) / 6.0)


def _bary_weights(d: int) -> np.ndarray:
    w = np.ones((d + 1, d + 1)) + np.eye(d + 1)
    return w / ((d + 1) * (d + 2))


def rt0_local_mass(verts: np.ndarray, signs: np.ndarray, weight) -> np.ndarray:
    """Local weighted flux mass matrix of one simplex.

    Parameters
    ----------
    verts:
        (d+1, 3) vertex coordinates (zero-padded below three components).
    signs:
        (d+1,) orientation of the cell on each local face, +1 when the
        global face normal points out of the cell.
    weight:
        Positive scalar or symmetric positive definite tensor, the
        inverse-permeability weight; constant on the cell.

    Returns the symmetric positive definite (d+1, d+1) matrix of
    int_K (W zeta_i) . zeta_j.
    """
    verts = np.asarray(verts, dtype=float)
    if verts.ndim != 2:
        raise MeshError("cell vertices must be a 2d array")
    if verts.shape[1] < 3:
        pad = np.zeros((verts.shape[0], 3))
        pad[:, : verts.shape[1]] = verts
        verts = pad
    d = len(verts) - 1
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (d + 1,):
        raise MeshError("orientation signs must match the face count")
    W = _as_weight_tensor(weight)
    measure = _simplex_measure(verts)
    diam = max(
        np.linalg.norm(verts[i] - verts[j])
        for i in range(d + 1)
        for j in range(i)
    )
    if measure <= 1e-14 * diam**d:
        raise MeshError("degenerate cell: measure vanishes")

    D = verts[:, None, :] - verts[None, :, :]  # D[a, i] = v_a - v_i
    E = np.einsum("xy,bjy->bjx", W, D)
    M = np.einsum("aix,bjx,ab->ij", D, E, _bary_weights(d))
    M *= np.outer(signs, signs)
    M /= d * d * measure
    return M


def rt0_interpolate(mesh: SimplicialMesh, field) -> np.ndarray:
    """Net-flux interpolation of a vector field onto the RT0 dofs.

    ``field`` is a constant 3-vector or a callable mapping (n, 3) points to
    (n, 3) values; the flux integral over each face is approximated with the
    field at the face centroid (exact for fields with linear normal trace).
    """
    fc = mesh.face_centroids()
    if callable(field):
        vals = np.asarray(field(fc), dtype=float)
    else:
        vals = np.broadcast_to(
            np.asarray(field, dtype=float), (mesh.n_faces, 3)
        )
    return np.einsum("fx,fx->f", vals, mesh.face_normals) * mesh.face_measures


def locate_cells_oracle(mesh: SimplicialMesh, points) -> np.ndarray:
    """Lowest index of a cell whose barycentric coordinates of the point
    are all >= -1e-12, trying every cell; -1 where no cell contains it.

    The coordinates come from one ``np.linalg.solve`` per (point, cell),
    as in ``locate_cells``, so points on the tolerance boundary compare
    bit for bit."""
    dim = mesh.dim
    corners = mesh.vertices[mesh.cells, :dim]
    T = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    best = []
    for point in np.asarray(points, dtype=float)[:, :dim]:
        lam = np.linalg.solve(T, (point - corners[:, 0])[..., None])[..., 0]
        bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
        inside = np.flatnonzero(np.all(bary >= -1e-12, axis=1))
        best.append(inside[0] if inside.size else -1)
    return np.array(best, dtype=np.int64)
