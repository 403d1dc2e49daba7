"""Local lowest-order Raviart-Thomas / piecewise-constant element kernels.

Flux degrees of freedom are net face fluxes: the dof on face F is the
integral of the normal flux component over F, taken in the direction of the
global face normal.  With that normalization the basis function attached to
local face i of a simplex with vertices v_0 .. v_d is

    zeta_i(x) = s_i (x - v_i) / (d |K|)

where s_i is the cell's orientation sign on the face and |K| the cell
measure.  Its divergence is the constant s_i / |K|, so the discrete
divergence of a cell is just the signed sum of its face dofs.

Mass integrals are evaluated exactly for affine simplices through the
barycentric moment identity  int_K lam_a lam_b = |K| (1 + delta_ab) /
((d+1)(d+2)).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from .mesh import MeshError, SimplicialMesh

__all__ = [
    "rt0_mass_matrix",
    "rt0_div_matrix",
    "rt0_eval_centroids",
]


def _bary_weights(d: int) -> np.ndarray:
    w = np.ones((d + 1, d + 1)) + np.eye(d + 1)
    return w / ((d + 1) * (d + 2))


def _finite_per_cell(values, n: int, what: str, tensors: bool = False):
    """One finite value per cell of ``n`` (a scalar is broadcast); with
    ``tensors``, (n, 3, 3) per-cell tensors of finite entries also pass."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if not (arr.shape == (n,) or tensors and arr.shape == (n, 3, 3)):
        raise MeshError(f"{what} has shape {arr.shape} for {n} cells")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        raise MeshError(f"non-finite {what} on cell {bad[0, 0]}")
    return arr


def _per_cell(values, n: int, what: str, tensors: bool = False):
    """``_finite_per_cell``, and every per-cell value positive."""
    arr = _finite_per_cell(values, n, what, tensors)
    if arr.ndim == 1 and np.any(arr <= 0):
        raise MeshError(f"non-positive {what} on cell {int(np.argmin(arr))}")
    return arr


def rt0_mass_matrix(mesh: SimplicialMesh, weights) -> sps.csr_array:
    """Weighted flux mass matrix of a whole mesh (faces x faces): the sum
    over cells of int_K (W zeta_i) . zeta_j, all cells at once.  The tests
    cross-check it against a per-cell oracle.
    """
    W = _per_cell(weights, mesh.n_cells, "weight", tensors=True)
    if W.ndim == 1:
        W = W[:, None, None] * np.eye(3)
    d = mesh.dim
    cv = mesh.vertices[mesh.cells]  # (nc, d+1, 3)
    D = cv[:, :, None, :] - cv[:, None, :, :]  # (nc, d+1, d+1, 3)
    E = np.einsum("cxy,cbjy->cbjx", W, D)
    M = np.einsum("caix,cbjx,ab->cij", D, E, _bary_weights(d))
    signs = mesh.cell_face_signs.astype(float)
    M *= signs[:, :, None] * signs[:, None, :]
    M /= (d * d * mesh.cell_measures)[:, None, None]

    n1 = d + 1
    rows = np.broadcast_to(
        mesh.cell_faces[:, :, None], (mesh.n_cells, n1, n1)
    ).ravel()
    cols = np.broadcast_to(
        mesh.cell_faces[:, None, :], (mesh.n_cells, n1, n1)
    ).ravel()
    A = sps.coo_array(
        (M.ravel(), (rows, cols)), shape=(mesh.n_faces, mesh.n_faces)
    )
    return A.tocsr()


def rt0_div_matrix(mesh: SimplicialMesh) -> sps.csr_array:
    """Signed incidence matrix (faces x cells): entry (F, K) is the
    orientation sign of K on F, i.e. the integrated divergence of the basis
    of F restricted to K."""
    rows = mesh.cell_faces.ravel()
    cols = np.repeat(np.arange(mesh.n_cells), mesh.dim + 1)
    data = mesh.cell_face_signs.ravel().astype(float)
    return sps.coo_array(
        (data, (rows, cols)), shape=(mesh.n_faces, mesh.n_cells)
    ).tocsr()


def rt0_eval_centroids(mesh: SimplicialMesh, dofs: np.ndarray) -> np.ndarray:
    """Evaluate an RT0 flux field at the cell centroids, (n_cells, 3)."""
    dofs = np.asarray(dofs, dtype=float)
    cv = mesh.vertices[mesh.cells]
    centro = cv.mean(axis=1)
    local = (
        mesh.cell_face_signs[..., None]
        * (centro[:, None, :] - cv)
        / (mesh.dim * mesh.cell_measures)[:, None, None]
    )
    return np.einsum("cf,cfx->cx", dofs[mesh.cell_faces], local)
