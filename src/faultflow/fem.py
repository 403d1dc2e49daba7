"""Local lowest-order Raviart-Thomas / piecewise-constant element kernels.

Flux degrees of freedom are net face fluxes: the dof on face F is the
integral of the normal flux component over F, taken in the direction of the
global face normal.  With that normalization the basis function attached to
local face i of a simplex with vertices v_0 .. v_d is

    zeta_i(x) = s_i (x - v_i) / (d |K|)

where s_i is the cell's orientation sign on the face and |K| the cell
measure.  Its divergence is the constant s_i / |K|, so the discrete
divergence of a cell is just the signed sum of its face dofs.

One per-cell table serves every kernel: the basis values at the cell
centroid c, Z_i = s_i (c - v_i) / (d |K|), which velocity recovery reads.
As zeta_i(x) = Z_i + s_i (x - c) / (d |K|), the second-moment identity
int_K (x - c)(x - c)^T = |K| / ((d+1)(d+2)) sum_a (v_a - c)(v_a - c)^T
gives the mass integrals int_K (W zeta_i) . zeta_j of an affine simplex:

    |K| (G_ij + s_i s_j tr(G) / ((d+1)(d+2))),    G = Z W Z^T.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshError, SimplicialMesh

__all__ = [
    "rt0_local_blocks",
    "rt0_eval_centroids",
]


def _centroid_basis(mesh: SimplicialMesh) -> np.ndarray:
    """The basis values at the cell centroids, (n_cells, d+1, 3), from edge
    vectors: their rounding scales with the cell, not with its position."""
    cv = mesh.vertices[mesh.cells]
    edges = cv - cv[:, :1]
    return (
        mesh.cell_face_signs[..., None]
        * (edges.mean(axis=1)[:, None, :] - edges)
        / (mesh.dim * mesh.cell_measures)[:, None, None]
    )


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


def rt0_local_blocks(mesh: SimplicialMesh, weights) -> np.ndarray:
    """The local blocks int_K (W zeta_i) . zeta_j of every cell,
    (n_cells, d+1, d+1), in the cell's local face order."""
    W = _per_cell(weights, mesh.n_cells, "weight", tensors=True)
    if W.ndim == 1:
        W = W[:, None, None] * np.eye(3)
    Z = _centroid_basis(mesh)
    G = Z @ W @ Z.transpose(0, 2, 1)
    n1 = mesh.dim + 1
    second = np.trace(G, axis1=1, axis2=2) / (n1 * (n1 + 1))
    signs = mesh.cell_face_signs.astype(float)
    M = G + signs[:, :, None] * signs[:, None, :] * second[:, None, None]
    # An entry that is exactly 0 (on a right isosceles triangle, the
    # hypotenuse face against each leg) keeps a round-off residue; the
    # sparse products would keep it, and the factors would fill in.
    M[np.abs(M) <= 16 * np.finfo(float).eps * second[:, None, None]] = 0.0
    M *= mesh.cell_measures[:, None, None]
    return M


def rt0_eval_centroids(mesh: SimplicialMesh, dofs: np.ndarray) -> np.ndarray:
    """Evaluate an RT0 flux field at the cell centroids, (n_cells, 3)."""
    local = np.asarray(dofs, dtype=float)[mesh.cell_faces]
    return np.einsum("cf,cfx->cx", local, _centroid_basis(mesh))
