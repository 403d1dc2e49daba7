"""Model-error measurement between the reduced and the full solution.

The reduced model squeezes the physical strips onto the fault line, so its
matrix pressure field covers the whole rectangle except a measure-zero
line.  Injecting that piecewise-constant field onto the cells of the
layered reference mesh and taking an L2 difference against the reference
pressure gives the model error estimate; the difference between two
injections at consecutive mixed resolutions brackets the discretization
part, turning the estimate into a two-sided bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, SimplicialMesh

__all__ = [
    "locate_cells",
    "inject_p0",
    "l2_norm",
    "ErrorBounds",
    "error_bounds",
]

_BARY_TOL = 1e-12


def _ranges(counts):
    """Owner and offset of each slot when item i owns counts[i] slots."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - starts[owner]


def locate_cells(mesh: SimplicialMesh, points) -> np.ndarray:
    """Containing cell of each point: the lowest-index cell in which all
    its barycentric coordinates are >= -1e-12, so a point on a shared face
    or vertex goes to the lowest of its cells.  Cells are binned by bounding
    box, about ``n_cells**(1/dim) / 2`` bins per axis."""
    dim = mesh.dim
    pts = np.asarray(points, dtype=float)[:, :dim]
    verts = mesh.vertices[:, :dim]
    corners = verts[mesh.cells]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    # coordinates >= -tol: within (dim+1) * tol * extent; doubled for rounding
    slack = 2 * (dim + 1) * _BARY_TOL * np.max(hi - lo, initial=0.0)
    origin, span = verts.min(axis=0), np.ptp(verts, axis=0)
    span[span == 0] = 1.0
    n_bins = max(1, int(round(mesh.n_cells ** (1.0 / dim) / 2)))

    def box_bins(lo, hi):
        """Owner and flat key of every bin meeting each box [lo, hi]."""
        idx = np.floor((np.stack([lo, hi]) - origin) / (span / n_bins))
        lo, hi = np.clip(idx.astype(np.int64), 0, n_bins - 1)
        extent = hi - lo + 1
        owner, rest = _ranges(extent.prod(axis=1))
        key = np.zeros_like(owner)
        for d in range(dim):
            key = key * n_bins + lo[owner, d] + rest % extent[owner, d]
            rest //= extent[owner, d]
        return owner, key

    # every cell over the bins of its bounding box: CSR by bin, ascending
    cell, key = box_bins(lo, hi)
    binned = cell[np.argsort(key, kind="stable")]
    ptr = np.searchsorted(np.sort(key), np.arange(n_bins**dim + 1))

    # a point within the slack of a bin boundary looks in both bins
    owner, key = box_bins(pts - slack, pts + slack)
    point, cell = _ranges(ptr[key + 1] - ptr[key])
    cell = binned[cell + ptr[key[point]]]
    point = owner[point]
    # one axis at a time: the pair arrays are the memory peak of the sweep
    near = np.ones(len(cell), dtype=bool)
    for d in range(dim):
        x = pts[point, d]
        near &= (x >= lo[cell, d] - slack) & (x <= hi[cell, d] + slack)
    point, cell = point[near], cell[near]
    c = corners[cell]
    T = np.swapaxes(c[:, 1:] - c[:, :1], 1, 2)
    lam = np.linalg.solve(T, (pts[point] - c[:, 0])[..., None])[..., 0]
    bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
    inside = np.all(bary >= -_BARY_TOL, axis=1)
    best = np.full(len(pts), mesh.n_cells, dtype=np.int64)
    np.minimum.at(best, point[inside], cell[inside])
    if np.any(best == mesh.n_cells):
        outside = pts[np.argmax(best == mesh.n_cells)]
        raise MeshError(f"point {tuple(outside)} lies in no cell of the mesh")
    return best


def inject_p0(
    source_mesh: SimplicialMesh, values: np.ndarray, target_points
) -> np.ndarray:
    """Evaluate a piecewise-constant field at the given points."""
    values = np.asarray(values, dtype=float)
    if values.shape != (source_mesh.n_cells,):
        raise MeshError(
            f"field has shape {values.shape}, expected "
            f"({source_mesh.n_cells},)"
        )
    return values[locate_cells(source_mesh, target_points)]


def l2_norm(mesh: SimplicialMesh, cell_values) -> float:
    """L2 norm of a piecewise-constant field."""
    v = np.asarray(cell_values, dtype=float)
    return float(np.sqrt(np.sum(v * v * mesh.cell_measures)))


@dataclass
class ErrorBounds:
    """Model-error estimate with its discretization bracket.

    ``estimate`` is the distance between the injected reduced pressure and
    the reference pressure; ``gap`` the distance between two consecutive
    mixed resolutions after injection.  The true model error lies within
    [lower, upper] up to the reference discretization error.
    """

    estimate: float
    gap: float

    @property
    def lower(self) -> float:
        return max(self.estimate - self.gap, 0.0)

    @property
    def upper(self) -> float:
        return self.estimate + self.gap


def error_bounds(
    reference_mesh: SimplicialMesh,
    reference_pressure: np.ndarray,
    mixed_mesh: SimplicialMesh,
    mixed_pressure: np.ndarray,
    finer_mesh: SimplicialMesh,
    finer_pressure: np.ndarray,
) -> ErrorBounds:
    """Bracket the model error of one reduced solution.

    All three pressures are piecewise constant; the mixed ones live on
    (possibly different) matrix meshes and are compared on the cells of
    the reference mesh.
    """
    targets = reference_mesh.cell_centroids()
    injected = inject_p0(mixed_mesh, mixed_pressure, targets)
    injected_fine = inject_p0(finer_mesh, finer_pressure, targets)
    estimate = l2_norm(reference_mesh, injected - reference_pressure)
    gap = l2_norm(reference_mesh, injected_fine - injected)
    return ErrorBounds(estimate=estimate, gap=gap)
