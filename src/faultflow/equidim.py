"""Equi-dimensional reference solver.

The reduced model replaces thin strips by lower-dimensional surfaces; this
module solves the original problem with the strips kept at their physical
width, on the layered mesh of ``build_layered_equidim_mesh``.  Comparing
the two solutions measures the model error of the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    _boundary_data,
    _eliminate_field,
    _saddle_matrix,
    _scatter,
    rt0_entries,
)
from .linsolve import _direct_solve, _hybrid_solver
from .mesh import MeshError, SimplicialMesh

__all__ = [
    "EquiDimSolution",
    "solve_equidim",
]


@dataclass
class EquiDimSolution:
    flux: np.ndarray
    pressure: np.ndarray


def solve_equidim(
    mesh: SimplicialMesh,
    resist,
    pressure_bc: dict[int, float] | None = None,
    flux_bc: dict[int, float] | None = None,
) -> EquiDimSolution:
    """Mixed lowest-order solve of one Darcy domain.

    ``pressure_bc`` maps boundary faces to weakly imposed pressures;
    ``flux_bc`` maps boundary faces to outward flux densities, eliminated
    essentially; unlisted boundary faces are zero-flux.  The coupled
    assembly's ``_boundary_data`` (domain ``reference``) checks the data
    and refuses it as ``assemble`` does; no boundary pressure is a
    MeshError too.  The solve is the one-domain case of the coupled saddle
    route: the hybridized solve of the mesh's RT0 faces, refined against
    the full operator.  Raises SolverError when the direct solve fails.
    """
    g, fixed, anchors = _boundary_data(
        mesh, mesh.boundary_faces(), pressure_bc or {}, flux_bc or {},
        "reference",
    )
    if not len(anchors):
        raise MeshError(
            "at least one boundary pressure is needed to anchor the solve"
        )

    # the one-domain case of the coupled system
    table = [rt0_entries(mesh, resist)]
    F, C = _scatter(table, mesh.n_faces, mesh.n_cells)
    F, C, g, f = _eliminate_field(F, C, g, np.zeros(mesh.n_cells), fixed)
    solve = _hybrid_solver(table, ~np.isnan(fixed), mesh.n_cells)
    x = _direct_solve(solve, np.concatenate([g, f]), _saddle_matrix(F, C))
    return EquiDimSolution(
        flux=x[: mesh.n_faces], pressure=x[mesh.n_faces :]
    )
