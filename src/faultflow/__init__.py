"""Mixed-dimensional Darcy flow through faulted porous media.

The rock matrix keeps its full dimension while the fault core and the two
damage zones flanking it are reduced to surface models that exchange flux
with each other and with the matrix.  The package builds the coupled
lowest-order mixed discretization, solves it directly or through its
pressure reduction, compares against equi-dimensional reference solves,
and brackets the model error introduced by the reduction.
"""

from .assembly import (
    BlockSystem,
    BoundaryConditions,
    CoefficientSet,
    assemble,
    coefficients_from_mode,
)
from .linsolve import (
    EquiDimSolution,
    MixedSolution,
    PressureSchur,
    SolverError,
    build_pressure_schur,
    cell_velocities,
    conservation_residuals,
    global_balance,
    interface_law_residuals,
    solve_equidim,
    solve_saddle,
    solve_schur,
)
from .mesh import (
    InterfaceMap,
    MeshError,
    MeshFormatError,
    MixedDimGeometry,
    SimplicialMesh,
    TopologyError,
    build_layered_equidim_mesh,
    build_two_block_geometry,
    export_mesh,
    import_mesh,
)
from .model_error import (
    ErrorBounds,
    error_bounds,
    inject_p0,
    l2_norm,
    locate_cells,
)
from .scenarios import (
    ConfigError,
    RunConfig,
    RunResult,
    bundled_config,
    equidim_reference,
    load_config,
    parse_config,
    run_scenario,
    sweep,
)
from .vtk_io import write_vtk

__version__ = "0.1.0"

__all__ = [
    "BlockSystem",
    "BoundaryConditions",
    "CoefficientSet",
    "ConfigError",
    "EquiDimSolution",
    "ErrorBounds",
    "InterfaceMap",
    "MeshError",
    "MeshFormatError",
    "MixedDimGeometry",
    "MixedSolution",
    "PressureSchur",
    "RunConfig",
    "RunResult",
    "SimplicialMesh",
    "SolverError",
    "TopologyError",
    "assemble",
    "build_layered_equidim_mesh",
    "build_pressure_schur",
    "build_two_block_geometry",
    "bundled_config",
    "cell_velocities",
    "coefficients_from_mode",
    "conservation_residuals",
    "equidim_reference",
    "error_bounds",
    "export_mesh",
    "global_balance",
    "import_mesh",
    "inject_p0",
    "interface_law_residuals",
    "l2_norm",
    "load_config",
    "locate_cells",
    "parse_config",
    "run_scenario",
    "solve_equidim",
    "solve_saddle",
    "solve_schur",
    "sweep",
    "write_vtk",
]
