"""Solver tests: exact closed forms, route equivalence, diagnostics.

The pressure-reduced operator is checked against a dense reduction built
with plain numpy solves from the composed operator, and both solve routes
are checked against each other on structured and randomized problems.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from faultflow.assembly import (
    BoundaryConditions,
    CoefficientSet,
    SourceField,
    assemble,
    coefficients_from_mode,
)
from faultflow.linsolve import (
    MixedSolution,
    SolverError,
    build_pressure_schur,
    cell_velocities,
    conservation_residuals,
    global_balance,
    interface_law_residuals,
    solve_saddle,
    solve_schur,
)
from faultflow.mesh import (
    MixedDimGeometry,
    SimplicialMesh,
    build_two_block_geometry,
)
from faultflow.scenarios import (
    bundled_config,
    load_config,
    resolve_boundary_conditions,
    resolve_coefficients,
)
from helpers import (
    SIDES,
    patch_setup,
    series_flux,
    series_setup,
    series_solution_vector,
)


# ---------------------------------------------------------------------------
# closed-form solutions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (10.0, 0.1), (1e4, 1e4)])
def test_series_flux_matches_resistance_chain(a, b):
    geometry, coeff, bc = series_setup(4, a, b)
    system = assemble(geometry, coeff, bc)
    solution = solve_saddle(system)

    expected = series_flux(a, b)
    # every matrix face sees the same horizontal velocity
    dofs = geometry.matrix.face_normals[:, 0] * geometry.matrix.face_measures
    err = np.abs(solution.matrix_flux - expected * dofs)
    assert np.max(err) <= 1e-8 * abs(expected)

    exact = series_solution_vector(system, a, b)
    assert np.max(np.abs(solution.vector - exact)) <= 1e-8


def test_patch_linear_pressure_reproduced_exactly():
    geometry, coeff, bc = patch_setup(5, 4)
    system = assemble(geometry, coeff, bc)
    solution = solve_saddle(system)

    assert np.max(
        np.abs(solution.matrix_pressure - geometry.matrix.cell_centroids()[:, 1])
    ) <= 1e-10
    for side in SIDES:
        mids = geometry.damage[side].cell_centroids()[:, 1]
        assert np.max(np.abs(solution.damage_pressure[side] - mids)) <= 1e-10
        assert np.max(np.abs(solution.exchange_flux[side])) <= 1e-10
    assert np.max(
        np.abs(solution.fault_pressure - geometry.fault.cell_centroids()[:, 1])
    ) <= 1e-10

    # uniform fault-parallel velocity, scaled by each domain's resistance
    vels = cell_velocities(system, solution)
    assert np.max(np.abs(vels["matrix"] - [0.0, -1.0 / 2.0, 0.0])) <= 1e-10
    assert np.max(np.abs(vels["damage_left"] - [0.0, -1.0 / 3.0, 0.0])) <= 1e-10
    assert np.max(np.abs(vels["damage_right"] - [0.0, -1.0 / 5.0, 0.0])) <= 1e-10
    assert np.max(np.abs(vels["fault"] - [0.0, -1.0 / 7.0, 0.0])) <= 1e-10


# ---------------------------------------------------------------------------
# the pressure reduction
# ---------------------------------------------------------------------------


def dense_reduction(system):
    """Dense pressure reduction by block elimination of the composed
    operator: flux rows and columns against pressure ones, as partitioned
    by ``system.offsets``, eliminated with plain numpy solves."""
    K = system.matrix.toarray()
    b = system.rhs

    def gather(kind):
        offsets = system.offsets.items()
        return np.r_[tuple(sl for name, sl in offsets if name.endswith(kind))]

    u, p = gather("_flux"), gather("_pressure")
    F = K[np.ix_(u, u)]
    C = K[np.ix_(u, p)]
    assert not np.any(K[np.ix_(p, p)])
    S = C.T @ np.linalg.solve(F, C)
    r = C.T @ np.linalg.solve(F, b[u]) - b[p]
    return S, r


def interface_case(n=6):
    """A fault-crossing flow with heterogeneous coefficients, used
    wherever a representative solved system is needed."""
    geometry = build_two_block_geometry(n, n)
    y = geometry.fault.cell_centroids()[:, 1]
    k_fault = np.where((y > 0.25) & (y < 0.75), 2e-3, 1.0)
    coeff = coefficients_from_mode(
        geometry,
        {"matrix": 1.0, "damage": 100.0, "fault": k_fault},
        "literal",
        eps_mu=1e-2,
        eps_gamma=1e-2,
    )
    bc = BoundaryConditions()
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 0.0
    for f in geometry.matrix.faces_with_tag("right"):
        bc.pressure[("matrix", int(f))] = 1.0
    return assemble(geometry, coeff, bc)


def test_reduced_operator_matches_dense_reduction():
    geometry, coeff, bc = series_setup(2, 3.0, 0.5)
    system = assemble(geometry, coeff, bc, SourceField(matrix=0.4, fault=1.5))
    schur = build_pressure_schur(system)
    S, r = dense_reduction(system)
    assert np.max(np.abs(schur.to_dense() - S)) <= 1e-11
    assert np.max(np.abs(schur.rhs() - r)) <= 1e-12
    # positive definite: a Cholesky factorization must go through
    np.linalg.cholesky(S)

    p = np.linalg.solve(S, r)
    direct = solve_saddle(system)
    x = schur.expand(p)
    assert np.max(np.abs(x - direct.vector)) <= 1e-9


def test_reduction_matches_dense_reduction_in_3d():
    # a coarse version of the bundled 3D scenario: 288 tetrahedra
    spec = importlib.util.spec_from_file_location(
        "make_fault3d_mesh",
        Path(__file__).resolve().parents[1] / "tools" / "make_fault3d_mesh.py",
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    geometry = tool.build_geometry(3, 2)
    config = load_config(bundled_config("fault3d"))
    system = assemble(
        geometry,
        resolve_coefficients(config, geometry),
        resolve_boundary_conditions(config, geometry),
    )
    schur = build_pressure_schur(system)
    S, r = dense_reduction(system)
    assert np.max(np.abs(schur.to_dense() - S)) <= 1e-12 * np.max(np.abs(S))
    assert np.max(np.abs(schur.rhs() - r)) <= 1e-12 * np.max(np.abs(r))

    direct = solve_saddle(system).vector[system.pressure_index]
    reduced = solve_schur(system)[0].vector[system.pressure_index]
    assert np.max(np.abs(direct - reduced)) <= 1e-8 * np.max(np.abs(direct))


def test_schur_and_saddle_agree_on_heterogeneous_case():
    system = interface_case()
    direct = solve_saddle(system)
    reduced, report = solve_schur(system)
    assert report["iterations"] > 0
    scale = np.max(np.abs(direct.matrix_pressure))
    assert np.max(
        np.abs(direct.matrix_pressure - reduced.matrix_pressure)
    ) <= 1e-8 * scale
    assert np.max(np.abs(direct.vector - reduced.vector)) <= 1e-7 * max(
        1.0, scale
    )


def test_schur_and_saddle_agree_on_random_problems():
    rng = np.random.default_rng(20241007)
    for trial in range(20):
        n_x, n_y = rng.integers(1, 4, size=2)
        geometry = build_two_block_geometry(int(n_x), int(n_y))

        def draw(n):
            return 10.0 ** rng.uniform(-3, 3, size=n)

        coeff = CoefficientSet.for_geometry(
            geometry,
            matrix_resist=draw(geometry.matrix.n_cells),
            damage_resist={
                s: draw(geometry.damage[s].n_cells) for s in SIDES
            },
            fault_resist=draw(geometry.fault.n_cells),
            matrix_damage_resist={
                s: draw(len(geometry.matrix_damage[s])) for s in SIDES
            },
            damage_fault_resist={
                s: draw(geometry.fault.n_cells) for s in SIDES
            },
        )
        bc = BoundaryConditions()
        plane = {
            int(f)
            for s in SIDES
            for f in geometry.matrix_damage[s].pairs[:, 0]
        }
        anchored = False
        for f in geometry.matrix.boundary_faces():
            if int(f) in plane:
                continue
            if rng.random() < 0.5:
                bc.pressure[("matrix", int(f))] = float(rng.normal())
                anchored = True
            elif rng.random() < 0.5:
                bc.flux[("matrix", int(f))] = float(rng.normal())
        if not anchored:
            f = next(
                int(f)
                for f in geometry.matrix.boundary_faces()
                if int(f) not in plane
            )
            bc.pressure.pop(("matrix", f), None)
            bc.flux.pop(("matrix", f), None)
            bc.pressure[("matrix", f)] = 1.0
        sources = SourceField(
            matrix=float(rng.normal()),
            damage={s: float(rng.normal()) for s in SIDES},
            fault=float(rng.normal()),
        )
        system = assemble(geometry, coeff, bc, sources)
        direct = solve_saddle(system)
        reduced, _ = solve_schur(system, rtol=1e-13)
        scale = max(1.0, np.max(np.abs(direct.vector)))
        assert (
            np.max(np.abs(direct.vector - reduced.vector)) <= 1e-7 * scale
        ), f"trial {trial}"


def test_one_sided_damage_asymmetry():
    geometry = build_two_block_geometry(6, 6)
    y = geometry.fault.cell_centroids()[:, 1]
    k_variable = np.where((y > 0.25) & (y < 0.75), 2e-3, 1.0)
    coeff = coefficients_from_mode(
        geometry,
        {
            "matrix": 1.0,
            "damage": {"left": k_variable, "right": 100.0},
            "fault": k_variable,
        },
        "literal",
        eps_mu=1e-2,
        eps_gamma=1e-2,
    )
    bc = BoundaryConditions()
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 0.0
    for f in geometry.matrix.faces_with_tag("right"):
        bc.pressure[("matrix", int(f))] = 1.0
    system = assemble(geometry, coeff, bc)
    direct = solve_saddle(system)
    reduced, _ = solve_schur(system)
    assert np.max(np.abs(direct.vector - reduced.vector)) <= 1e-7
    # the two layers genuinely differ, far beyond solver noise
    gap = np.max(
        np.abs(
            direct.damage_pressure["left"] - direct.damage_pressure["right"]
        )
    )
    assert gap > 1e-5


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_conservation_and_balance_on_solved_system():
    system = interface_case()
    solution = solve_saddle(system)
    residuals = conservation_residuals(system, solution)
    for name in ("matrix", "damage", "fault"):
        assert np.max(np.abs(residuals[name])) <= 1e-10
    assert abs(global_balance(system, solution)) <= 1e-9

    # with sources: injected volume must show up in the budget
    geometry, coeff, bc = series_setup(3, 1.0, 1.0)
    system = assemble(geometry, coeff, bc, SourceField(fault=2.0))
    solution = solve_saddle(system)
    assert abs(global_balance(system, solution)) <= 1e-9
    residuals = conservation_residuals(system, solution)
    for name in ("matrix", "damage", "fault"):
        assert np.max(np.abs(residuals[name])) <= 1e-10


def test_interface_laws_hold_on_solved_system():
    system = interface_case()
    solution = solve_saddle(system)
    laws = interface_law_residuals(system, solution)
    for side in SIDES:
        assert np.max(np.abs(laws["matrix_damage"][side])) <= 1e-9
        assert np.max(np.abs(laws["damage_fault"][side])) <= 1e-9

    # cross-check the exchange law cell by cell: cell i of a damage layer
    # exchanges with cell i of the fault
    coeff = system.coefficients
    for side in SIDES:
        for cell in range(system.geometry.fault.n_cells):
            by_hand = (
                coeff.damage_fault_resist[side][cell]
                * solution.exchange_flux[side][cell]
                + solution.fault_pressure[cell]
                - solution.damage_pressure[side][cell]
            )
            assert abs(laws["damage_fault"][side][cell] - by_hand) < 1e-14


def test_velocity_reconstruction_shapes():
    system = interface_case(3)
    solution = solve_saddle(system)
    vels = cell_velocities(system, solution)
    assert vels["matrix"].shape == (system.geometry.matrix.n_cells, 3)
    assert vels["fault"].shape == (system.geometry.fault.n_cells, 3)
    for side in SIDES:
        assert vels[f"damage_{side}"].shape == (
            system.geometry.damage[side].n_cells,
            3,
        )
    # flow enters at the high-pressure right boundary and moves left
    assert np.mean(vels["matrix"][:, 0]) < 0


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_unanchored_system_is_reported_singular():
    geometry = build_two_block_geometry(2, 2)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0, 1.0, 1.0)
    system = assemble(
        geometry, coeff, BoundaryConditions(), SourceField(fault=1.0)
    )
    with pytest.raises(SolverError, match="no boundary pressure"):
        solve_saddle(system)
    with pytest.raises(SolverError, match="no boundary pressure"):
        solve_schur(system, maxiter=200)


def test_island_without_boundary_pressure_is_reported():
    # one detached triangle in the matrix mesh: boundary pressures on the
    # two blocks do not reach it, so its pressure level is free
    base = build_two_block_geometry(3, 3)
    n = base.matrix.n_vertices
    island = [[5.0, 5.0, 0.0], [5.5, 5.0, 0.0], [5.0, 5.5, 0.0]]
    matrix = SimplicialMesh(
        2,
        np.vstack([base.matrix.vertices, island]),
        np.vstack([base.matrix.cells, [[n, n + 1, n + 2]]]),
        boundary_tags=base.matrix.boundary_tags,
    )
    # the new faces come last, so the interface maps and tags still hold
    assert np.array_equal(
        matrix.faces[: base.matrix.n_faces], base.matrix.faces
    )
    geometry = MixedDimGeometry(matrix, base.fault, base.matrix_damage)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0, 1.0, 1.0)
    bc = BoundaryConditions()
    for f in matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 0.0
    for f in matrix.faces_with_tag("right"):
        bc.pressure[("matrix", int(f))] = 1.0
    system = assemble(geometry, coeff, bc)
    island_cell = f"cell {base.matrix.n_cells} of matrix"
    with pytest.raises(SolverError, match="no boundary pressure") as exc:
        solve_saddle(system)
    assert island_cell in str(exc.value)
    with pytest.raises(SolverError, match="no boundary pressure") as exc:
        solve_schur(system)
    assert island_cell in str(exc.value)


def test_zero_data_yields_zero_solution():
    geometry = build_two_block_geometry(3, 3)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0, 1.0, 1.0)
    bc = BoundaryConditions()
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 0.0
    system = assemble(geometry, coeff, bc)
    schur = build_pressure_schur(system)
    assert np.max(np.abs(schur.rhs())) == 0.0
    solution, report = solve_schur(system)
    assert report["iterations"] == 0
    assert np.max(np.abs(solution.vector)) == 0.0
    assert isinstance(solution, MixedSolution)
