"""Solver tests: exact closed forms, route equivalence, diagnostics.

The pressure-reduced operator is checked against a dense reduction built
with plain numpy solves from the composed operator, and both solve routes
are checked against each other on structured and randomized problems.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from faultflow import linsolve
from faultflow.assembly import (
    BoundaryConditions,
    CoefficientSet,
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
    MeshError,
    MixedDimGeometry,
    SimplicialMesh,
    build_two_block_geometry,
)
from faultflow.scenarios import (
    ConfigError,
    _solve,
    build_geometry,
    bundled_config,
    load_config,
    parse_config,
    resolve_boundary_conditions,
    resolve_coefficients,
    run_scenario,
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
        {
            "matrix": 1.0,
            "damage_left": 100.0,
            "damage_right": 100.0,
            "fault": k_fault,
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
    return assemble(geometry, coeff, bc)


def test_reduced_operator_matches_dense_reduction():
    geometry, coeff, bc = series_setup(2, 3.0, 0.5)
    system = assemble(geometry, coeff, bc, {"matrix": 0.4, "fault": 1.5})
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

    pressure = slice(system.F.shape[0], None)
    direct = solve_saddle(system).vector[pressure]
    reduced = solve_schur(system)[0].vector[pressure]
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
            resist={
                "matrix": draw(geometry.matrix.n_cells),
                **{
                    f"damage_{s}": draw(geometry.damage[s].n_cells)
                    for s in SIDES
                },
                "fault": draw(geometry.fault.n_cells),
            },
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
        sources = {
            "matrix": float(rng.normal()),
            **{f"damage_{s}": float(rng.normal()) for s in SIDES},
            "fault": float(rng.normal()),
        }
        system = assemble(geometry, coeff, bc, sources)
        direct = solve_saddle(system)
        reduced, _ = solve_schur(system)
        scale = max(1.0, np.max(np.abs(direct.vector)))
        assert (
            np.max(np.abs(direct.vector - reduced.vector)) <= 1e-7 * scale
        ), f"trial {trial}"


@pytest.mark.parametrize("name", ["case_i", "case_ii", "case_iii"])
def test_preconditioned_schur_route_on_bundled_cases(name):
    # the lumped-complement preconditioner holds CG to a few dozen
    # iterations at the bundled contrasts (Jacobi scaling took 686-791),
    # and case_i, the hardest, then closes the budget and matches the
    # direct route far inside the acceptance tolerances
    result = run_scenario(load_config(bundled_config(name)))
    solution, report = solve_schur(result.system)
    assert 0 < report["iterations"] <= 40
    assert report["residual"] <= 1e-12
    if name == "case_i":
        assert abs(global_balance(result.system, solution)) <= 1e-10
        direct = result.solution.vector
        assert np.max(np.abs(solution.vector - direct)) <= 1e-10 * np.max(
            np.abs(direct)
        )


def reference_solve(K, b):
    """Dense LU solve of K x = b, refined with residuals in extended
    precision.  At high contrast K's condition number passes 1e12, and
    the LU solve alone then loses more digits than the refined
    hybridized solve does; the extended-precision residual recovers
    them, so the reference is not the less accurate side."""
    K = K.toarray()
    lu = sla.lu_factor(K)
    x = sla.lu_solve(lu, b)
    K_ext, b_ext = K.astype(np.longdouble), b.astype(np.longdouble)
    for _ in range(5):
        r = b_ext - K_ext @ x.astype(np.longdouble)
        x = x + sla.lu_solve(lu, r.astype(float))
    return x


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_saddle_solve_matches_dense_solve_at_high_contrast(data):
    # every resistance log-uniform over twelve decades, driven by left and
    # right matrix pressures
    geometry = build_two_block_geometry(
        data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    )

    def draw(n):
        exponents = st.lists(st.floats(-6, 6), min_size=n, max_size=n)
        return 10.0 ** np.array(data.draw(exponents))

    n_fault = geometry.fault.n_cells
    coeff = CoefficientSet.for_geometry(
        geometry,
        resist={
            "matrix": draw(geometry.matrix.n_cells),
            **{f"damage_{s}": draw(n_fault) for s in SIDES},
            "fault": draw(n_fault),
        },
        matrix_damage_resist={s: draw(n_fault) for s in SIDES},
        damage_fault_resist={s: draw(n_fault) for s in SIDES},
    )
    bc = BoundaryConditions()
    for tag in ("left", "right"):
        value = data.draw(st.integers(-1000, 1000)) / 1000
        for f in geometry.matrix.faces_with_tag(tag):
            bc.pressure[("matrix", int(f))] = value
    system = assemble(geometry, coeff, bc)

    pressure = slice(system.F.shape[0], None)
    dense = reference_solve(system.matrix, system.rhs)[pressure]
    direct = solve_saddle(system).vector[pressure]
    assert np.max(np.abs(direct - dense)) <= 1e-9 * np.max(np.abs(dense))


def test_one_sided_damage_asymmetry():
    geometry = build_two_block_geometry(6, 6)
    y = geometry.fault.cell_centroids()[:, 1]
    k_variable = np.where((y > 0.25) & (y < 0.75), 2e-3, 1.0)
    coeff = coefficients_from_mode(
        geometry,
        {
            "matrix": 1.0,
            "damage_left": k_variable,
            "damage_right": 100.0,
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
    for residual in conservation_residuals(system, solution).values():
        assert np.max(np.abs(residual)) <= 1e-10
    assert abs(global_balance(system, solution)) <= 1e-9

    # with sources: injected volume must show up in the budget
    geometry, coeff, bc = series_setup(3, 1.0, 1.0)
    system = assemble(geometry, coeff, bc, {"fault": 2.0})
    solution = solve_saddle(system)
    assert abs(global_balance(system, solution)) <= 1e-9
    for residual in conservation_residuals(system, solution).values():
        assert np.max(np.abs(residual)) <= 1e-10


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
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)
    system = assemble(
        geometry, coeff, BoundaryConditions(), {"fault": 1.0}
    )
    with pytest.raises(SolverError, match="no boundary pressure"):
        solve_saddle(system)
    with pytest.raises(SolverError, match="no boundary pressure"):
        solve_schur(system)


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
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)
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


def test_non_finite_right_hand_side_is_a_solver_error():
    system = interface_case(3)
    system.g[0] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        solve_saddle(system)
    with pytest.raises(SolverError, match="non-finite"):
        solve_schur(system)


def test_unconverged_refinement_is_a_solver_error(monkeypatch):
    # a multiplier system 1e12 times too stiff: each refinement step then
    # removes far less than half of the error
    factor = linsolve._symmetric_lu
    monkeypatch.setattr(
        linsolve, "_symmetric_lu", lambda A: factor(1e12 * A)
    )
    system = interface_case(3)
    with pytest.raises(SolverError, match="did not converge"):
        solve_saddle(system)


def hybridized_solve(system):
    """The hybridized solve of ``system``, without refinement."""
    fixed = np.zeros(system.F.shape[0], dtype=bool)
    fixed[list(system.eliminated)] = True
    return linsolve._hybrid_solver(system.table, fixed, system.C.shape[1])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_hybridized_solve_matches_dense_solve(data):
    # conductivities over six decades per cell, thin layers, pressure and
    # flux data on the matrix and on the layer ends.  One correction,
    # unrefined, solves K but for the digits a block of high conductance
    # loses in its pressure level when it reaches its data only through
    # high resistances: the pressure of a damage layer held at -2e5
    # behind an exchange resistance of 1.5e5 came out 3.5e-5 off, which
    # is double precision times the ratio of conductances (about 1e11).
    # The refinement against K recovers those digits.  An LU solve of K
    # loses them too (1.2e-10 of max|x| with literal fault coefficients
    # 1e2 and 1e3 next to a matrix of 1), hence the refined reference.
    geometry = build_two_block_geometry(
        data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    )

    def draw(n):
        exponents = st.lists(st.floats(-3, 3), min_size=n, max_size=n)
        return 10.0 ** np.array(data.draw(exponents))

    coeff = coefficients_from_mode(
        geometry,
        {dom: draw(mesh.n_cells) for dom, mesh in geometry.domains.items()},
        data.draw(st.sampled_from(["literal", "permeability"])),
        eps_mu=10.0 ** data.draw(st.floats(-3, -1)),
        eps_gamma=10.0 ** data.draw(st.floats(-3, -1)),
    )
    bc = BoundaryConditions()
    kinds = {"pressure": bc.pressure, "flux": bc.flux}
    targets = [("matrix", "left", ["pressure"])]
    targets.append(("matrix", "right", ["pressure", "flux"]))
    for dom in ("damage_left", "damage_right", "fault"):
        for tag in ("y0", "y1"):
            targets.append((dom, tag, [None, "pressure", "flux"]))
    for dom, tag, choices in targets:
        kind = data.draw(st.sampled_from(choices))
        value = data.draw(st.integers(-1000, 1000)) / 1000
        for f in geometry.domains[dom].faces_with_tag(tag):
            if kind:
                kinds[kind][(dom, int(f))] = value
    system = assemble(geometry, coeff, bc)

    K, b = system.matrix, system.rhs
    solve = hybridized_solve(system)
    dense = reference_solve(K, b)
    scale = np.max(np.abs(dense))
    x = solve(b)
    assert np.max(np.abs(x - dense)) <= 1e-3 * scale
    x = linsolve._direct_solve(solve, b, K)
    assert np.max(np.abs(x - dense)) <= 1e-10 * scale


@pytest.mark.parametrize("name", ["case_i", "case_ii", "case_iii", "fault3d"])
def test_refinement_takes_few_steps_on_bundled_cases(name, monkeypatch):
    solves = []
    hybrid = linsolve._hybrid_solver

    def counted(*args):
        solve = hybrid(*args)

        def count(r):
            solves.append(r)
            return solve(r)

        return count

    monkeypatch.setattr(linsolve, "_hybrid_solver", counted)
    config = load_config(bundled_config(name))
    geometry = build_geometry(config)
    system = assemble(
        geometry,
        resolve_coefficients(config, geometry),
        resolve_boundary_conditions(config, geometry),
    )
    solve_saddle(system)
    # the first solve and at most four corrections
    assert 2 <= len(solves) <= 5


@pytest.mark.parametrize("route", ["saddle", "schur"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_route_refuses_or_conserves_at_extreme_contrast(route, data):
    # coefficients over three hundred decades and layers from 1e-6 to 1e6
    # thick: the run is refused with one of the package's errors or passes
    # ``_solve``'s conservation check, and never warns
    def power(lo, hi):
        return repr(10.0 ** data.draw(st.floats(lo, hi)))

    lines = [
        "geometry two_block",
        f"nx {data.draw(st.integers(1, 3))}",
        f"ny {data.draw(st.integers(1, 3))}",
        f"eps_mu {power(-6, 6)}",
        f"eps_gamma {power(-6, 6)}",
        f"mode {data.draw(st.sampled_from(['literal', 'permeability']))}",
        f"solver {route}",
        *(
            f"coeff {region} {power(-150, 150)}"
            for region in ("matrix", "damage_left", "damage_right", "fault")
        ),
        "bc pressure 1 on matrix:left",
        f"bc {data.draw(st.sampled_from(['pressure', 'flux']))} -2 on "
        "matrix:right",
    ]
    if data.draw(st.booleans()):
        lines.append("bc pressure 0.5 on layers:y0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _, solution, _, _ = _solve(parse_config("\n".join(lines)))
        except (ConfigError, MeshError, SolverError):
            return
    assert np.all(np.isfinite(solution.vector))


def test_schur_route_stops_at_the_first_non_finite_iterate():
    # a fault 1e79 times more resistive than the rest overflows CG's inner
    # products: the route stops within a few iterations, without a warning,
    # instead of spending its whole budget on NaN
    config = parse_config(
        "\n".join(
            [
                "geometry two_block",
                "nx 2",
                "ny 3",
                "eps_mu 1",
                "eps_gamma 1",
                "mode literal",
                "solver schur",
                "coeff matrix 1",
                "coeff damage_left 1",
                "coeff damage_right 1",
                "coeff fault 1e79",
                "bc pressure 1 on matrix:left",
                "bc flux -2 on matrix:right",
            ]
        )
    )
    with pytest.raises(SolverError, match="non-finite values at iteration"):
        _solve(config)


def test_zero_data_yields_zero_solution():
    geometry = build_two_block_geometry(3, 3)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)
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


def test_unconverged_conjugate_gradients_is_a_solver_error(monkeypatch):
    system = interface_case(3)
    # a budget of one iteration in all: half an iteration per unknown,
    # rounded up
    with monkeypatch.context() as patch:
        patch.setattr(linsolve, "_CG_ITERATIONS", 0.5 / system.C.shape[1])
        with pytest.raises(SolverError, match="stopped after 1 iterations"):
            solve_schur(system)

    # a singular preconditioner is a failed factorization too
    lumped = linsolve._lumped_complement
    with monkeypatch.context() as patch:
        patch.setattr(
            linsolve, "_lumped_complement", lambda F, C: 0.0 * lumped(F, C)
        )
        with pytest.raises(SolverError, match="lumped complement"):
            solve_schur(system)

    # a CG that claims convergence on a wrong iterate: the true residual
    # exposes it, and restarting does not bring it down
    monkeypatch.setattr(
        linsolve.spla, "cg", lambda A, b, **kw: (np.zeros_like(b), 0)
    )
    with pytest.raises(SolverError, match="true residual 1.0e"):
        solve_schur(system)
