"""Tests of the equi-dimensional reference solver."""

import numpy as np
import pytest

from faultflow import linsolve
from faultflow.assembly import BoundaryConditions, CoefficientSet, assemble
from faultflow.linsolve import SolverError, _direct_solve, solve_equidim
from faultflow.mesh import (
    MeshError,
    SimplicialMesh,
    build_layered_equidim_mesh,
    build_two_block_geometry,
)


def boundary_bc(mesh, left_value, right_value):
    pressure = {}
    for f in mesh.faces_with_tag("left"):
        pressure[int(f)] = left_value
    for f in mesh.faces_with_tag("right"):
        pressure[int(f)] = right_value
    return pressure


def test_uniform_medium_gives_linear_pressure():
    mesh = build_layered_equidim_mesh(0.2, 0.1, eta=0.05, eta_coarse=0.25)
    solution = solve_equidim(
        mesh, 1.0, pressure_bc=boundary_bc(mesh, 0.0, 1.0)
    )
    cx = mesh.cell_centroids()[:, 0]
    assert np.max(np.abs(solution.pressure - cx / 2.0)) <= 1e-10
    expected = -0.5 * mesh.face_normals[:, 0] * mesh.face_measures
    assert np.max(np.abs(solution.flux - expected)) <= 1e-10


def test_three_strip_series_matches_hand_computation():
    eps_mu, eps_gamma = 1e-2, 1e-2
    mesh = build_layered_equidim_mesh(
        eps_mu, eps_gamma, eta=eps_gamma / 2.0, eta_coarse=0.25
    )
    per_cell = np.where(mesh.cell_regions == "matrix", 1.0, 100.0)
    tensors = per_cell[:, None, None] * np.eye(3)
    solution = solve_equidim(
        mesh, tensors, pressure_bc=boundary_bc(mesh, 0.0, 1.0)
    )

    # series resistance: 1.97 of matrix plus 100 * 0.03 of strip width
    width_matrix = 2.0 - 2.0 * eps_mu - eps_gamma
    total = width_matrix * 1.0 + (2.0 * eps_mu + eps_gamma) * 100.0
    u = -1.0 / total
    assert total == pytest.approx(4.97)

    expected_flux = u * mesh.face_normals[:, 0] * mesh.face_measures
    assert np.max(np.abs(solution.flux - expected_flux)) <= 1e-8

    # piecewise-linear pressure through the strips
    breaks = [
        0.0,
        1.0 - eps_gamma / 2.0 - eps_mu,
        1.0 - eps_gamma / 2.0,
        1.0 + eps_gamma / 2.0,
        1.0 + eps_gamma / 2.0 + eps_mu,
        2.0,
    ]
    resists = [1.0, 100.0, 100.0, 100.0, 1.0]

    def exact_pressure(x):
        p = 0.0
        for lo, hi, r in zip(breaks[:-1], breaks[1:], resists):
            if x <= hi:
                return p - u * r * (x - lo)
            p -= u * r * (hi - lo)
        return p

    cx = mesh.cell_centroids()[:, 0]
    expected_p = np.array([exact_pressure(x) for x in cx])
    assert np.max(np.abs(solution.pressure - expected_p)) <= 1e-8


def test_constant_pressure_means_no_flow():
    mesh = build_layered_equidim_mesh(0.2, 0.1, eta=0.1, eta_coarse=0.5)
    pressure = {int(f): 3.5 for f in mesh.boundary_faces()}
    solution = solve_equidim(mesh, 2.0, pressure_bc=pressure)
    assert np.max(np.abs(solution.pressure - 3.5)) <= 1e-12
    assert np.max(np.abs(solution.flux)) <= 1e-12


def test_local_conservation_with_heterogeneity():
    mesh = build_layered_equidim_mesh(0.2, 0.1, eta=0.05, eta_coarse=0.25)
    cy = mesh.cell_centroids()[:, 1]
    per_cell = np.where(cy > 0.5, 10.0, 0.1)
    tensors = per_cell[:, None, None] * np.eye(3)
    solution = solve_equidim(
        mesh, tensors, pressure_bc=boundary_bc(mesh, 2.0, -1.0)
    )
    net = np.zeros(mesh.n_cells)
    for c in range(mesh.n_cells):
        for f, s in zip(mesh.cell_faces[c], mesh.cell_face_signs[c]):
            net[c] += s * solution.flux[f]
    assert np.max(np.abs(net)) <= 1e-12


def test_high_contrast_strips_match_dense_solve(monkeypatch):
    # a fault core of resistance 1e-6 between damage strips of 1e6: the
    # pressures of the sparse solve must match a dense solve of the same
    # system
    systems = []

    def spy(solve, b, K):
        systems.append((K, b))
        return _direct_solve(solve, b, K)

    monkeypatch.setattr(linsolve, "_direct_solve", spy)
    mesh = build_layered_equidim_mesh(0.2, 0.1, eta=0.05, eta_coarse=0.25)
    resist = {"matrix": 1.0, "damage_left": 1e6, "damage_right": 1e6,
              "fault": 1e-6}
    per_cell = np.array([resist[r] for r in mesh.cell_regions])
    solution = solve_equidim(
        mesh, per_cell, pressure_bc=boundary_bc(mesh, 0.0, 1.0)
    )
    (K, b), = systems
    dense = np.linalg.solve(K.toarray(), b)[mesh.n_faces :]
    assert np.max(np.abs(solution.pressure - dense)) <= 1e-9 * np.max(
        np.abs(dense)
    )


def test_bc_validation():
    mesh = build_layered_equidim_mesh(0.2, 0.1, eta=0.1, eta_coarse=0.5)
    with pytest.raises(MeshError, match="anchor"):
        solve_equidim(mesh, 1.0)
    left = int(mesh.faces_with_tag("left")[0])
    with pytest.raises(MeshError, match="both pressure and flux"):
        solve_equidim(
            mesh, 1.0, pressure_bc={left: 1.0}, flux_bc={left: 1.0}
        )
    interior = int(np.flatnonzero(mesh.face_cells[:, 1] >= 0)[0])
    with pytest.raises(MeshError, match="not an external boundary face"):
        solve_equidim(mesh, 1.0, pressure_bc={left: 1.0, interior: 2.0})
    with pytest.raises(MeshError, match="non-finite weight on cell 0"):
        solve_equidim(mesh, np.nan, pressure_bc={left: 1.0})


REFUSED = {
    "both": "face {f} of {where} has both pressure and flux data",
    "interior": "face {f} of {where} is not an external boundary face",
    "nan": "face {f} of {where} has non-finite pressure nan",
    "float_key": "face {f} of {where} is not an external boundary face",
    "string": "face {f} of {where} has pressure 'x', not a finite float",
    "none": "face {f} of {where} has pressure None, not a finite float",
    "complex": "face {f} of {where} has flux 1j, not a finite float",
}
# the coupled data is keyed by (domain, face) and the reference's by face
# alone, so a key that is not a pair can only reach the coupled assembly
MISKEYED = {"int_key": 3, "triple_key": ("matrix", 3, 0)}


@pytest.mark.parametrize("case", [*REFUSED, *MISKEYED])
def test_coupled_and_reference_refuse_the_same_data(case):
    # one boundary-data routine serves the coupled assembly and the
    # reference, so both refuse the same data with the same line, naming
    # the face and the domain ("reference" for the one-domain solve)
    def data(mesh):
        left = int(mesh.faces_with_tag("left")[0])
        interior = int(np.flatnonzero(mesh.face_cells[:, 1] >= 0)[0])
        return {
            "both": (left, {left: 1.0}, {left: 2.0}),
            "interior": (interior, {left: 1.0}, {interior: 1.0}),
            "nan": (left, {left: np.nan}, {}),
            "float_key": (left + 0.5, {left + 0.5: 1.0}, {}),
            "string": (left, {left: "x"}, {}),
            "none": (left, {left: None}, {}),
            "complex": (left, {}, {left: 1j}),
        }[case]

    geometry = build_two_block_geometry(2, 2)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)
    if case in MISKEYED:
        key = MISKEYED[case]
        with pytest.raises(MeshError) as coupled:
            assemble(geometry, coeff, BoundaryConditions(pressure={key: 1.0}))
        assert str(coupled.value) == (
            f"boundary data key {key!r} is not a (domain, face) pair"
        )
        return
    face, pressure, flux = data(geometry.matrix)
    bc = BoundaryConditions(
        pressure={("matrix", f): v for f, v in pressure.items()},
        flux={("matrix", f): v for f, v in flux.items()},
    )
    with pytest.raises(MeshError) as coupled:
        assemble(geometry, coeff, bc)
    assert str(coupled.value) == REFUSED[case].format(f=face, where="matrix")

    mesh = build_layered_equidim_mesh(0.2, 0.1, eta=0.1, eta_coarse=0.5)
    face, pressure, flux = data(mesh)
    with pytest.raises(MeshError) as reference:
        solve_equidim(mesh, 1.0, pressure_bc=pressure, flux_bc=flux)
    expected = REFUSED[case].format(f=face, where="reference")
    assert str(reference.value) == expected


def test_overflowing_net_flux_names_its_face():
    # a finite density on a face of measure 1e100 whose net flux is not
    # finite: refused before it reaches the solve, without a warning
    mesh = SimplicialMesh(
        2, np.array([[0.0, 0.0], [1e100, 0.0], [0.0, 1e100]]), [[0, 1, 2]]
    )
    with pytest.raises(MeshError, match="^face 1 of reference: flux 1e"):
        solve_equidim(mesh, 1.0, pressure_bc={0: 1.0}, flux_bc={1: 1e300})


def test_failed_solve_is_a_solver_error(monkeypatch):
    # a factorization that fails; the reference solve reports it like the
    # coupled routes do (CLI exit code 2)
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linsolve.spla, "splu", singular)
    mesh = build_layered_equidim_mesh(0.2, 0.1, eta=0.1, eta_coarse=0.5)
    left = int(mesh.faces_with_tag("left")[0])
    with pytest.raises(SolverError, match="direct factorization failed"):
        solve_equidim(mesh, 1.0, pressure_bc={left: 1.0})
