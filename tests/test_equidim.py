"""Tests of the equi-dimensional reference solver."""

import numpy as np
import pytest

from faultflow import equidim, linsolve
from faultflow.equidim import solve_equidim
from faultflow.linsolve import SolverError, _direct_solve
from faultflow.mesh import MeshError, build_layered_equidim_mesh


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

    monkeypatch.setattr(equidim, "_direct_solve", spy)
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
    with pytest.raises(MeshError, match="not a boundary face"):
        solve_equidim(mesh, 1.0, pressure_bc={left: 1.0, interior: 2.0})
    with pytest.raises(MeshError, match="non-finite weight on cell 0"):
        solve_equidim(mesh, np.nan, pressure_bc={left: 1.0})


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
