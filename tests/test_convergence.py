"""Convergence order of the coupled scheme on a manufactured solution.

The matrix pressure p = cos(pi y) (2 + cos(2 pi (x - 1))) has a vanishing
normal derivative on the fault plane x = 1, where its trace is
3 cos(pi y).  Giving both damage layers and the fault core that trace makes
every coupling law hold with zero normal and exchange flux, so each layer
is a one-dimensional tangential Darcy problem along the fault.  The sources
that make these pressures exact enter through ``assemble(..., sources)`` at
the cell centroids, and every external face of every domain carries the
exact pressure at its midpoint.

Lowest-order Raviart-Thomas / piecewise-constant elements converge at first
order in general (Brezzi & Fortin, "Mixed and Hybrid Finite Element
Methods", 1991).  On these uniform grids the cell-mean pressures and the
face fluxes superconverge at second order, and so does the exchange flux,
which is zero exactly.  The test pins those orders from the 8x8, 16x16 and
32x32 grids in both coefficient modes, and the error levels on 32x32.  A
wrong second-moment term in the mass matrix keeps second-order pressures,
so the levels are what catches it (see ``LEVEL_32``).
"""

import numpy as np
import pytest

from faultflow.assembly import (
    BoundaryConditions,
    assemble,
    coefficients_from_mode,
)
from faultflow.linsolve import solve_saddle
from faultflow.mesh import SIDES, build_two_block_geometry

EPS = 1e-2  # both layer thicknesses
CONDUCTIVITY = {"matrix": 2.0, "damage_left": 5.0, "damage_right": 0.5,
                "fault": 3.0}
LAYERS = ("damage_left", "damage_right", "fault")
GRIDS = (8, 16, 32)
# Orders between successive grids measure 1.885-2.058 (1.98-2.00 from 32
# to 64).  A second-moment term scaled by (d+2)/(d+1) drops the exchange
# order to 1.79.
MIN_ORDER = 1.85
# The errors on 32x32, as measured.  Each must stay within LEVEL_BAND of
# its value: the discrete solution is a fixed function of the kernels, so
# a move beyond round-off is a change of scheme.  Without the 2D
# second-moment term the fluxes are unchanged (the term only weighs the
# cell divergence, which the sources fix) and the matrix pressure error
# falls to 1.32e-3; with the term scaled by (d+2)/(d+1) it rises to 1.84e-3.
LEVEL_32 = {
    "literal": {
        "matrix_pressure": 1.605e-3,
        "layer_pressure": 3.129e-4,
        "matrix_flux": 3.525e-3,
        "exchange_flux": 2.905e-11,
    },
    "permeability": {
        "matrix_pressure": 1.583e-3,
        "layer_pressure": 1.094e-3,
        "matrix_flux": 1.362e-2,
        "exchange_flux": 4.783e-3,
    },
}
LEVEL_BAND = 0.1


def exact_pressure(points):
    x, y = points[..., 0], points[..., 1]
    return np.cos(np.pi * y) * (2.0 + np.cos(2.0 * np.pi * (x - 1.0)))


def layer_pressure(points):
    """The trace of ``exact_pressure`` on the fault plane."""
    return 3.0 * np.cos(np.pi * points[..., 1])


def exact_gradient(points):
    x, y = points[..., 0], points[..., 1]
    c = 2.0 * np.pi * (x - 1.0)
    return np.stack(
        [
            -2.0 * np.pi * np.cos(np.pi * y) * np.sin(c),
            -np.pi * np.sin(np.pi * y) * (2.0 + np.cos(c)),
            np.zeros_like(x),
        ],
        axis=-1,
    )


def triangle_means(mesh, f):
    """Cell means of ``f`` over a triangle mesh: a 4x4 Gauss rule on the
    square collapsed onto each triangle (exact to degree six)."""
    t, w = np.polynomial.legendre.leggauss(4)
    t, w = (t + 1.0) / 2.0, w / 2.0
    a, b = (g.ravel() for g in np.meshgrid(t, t, indexing="ij"))
    weights = 2.0 * np.outer(w, w).ravel() * (1.0 - a)  # sums to 1
    cv = mesh.vertices[mesh.cells]
    points = (
        cv[:, None, 0]
        + a[None, :, None] * (cv[:, None, 1] - cv[:, None, 0])
        + (b * (1.0 - a))[None, :, None] * (cv[:, None, 2] - cv[:, None, 0])
    )
    return f(points) @ weights


def face_fluxes(mesh, resist):
    """Exact net flux -grad p / resist . n over each face of a triangle
    mesh (3-point Gauss along the edge), in the face-normal direction."""
    t, w = np.polynomial.legendre.leggauss(3)
    t, w = (t + 1.0) / 2.0, w / 2.0
    fv = mesh.vertices[mesh.faces]
    points = fv[:, None, 0] + t[None, :, None] * (
        fv[:, None, 1] - fv[:, None, 0]
    )
    normal_grad = np.einsum("fqx,fx->fq", exact_gradient(points),
                            mesh.face_normals)
    return -(normal_grad @ w) * mesh.face_measures / resist


def face_weights(mesh):
    """The area each face stands for in a discrete L2 norm of flux
    densities: a 1/(d+1) share of each cell around it."""
    share = np.repeat(mesh.cell_measures / (mesh.dim + 1), mesh.dim + 1)
    return np.bincount(mesh.cell_faces.ravel(), share, mesh.n_faces)


def manufactured_errors(n: int, mode: str) -> dict[str, float]:
    """L2 errors of the saddle-route solution on the n x n two-block grid:
    pressures against exact cell means, fluxes as densities against exact
    face moments (the exchange flux is zero exactly)."""
    geometry = build_two_block_geometry(n, n)
    bc = BoundaryConditions()
    for dom, mesh in geometry.domains.items():
        exact = exact_pressure if dom == "matrix" else layer_pressure
        mids = mesh.face_centroids()
        for f in geometry.external_faces(dom):
            bc.pressure[dom, int(f)] = float(exact(mids[f]))
    coeff = coefficients_from_mode(geometry, CONDUCTIVITY, mode, EPS, EPS)
    matrix, fault = geometry.matrix, geometry.fault
    xm = matrix.cell_centroids()
    yf = fault.cell_centroids()[:, 1]
    # div(-grad p / r) for the matrix pressure and the layer trace
    sources = {
        "matrix": np.pi**2 * np.cos(np.pi * xm[:, 1])
        * (2.0 + 5.0 * np.cos(2.0 * np.pi * (xm[:, 0] - 1.0)))
        / coeff.resist["matrix"],
        **{
            dom: 3.0 * np.pi**2 * np.cos(np.pi * yf) / coeff.resist[dom]
            for dom in LAYERS
        },
    }
    system = assemble(geometry, coeff, bc, sources)
    x = solve_saddle(system).vector

    def l2(values, measures):
        return float(np.sqrt(np.sum(measures * values**2)))

    p_matrix = x[system.offsets["matrix_pressure"]]
    ends = fault.vertices[fault.cells][:, :, 1]
    layer_mean = 3.0 * np.diff(np.sin(np.pi * ends), axis=1)[:, 0] / (
        np.pi * fault.cell_measures
    )
    layer_errors = np.concatenate(
        [x[system.offsets[f"{dom}_pressure"]] - layer_mean for dom in LAYERS]
    )
    resist = coeff.resist["matrix"][0]  # one value on every cell
    flux_error = x[system.offsets["matrix_flux"]] - face_fluxes(
        matrix, resist
    )
    exchange = np.concatenate(
        [x[system.offsets[f"exchange_{s}_flux"]] for s in SIDES]
    )
    return {
        "matrix_pressure": l2(
            p_matrix - triangle_means(matrix, exact_pressure),
            matrix.cell_measures,
        ),
        "layer_pressure": l2(layer_errors, np.tile(fault.cell_measures, 3)),
        "matrix_flux": l2(
            flux_error / matrix.face_measures, face_weights(matrix)
        ),
        "exchange_flux": l2(exchange, np.tile(fault.cell_measures, 2)),
    }


@pytest.mark.parametrize("mode", ["literal", "permeability"])
def test_manufactured_solution_converges_at_second_order(mode):
    errors = [manufactured_errors(n, mode) for n in GRIDS]
    for name, level in LEVEL_32[mode].items():
        series = np.array([e[name] for e in errors])
        orders = np.log2(series[:-1] / series[1:])
        assert orders.min() > MIN_ORDER, (name, orders)
        assert abs(series[-1] / level - 1.0) < LEVEL_BAND, (name, series)
