"""Direct and pressure-reduced solvers for the coupled system.

Two routes to the same solution:

- ``solve_saddle`` factors the full symmetric indefinite operator.
- ``solve_schur`` eliminates every flux unknown analytically.  Because all
  flux blocks are block-diagonal (per domain, plus the diagonal exchange
  block), the pressure system

      [ S_mm  C_md       ] [p_matrix]   [r_matrix]
      [ C_md' S_dd  C_df ] [p_damage] = [r_damage]
      [       C_df' S_ff ] [p_fault ]   [r_fault ]

  is symmetric positive definite whenever some boundary pressure is set.
  Its diagonal blocks are weighted-Laplacian-like; the couplings C_md
  (through the matrix flux space) and C_df (through the exchange dofs) tie
  the three pressure fields together.  The operator is applied matrix-free
  from sparse factorizations of the flux blocks and handed to conjugate
  gradients, Jacobi-scaled by the inverse of its lumped diagonal.

Both routes recover all seven unknown fields; diagnostics below measure
local conservation, the two interface laws, and the global budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import SIDES, BlockSystem
from .fem import rt0_eval_centroids

__all__ = [
    "SolverError",
    "MixedSolution",
    "solve_saddle",
    "PressureSchur",
    "build_pressure_schur",
    "solve_schur",
    "cell_velocities",
    "conservation_residuals",
    "interface_law_residuals",
    "global_balance",
]


class SolverError(Exception):
    """The linear solve failed or the system is singular."""


def _require_anchor(system: BlockSystem) -> None:
    if not system.anchored:
        raise SolverError(
            "no boundary pressure is set anywhere; all pressures are only "
            "determined up to a constant and the system is singular"
        )


@dataclass
class MixedSolution:
    """All seven unknown fields of one solve, plus the raw vector."""

    matrix_flux: np.ndarray
    matrix_pressure: np.ndarray
    damage_flux: dict[str, np.ndarray]
    damage_pressure: dict[str, np.ndarray]
    fault_flux: np.ndarray
    fault_pressure: np.ndarray
    exchange_flux: dict[str, np.ndarray]
    vector: np.ndarray

    @classmethod
    def from_vector(cls, system: BlockSystem, x: np.ndarray) -> "MixedSolution":
        parts = system.split(x)
        n_fault = system.geometry.fault.n_cells
        exchange = parts["exchange_flux"]
        return cls(
            matrix_flux=parts["matrix_flux"],
            matrix_pressure=parts["matrix_pressure"],
            damage_flux=system.sided(parts["damage_flux"], "flux"),
            damage_pressure=system.sided(parts["damage_pressure"], "pressure"),
            fault_flux=parts["fault_flux"],
            fault_pressure=parts["fault_pressure"],
            exchange_flux={
                "left": exchange[:n_fault],
                "right": exchange[n_fault:],
            },
            vector=x,
        )


def solve_saddle(system: BlockSystem) -> MixedSolution:
    """Factor the full operator and solve, with one step of iterative
    refinement.  Raises SolverError when the factorization fails or the
    result bears the marks of a singular operator (non-finite entries, or
    a solution absurdly larger than the data, which is what happens when
    no pressure is anchored anywhere)."""
    _require_anchor(system)
    A = system.matrix.tocsc()
    b = system.rhs
    try:
        lu = spla.splu(A)
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    bscale = 1.0 + float(np.max(np.abs(b)))
    if float(np.max(np.abs(x))) > 1e12 * bscale:
        raise SolverError(
            "direct solve exploded; the system is likely singular "
            "(is any boundary pressure set?)"
        )
    x += lu.solve(b - A @ x)
    return MixedSolution.from_vector(system, x)


class PressureSchur:
    """Matrix-free pressure reduction of one assembled system."""

    def __init__(self, system: BlockSystem):
        self.system = system
        blocks = system.blocks
        self._lu = {
            "matrix": spla.splu(blocks["A_matrix"].tocsc()),
            "damage": spla.splu(blocks["A_damage"].tocsc()),
            "fault": spla.splu(blocks["A_fault"].tocsc()),
        }
        diag_x = blocks["A_exchange"].diagonal()
        if np.any(diag_x <= 0):
            raise SolverError("exchange block is not positive")
        self._inv_x = 1.0 / diag_x
        self.sizes = (
            system.offsets["matrix_pressure"].stop
            - system.offsets["matrix_pressure"].start,
            system.offsets["damage_pressure"].stop
            - system.offsets["damage_pressure"].start,
            system.offsets["fault_pressure"].stop
            - system.offsets["fault_pressure"].start,
        )
        self.n = sum(self.sizes)
        self._splits = np.cumsum(self.sizes)[:-1]

    # -- the reduced operator ---------------------------------------------

    def apply(self, p: np.ndarray) -> np.ndarray:
        B = self.system.blocks
        p_m, p_d, p_f = np.split(np.asarray(p, dtype=float), self._splits)
        w_m = self._lu["matrix"].solve(B["B_matrix"] @ p_m + B["G_matrix"] @ p_d)
        w_d = self._lu["damage"].solve(B["B_damage"] @ p_d)
        w_x = self._inv_x * (B["G_damage"].T @ p_d + B["G_fault"].T @ p_f)
        w_f = self._lu["fault"].solve(B["B_fault"] @ p_f)
        out_m = B["B_matrix"].T @ w_m
        out_d = B["G_matrix"].T @ w_m + B["B_damage"].T @ w_d + B["G_damage"] @ w_x
        out_f = B["B_fault"].T @ w_f + B["G_fault"] @ w_x
        return np.concatenate([out_m, out_d, out_f])

    def rhs(self) -> np.ndarray:
        B = self.system.blocks
        parts = self.system.rhs_parts
        v_m = self._lu["matrix"].solve(parts["matrix_flux"])
        v_d = self._lu["damage"].solve(parts["damage_flux"])
        v_f = self._lu["fault"].solve(parts["fault_flux"])
        r_m = B["B_matrix"].T @ v_m - parts["matrix_pressure"]
        r_d = (
            B["G_matrix"].T @ v_m
            + B["B_damage"].T @ v_d
            - parts["damage_pressure"]
        )
        r_f = B["B_fault"].T @ v_f - parts["fault_pressure"]
        return np.concatenate([r_m, r_d, r_f])

    def operator(self) -> spla.LinearOperator:
        return spla.LinearOperator(
            (self.n, self.n), matvec=self.apply, dtype=float
        )

    def diagonal_estimate(self) -> np.ndarray:
        """Lumped diagonal of the reduced operator: every flux block is
        replaced by its diagonal before forming the triple products.  Its
        inverse is the Jacobi scaling of the conjugate gradients."""
        B = self.system.blocks
        inv = {
            "matrix": 1.0 / B["A_matrix"].diagonal(),
            "damage": 1.0 / B["A_damage"].diagonal(),
            "fault": 1.0 / B["A_fault"].diagonal(),
        }

        def lump(mat, weights):
            return np.asarray(
                (mat.power(2).T @ weights)
            ).ravel()

        d_m = lump(B["B_matrix"], inv["matrix"])
        d_d = (
            lump(B["G_matrix"], inv["matrix"])
            + lump(B["B_damage"], inv["damage"])
            + np.asarray(B["G_damage"].power(2) @ self._inv_x).ravel()
        )
        d_f = lump(B["B_fault"], inv["fault"]) + np.asarray(
            B["G_fault"].power(2) @ self._inv_x
        ).ravel()
        return np.concatenate([d_m, d_d, d_f])

    def to_dense(self) -> np.ndarray:
        out = np.empty((self.n, self.n))
        e = np.zeros(self.n)
        for j in range(self.n):
            e[j] = 1.0
            out[:, j] = self.apply(e)
            e[j] = 0.0
        return out

    # -- recovery -----------------------------------------------------------

    def expand(self, p: np.ndarray) -> np.ndarray:
        """Recover every flux field from the pressures; eliminated dofs
        come back with their imposed values automatically because their
        rows were reduced to the identity."""
        B = self.system.blocks
        parts = self.system.rhs_parts
        p_m, p_d, p_f = np.split(np.asarray(p, dtype=float), self._splits)
        u_m = self._lu["matrix"].solve(
            parts["matrix_flux"] - B["B_matrix"] @ p_m - B["G_matrix"] @ p_d
        )
        u_d = self._lu["damage"].solve(
            parts["damage_flux"] - B["B_damage"] @ p_d
        )
        u_f = self._lu["fault"].solve(
            parts["fault_flux"] - B["B_fault"] @ p_f
        )
        u_x = -self._inv_x * (B["G_damage"].T @ p_d + B["G_fault"].T @ p_f)
        x = np.empty(self.system.n_dofs)
        offs = self.system.offsets
        x[offs["matrix_flux"]] = u_m
        x[offs["matrix_pressure"]] = p_m
        x[offs["damage_flux"]] = u_d
        x[offs["damage_pressure"]] = p_d
        x[offs["fault_flux"]] = u_f
        x[offs["fault_pressure"]] = p_f
        x[offs["exchange_flux"]] = u_x
        return x


def build_pressure_schur(system: BlockSystem) -> PressureSchur:
    try:
        return PressureSchur(system)
    except RuntimeError as exc:
        raise SolverError(f"flux block factorization failed: {exc}") from exc


def solve_schur(
    system: BlockSystem,
    rtol: float = 1e-12,
    maxiter: int | None = None,
) -> tuple[MixedSolution, dict]:
    """Solve through the pressure reduction with Jacobi-scaled conjugate
    gradients (scaling from ``PressureSchur.diagonal_estimate``).

    Stops at relative residual ``rtol`` or after ``maxiter`` iterations
    (default 40 per pressure unknown).  Returns the solution and a small
    report (iteration count, achieved residual).  Raises SolverError when
    CG does not converge.
    """
    _require_anchor(system)
    schur = build_pressure_schur(system)
    r = schur.rhs()
    if not np.any(r):
        x = schur.expand(np.zeros(schur.n))
        return MixedSolution.from_vector(system, x), {
            "iterations": 0,
            "residual": 0.0,
        }

    count = {"n": 0}

    def tick(_):
        count["n"] += 1

    M = None
    diag = schur.diagonal_estimate()
    if np.all(diag > 0):
        inv = 1.0 / diag
        M = spla.LinearOperator(
            (schur.n, schur.n), matvec=lambda v: inv * v, dtype=float
        )
    p, info = spla.cg(
        schur.operator(),
        r,
        rtol=rtol,
        atol=0.0,
        maxiter=maxiter or 40 * schur.n,
        M=M,
        callback=tick,
    )
    if info != 0:
        raise SolverError(
            f"conjugate gradients stopped after {count['n']} iterations "
            f"without reaching rtol={rtol:g} (info={info})"
        )
    x = schur.expand(p)
    residual = float(
        np.linalg.norm(schur.apply(p) - r) / np.linalg.norm(r)
    )
    return MixedSolution.from_vector(system, x), {
        "iterations": count["n"],
        "residual": residual,
    }


# ---------------------------------------------------------------------------
# solution quality
# ---------------------------------------------------------------------------


def _domain_field(solution: MixedSolution, domain: str, kind: str):
    """The ``kind`` ("flux" or "pressure") dofs of one domain, by the
    domain names of ``MixedDimGeometry.domains``."""
    base, _, side = domain.partition("_")
    values = getattr(solution, f"{base}_{kind}")
    return values[side] if side else values


def cell_velocities(system: BlockSystem, solution: MixedSolution):
    """Darcy velocity at every cell centroid, one array per domain."""
    return {
        name: rt0_eval_centroids(mesh, _domain_field(solution, name, "flux"))
        for name, mesh in system.geometry.domains.items()
    }


def _row_scales(matrix: sps.csr_array, rows: slice) -> np.ndarray:
    sub = sps.csr_array(matrix[rows.start : rows.stop, :])
    n = sub.shape[0]
    scale = np.zeros(n)
    owner = np.repeat(np.arange(n), np.diff(sub.indptr))
    np.maximum.at(scale, owner, np.abs(sub.data))
    return np.maximum(scale, np.finfo(float).tiny)


def conservation_residuals(system: BlockSystem, solution: MixedSolution):
    """Residual of every conservation row, scaled by the row's largest
    coefficient.  Keys: matrix, damage, fault."""
    r = system.matrix @ solution.vector - system.rhs
    out = {}
    for name, key in (
        ("matrix", "matrix_pressure"),
        ("damage", "damage_pressure"),
        ("fault", "fault_pressure"),
    ):
        rows = system.offsets[key]
        out[name] = r[rows] / _row_scales(system.matrix, rows)
    return out


def interface_law_residuals(system: BlockSystem, solution: MixedSolution):
    """Pointwise residuals of the two coupling laws.

    The exchange law is algebraic per (side, fault cell): resistance times
    the exchange flux plus the fault pressure minus the damage pressure.
    The matrix/damage law is checked as the residual of the flux moment
    equation on each interface face, scaled by its largest coefficient;
    that row is the discrete form the scheme actually imposes.
    """
    geometry = system.geometry
    coeff = system.coefficients
    out = {"matrix_damage": {}, "damage_fault": {}}

    r = system.matrix @ solution.vector - system.rhs
    rows = system.offsets["matrix_flux"]
    scaled = r[rows] / _row_scales(system.matrix, rows)
    for side in SIDES:
        faces = geometry.matrix_damage[side].pairs[:, 0]
        out["matrix_damage"][side] = scaled[faces]

    for side in SIDES:
        dmap = geometry.damage_fault[side]
        p_d = solution.damage_pressure[side][dmap.pairs[:, 0]]
        p_f = solution.fault_pressure[dmap.pairs[:, 1]]
        u_x = solution.exchange_flux[side][dmap.pairs[:, 1]]
        resist = coeff.damage_fault_resist[side][dmap.pairs[:, 1]]
        out["damage_fault"][side] = resist * u_x + p_f - p_d
    return out


def global_balance(system: BlockSystem, solution: MixedSolution) -> float:
    """Total outward boundary flux minus total injected volume.  Zero for
    a conservative solution."""
    geometry = system.geometry
    # a boundary face's dof is its outward net flux
    outflow = 0.0
    for name in geometry.domains:
        flux = _domain_field(solution, name, "flux")
        outflow += float(np.sum(flux[geometry.external_faces(name)]))

    injected = sum(
        float(np.sum(arr)) for arr in system.source_integrals.values()
    )
    return outflow - injected
