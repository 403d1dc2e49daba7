"""Direct and pressure-reduced solvers for the coupled system.

The assembled system is the saddle-point problem [[F, C], [C', 0]] of
``BlockSystem``, with F block-diagonal and symmetric positive definite.
Two routes lead to the same solution:

- ``solve_saddle`` factors the full symmetric indefinite operator.
- ``solve_schur`` eliminates every flux unknown.  That leaves the pressure
  system

      C' F^-1 C p = C' F^-1 g - f,

  symmetric positive definite when every connected set of pressure
  unknowns reaches a boundary pressure.  The operator is applied
  matrix-free from one sparse Cholesky-like factorization of F (symmetric
  ordering, no pivoting) and handed to conjugate gradients, Jacobi-scaled
  by the inverse of its lumped diagonal (C^2)' diag(F)^-1.

Both routes first check the anchoring from the structure of C, and both
recover all seven unknown fields; diagnostics below measure local
conservation, the two interface laws, and the global budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

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
    """Refuse a system whose pressure is not pinned everywhere: every
    connected set of pressure unknowns (linked through a row of C) must
    contain the owner cell of a boundary pressure face, or its pressure
    level is free and the system is singular.  Pressure unknowns follow
    the domain order of ``MixedDimGeometry.domains``."""
    C = abs(system.C)
    _, labels = connected_components(C.T @ C, directed=False)
    loose = ~np.isin(labels, labels[system.anchors])
    if loose.any():
        first = int(np.argmax(loose))
        names = list(system.geometry.domains)
        starts = np.cumsum(
            [0] + [m.n_cells for m in system.geometry.domains.values()]
        )
        dom = int(np.searchsorted(starts, first, side="right")) - 1
        raise SolverError(
            f"no boundary pressure reaches cell {first - starts[dom]} of "
            f"{names[dom]} ({int(loose.sum())} of {len(labels)} pressure "
            "unknowns); their pressure level is undetermined and the system "
            "is singular"
        )


def _direct_solve(A: sps.csc_array, rhs: np.ndarray) -> np.ndarray:
    """Sparse LU solve of the CSC matrix ``A`` with one step of iterative
    refinement against it.  Raises SolverError when the factorization
    fails or the result is not finite."""
    try:
        lu = spla.splu(A)
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc
    x += lu.solve(rhs - A @ x)
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    return x


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
        return cls(
            matrix_flux=parts["matrix_flux"],
            matrix_pressure=parts["matrix_pressure"],
            damage_flux=system.sided(parts["damage_flux"]),
            damage_pressure=system.sided(parts["damage_pressure"]),
            fault_flux=parts["fault_flux"],
            fault_pressure=parts["fault_pressure"],
            exchange_flux=system.sided(parts["exchange_flux"]),
            vector=x,
        )


def solve_saddle(system: BlockSystem) -> MixedSolution:
    """Factor the full operator and solve, with one step of iterative
    refinement.  Raises SolverError when some pressure is not anchored,
    the factorization fails or the result is not finite."""
    _require_anchor(system)
    return MixedSolution.from_vector(
        system, _direct_solve(system.matrix.tocsc(), system.rhs)
    )


class PressureSchur:
    """Matrix-free pressure reduction C' F^-1 C of one assembled system."""

    def __init__(self, system: BlockSystem):
        self.system = system
        # F is symmetric positive definite: a symmetric ordering without
        # pivoting keeps its factor far sparser than the default COLAMD
        self._lu = spla.splu(
            system.F.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        self.n = system.C.shape[1]

    def apply(self, p: np.ndarray) -> np.ndarray:
        C = self.system.C
        return C.T @ self._lu.solve(C @ p)

    def rhs(self) -> np.ndarray:
        s = self.system
        return s.C.T @ self._lu.solve(s.g) - s.f

    def operator(self) -> spla.LinearOperator:
        return spla.LinearOperator(
            (self.n, self.n), matvec=self.apply, dtype=float
        )

    def to_dense(self) -> np.ndarray:
        out = np.empty((self.n, self.n))
        e = np.zeros(self.n)
        for j in range(self.n):
            e[j] = 1.0
            out[:, j] = self.apply(e)
            e[j] = 0.0
        return out

    def expand(self, p: np.ndarray) -> np.ndarray:
        """The global vector of pressures ``p`` and the fluxes
        u = F^-1 (g - C p); eliminated dofs come back with their imposed
        values because their rows were reduced to the identity."""
        s = self.system
        x = np.empty(s.n_dofs)
        x[s.flux_index] = self._lu.solve(s.g - s.C @ p)
        x[s.pressure_index] = p
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
    """Solve through the pressure reduction with conjugate gradients,
    Jacobi-scaled by the lumped diagonal (C^2)' diag(F)^-1.

    Stops at relative residual ``rtol`` or after ``maxiter`` iterations
    (default 40 per pressure unknown).  Returns the solution and a small
    report (iteration count, achieved residual).  Raises SolverError when
    some pressure is not anchored or CG does not converge.
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

    # positive: every anchored pressure unknown has a nonzero column in C
    inv = 1.0 / (system.C.power(2).T @ (1.0 / system.F.diagonal()))
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
        out["damage_fault"][side] = (
            coeff.damage_fault_resist[side] * solution.exchange_flux[side]
            + solution.fault_pressure
            - solution.damage_pressure[side]
        )
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
