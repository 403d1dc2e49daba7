"""Direct and pressure-reduced solvers for the coupled system.

The assembled system is the saddle-point problem [[F, C], [C', 0]] of
``BlockSystem``, with F block-diagonal and symmetric positive definite.
Two routes lead to the same solution:

- ``solve_saddle`` hybridizes the mixed method (Arnold & Brezzi 1985):
  it eliminates every cell's local fluxes and pressure against one
  multiplier per shared flux dof (``BlockSystem.table``, the table of
  local fluxes F and C are scattered from), factors the symmetric
  positive definite system of those multipliers under a no-pivot
  symmetric ordering, and refines the solution against the exact
  operator.  No [u; p] matrix is factored.
- ``solve_schur`` eliminates every flux unknown.  That leaves the pressure
  system

      C' F^-1 C p = C' F^-1 g - f,

  symmetric positive definite when every connected set of pressure
  unknowns reaches a boundary pressure.  The operator is applied
  matrix-free from one sparse Cholesky-like factorization of F (symmetric
  ordering, no pivoting) and handed to conjugate gradients, preconditioned
  by a factorization of the lumped complement S_L.  CG is restarted from
  its last iterate while the true residual is above the tolerance.

Both routes first check the anchoring from the structure of C, and both
recover every block of ``BlockSystem.offsets``; diagnostics below measure
local conservation, the two interface laws, and the global budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .assembly import SIDES, BlockSystem, LocalEntries
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
    level is free and the system is singular."""
    C = abs(system.C)
    _, labels = connected_components(C.T @ C, directed=False)
    loose = ~np.isin(labels, labels[system.anchors])
    if loose.any():
        # the first loose pressure unknown, as a position in [u; p]
        first = C.shape[0] + int(np.argmax(loose))
        for dom in system.geometry.domains:
            block = system.offsets[f"{dom}_pressure"]
            if first < block.stop:
                break
        raise SolverError(
            f"no boundary pressure reaches cell {first - block.start} of "
            f"{dom} ({int(loose.sum())} of {len(labels)} pressure "
            "unknowns); their pressure level is undetermined and the system "
            "is singular"
        )


_REFINE_STEPS = 10
# largest last correction, relative to max|x|, of a converged refinement:
# half the digits of double precision.  Converged solves end at 1e-16 to
# 1e-12 on the bundled scenarios and below 1e-9 on two-block grids with
# resistances spread over sixteen decades.  ``solve_schur`` takes it as
# the largest relative residual at which restarted CG may stall.
_REFINE_TOL = 1e-8


def _symmetric_lu(A) -> spla.SuperLU:
    """Factor ``A`` without pivoting after a symmetric minimum-degree
    ordering of A' + A.  Every symmetric permutation of a symmetric
    positive definite matrix has an LDL' factor, so diagonal pivots are
    safe, and the symmetric ordering keeps the factor far sparser than
    the default COLAMD."""
    return spla.splu(
        A.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _lumped_complement(F, C) -> sps.sparray:
    """The lumped Schur complement S_L = C' diag(F)^-1 C: symmetric
    positive definite when every pressure is anchored, with cell-to-cell
    sparsity."""
    return C.T @ sps.diags_array(1.0 / F.diagonal()) @ C


def _hybrid_solver(table: list[LocalEntries], fixed: np.ndarray, n_cells):
    """Factor the hybridized form of the system whose F and C the table of
    local fluxes ``table`` writes, with the flux dofs ``fixed`` eliminated
    (unit rows), and return its solve: r = [r_u; r_p] -> [u; p].

    Every local flux of cell K gets its own unknown u~ (outward), and
    every flux dof shared by two entries a multiplier lambda, the pressure
    trace on the face.  Cell K's equations are

        M u~ - p 1 + lambda = g~,    1' u~ = -r_p,

    with M its local resistance and g~ the flux-row residual of each dof,
    divided by sigma, on one of its entries.  An eliminated entry carries
    no flux and leaves the cell's problem (its row is the identity in K);
    a weak-pressure face, the one other kind of unshared dof, has lambda
    0, its data being in g already.  With a = M^-1 1, s = 1' a, w = a / s
    and B = M^-1 - a w' (a w', not a a' / s, which overflows first), the
    cell gives

        p = -r_p / s - w' (g~ - lambda),    u~ = B (g~ - lambda) - w r_p,

    so lambda solves one symmetric positive definite system

        H lambda = sum_K scatter(B g~ - w r_p),    H = sum_K scatter(B),

    whose rows state that the two local fluxes of a shared dof cancel
    (they have opposite sigma).  B 1 = 0, and the diagonal of B is
    formed as the negated sum of the rest of its row so that this holds
    in floating point too: a block of low resistance that reaches its
    pressure data only through high resistances then keeps its level
    (the near-null mode of H) to round-off.  Each flux is read from its
    stiffest entry, the largest sigma^2 / (M^-1)_ee, where the local
    difference loses the fewest digits; an eliminated dof takes its
    residual.

    The local steps run without floating-point warnings; a local inverse
    that is singular or not finite is a SolverError, and so is a failed
    factorization of H.
    """
    n_flux = len(fixed)
    dofs = np.concatenate([t.dofs.ravel() for t in table])
    node = np.bincount(dofs, minlength=n_flux) > 1
    n_nodes = int(np.count_nonzero(node))
    index = np.full(n_flux, -1)
    index[node] = np.arange(n_nodes)

    local, stiffness = [], []
    with np.errstate(all="ignore"):
        for t in table:
            free = (~fixed[t.dofs]).astype(float)
            pairs = free[:, :, None] * free[:, None, :]
            # an eliminated entry keeps a unit diagonal coupled to nothing
            mass = t.mass * pairs
            entries = np.arange(mass.shape[1])
            mass[:, entries, entries] += 1.0 - free
            try:
                Minv = np.linalg.inv(mass)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"local elimination failed: {exc}") from exc
            a = (Minv @ free[:, :, None])[..., 0]
            s = a.sum(axis=1)
            w = a / s[:, None]
            B = (Minv - a[:, :, None] * w[:, None, :]) * pairs
            B[:, entries, entries] = 0.0
            B[:, entries, entries] = -B.sum(axis=2)
            v = -1.0 / s
            if not all(np.all(np.isfinite(x)) for x in (B, w, v)):
                raise SolverError(
                    "local elimination produced non-finite values"
                )
            local.append((t, B, w, v))
            stiffness.append(
                (t.sigma**2 / np.diagonal(Minv, axis1=1, axis2=2)).ravel()
            )
    # the stiffest entry of each free dof, as a mask over each domain's
    # entries: it takes the dof's residual and gives back its flux
    order = np.lexsort((-np.concatenate(stiffness), dofs))
    first = np.ones(len(order), dtype=bool)
    first[1:] = dofs[order[1:]] != dofs[order[:-1]]
    pick = np.zeros(len(dofs), dtype=bool)
    pick[order[first]] = True
    picks = np.split(pick, np.cumsum([t.dofs.size for t in table])[:-1])
    local = [
        (t, B, w, v, pick.reshape(t.dofs.shape) & ~fixed[t.dofs])
        for (t, B, w, v), pick in zip(local, picks)
    ]

    rows, cols, vals = [], [], []
    for t, B, *_ in local:
        i = index[t.dofs]
        both = (i[:, :, None] >= 0) & (i[:, None, :] >= 0)
        rows.append(np.broadcast_to(i[:, :, None], B.shape)[both])
        cols.append(np.broadcast_to(i[:, None, :], B.shape)[both])
        vals.append(B[both])
    H = sps.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, n_nodes),
    )
    try:
        lu = _symmetric_lu(H)
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc

    def solve(r: np.ndarray) -> np.ndarray:
        r_u, r_p = r[:n_flux], r[n_flux:]
        rhs = np.zeros(n_nodes)
        loads = []
        with np.errstate(all="ignore"):
            for t, B, w, v, pick in local:
                g = np.where(pick, r_u[t.dofs] / t.sigma, 0.0)
                q = r_p[t.cells]
                load = (B @ g[:, :, None])[..., 0] - w * q[:, None]
                i = index[t.dofs]
                rhs += np.bincount(
                    i[i >= 0], weights=load[i >= 0], minlength=n_nodes
                )
                loads.append((g, q))
            lam = np.zeros(n_flux)
            lam[node] = lu.solve(rhs)
            x = np.empty(n_flux + n_cells)
            u, p = x[:n_flux], x[n_flux:]
            for (t, B, w, v, pick), (g, q) in zip(local, loads):
                d = g - lam[t.dofs]
                p[t.cells] = v * q - np.sum(w * d, axis=1)
                flux = (B @ d[:, :, None])[..., 0] - w * q[:, None]
                u[t.dofs[pick]] = flux[pick] / t.sigma[pick]
        u[fixed] = r_u[fixed]
        return x

    return solve


def _direct_solve(solve, b, K) -> np.ndarray:
    """Solve K x = b, with K = [[F, C], [C', 0]] the exact operator and
    ``solve`` the hybridized solve of ``_hybrid_solver``.  The first
    solve, of b itself, is refined against K, with the hybridized solve
    of the residual as the correction, until the correction reaches
    round-off or stops halving, at most ``_REFINE_STEPS`` times.  The
    hybridized solve is exact but for round-off, so two or three steps
    take it to the accuracy of K's own rows.

    Raises SolverError when the result is not finite or the last
    correction is above ``_REFINE_TOL`` max|x|.
    """
    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    previous = np.inf
    for _ in range(_REFINE_STEPS):
        dx = solve(b - K @ x)
        x += dx
        step, size = np.max(np.abs(dx)), np.max(np.abs(x))
        if step <= np.finfo(float).eps * size or step > 0.5 * previous:
            break
        previous = step
    # subnormal numbers have no relative precision to refine
    if not step <= _REFINE_TOL * size + np.finfo(float).tiny:
        raise SolverError(
            "iterative refinement of the direct solve did not converge: "
            f"last correction {step:.1e} against max|x| {size:.1e}"
        )
    return x


@dataclass
class MixedSolution:
    """The unknowns of one solve by domain and side, views into the
    global vector [u; p] through ``BlockSystem.offsets``."""

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
        def block(name):
            return x[system.offsets[name]]

        return cls(
            matrix_flux=block("matrix_flux"),
            matrix_pressure=block("matrix_pressure"),
            damage_flux={s: block(f"damage_{s}_flux") for s in SIDES},
            damage_pressure={s: block(f"damage_{s}_pressure") for s in SIDES},
            fault_flux=block("fault_flux"),
            fault_pressure=block("fault_pressure"),
            exchange_flux={s: block(f"exchange_{s}_flux") for s in SIDES},
            vector=x,
        )


def solve_saddle(system: BlockSystem) -> MixedSolution:
    """Solve the full operator directly: the hybridized solve of the
    table of local fluxes (``_hybrid_solver``), refined against K
    (``_direct_solve``).  Raises SolverError when some pressure is not
    anchored, a local elimination or the factorization fails, the result
    is not finite or the refinement does not converge."""
    _require_anchor(system)
    fixed = np.zeros(system.F.shape[0], dtype=bool)
    fixed[list(system.eliminated)] = True
    solve = _hybrid_solver(system.table, fixed, system.C.shape[1])
    x = _direct_solve(solve, system.rhs, system.matrix)
    return MixedSolution.from_vector(system, x)


class PressureSchur:
    """Matrix-free pressure reduction C' F^-1 C of one assembled system."""

    def __init__(self, system: BlockSystem):
        self.system = system
        self._lu = _symmetric_lu(system.F)
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
        """The global vector [u; p] of pressures ``p`` and the fluxes
        u = F^-1 (g - C p); eliminated dofs come back with their imposed
        values because their rows were reduced to the identity."""
        s = self.system
        return np.concatenate([self._lu.solve(s.g - s.C @ p), p])


def build_pressure_schur(system: BlockSystem) -> PressureSchur:
    try:
        return PressureSchur(system)
    except RuntimeError as exc:
        raise SolverError(f"flux block factorization failed: {exc}") from exc


# the relative residual CG must reach, and its budget of iterations per
# pressure unknown (rounded up), over all restarts
_CG_RTOL = 1e-12
_CG_ITERATIONS = 40


def solve_schur(system: BlockSystem) -> tuple[MixedSolution, dict]:
    """Solve through the pressure reduction S = C' F^-1 C with conjugate
    gradients, preconditioned by a factorization of the lumped complement
    S_L = C' diag(F)^-1 C (``_lumped_complement``).  S_L and S are
    spectrally equivalent with constants set by the mass lumping, not by
    the coefficient contrast (Benzi, Golub & Liesen, Acta Numerica 2005),
    so CG needs about 20 iterations on the bundled 2D scenarios and about
    40 on fault3d.

    CG stops on its recursively updated residual, which can drift below
    the true one.  So while the true relative residual |S p - r| / |r| is
    above ``_CG_RTOL``, CG restarts from its last iterate, at most
    ``_REFINE_STEPS`` times and within one budget of ``_CG_ITERATIONS``
    iterations per pressure unknown, until the residual stops halving.
    A residual that stalls above ``_CG_RTOL`` is round-off in
    applying S and is accepted up to ``_REFINE_TOL``.

    Returns the solution and a small report (iteration count over all
    restarts, true residual).  Raises SolverError when some pressure is
    not anchored, the right-hand side is not finite, a factorization
    fails, a CG iterate or the true residual is not finite (CG runs
    without floating-point warnings and stops at the first such iterate),
    CG uses up its budget, or the true residual stays above
    ``_CG_RTOL`` while the restarts were still halving it or above
    ``_REFINE_TOL``.
    """
    _require_anchor(system)
    schur = build_pressure_schur(system)
    r = schur.rhs()
    # CG never meets its tolerance on NaN and would spend its whole budget
    if not np.all(np.isfinite(r)):
        raise SolverError("pressure right-hand side has non-finite values")
    if not np.any(r):
        x = schur.expand(np.zeros(schur.n))
        return MixedSolution.from_vector(system, x), {
            "iterations": 0,
            "residual": 0.0,
        }
    try:
        lumped = _symmetric_lu(_lumped_complement(system.F, system.C))
    except RuntimeError as exc:
        raise SolverError(
            f"lumped complement factorization failed: {exc}"
        ) from exc
    M = spla.LinearOperator(
        (schur.n, schur.n), matvec=lumped.solve, dtype=float
    )

    count = {"n": 0}

    def tick(p):
        count["n"] += 1
        if not np.all(np.isfinite(p)):
            raise SolverError(
                "conjugate gradients produced non-finite values at "
                f"iteration {count['n']}"
            )

    budget = math.ceil(_CG_ITERATIONS * schur.n)
    p, residual = None, np.inf
    # CG's inner products may overflow; its steps run without
    # floating-point warnings, and the iterate and residual are checked
    with np.errstate(all="ignore"):
        norm_r = np.linalg.norm(r)
        for _ in range(1 + _REFINE_STEPS):
            # info 0 means CG stopped inside its budget, so a restart
            # always has at least one iteration left
            p, info = spla.cg(
                schur.operator(),
                r,
                x0=p,
                rtol=_CG_RTOL,
                atol=0.0,
                maxiter=budget - count["n"],
                M=M,
                callback=tick,
            )
            if info != 0:
                raise SolverError(
                    f"conjugate gradients stopped after {count['n']} "
                    f"iterations without reaching rtol={_CG_RTOL:g} "
                    f"(info={info})"
                )
            previous = residual
            residual = float(np.linalg.norm(schur.apply(p) - r) / norm_r)
            if not np.isfinite([norm_r, residual]).all():
                raise SolverError(
                    "conjugate gradients left a non-finite residual after "
                    f"{count['n']} iterations"
                )
            if residual <= _CG_RTOL or residual > 0.5 * previous:
                break
    stalled = residual > 0.5 * previous
    if not (residual <= _CG_RTOL or (stalled and residual <= _REFINE_TOL)):
        raise SolverError(
            f"conjugate gradients did not reach rtol={_CG_RTOL:g}: true "
            f"residual {residual:.1e} after {count['n']} iterations"
        )
    x = schur.expand(p)
    return MixedSolution.from_vector(system, x), {
        "iterations": count["n"],
        "residual": residual,
    }


# ---------------------------------------------------------------------------
# solution quality
# ---------------------------------------------------------------------------


def cell_velocities(system: BlockSystem, solution: MixedSolution):
    """Darcy velocity at every cell centroid, one array per domain."""
    x = solution.vector
    return {
        name: rt0_eval_centroids(mesh, x[system.offsets[f"{name}_flux"]])
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
    coefficient, by domain."""
    r = system.matrix @ solution.vector - system.rhs
    out = {}
    for name in system.geometry.domains:
        rows = system.offsets[f"{name}_pressure"]
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
        flux = solution.vector[system.offsets[f"{name}_flux"]]
        outflow += float(np.sum(flux[geometry.external_faces(name)]))

    injected = sum(
        float(np.sum(arr)) for arr in system.source_integrals.values()
    )
    return outflow - injected
