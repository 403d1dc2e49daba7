"""Assembly of the coupled mixed-dimensional saddle-point system.

The coupled system is one mixed flux-pressure problem

    [ F   C ] [u]   [g]
    [ C'  0 ] [p] = [f]

over the flux dofs u (matrix faces, damage faces left then right, fault
faces, exchange dofs) and the cell pressures p (matrix, damage left then
right, fault: the order of ``MixedDimGeometry.domains``).  The exchange
holds one dof per (side, fault cell), left block first: the normal Darcy
velocity leaving the damage layer of its side and entering the fault,
constant per fault cell.

F is block-diagonal: the weighted flux mass matrix of each domain (the
matrix one augmented by the Robin penalty of the matrix/damage interface)
and the diagonal exchange resistance.  C holds -div of every domain, the
matrix/damage coupling in the rows of the interface faces and the two
exchange couplings in the exchange rows, so the pressure rows C'u = f are
the negated conservation statements of each domain: the damage rows add
the matrix inflow and subtract the exchange outflow, the fault rows add the
exchange inflow from both sides.  Essential (flux) boundary data is imposed
by symmetric elimination: unit diagonal rows with right-hand-side fixups,
so symmetry survives.

The global unknown vector is [u; p], in the order in which F and C are
assembled.  ``BlockSystem.offsets`` is its one layout table, built from
``MixedDimGeometry.domains``: ``<domain>_flux`` per domain, then
``exchange_<side>_flux`` per side, then ``<domain>_pressure`` per domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from .fem import rt0_div_matrix, rt0_mass_matrix
from .mesh import SIDES, MeshError, MixedDimGeometry, SimplicialMesh

__all__ = [
    "CoefficientSet",
    "BoundaryConditions",
    "SourceField",
    "BlockSystem",
    "coefficients_from_mode",
    "assemble",
]


def _per_cell(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape == (n,):
        if np.any(arr <= 0):
            raise MeshError(f"non-positive {what} coefficient")
        return arr
    if arr.shape == (n, 3, 3):
        return arr
    raise MeshError(f"{what} coefficient has shape {arr.shape}, expected ({n},)")


@dataclass
class CoefficientSet:
    """Inverse-permeability data of one coupled problem.

    ``matrix_resist``, ``damage_resist`` and ``fault_resist`` weight the
    tangential Darcy law of their domain (per cell; the matrix one may be a
    per-cell 3x3 tensor).  ``matrix_damage_resist`` is the Robin resistance
    of the matrix/damage interface, one value per interface pair, and
    ``damage_fault_resist`` the resistance governing the exchange flux, one
    value per (side, fault cell).
    """

    matrix_resist: np.ndarray
    damage_resist: dict[str, np.ndarray]
    fault_resist: np.ndarray
    matrix_damage_resist: dict[str, np.ndarray]
    damage_fault_resist: dict[str, np.ndarray]

    @classmethod
    def for_geometry(
        cls,
        geometry: MixedDimGeometry,
        matrix_resist,
        damage_resist,
        fault_resist,
        matrix_damage_resist,
        damage_fault_resist,
    ) -> "CoefficientSet":
        """Broadcast scalars or per-cell arrays onto the geometry.  Every
        sided field has one value per fault cell (a matrix/damage map pairs
        each fault cell once)."""
        n = geometry.fault.n_cells

        def sided(values, what):
            if not isinstance(values, dict):
                values = {s: values for s in SIDES}
            return {s: _per_cell(values[s], n, what) for s in SIDES}

        return cls(
            matrix_resist=_per_cell(
                matrix_resist, geometry.matrix.n_cells, "matrix"
            ),
            damage_resist=sided(damage_resist, "damage"),
            fault_resist=_per_cell(fault_resist, n, "fault"),
            matrix_damage_resist=sided(
                matrix_damage_resist, "matrix/damage interface"
            ),
            damage_fault_resist=sided(
                damage_fault_resist, "damage/fault interface"
            ),
        )


def coefficients_from_mode(
    geometry: MixedDimGeometry,
    k: dict,
    mode: str,
    eps_mu: float,
    eps_gamma: float,
) -> CoefficientSet:
    """Build the coefficient set from raw per-region tables ``k``.

    ``k`` maps region names (``matrix``, ``damage`` as a dict per side or a
    common value, ``fault``) to scalars or per-cell arrays.  Two published
    interpretations of the same tables exist and disagree; ``mode``
    selects one:

    - ``literal``: k scales like an inverse permeability.  Tangential layer
      resistance k * thickness, interface resistance k / thickness; the
      matrix value is used as-is.
    - ``permeability``: k is a permeability.  Tangential layer resistance
      1 / (k * thickness), interface resistance thickness / k; the matrix
      resistance is 1 / k.
    """
    if mode not in ("literal", "permeability"):
        raise MeshError(f"unknown coefficient mode {mode!r}")
    if eps_mu <= 0 or eps_gamma <= 0:
        raise MeshError("layer thicknesses must be positive")

    k_matrix = _per_cell(k["matrix"], geometry.matrix.n_cells, "matrix")
    k_damage = k["damage"]
    if not isinstance(k_damage, dict):
        k_damage = {s: k_damage for s in SIDES}
    k_damage = {
        s: _per_cell(k_damage[s], geometry.fault.n_cells, "damage")
        for s in SIDES
    }
    k_fault = _per_cell(k["fault"], geometry.fault.n_cells, "fault")

    if mode == "literal":
        matrix_resist = k_matrix
        damage_resist = {s: k_damage[s] * eps_mu for s in SIDES}
        interface = {s: k_damage[s] / eps_mu for s in SIDES}
        fault_resist = k_fault * eps_gamma
        exchange = k_fault / eps_gamma
    else:
        matrix_resist = 1.0 / k_matrix
        damage_resist = {s: 1.0 / (k_damage[s] * eps_mu) for s in SIDES}
        interface = {s: eps_mu / k_damage[s] for s in SIDES}
        fault_resist = 1.0 / (k_fault * eps_gamma)
        exchange = eps_gamma / k_fault

    # the interface resistance is indexed per pair: look up the surface cell
    matrix_damage_resist = {}
    for s in SIDES:
        cells = geometry.matrix_damage[s].pairs[:, 1]
        matrix_damage_resist[s] = interface[s][cells]
    # the exchange resistance is indexed per fault cell on both sides
    damage_fault_resist = {s: exchange.copy() for s in SIDES}

    return CoefficientSet(
        matrix_resist=matrix_resist,
        damage_resist=damage_resist,
        fault_resist=fault_resist,
        matrix_damage_resist=matrix_damage_resist,
        damage_fault_resist=damage_fault_resist,
    )


@dataclass
class BoundaryConditions:
    """Boundary data, keyed by (domain name, face index).

    ``pressure`` holds natural data (weakly imposed boundary pressures);
    ``flux`` holds essential data as outward normal flux densities,
    eliminated from the system.  External boundary faces listed in neither
    default to zero flux.
    """

    pressure: dict[tuple[str, int], float] = field(default_factory=dict)
    flux: dict[tuple[str, int], float] = field(default_factory=dict)

    def validate(self, geometry: MixedDimGeometry) -> None:
        meshes = geometry.domains
        external = set(geometry.external_faces("matrix").tolist())
        overlap = set(self.pressure) & set(self.flux)
        if overlap:
            dom, f = sorted(overlap)[0]
            raise MeshError(
                f"face {f} of {dom} has both pressure and flux data"
            )
        for (dom, f), _ in list(self.pressure.items()) + list(
            self.flux.items()
        ):
            if dom not in meshes:
                raise MeshError(f"boundary data on unknown domain {dom!r}")
            mesh = meshes[dom]
            if f < 0 or f >= mesh.n_faces or mesh.face_cells[f, 1] >= 0:
                raise MeshError(
                    f"face {f} of {dom} is not an external boundary face"
                )
            if dom == "matrix" and f not in external:
                raise MeshError(
                    f"matrix face {f} lies on the fault plane and cannot "
                    "carry boundary data"
                )


@dataclass
class SourceField:
    """Volumetric source densities q per domain cell, with div u = q in
    the domain's reduced conservation law (default zero everywhere)."""

    matrix: np.ndarray | float = 0.0
    damage: dict[str, np.ndarray | float] | float = 0.0
    fault: np.ndarray | float = 0.0

    def cell_integrals(self, geometry: MixedDimGeometry):
        def expand(values, mesh):
            arr = np.asarray(values, dtype=float)
            if arr.ndim == 0:
                arr = np.full(mesh.n_cells, float(arr))
            return arr * mesh.cell_measures

        damage = self.damage
        if not isinstance(damage, dict):
            damage = {s: damage for s in SIDES}
        return (
            expand(self.matrix, geometry.matrix),
            {s: expand(damage[s], geometry.fault) for s in SIDES},
            expand(self.fault, geometry.fault),
        )


@dataclass
class BlockSystem:
    """The assembled coupled system.

    ``F`` (flux x flux), ``C`` (flux x pressure) and the right-hand sides
    ``g`` (flux) and ``f`` (pressure) are the blocks of [[F, C], [C', 0]],
    after essential elimination.  ``matrix`` and ``rhs`` are that full
    symmetric operator and its right-hand side [g; f], acting on the
    global vector [u; p]; ``offsets`` maps its blocks (``<domain>_flux``,
    ``exchange_<side>_flux``, ``<domain>_pressure``) to slices.
    ``eliminated`` maps eliminated flux dofs (positions in u, and so in the
    global vector) to their imposed values; ``anchors`` lists the pressure
    unknowns (indices into p) of the cells owning a boundary pressure
    face.  ``source_integrals`` holds each cell's injected volume, by domain.
    """

    geometry: MixedDimGeometry
    coefficients: CoefficientSet
    F: sps.csr_array
    C: sps.csr_array
    g: np.ndarray
    f: np.ndarray
    offsets: dict[str, slice]
    eliminated: dict[int, float]
    anchors: np.ndarray
    source_integrals: dict[str, np.ndarray] = field(default_factory=dict)

    _matrix: sps.csr_array | None = field(
        default=None, init=False, repr=False
    )

    @property
    def n_dofs(self) -> int:
        return self.F.shape[0] + self.C.shape[1]

    @property
    def matrix(self) -> sps.csr_array:
        if self._matrix is None:
            self._matrix = _saddle_matrix(self.F, self.C)
        return self._matrix

    @property
    def rhs(self) -> np.ndarray:
        return np.concatenate([self.g, self.f])


def _saddle_matrix(F, C) -> sps.csr_array:
    """The symmetric operator [[F, C], [C', 0]]."""
    return sps.bmat([[F, C], [C.T, None]], format="csr")


def assemble(
    geometry: MixedDimGeometry,
    coefficients: CoefficientSet,
    bc: BoundaryConditions | None = None,
    sources: SourceField | None = None,
) -> BlockSystem:
    """Assemble the coupled operator, right-hand side, and eliminations."""
    bc = bc or BoundaryConditions()
    bc.validate(geometry)
    sources = sources or SourceField()

    domains = geometry.domains
    meshes = list(domains.values())
    fault = geometry.fault
    n_exchange = 2 * fault.n_cells

    # -- the layout of the global vector [u; p] ---------------------------
    blocks = [
        *((f"{dom}_flux", m.n_faces) for dom, m in domains.items()),
        *((f"exchange_{s}_flux", fault.n_cells) for s in SIDES),
        *((f"{dom}_pressure", m.n_cells) for dom, m in domains.items()),
    ]
    ends = np.cumsum([n for _, n in blocks]).tolist()
    offsets = {
        name: slice(end - n, end) for (name, n), end in zip(blocks, ends)
    }

    # -- F: flux mass blocks and the exchange resistance -----------------
    # The Robin resistance of the matrix/damage interface lands on the
    # diagonal of the paired matrix face: (u.n, v.n) over the face is
    # 1/|F| for the face's own basis function.
    penalty = np.zeros(geometry.matrix.n_faces)
    for side in SIDES:
        faces = geometry.matrix_damage[side].pairs[:, 0]
        penalty[faces] += coefficients.matrix_damage_resist[side] / (
            geometry.matrix.face_measures[faces]
        )
    resist = {
        "matrix": coefficients.matrix_resist,
        **{f"damage_{s}": coefficients.damage_resist[s] for s in SIDES},
        "fault": coefficients.fault_resist,
    }
    mass = [rt0_mass_matrix(m, resist[dom]) for dom, m in domains.items()]
    mass[0] = sps.csr_array(mass[0] + sps.diags_array(penalty))
    exchange_resist = np.concatenate(
        [coefficients.damage_fault_resist[s] for s in SIDES]
    )
    exchange = sps.diags_array(
        exchange_resist * np.tile(fault.cell_measures, 2)
    )
    F = sps.csr_array(sps.block_diag([*mass, exchange], format="csr"))

    # -- C: -div of every domain, plus the interface couplings ------------
    divergence = sps.block_diag(
        [-rt0_div_matrix(mesh) for mesh in meshes]
        + [sps.csr_array((n_exchange, 0))],
        format="csr",
    )
    # C's columns and ``anchors`` index p, which follows the fluxes
    first_cell = {
        dom: offsets[f"{dom}_pressure"].start - F.shape[0] for dom in domains
    }
    rows, cols, vals = [], [], []
    for side in SIDES:
        x0 = offsets[f"exchange_{side}_flux"].start
        d0 = first_cell[f"damage_{side}"]
        # matrix/damage: value 1 per (face, damage cell) pair
        faces, dcells = geometry.matrix_damage[side].pairs.T
        rows.append(faces)
        cols.append(dcells + d0)
        vals.append(np.ones(len(faces)))
        # exchange rows: fault-cell measures, out of the damage layer and
        # into the fault, cell i of the layer against cell i of the fault
        cells = np.arange(fault.n_cells)
        rows += [cells + x0, cells + x0]
        cols += [cells + d0, cells + first_cell["fault"]]
        vals += [-fault.cell_measures, fault.cell_measures]
    couplings = sps.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=divergence.shape,
    )
    C = sps.csr_array(divergence + couplings)

    # -- right-hand sides --------------------------------------------------
    q_matrix, q_damage, q_fault = sources.cell_integrals(geometry)
    source_integrals = {
        "matrix": q_matrix,
        **{f"damage_{s}": q_damage[s] for s in SIDES},
        "fault": q_fault,
    }
    pressure = _by_domain(bc.pressure, geometry)
    g = np.concatenate(
        [_weak_pressure_load(m, pressure[dom]) for dom, m in domains.items()]
        + [np.zeros(n_exchange)]
    )
    # Pressure rows are the negated conservation statements (C carries
    # -div), so a source density q enters with a minus sign.
    f = -np.concatenate([source_integrals[dom] for dom in domains])

    # -- essential elimination over all flux dofs -------------------------
    values = np.concatenate(
        [
            *_essential_values(geometry, bc).values(),
            np.full(n_exchange, np.nan),
        ]
    )
    F, C, g, f = _eliminate_field(F, C, g, f, values)

    fixed = ~np.isnan(values)
    return BlockSystem(
        geometry=geometry,
        coefficients=coefficients,
        F=F,
        C=C,
        g=g,
        f=f,
        offsets=offsets,
        eliminated=dict(
            zip(np.flatnonzero(fixed).tolist(), values[fixed].tolist())
        ),
        anchors=np.array(
            [
                first_cell[dom] + domains[dom].face_cells[face, 0]
                for dom, face in bc.pressure
            ],
            dtype=np.int64,
        ),
        source_integrals=source_integrals,
    )


def _by_domain(data: dict, geometry: MixedDimGeometry) -> dict[str, dict]:
    """Split (domain, face) -> value data into face -> value per domain."""
    out = {dom: {} for dom in geometry.domains}
    for (dom, f), value in data.items():
        out[dom][f] = value
    return out


def _weak_pressure_load(mesh: SimplicialMesh, pressure: dict) -> np.ndarray:
    """Flux-row right-hand side of weakly imposed boundary pressures
    (face -> value): -p on each listed face, since a boundary face's dof is
    its outward net flux."""
    g = np.zeros(mesh.n_faces)
    if pressure:
        g[list(pressure)] = -np.array(list(pressure.values()), dtype=float)
    return g


def _essential_flux_values(
    mesh: SimplicialMesh, faces: np.ndarray, pressure: dict, flux: dict
) -> np.ndarray:
    """Imposed net-flux dof values on the boundary ``faces`` not listed in
    ``pressure``, NaN where the dof stays free.  ``flux`` maps faces to
    outward flux densities; unlisted faces default to zero flux."""
    density = np.zeros(mesh.n_faces)
    if flux:
        density[list(flux)] = list(flux.values())
    fixed = faces[~np.isin(faces, list(pressure))]
    vals = np.full(mesh.n_faces, np.nan)
    vals[fixed] = density[fixed] * mesh.face_measures[fixed]
    return vals


def _essential_values(
    geometry: MixedDimGeometry, bc: BoundaryConditions
) -> dict[str, np.ndarray]:
    """Per-domain imposed net-flux dof values on the external faces."""
    pressure = _by_domain(bc.pressure, geometry)
    flux = _by_domain(bc.flux, geometry)
    return {
        dom: _essential_flux_values(
            mesh, geometry.external_faces(dom), pressure[dom], flux[dom]
        )
        for dom, mesh in geometry.domains.items()
    }


def _eliminate_field(F, C, g, f, values: np.ndarray):
    """Symmetric elimination of the flux dofs fixed in ``values`` (NaN =
    free) from [[F, C], [C', 0]] with right-hand sides g, f.  Returns the
    updated F, C, g, f."""
    fixed = ~np.isnan(values)
    if not fixed.any():
        return F, C, g, f
    vals = np.where(fixed, values, 0.0)
    keep = sps.diags_array((~fixed).astype(float))
    g = g - F @ vals
    g[fixed] = vals[fixed]
    F = sps.csr_array(keep @ F @ keep + sps.diags_array(fixed.astype(float)))
    f = f - C.T @ vals
    C = sps.csr_array(keep @ C)
    return F, C, g, f
