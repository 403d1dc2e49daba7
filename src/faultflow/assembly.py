"""Assembly of the coupled mixed-dimensional saddle-point system.

Unknown layout (one contiguous vector, see ``BlockSystem.offsets``):

    matrix_flux | matrix_pressure | damage_flux | damage_pressure |
    fault_flux  | fault_pressure  | exchange_flux

Damage-layer fields concatenate the left side first, then the right; the
exchange flux holds one dof per (side, fault cell), left block first.  The
exchange dof is the normal Darcy velocity leaving the damage layer of its
side and entering the fault, constant per fault cell.

The assembled operator is symmetric.  Its flux rows carry the weighted flux
mass matrices (the matrix one augmented by the Robin penalty of the
matrix/damage interface), plus pressure couplings; its pressure rows are the
negated conservation statements of each domain: the damage rows add the
matrix inflow and subtract the exchange outflow, the fault rows add the
exchange inflow from both sides.  Essential (flux) boundary data is imposed
by symmetric elimination: unit diagonal rows with right-hand-side fixups, so
symmetry survives.
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
        """Broadcast scalars or per-cell arrays onto the geometry."""

        def sided(values, n, what):
            if not isinstance(values, dict):
                values = {s: values for s in SIDES}
            return {s: _per_cell(values[s], n(s), what) for s in SIDES}

        return cls(
            matrix_resist=_per_cell(
                matrix_resist, geometry.matrix.n_cells, "matrix"
            ),
            damage_resist=sided(
                damage_resist, lambda s: geometry.damage[s].n_cells, "damage"
            ),
            fault_resist=_per_cell(
                fault_resist, geometry.fault.n_cells, "fault"
            ),
            matrix_damage_resist=sided(
                matrix_damage_resist,
                lambda s: len(geometry.matrix_damage[s]),
                "matrix/damage interface",
            ),
            damage_fault_resist=sided(
                damage_fault_resist,
                lambda s: geometry.fault.n_cells,
                "damage/fault interface",
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
        s: _per_cell(k_damage[s], geometry.damage[s].n_cells, "damage")
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

    # the interface resistance is indexed per pair: look up the damage cell
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
            {s: expand(damage[s], geometry.damage[s]) for s in SIDES},
            expand(self.fault, geometry.fault),
        )


FIELDS = (
    "matrix_flux",
    "matrix_pressure",
    "damage_flux",
    "damage_pressure",
    "fault_flux",
    "fault_pressure",
    "exchange_flux",
)


@dataclass
class BlockSystem:
    """The assembled coupled system.

    ``blocks`` holds the sparse sub-operators after essential elimination
    (keys: A_matrix, B_matrix, G_matrix, A_damage, B_damage, A_fault,
    B_fault, G_damage, G_fault, A_exchange); ``matrix`` the full symmetric
    operator, ``rhs`` its right-hand side.  ``offsets`` maps field names to
    slices of the global vector.  ``eliminated`` maps eliminated global flux
    dofs to their imposed values.
    """

    geometry: MixedDimGeometry
    coefficients: CoefficientSet
    blocks: dict[str, sps.csr_array]
    rhs_parts: dict[str, np.ndarray]
    offsets: dict[str, slice]
    eliminated: dict[int, float]
    damage_face_split: dict[str, slice]
    damage_cell_split: dict[str, slice]
    source_integrals: dict[str, np.ndarray] = field(default_factory=dict)
    # one boundary pressure anywhere anchors every pressure field, because
    # the exchange coupling makes the whole geometry one connected system
    anchored: bool = False

    _matrix: sps.csr_array | None = None

    @property
    def n_dofs(self) -> int:
        return self.offsets[FIELDS[-1]].stop

    @property
    def matrix(self) -> sps.csr_array:
        if self._matrix is None:
            self._matrix = self._compose()
        return self._matrix

    @property
    def rhs(self) -> np.ndarray:
        b = np.zeros(self.n_dofs)
        for name in FIELDS:
            b[self.offsets[name]] = self.rhs_parts[name]
        return b

    def _compose(self) -> sps.csr_array:
        B = self.blocks
        Z = None
        rows = [
            [B["A_matrix"], B["B_matrix"], Z, B["G_matrix"], Z, Z, Z],
            [B["B_matrix"].T, Z, Z, Z, Z, Z, Z],
            [Z, Z, B["A_damage"], B["B_damage"], Z, Z, Z],
            [B["G_matrix"].T, Z, B["B_damage"].T, Z, Z, Z, B["G_damage"]],
            [Z, Z, Z, Z, B["A_fault"], B["B_fault"], Z],
            [Z, Z, Z, Z, B["B_fault"].T, Z, B["G_fault"]],
            [Z, Z, Z, B["G_damage"].T, Z, B["G_fault"].T, B["A_exchange"]],
        ]
        return sps.csr_array(sps.bmat(rows, format="csr"))

    def split(self, x: np.ndarray) -> dict[str, np.ndarray]:
        return {name: x[self.offsets[name]] for name in FIELDS}

    def sided(self, values: np.ndarray, what: str) -> dict[str, np.ndarray]:
        split = (
            self.damage_face_split if what == "flux" else self.damage_cell_split
        )
        return {s: values[split[s]] for s in SIDES}


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

    matrix = geometry.matrix
    fault = geometry.fault
    damage = geometry.damage

    # -- flux mass blocks -------------------------------------------------
    # The Robin resistance of the matrix/damage interface lands on the
    # diagonal of the paired matrix face: (u.n, v.n) over the face is
    # 1/|F| for the face's own basis function.
    penalty = np.zeros(matrix.n_faces)
    for side in SIDES:
        faces = geometry.matrix_damage[side].pairs[:, 0]
        penalty[faces] += coefficients.matrix_damage_resist[side] / (
            matrix.face_measures[faces]
        )
    A_matrix = sps.csr_array(
        rt0_mass_matrix(matrix, coefficients.matrix_resist)
        + sps.diags_array(penalty)
    )

    A_damage = sps.csr_array(
        sps.block_diag(
            [
                rt0_mass_matrix(damage[s], coefficients.damage_resist[s])
                for s in SIDES
            ],
            format="csr",
        )
    )
    A_fault = rt0_mass_matrix(fault, coefficients.fault_resist)

    # -- divergence blocks -------------------------------------------------
    B_matrix = sps.csr_array(-rt0_div_matrix(matrix))
    B_damage = sps.csr_array(
        sps.block_diag([-rt0_div_matrix(damage[s]) for s in SIDES],
                       format="csr")
    )
    B_fault = sps.csr_array(-rt0_div_matrix(fault))

    # -- field sizes -------------------------------------------------------
    nf_d = {s: damage[s].n_faces for s in SIDES}
    nc_d = {s: damage[s].n_cells for s in SIDES}
    damage_face_split = {
        "left": slice(0, nf_d["left"]),
        "right": slice(nf_d["left"], nf_d["left"] + nf_d["right"]),
    }
    damage_cell_split = {
        "left": slice(0, nc_d["left"]),
        "right": slice(nc_d["left"], nc_d["left"] + nc_d["right"]),
    }
    n_exchange = 2 * fault.n_cells
    exchange_offset = {"left": 0, "right": fault.n_cells}

    # -- matrix/damage coupling: value 1 per (face, damage cell) pair -----
    rows, cols, vals = [], [], []
    for side in SIDES:
        imap = geometry.matrix_damage[side]
        rows.append(imap.pairs[:, 0])
        cols.append(imap.pairs[:, 1] + damage_cell_split[side].start)
        vals.append(np.ones(len(imap)))
    G_matrix = sps.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(matrix.n_faces, nc_d["left"] + nc_d["right"]),
    ).tocsr()

    # -- exchange couplings: fault-cell measures --------------------------
    rows, cols, vals = [], [], []
    frows, fcols, fvals = [], [], []
    for side in SIDES:
        dmap = geometry.damage_fault[side]
        dcells = dmap.pairs[:, 0] + damage_cell_split[side].start
        fcells = dmap.pairs[:, 1]
        meas = fault.cell_measures[fcells]
        rows.append(dcells)
        cols.append(fcells + exchange_offset[side])
        vals.append(-meas)
        frows.append(fcells)
        fcols.append(fcells + exchange_offset[side])
        fvals.append(meas)
    G_damage = sps.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nc_d["left"] + nc_d["right"], n_exchange),
    ).tocsr()
    G_fault = sps.coo_array(
        (
            np.concatenate(fvals),
            (np.concatenate(frows), np.concatenate(fcols)),
        ),
        shape=(fault.n_cells, n_exchange),
    ).tocsr()

    exchange_resist = np.concatenate(
        [coefficients.damage_fault_resist[s] for s in SIDES]
    )
    A_exchange = sps.csr_array(
        sps.diags_array(
            exchange_resist * np.tile(fault.cell_measures, 2)
        )
    )

    # -- right-hand side ---------------------------------------------------
    f_matrix_src, f_damage_src, f_fault_src = sources.cell_integrals(geometry)
    pressure = _by_domain(bc.pressure, geometry)
    g = {
        dom: _weak_pressure_load(mesh, pressure[dom])
        for dom, mesh in geometry.domains.items()
    }

    # Pressure rows are the negated conservation statements (B carries
    # -div), so a source density q enters with a minus sign.
    rhs_parts = {
        "matrix_flux": g["matrix"],
        "matrix_pressure": -f_matrix_src,
        "damage_flux": np.concatenate([g[f"damage_{s}"] for s in SIDES]),
        "damage_pressure": -np.concatenate(
            [f_damage_src[s] for s in SIDES]
        ),
        "fault_flux": g["fault"],
        "fault_pressure": -f_fault_src,
        "exchange_flux": np.zeros(n_exchange),
    }

    blocks = {
        "A_matrix": A_matrix,
        "B_matrix": B_matrix,
        "G_matrix": G_matrix,
        "A_damage": A_damage,
        "B_damage": B_damage,
        "A_fault": A_fault,
        "B_fault": B_fault,
        "G_damage": G_damage,
        "G_fault": G_fault,
        "A_exchange": A_exchange,
    }

    sizes = {
        "matrix_flux": matrix.n_faces,
        "matrix_pressure": matrix.n_cells,
        "damage_flux": nf_d["left"] + nf_d["right"],
        "damage_pressure": nc_d["left"] + nc_d["right"],
        "fault_flux": fault.n_faces,
        "fault_pressure": fault.n_cells,
        "exchange_flux": n_exchange,
    }
    offsets = {}
    start = 0
    for name in FIELDS:
        offsets[name] = slice(start, start + sizes[name])
        start += sizes[name]

    system = BlockSystem(
        geometry=geometry,
        coefficients=coefficients,
        blocks=blocks,
        rhs_parts=rhs_parts,
        offsets=offsets,
        eliminated={},
        damage_face_split=damage_face_split,
        damage_cell_split=damage_cell_split,
        source_integrals={
            "matrix": f_matrix_src,
            "damage": np.concatenate([f_damage_src[s] for s in SIDES]),
            "fault": f_fault_src,
        },
        anchored=bool(bc.pressure),
    )
    _eliminate_essential(system, bc)
    return system


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


def _eliminate_field(A, B, G, g, f_B, f_G, values: np.ndarray):
    """Symmetric elimination of the flux dofs fixed in ``values`` (NaN =
    free) from one domain's blocks.  Returns the updated blocks."""
    fixed = ~np.isnan(values)
    if not fixed.any():
        return A, B, G, g
    vals = np.where(fixed, values, 0.0)
    keep = sps.diags_array((~fixed).astype(float))
    g -= A @ vals
    g[fixed] = vals[fixed]
    A = sps.csr_array(keep @ A @ keep + sps.diags_array(fixed.astype(float)))
    f_B -= B.T @ vals
    B = sps.csr_array(keep @ B)
    if G is not None:
        f_G -= G.T @ vals
        G = sps.csr_array(keep @ G)
    return A, B, G, g


def _eliminate_essential(system: BlockSystem, bc: BoundaryConditions) -> None:
    values = _essential_values(system.geometry, bc)
    per_field = {
        "matrix": values["matrix"],
        "damage": np.concatenate([values[f"damage_{s}"] for s in SIDES]),
        "fault": values["fault"],
    }
    blocks = system.blocks
    rhs = system.rhs_parts
    eliminated = {}
    for name, vals in per_field.items():
        # only the matrix flux couples to a second pressure field
        coupled = name == "matrix"
        A, B, G, g = _eliminate_field(
            blocks[f"A_{name}"],
            blocks[f"B_{name}"],
            blocks["G_matrix"] if coupled else None,
            rhs[f"{name}_flux"],
            rhs[f"{name}_pressure"],
            rhs["damage_pressure"] if coupled else None,
            vals,
        )
        blocks[f"A_{name}"], blocks[f"B_{name}"] = A, B
        if coupled:
            blocks["G_matrix"] = G
        rhs[f"{name}_flux"] = g
        base = system.offsets[f"{name}_flux"].start
        for f in np.flatnonzero(~np.isnan(vals)):
            eliminated[base + int(f)] = float(vals[f])
    system.eliminated = eliminated
    system._matrix = None
