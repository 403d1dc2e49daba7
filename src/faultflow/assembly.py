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

One table of local fluxes writes the coupled operator, one
``LocalEntries`` per domain: every cell's local fluxes (its RT0 faces, and
in a damage cell its paired matrix face and its exchange dof as two
resistors next to them; in a fault cell both exchange dofs, each exchange
resistance split in halves between the two cells), their orientation
signs sigma, the cell's local resistance M and its pressure unknown.
``assemble`` builds the table once and keeps it on ``BlockSystem``; F is
(sigma sigma') o M scattered onto (dof, dof) and C is -sigma scattered
onto (dof, cell).  So F is block-diagonal: the weighted flux mass matrix
of each domain (the matrix one augmented by the Robin resistance of the
matrix/damage interface on the paired faces) and the diagonal exchange
resistance.  C holds -div of every domain, the matrix/damage coupling in
the rows of the interface faces and the two exchange couplings in the
exchange rows, so the pressure rows C'u = f are the negated conservation
statements of each domain: the damage rows add the matrix inflow and
subtract the exchange outflow, the fault rows add the exchange inflow
from both sides.  The hybridized solve eliminates the same table cell by
cell.

Boundary data goes through one routine, ``_boundary_data``, per domain
here and for the one-domain reference of ``equidim``: it refuses bad face
data and gives the load of the weakly imposed pressures, the eliminated
net fluxes and the anchor cells.  Essential (flux) data is imposed by
symmetric elimination: unit diagonal rows with right-hand-side fixups, so
symmetry survives.

The global unknown vector is [u; p], in the order in which F and C are
assembled.  ``BlockSystem.offsets`` is its one layout table, built from
``MixedDimGeometry.domains``: ``<domain>_flux`` per domain, then
``exchange_<side>_flux`` per side, then ``<domain>_pressure`` per domain.
The resistances of ``CoefficientSet.resist`` and the sources of
``assemble`` are keyed by the same domain names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from .fem import _finite_per_cell, _per_cell, rt0_local_blocks
from .mesh import SIDES, MeshError, MixedDimGeometry, SimplicialMesh

__all__ = [
    "CoefficientSet",
    "BoundaryConditions",
    "BlockSystem",
    "LocalEntries",
    "coefficients_from_mode",
    "assemble",
    "rt0_entries",
]


def _by_key(values, keys) -> dict:
    """``values`` if it is a mapping, else one value for each of ``keys``."""
    return values if isinstance(values, dict) else dict.fromkeys(keys, values)


@dataclass
class CoefficientSet:
    """Resistances of one coupled problem.  ``resist`` maps each domain
    of ``geometry.domains`` to the weight of its tangential Darcy law, one
    value or one 3x3 tensor per cell; ``matrix_damage_resist[side]`` is the
    Robin resistance of the matrix/damage interface, one value per pair,
    and ``damage_fault_resist[side]`` the exchange resistance, one value
    per fault cell."""

    resist: dict[str, np.ndarray]
    matrix_damage_resist: dict[str, np.ndarray]
    damage_fault_resist: dict[str, np.ndarray]

    @classmethod
    def for_geometry(
        cls,
        geometry: MixedDimGeometry,
        resist,
        matrix_damage_resist,
        damage_fault_resist,
    ) -> "CoefficientSet":
        """Broadcast onto the geometry: ``resist`` keyed like
        ``geometry.domains``, the interface resistances by side (one value
        per fault cell), a single value standing for every key."""
        n = geometry.fault.n_cells

        def sided(values, what):
            values = _by_key(values, SIDES)
            return {s: _per_cell(values[s], n, what) for s in SIDES}

        resist = _by_key(resist, geometry.domains)
        return cls(
            resist={
                dom: _per_cell(
                    resist[dom], m.n_cells, f"{dom} resistance", tensors=True
                )
                for dom, m in geometry.domains.items()
            },
            matrix_damage_resist=sided(
                matrix_damage_resist, "matrix/damage resistance"
            ),
            damage_fault_resist=sided(
                damage_fault_resist, "damage/fault resistance"
            ),
        )


class _UnusableResistance(MeshError):
    """A conductivity the mode rule cannot use, at ``cell`` of ``domain``."""

    def __init__(self, domain: str, cell: int, k: float, mode: str):
        super().__init__(
            f"conductivity {k!r} gives {domain} cell {cell} a resistance "
            f"out of floating-point range in {mode} mode"
        )
        self.domain, self.cell = domain, cell


def _resistances(k: np.ndarray, thickness: float, mode: str, domain: str):
    """The mode rule: resistances (along, across) of a layer of thickness
    t whose cells have conductivity ``k``.  In ``literal`` mode k scales
    like an inverse permeability: k t along the layer, k / t across it.
    In ``permeability`` mode k is a permeability: 1 / (k t) along, t / k
    across.  t is 1 for the matrix, eps_mu for a damage layer, eps_gamma
    for the fault.  The equi-dimensional reference meshes its strips at
    their physical width and applies the along rule at t = 1, so in
    literal mode a strip cell's resistance is k itself, isotropic (whether
    that is meant is open; see ROADMAP.md).  Every resistance must be
    finite and positive with a finite reciprocal, as the solvers divide by
    them; the first cell that breaks this raises ``_UnusableResistance``.
    """
    with np.errstate(all="ignore"):
        if mode == "literal":
            along, across = k * thickness, k / thickness
        elif mode == "permeability":
            along, across = 1.0 / (k * thickness), thickness / k
        else:
            raise MeshError(f"unknown coefficient mode {mode!r}")
        bad = np.zeros(len(k), dtype=bool)
        for r in (along, across):
            bad |= ~(np.isfinite(r) & (r > 0) & np.isfinite(1.0 / r))
    if bad.any():
        cell = int(np.argmax(bad))
        raise _UnusableResistance(domain, cell, float(k[cell]), mode)
    return along, across


def coefficients_from_mode(
    geometry: MixedDimGeometry,
    k,
    mode: str,
    eps_mu: float,
    eps_gamma: float,
) -> CoefficientSet:
    """The coefficient set of conductivities ``k`` keyed like
    ``geometry.domains`` (a scalar or one value per cell each), through
    the mode rule ``_resistances``: across a damage layer is its Robin
    resistance to the matrix, across the fault the exchange resistance."""
    if not (eps_mu > 0 and eps_gamma > 0):
        raise MeshError("layer thicknesses must be positive")
    thickness = {"matrix": 1.0, "fault": eps_gamma}  # damage: eps_mu
    along, across = {}, {}
    for dom, mesh in geometry.domains.items():
        along[dom], across[dom] = _resistances(
            _per_cell(k[dom], mesh.n_cells, f"{dom} conductivity"),
            thickness.get(dom, eps_mu),
            mode,
            dom,
        )
    return CoefficientSet(
        resist=along,
        # one per pair: the resistance of the paired surface cell
        matrix_damage_resist={
            s: across[f"damage_{s}"][geometry.matrix_damage[s].pairs[:, 1]]
            for s in SIDES
        },
        damage_fault_resist={s: across["fault"].copy() for s in SIDES},
    )


@dataclass
class BoundaryConditions:
    """Boundary data, keyed by (domain name, face index).

    ``pressure`` holds natural data (weakly imposed boundary pressures);
    ``flux`` holds essential data as outward normal flux densities,
    eliminated from the system.  External boundary faces listed in neither
    default to zero flux.  ``assemble`` checks the data (``_boundary_data``).
    """

    pressure: dict[tuple[str, int], float] = field(default_factory=dict)
    flux: dict[tuple[str, int], float] = field(default_factory=dict)


@dataclass
class BlockSystem:
    """The assembled coupled system.

    ``table`` is the table of local fluxes, one ``LocalEntries`` per
    domain; ``F`` (flux x flux) and ``C`` (flux x pressure) are its
    scatter, and with the right-hand sides ``g`` (flux) and ``f``
    (pressure) the blocks of [[F, C], [C', 0]], after essential
    elimination.  ``matrix`` and ``rhs`` are that full symmetric operator
    and its right-hand side [g; f], acting on the global vector [u; p];
    ``offsets`` maps its blocks (``<domain>_flux``,
    ``exchange_<side>_flux``, ``<domain>_pressure``) to slices.
    ``eliminated`` maps eliminated flux dofs (positions in u, and so in the
    global vector) to their imposed values; ``anchors`` lists the pressure
    unknowns (indices into p) of the cells owning a boundary pressure
    face.  ``source_integrals`` holds each cell's injected volume, by domain.
    """

    geometry: MixedDimGeometry
    coefficients: CoefficientSet
    table: list[LocalEntries]
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


@dataclass
class LocalEntries:
    """One domain's rows of the table of local fluxes.  Local flux j of
    cell k is ``sigma[k, j]`` times the global flux dof ``dofs[k, j]``,
    taken out of the cell; ``mass[k]`` is the cell's symmetric positive
    definite local resistance, and ``cells[k]`` its pressure unknown (an
    index into p).  ``_scatter`` writes F and C from these rows."""

    dofs: np.ndarray  # (n, m) int
    sigma: np.ndarray  # (n, m)
    mass: np.ndarray  # (n, m, m)
    cells: np.ndarray  # (n,) int


def rt0_entries(
    mesh: SimplicialMesh, resist, first_dof: int = 0, first_cell: int = 0
) -> LocalEntries:
    """The faces of every cell of ``mesh``: orientation signs, and the
    RT0 local blocks of ``resist`` in outward form."""
    signs = mesh.cell_face_signs.astype(float)
    return LocalEntries(
        dofs=mesh.cell_faces + first_dof,
        sigma=signs,
        mass=signs[:, :, None]
        * signs[:, None, :]
        * rt0_local_blocks(mesh, resist),
        cells=np.arange(mesh.n_cells) + first_cell,
    )


def _with_resistors(entries: LocalEntries, dofs, sigma, resist):
    """``entries`` with one more local flux per column of ``dofs``, each
    a resistor of its own: one more diagonal entry of the local mass."""
    n, m = entries.dofs.shape
    k = dofs.shape[1]
    mass = np.zeros((n, m + k, m + k))
    mass[:, :m, :m] = entries.mass
    extra = np.arange(m, m + k)
    mass[:, extra, extra] = resist
    return LocalEntries(
        dofs=np.hstack([entries.dofs, dofs]),
        sigma=np.hstack([entries.sigma, sigma]),
        mass=mass,
        cells=entries.cells,
    )


def _local_table(
    geometry: MixedDimGeometry,
    coeff: CoefficientSet,
    offsets: dict[str, slice],
    first_cell: dict[str, int],
) -> list[LocalEntries]:
    """The table of local fluxes, one ``LocalEntries`` per domain: the
    RT0 faces of each cell, and in a damage cell its paired matrix face
    (sigma -1, resistance r_md / |F|, as (u.n, v.n) over the face is
    1 / |F| for the face's own basis function) and its exchange dof (sigma
    |fault cell|, resistance R / (2 |fault cell|)); in a fault cell both
    exchange dofs (sigma -|fault cell|, the other halves)."""
    table = {
        dom: rt0_entries(
            mesh,
            coeff.resist[dom],
            offsets[f"{dom}_flux"].start,
            first_cell[dom],
        )
        for dom, mesh in geometry.domains.items()
    }
    fault = geometry.fault
    measure = fault.cell_measures
    exchange = {
        s: offsets[f"exchange_{s}_flux"].start + np.arange(fault.n_cells)
        for s in SIDES
    }
    half = {s: coeff.damage_fault_resist[s] / (2 * measure) for s in SIDES}
    for side in SIDES:
        faces, cells = geometry.matrix_damage[side].pairs.T
        face = np.empty_like(faces)
        face[cells] = faces
        robin = np.empty(fault.n_cells)
        robin[cells] = (
            coeff.matrix_damage_resist[side]
            / geometry.matrix.face_measures[faces]
        )
        dom = f"damage_{side}"
        table[dom] = _with_resistors(
            table[dom],
            np.column_stack([face, exchange[side]]),
            np.column_stack([-np.ones(fault.n_cells), measure]),
            np.column_stack([robin, half[side]]),
        )
    table["fault"] = _with_resistors(
        table["fault"],
        np.column_stack([exchange[s] for s in SIDES]),
        np.column_stack([-measure for _ in SIDES]),
        np.column_stack([half[s] for s in SIDES]),
    )
    return list(table.values())


def _scatter(table: list[LocalEntries], n_flux: int, n_cells: int):
    """F and C of the table of local fluxes ``table``, before essential
    elimination: (sigma sigma') o mass scattered onto (dof, dof) and
    -sigma onto (dof, cell).  A zero of a local mass (the padding of
    ``_with_resistors``, an exact zero of an RT0 block) stores nothing, so
    F couples no two domains and stores no entry that elimination would
    drop."""
    flux, coupling = [], []
    for t in table:
        local = t.sigma[:, :, None] * t.sigma[:, None, :] * t.mass
        nonzero = local != 0
        flux.append(
            (
                local[nonzero],
                np.broadcast_to(t.dofs[:, :, None], local.shape)[nonzero],
                np.broadcast_to(t.dofs[:, None, :], local.shape)[nonzero],
            )
        )
        coupling.append(
            (
                -t.sigma.ravel(),
                t.dofs.ravel(),
                np.repeat(t.cells, t.dofs.shape[1]),
            )
        )

    def coo(parts, n_cols):
        vals, rows, cols = (np.concatenate(x) for x in zip(*parts))
        return sps.coo_array(
            (vals, (rows, cols)), shape=(n_flux, n_cols)
        ).tocsr()

    return coo(flux, n_flux), coo(coupling, n_cells)


def assemble(
    geometry: MixedDimGeometry,
    coefficients: CoefficientSet,
    bc: BoundaryConditions | None = None,
    sources: dict | None = None,
) -> BlockSystem:
    """Assemble the coupled operator, right-hand side, and eliminations.
    ``sources`` maps domains to finite source densities q (div u = q), a
    scalar or one value per cell each; a domain left out has none."""
    bc = bc or BoundaryConditions()
    sources = sources or {}

    domains = geometry.domains
    n_exchange = 2 * geometry.fault.n_cells

    # -- the layout of the global vector [u; p] ---------------------------
    blocks = [
        *((f"{dom}_flux", m.n_faces) for dom, m in domains.items()),
        *((f"exchange_{s}_flux", geometry.fault.n_cells) for s in SIDES),
        *((f"{dom}_pressure", m.n_cells) for dom, m in domains.items()),
    ]
    ends = np.cumsum([n for _, n in blocks]).tolist()
    offsets = {
        name: slice(end - n, end) for (name, n), end in zip(blocks, ends)
    }
    # C's columns and ``anchors`` index p, which follows the fluxes
    n_flux = offsets[f"exchange_{SIDES[-1]}_flux"].stop
    first_cell = {
        dom: offsets[f"{dom}_pressure"].start - n_flux for dom in domains
    }

    # -- F and C: one scatter of the table of local fluxes ----------------
    table = _local_table(geometry, coefficients, offsets, first_cell)
    F, C = _scatter(table, n_flux, ends[-1] - n_flux)

    # -- right-hand sides --------------------------------------------------
    unknown = set(sources) - set(domains)
    if unknown:
        raise MeshError(f"source on unknown domain {sorted(unknown)[0]!r}")
    source_integrals = {
        dom: m.cell_measures
        * _finite_per_cell(sources.get(dom, 0.0), m.n_cells, f"{dom} source")
        for dom, m in domains.items()
    }
    # -- boundary data, one domain at a time ------------------------------
    data = {dom: ({}, {}) for dom in domains}
    for kind, items in enumerate((bc.pressure, bc.flux)):
        for key, value in items.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise MeshError(
                    f"boundary data key {key!r} is not a (domain, face) pair"
                )
            dom, face = key
            if dom not in data:
                raise MeshError(f"boundary data on unknown domain {dom!r}")
            data[dom][kind][face] = value
    loads, values, anchors = zip(
        *(
            _boundary_data(m, geometry.external_faces(dom), *data[dom], dom)
            for dom, m in domains.items()
        )
    )
    g = np.concatenate([*loads, np.zeros(n_exchange)])
    # Pressure rows are the negated conservation statements (C carries
    # -div), so a source density q enters with a minus sign.
    f = -np.concatenate([source_integrals[dom] for dom in domains])

    # -- essential elimination over all flux dofs -------------------------
    values = np.concatenate([*values, np.full(n_exchange, np.nan)])
    F, C, g, f = _eliminate_field(F, C, g, f, values)

    fixed = ~np.isnan(values)
    return BlockSystem(
        geometry=geometry,
        coefficients=coefficients,
        table=table,
        F=F,
        C=C,
        g=g,
        f=f,
        offsets=offsets,
        eliminated=dict(
            zip(np.flatnonzero(fixed).tolist(), values[fixed].tolist())
        ),
        anchors=np.concatenate(
            [first_cell[dom] + a for dom, a in zip(domains, anchors)]
        ),
        source_integrals=source_integrals,
    )


def _boundary_data(mesh: SimplicialMesh, faces, pressure, flux, where: str):
    """What the boundary data of ``mesh`` (the domain ``where``) does to
    its system.  ``pressure`` maps faces to weakly imposed pressures and
    ``flux`` to outward flux densities; the other faces of ``faces`` (the
    ones that take data) are zero-flux.  Returns the flux-row load (-p on
    each pressure face, since a boundary face's dof is its outward net
    flux), the eliminated net-flux values (density times face measure on
    every other face of ``faces``, NaN on the free dofs) and the cells
    owning a pressure face.  Data on a face outside ``faces`` (a mesh
    boundary face left out lies on the fault plane), on a face listed
    twice, with a non-integer face, a value that is not a finite float, or
    whose net flux overflows raises a MeshError naming the face and
    ``where``."""
    takes = np.zeros(mesh.n_faces, dtype=bool)
    takes[faces] = True
    for kind, items in (("pressure", pressure), ("flux", flux)):
        for face, value in items.items():
            known = isinstance(face, (int, np.integer)) and (
                0 <= face < mesh.n_faces
            )
            if not (known and takes[face]):
                raise MeshError(
                    f"face {face} of {where} lies on the fault plane and "
                    "cannot carry boundary data"
                    if known and mesh.face_cells[face, 1] < 0
                    else f"face {face} of {where} is not an external "
                    "boundary face"
                )
            if kind == "pressure" and face in flux:
                raise MeshError(
                    f"face {face} of {where} has both pressure and flux data"
                )
            try:
                finite = math.isfinite(value)
            except (TypeError, OverflowError):
                raise MeshError(
                    f"face {face} of {where} has {kind} {value!r}, not a "
                    "finite float"
                ) from None
            if not finite:
                raise MeshError(
                    f"face {face} of {where} has non-finite {kind} {value:g}"
                )
    load = np.zeros(mesh.n_faces)
    load[list(pressure)] = -np.array(list(pressure.values()), dtype=float)
    density = np.zeros(mesh.n_faces)
    density[list(flux)] = list(flux.values())
    fixed = faces[~np.isin(faces, list(pressure))]
    values = np.full(mesh.n_faces, np.nan)
    with np.errstate(over="ignore"):
        values[fixed] = density[fixed] * mesh.face_measures[fixed]
    overflow = np.isinf(values)
    if overflow.any():
        face = int(np.argmax(overflow))
        raise MeshError(
            f"face {face} of {where}: flux {density[face]:g} times its "
            f"measure {mesh.face_measures[face]:g} overflows"
        )
    return load, values, mesh.face_cells[list(pressure), 0]


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
