"""Shared fixtures-by-hand for the solver and acceptance tests.

The series problem drives uniform flow across both blocks, both interfaces
and the fault core; its exact solution is one resistance chain.  The patch
problem imposes a pressure linear along the fault, which every domain must
reproduce without any exchange flow.  Both are closed forms the discrete
scheme reproduces exactly on the aligned two-block grids.

``rt0_local_mass`` and ``rt0_interpolate`` are the per-cell and per-face
oracles the element-kernel tests compare the vectorized kernels against;
``locate_cells_oracle`` is the cell-by-cell oracle of point location.
``faces_by_row_unique`` and ``scaled_norm`` are the forms the mesh once
used, kept as references for the face keys and the guarded norm.
``vtk_text_by_value`` and ``mesh_text_by_value`` are the text the VTK and
mesh-file writers once built one value at a time, kept as references for
their formatting of each distinct value once.
``check_vtk_file`` re-reads a VTK file and verifies its structure, which
keeps the writer honest without a third-party reader.
"""

import numpy as np

from faultflow.assembly import BoundaryConditions, CoefficientSet
from faultflow.mesh import (
    SIDES,
    MeshError,
    MeshFormatError,
    SimplicialMesh,
    build_two_block_geometry,
)


def series_setup(n, interface_resist, exchange_resist,
                 matrix_resist=1.0, damage_resist=2.0, fault_resist=5.0):
    """Two blocks with uniform coefficients, pressure 0 on the far left
    boundary and 1 on the far right; every other external face keeps the
    default zero-flux condition."""
    geometry = build_two_block_geometry(n, n)
    coeff = CoefficientSet.for_geometry(
        geometry,
        resist={
            "matrix": matrix_resist,
            **{f"damage_{s}": damage_resist for s in SIDES},
            "fault": fault_resist,
        },
        matrix_damage_resist=interface_resist,
        damage_fault_resist=exchange_resist,
    )
    bc = BoundaryConditions()
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 0.0
    for f in geometry.matrix.faces_with_tag("right"):
        bc.pressure[("matrix", int(f))] = 1.0
    return geometry, coeff, bc


def series_flux(interface_resist, exchange_resist, matrix_resist=1.0):
    """Signed horizontal Darcy velocity of the series problem: two matrix
    legs, two interface resistances and two exchange resistances in a
    chain, driven by a unit pressure drop."""
    total = 2.0 * (matrix_resist + interface_resist + exchange_resist)
    return -1.0 / total


def series_solution_vector(system, interface_resist, exchange_resist):
    """The exact solution of ``series_setup`` written into the unknown
    layout of ``system`` (matrix resistance 1 assumed)."""
    a, b = interface_resist, exchange_resist
    u = series_flux(a, b)
    geometry = system.geometry
    x = np.zeros(system.n_dofs)

    matrix = geometry.matrix
    x[system.offsets["matrix_flux"]] = (
        u * matrix.face_normals[:, 0] * matrix.face_measures
    )
    cx = matrix.cell_centroids()[:, 0]
    x[system.offsets["matrix_pressure"]] = np.where(
        cx < 1.0, -u * cx, -u * (cx - 1.0) - u * (1 + 2 * a + 2 * b)
    )

    # layers carry no tangential flow; their pressures are flat per side
    p_damage = {"left": -u * (1 + a), "right": -u * (1 + a + 2 * b)}
    for side in SIDES:
        x[system.offsets[f"damage_{side}_pressure"]] = p_damage[side]
    x[system.offsets["fault_pressure"]] = -u * (1 + a + b)

    x[system.offsets["exchange_left_flux"]] = u
    x[system.offsets["exchange_right_flux"]] = -u
    return x


def patch_setup(n_x, n_y, matrix_resist=2.0, damage_resist=None,
                fault_resist=7.0, interface_resist=0.25,
                exchange_resist=11.0):
    """Pressure equal to the fault-parallel coordinate on every external
    face of every domain.  The exact solution is p = y everywhere with a
    uniform fault-parallel velocity per domain and no exchange flow."""
    geometry = build_two_block_geometry(n_x, n_y)
    damage_resist = damage_resist or {"left": 3.0, "right": 5.0}
    coeff = CoefficientSet.for_geometry(
        geometry,
        resist={
            "matrix": matrix_resist,
            **{f"damage_{s}": damage_resist[s] for s in SIDES},
            "fault": fault_resist,
        },
        matrix_damage_resist=interface_resist,
        damage_fault_resist=exchange_resist,
    )
    bc = BoundaryConditions()
    for dom, mesh in geometry.domains.items():
        mids = mesh.face_centroids()
        for f in geometry.external_faces(dom):
            bc.pressure[(dom, int(f))] = float(mids[f, 1])
    return geometry, coeff, bc


def _as_weight_tensor(weight) -> np.ndarray:
    w = np.asarray(weight, dtype=float)
    if w.ndim == 0:
        if w <= 0:
            raise MeshError(f"weight must be positive, got {float(w)}")
        return float(w) * np.eye(3)
    if w.shape == (2, 2):
        out = np.eye(3)
        out[:2, :2] = w
        w = out
    if w.shape != (3, 3):
        raise MeshError("tensor weight must be 2x2 or 3x3")
    if not np.allclose(w, w.T, atol=1e-12 * max(1.0, np.abs(w).max())):
        raise MeshError("weight tensor must be symmetric")
    if np.linalg.eigvalsh(w).min() <= 0:
        raise MeshError("weight tensor must be positive definite")
    return w


def _simplex_measure(verts: np.ndarray) -> float:
    d = len(verts) - 1
    if d == 1:
        return float(np.linalg.norm(verts[1] - verts[0]))
    if d == 2:
        return float(
            0.5 * np.linalg.norm(np.cross(verts[1] - verts[0],
                                          verts[2] - verts[0]))
        )
    mat = np.stack([verts[i] - verts[0] for i in (1, 2, 3)])
    return float(abs(np.linalg.det(mat)) / 6.0)


def _bary_weights(d: int) -> np.ndarray:
    w = np.ones((d + 1, d + 1)) + np.eye(d + 1)
    return w / ((d + 1) * (d + 2))


def rt0_local_mass(verts: np.ndarray, signs: np.ndarray, weight) -> np.ndarray:
    """Local weighted flux mass matrix of one simplex.

    Parameters
    ----------
    verts:
        (d+1, 3) vertex coordinates (zero-padded below three components).
    signs:
        (d+1,) orientation of the cell on each local face, +1 when the
        global face normal points out of the cell.
    weight:
        Positive scalar or symmetric positive definite tensor, the
        inverse-permeability weight; constant on the cell.

    Returns the symmetric positive definite (d+1, d+1) matrix of
    int_K (W zeta_i) . zeta_j.
    """
    verts = np.asarray(verts, dtype=float)
    if verts.ndim != 2:
        raise MeshError("cell vertices must be a 2d array")
    if verts.shape[1] < 3:
        pad = np.zeros((verts.shape[0], 3))
        pad[:, : verts.shape[1]] = verts
        verts = pad
    d = len(verts) - 1
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (d + 1,):
        raise MeshError("orientation signs must match the face count")
    W = _as_weight_tensor(weight)
    measure = _simplex_measure(verts)
    diam = max(
        np.linalg.norm(verts[i] - verts[j])
        for i in range(d + 1)
        for j in range(i)
    )
    if measure <= 1e-14 * diam**d:
        raise MeshError("degenerate cell: measure vanishes")

    D = verts[:, None, :] - verts[None, :, :]  # D[a, i] = v_a - v_i
    E = np.einsum("xy,bjy->bjx", W, D)
    M = np.einsum("aix,bjx,ab->ij", D, E, _bary_weights(d))
    M *= np.outer(signs, signs)
    M /= d * d * measure
    return M


def rt0_interpolate(mesh: SimplicialMesh, field) -> np.ndarray:
    """Net-flux interpolation of a vector field onto the RT0 dofs.

    ``field`` is a constant 3-vector or a callable mapping (n, 3) points to
    (n, 3) values; the flux integral over each face is approximated with the
    field at the face centroid (exact for fields with linear normal trace).
    """
    fc = mesh.face_centroids()
    if callable(field):
        vals = np.asarray(field(fc), dtype=float)
    else:
        vals = np.broadcast_to(
            np.asarray(field, dtype=float), (mesh.n_faces, 3)
        )
    return np.einsum("fx,fx->f", vals, mesh.face_normals) * mesh.face_measures


def locate_cells_oracle(mesh: SimplicialMesh, points) -> np.ndarray:
    """Lowest index of a cell whose barycentric coordinates of the point
    are all >= -1e-12, trying every cell; -1 where no cell contains it.

    The coordinates come from one ``np.linalg.solve`` per (point, cell),
    as in ``locate_cells``, so points on the tolerance boundary compare
    bit for bit."""
    dim = mesh.dim
    corners = mesh.vertices[mesh.cells, :dim]
    T = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    best = []
    for point in np.asarray(points, dtype=float)[:, :dim]:
        lam = np.linalg.solve(T, (point - corners[:, 0])[..., None])[..., 0]
        bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
        inside = np.flatnonzero(np.all(bary >= -1e-12, axis=1))
        best.append(inside[0] if inside.size else -1)
    return np.array(best, dtype=np.int64)


def faces_by_row_unique(dim: int, cells) -> tuple:
    """Faces, cell_faces, cell_face_signs and face_cells of the cells as
    ``SimplicialMesh`` derived them with ``np.unique`` over the rows of
    sorted vertex tuples: faces in lexicographic order, local face i
    opposite local vertex i, the first slot of a face owning it."""
    cells = np.asarray(cells, dtype=np.int64)
    nc, d = len(cells), dim
    keep = [[j for j in range(d + 1) if j != i] for i in range(d + 1)]
    flat = np.sort(cells[:, keep].reshape(-1, d), axis=1)
    faces, first, inverse = np.unique(
        flat, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.ravel()
    slots = np.arange(len(flat))
    owned = first[inverse] == slots
    face_cells = np.full((len(faces), 2), -1, dtype=np.int64)
    face_cells[:, 0] = first // (d + 1)
    face_cells[inverse[~owned], 1] = slots[~owned] // (d + 1)
    signs = np.where(owned, 1, -1).reshape(nc, d + 1)
    return faces, inverse.reshape(nc, d + 1), signs, face_cells


def scaled_norm(v: np.ndarray) -> np.ndarray:
    """Length of each row of ``v``, taken of the row scaled by the power
    of two of its largest component."""
    _, exponent = np.frexp(np.max(np.abs(v), axis=1))
    scaled = np.ldexp(v, -exponent[:, None])
    return np.ldexp(np.linalg.norm(scaled, axis=1), exponent)


def _row(values) -> str:
    return " ".join(f"{float(x)!r}" for x in values)


def vtk_text_by_value(mesh: SimplicialMesh, cell_data: dict,
                      title: str) -> str:
    """The text of the VTK file of ``mesh`` and its valid ``cell_data``,
    formatted one value at a time: each float by ``repr(float(x))``, each
    index by ``str(int(i))``."""
    n_per = mesh.dim + 1
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
        *(_row(v) for v in mesh.vertices),
        f"CELLS {mesh.n_cells} {mesh.n_cells * (n_per + 1)}",
        *(
            " ".join([str(n_per)] + [str(int(i)) for i in c])
            for c in mesh.cells
        ),
        f"CELL_TYPES {mesh.n_cells}",
        *[str({1: 3, 2: 5, 3: 10}[mesh.dim])] * mesh.n_cells,
    ]
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_cells}")
    for name, values in cell_data.items():
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines.extend(f"{float(v)!r}" for v in arr)
        else:
            lines.append(f"VECTORS {name} double")
            lines.extend(_row(v) for v in arr)
    return "\n".join(lines) + "\n"


def mesh_text_by_value(geometry) -> str:
    """The text of the mesh file of ``geometry``, formatted one value at a
    time as ``vtk_text_by_value`` formats it."""
    lines = []
    for name in ("matrix", "fault"):
        mesh = getattr(geometry, name)
        lines.append(f"[domain {name} dim={mesh.dim}]")
        lines.extend(f"v {_row(v)}" for v in mesh.vertices)
        lines.extend(
            "c " + " ".join(str(int(i)) for i in c) for c in mesh.cells
        )
    for side in SIDES:
        lines.append(
            f"[interface matrix_damage_{side} from=matrix to=fault "
            f"side={side}]"
        )
        pairs = geometry.matrix_damage[side].pairs
        lines.extend(f"p {int(h)} {int(l)}" for h, l in pairs)
    return "\n".join(lines) + "\n"


class _Scanner:
    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next_line(self, what: str) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return line
        raise MeshFormatError(f"file ended while looking for {what}")

    def error(self, message: str):
        raise MeshFormatError(f"line {self.pos}: {message}")

    def floats(self, count: int, what: str):
        line = self.next_line(what)
        parts = line.split()
        if len(parts) != count:
            self.error(f"{what}: expected {count} numbers, got {len(parts)}")
        try:
            return [float(p) for p in parts]
        except ValueError:
            self.error(f"{what}: not numeric: {line!r}")


def check_vtk_file(path) -> dict:
    """Structural validation of a legacy VTK file written here.  Returns a
    summary: point and cell counts, the cell type, and the data fields."""
    s = _Scanner(path)
    if not s.next_line("header").startswith("# vtk DataFile"):
        s.error("missing VTK header")
    s.next_line("title")
    if s.next_line("format") != "ASCII":
        s.error("only ASCII files are produced here")
    if s.next_line("dataset") != "DATASET UNSTRUCTURED_GRID":
        s.error("expected DATASET UNSTRUCTURED_GRID")

    parts = s.next_line("POINTS").split()
    if len(parts) != 3 or parts[0] != "POINTS":
        s.error("malformed POINTS line")
    n_points = int(parts[1])
    for _ in range(n_points):
        s.floats(3, "point")

    parts = s.next_line("CELLS").split()
    if len(parts) != 3 or parts[0] != "CELLS":
        s.error("malformed CELLS line")
    n_cells, n_ints = int(parts[1]), int(parts[2])
    total = 0
    n_per = None
    for _ in range(n_cells):
        row = s.next_line("cell").split()
        try:
            ints = [int(p) for p in row]
        except ValueError:
            s.error(f"cell row is not integers: {row!r}")
        if ints[0] != len(ints) - 1:
            s.error("cell row length does not match its count")
        if n_per is None:
            n_per = ints[0]
        elif ints[0] != n_per:
            s.error("mixed cell sizes")
        if any(i < 0 or i >= n_points for i in ints[1:]):
            s.error("cell references a vertex out of range")
        total += len(ints)
    if total != n_ints:
        raise MeshFormatError(
            f"CELLS advertised {n_ints} integers but holds {total}"
        )

    parts = s.next_line("CELL_TYPES").split()
    if len(parts) != 2 or parts[0] != "CELL_TYPES":
        s.error("malformed CELL_TYPES line")
    if int(parts[1]) != n_cells:
        s.error("CELL_TYPES count differs from CELLS")
    expected_type = {2: 3, 3: 5, 4: 10}.get(n_per)
    cell_type = None
    for _ in range(n_cells):
        t = int(s.next_line("cell type"))
        if t != expected_type:
            s.error(
                f"cell type {t} does not match {n_per}-vertex cells"
            )
        cell_type = t

    fields = {}
    if s.pos < len(s.lines) and any(
        line.strip() for line in s.lines[s.pos :]
    ):
        parts = s.next_line("CELL_DATA").split()
        if len(parts) != 2 or parts[0] != "CELL_DATA":
            s.error("expected CELL_DATA")
        if int(parts[1]) != n_cells:
            s.error("CELL_DATA count differs from CELLS")
        while s.pos < len(s.lines):
            remaining = [
                line for line in s.lines[s.pos :] if line.strip()
            ]
            if not remaining:
                break
            header = s.next_line("field header").split()
            if header[0] == "SCALARS":
                if len(header) != 4 or header[3] != "1":
                    s.error("malformed SCALARS header")
                if s.next_line("lookup") != "LOOKUP_TABLE default":
                    s.error("missing LOOKUP_TABLE")
                for _ in range(n_cells):
                    s.floats(1, f"scalar {header[1]}")
                fields[header[1]] = "scalars"
            elif header[0] == "VECTORS":
                if len(header) != 3:
                    s.error("malformed VECTORS header")
                for _ in range(n_cells):
                    s.floats(3, f"vector {header[1]}")
                fields[header[1]] = "vectors"
            else:
                s.error(f"unknown field section {header[0]!r}")

    return {
        "n_points": n_points,
        "n_cells": n_cells,
        "cell_type": cell_type,
        "fields": fields,
    }
