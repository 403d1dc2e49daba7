"""Simplicial meshes, interface maps, and the structured geometries.

All meshes store vertex coordinates in 3D (unused components zero) so that
segment, triangle, and tetrahedral meshes share one container.  Faces are the
codimension-one facets of the cells, derived at construction with a
deterministic ordering (lexicographic in the sorted vertex tuple); the facet
opposite local vertex ``i`` of a cell is local face ``i``.  Each face carries
one global unit normal: the outward normal of the lowest-indexed cell on the
face, which owns it.  The orientation sign of a cell on a face is +1 when the
global normal points out of that cell, so the owner's sign is always +1.  A
boundary face has only its owner, hence a boundary face's flux dof is its
outward net flux.  The coupled geometry holds two meshes: the matrix and one
surface mesh of the fault plane, which the fault core and both damage layers
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "TopologyError",
    "SimplicialMesh",
    "InterfaceMap",
    "MixedDimGeometry",
    "build_two_block_geometry",
    "build_layered_equidim_mesh",
    "import_mesh",
    "export_mesh",
]

GEOM_TOL = 1e-12
SIDES = ("left", "right")


class MeshError(Exception):
    """Invalid mesh geometry or topology."""


class MeshFormatError(MeshError):
    """Malformed mesh file.  Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TopologyError(MeshError):
    """Connectivity or interface pairing violates the geometry contract."""


def _pad3(vertices: np.ndarray) -> np.ndarray:
    """Return an (n, 3) float copy of vertex coordinates, zero-padding."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2:
        raise MeshError("vertex array must be two-dimensional")
    if vertices.shape[1] > 3:
        raise MeshError("vertex coordinates have more than three components")
    out = np.zeros((vertices.shape[0], 3))
    out[:, : vertices.shape[1]] = vertices
    return out


class SimplicialMesh:
    """Conforming simplicial mesh of one fixed dimension.

    Parameters
    ----------
    dim:
        Topological dimension of the cells (1 segments, 2 triangles,
        3 tetrahedra). Independent of the ambient coordinates: a segment
        mesh may live on a line embedded in the plane or in space.
    vertices:
        (n_vertices, 2 or 3) coordinates.
    cells:
        (n_cells, dim + 1) vertex indices.
    boundary_tags:
        Optional map face index -> string label. May be extended before the
        mesh is published to other threads; treated as frozen afterwards.
    cell_regions:
        Optional (n_cells,) array of region labels (used by the layered
        equi-dimensional mesh).

    Derived arrays (faces, measures, normals, orientation signs) are computed
    once here and marked read-only; meshes are immutable after construction.
    """

    def __init__(
        self,
        dim: int,
        vertices: np.ndarray,
        cells: np.ndarray,
        boundary_tags: dict[int, str] | None = None,
        cell_regions: np.ndarray | None = None,
    ):
        if dim not in (1, 2, 3):
            raise MeshError(f"unsupported mesh dimension {dim}")
        self.dim = dim
        self.vertices = _pad3(vertices)
        self.cells = np.asarray(cells, dtype=np.int64)
        if self.cells.ndim != 2 or self.cells.shape[1] != dim + 1:
            raise MeshError(
                f"cell array must be (n, {dim + 1}) for dimension {dim}"
            )
        if self.cells.size and (
            self.cells.min() < 0 or self.cells.max() >= len(self.vertices)
        ):
            raise MeshError("cell refers to a vertex that does not exist")
        self.boundary_tags: dict[int, str] = dict(boundary_tags or {})
        self.cell_regions = (
            None if cell_regions is None else np.asarray(cell_regions)
        )
        if self.cell_regions is not None and len(self.cell_regions) != len(
            self.cells
        ):
            raise MeshError("cell_regions length does not match cell count")
        self._derive_entities()
        for arr in (
            self.vertices,
            self.cells,
            self.faces,
            self.cell_faces,
            self.cell_face_signs,
            self.face_cells,
            self.cell_measures,
            self.face_measures,
            self.face_normals,
        ):
            arr.flags.writeable = False

    # ------------------------------------------------------------------ #

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def _derive_entities(self) -> None:
        d = self.dim
        nc = self.n_cells
        # local facet i keeps every cell vertex except local vertex i
        keep = np.array(
            [[j for j in range(d + 1) if j != i] for i in range(d + 1)],
            dtype=np.int64,
        )
        facets = self.cells[:, keep]  # (nc, d+1, d)
        flat = np.sort(facets.reshape(-1, d), axis=1)
        self.faces, inverse = np.unique(flat, axis=0, return_inverse=True)
        self.cell_faces = inverse.reshape(nc, d + 1).astype(np.int64)

        V = self.vertices
        cv = V[self.cells]  # (nc, d+1, 3)
        if d == 1:
            e = cv[:, 1] - cv[:, 0]
            self.cell_measures = np.linalg.norm(e, axis=1)
        elif d == 2:
            cr = np.cross(cv[:, 1] - cv[:, 0], cv[:, 2] - cv[:, 0])
            self.cell_measures = 0.5 * np.linalg.norm(cr, axis=1)
        else:
            mat = np.stack(
                [cv[:, 1] - cv[:, 0], cv[:, 2] - cv[:, 0], cv[:, 3] - cv[:, 0]],
                axis=1,
            )
            self.cell_measures = np.abs(np.linalg.det(mat)) / 6.0
        # NaN-safe: a NaN measure fails the test too
        degenerate = ~(self.cell_measures > 0)
        if degenerate.any():
            raise MeshError(
                f"cell {int(np.argmax(degenerate))} has non-positive measure"
            )

        fv = V[self.faces]  # (nf, d, 3)
        if d == 1:
            self.face_measures = np.ones(len(self.faces))
        elif d == 2:
            self.face_measures = np.linalg.norm(fv[:, 1] - fv[:, 0], axis=1)
        else:
            cr = np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0])
            self.face_measures = 0.5 * np.linalg.norm(cr, axis=1)

        # outward normal of each local facet, per cell
        opp = cv  # (nc, d+1, 3): local vertex i is opposite local facet i
        fcoords = V[facets]  # (nc, d+1, d, 3)
        if d == 1:
            out = fcoords[:, :, 0, :] - opp
        elif d == 2:
            a = fcoords[:, :, 0, :]
            b = fcoords[:, :, 1, :]
            e = b - a
            elen2 = np.einsum("cfx,cfx->cf", e, e)
            w = 0.5 * (a + b) - opp
            out = w - (np.einsum("cfx,cfx->cf", w, e) / elen2)[..., None] * e
        else:
            a = fcoords[:, :, 0, :]
            e1 = fcoords[:, :, 1, :] - a
            e2 = fcoords[:, :, 2, :] - a
            out = np.cross(e1, e2)
            fc = fcoords.mean(axis=2)
            flip = np.einsum("cfx,cfx->cf", out, fc - opp) < 0
            out[flip] *= -1.0
        norms = np.linalg.norm(out, axis=2)
        if np.any(norms <= 0):
            raise MeshError("degenerate cell: zero-measure facet normal")
        out = out / norms[..., None]

        # The lowest-indexed cell on a face owns it and defines the global
        # normal as its outward normal; the paired cell gets sign -1.
        self.face_cells = np.full((len(self.faces), 2), -1, dtype=np.int64)
        owner_local = np.full(len(self.faces), -1, dtype=np.int64)
        cell_ids = np.repeat(np.arange(nc, dtype=np.int64), d + 1)
        local_ids = np.tile(np.arange(d + 1, dtype=np.int64), nc)
        face_ids = self.cell_faces.ravel()
        order = np.lexsort((cell_ids, face_ids))
        fo, co, lo = face_ids[order], cell_ids[order], local_ids[order]
        first = np.ones(len(fo), dtype=bool)
        first[1:] = fo[1:] != fo[:-1]
        second = np.zeros(len(fo), dtype=bool)
        second[1:] = ~first[1:]
        # a face shared by more than two cells is non-manifold
        if np.any(second[1:] & second[:-1] & (fo[1:] == fo[:-1])):
            bad = fo[1:][second[1:] & second[:-1] & (fo[1:] == fo[:-1])][0]
            raise TopologyError(f"face {bad} is shared by more than two cells")
        self.face_cells[fo[first], 0] = co[first]
        owner_local[fo[first]] = lo[first]
        self.face_cells[fo[second], 1] = co[second]
        self.face_normals = out[
            self.face_cells[:, 0], owner_local
        ].copy()  # (nf, 3)

        global_at = self.face_normals[self.cell_faces]  # (nc, d+1, 3)
        dots = np.einsum("cfx,cfx->cf", out, global_at)
        signs = np.where(dots > 0, 1, -1).astype(np.int64)
        if np.any(np.abs(np.abs(dots) - 1.0) > 1e-9):
            raise MeshError(
                "non-conforming mesh: facet normals of neighbouring cells "
                "are not anti-parallel"
            )
        self.cell_face_signs = signs

    # ------------------------------------------------------------------ #

    def cell_centroids(self) -> np.ndarray:
        return self.vertices[self.cells].mean(axis=1)

    def face_centroids(self) -> np.ndarray:
        return self.vertices[self.faces].mean(axis=1)

    def boundary_faces(self) -> np.ndarray:
        """Indices of faces adjacent to exactly one cell."""
        return np.flatnonzero(self.face_cells[:, 1] < 0)

    def faces_with_tag(self, tag: str) -> np.ndarray:
        return np.array(
            sorted(f for f, t in self.boundary_tags.items() if t == tag),
            dtype=np.int64,
        )

    def validate(self) -> None:
        """Check the mesh invariants; raise MeshError on the first failure.
        Construction already refused cells of non-positive measure."""
        nrm = np.linalg.norm(self.face_normals, axis=1)
        if np.any(np.abs(nrm - 1.0) > 1e-12):
            raise MeshError("face normals are not unit vectors")
        # every cell is a closed polytope: signed facet areas sum to zero
        contrib = (
            self.cell_face_signs[..., None]
            * self.face_measures[self.cell_faces][..., None]
            * self.face_normals[self.cell_faces]
        )
        resid = np.abs(contrib.sum(axis=1)).max() if self.n_cells else 0.0
        scale = max(1.0, float(self.face_measures.max(initial=1.0)))
        if resid > 1e-10 * scale:
            raise MeshError(
                f"closed-polytope identity violated (residual {resid:.3e})"
            )
        for f in self.boundary_tags:
            if f < 0 or f >= self.n_faces:
                raise MeshError(f"boundary tag on unknown face {f}")


# ---------------------------------------------------------------------- #
#  interface maps and the coupled geometry
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class InterfaceMap:
    """Pairing between boundary faces of the matrix mesh and cells of the
    fault surface mesh, on one side of the fault.

    A boundary face's global normal points out of the matrix, towards the
    damage layer, so the coupling needs no per-pair sign.
    """

    pairs: np.ndarray  # (n, 2) int: (matrix face, surface cell)
    side: str  # "left" | "right"

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "pairs", pairs)
        if self.side not in SIDES:
            raise TopologyError(f"unknown interface side {self.side!r}")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class MixedDimGeometry:
    """The coupled mixed-dimensional geometry.

    One matrix mesh (two blocks, not connected through the fault plane), one
    surface mesh of the fault plane, and the matrix/damage interface maps of
    both sides.  The fault core and the two damage layers are reduced to
    that one surface (Martin, Jaffre & Roberts 2005, applied to three
    layers): each layer carries its own unknowns on the same cells, so cell
    i of either damage layer lies against cell i of the fault.
    """

    matrix: SimplicialMesh
    fault: SimplicialMesh
    matrix_damage: dict[str, InterfaceMap]

    @property
    def damage(self) -> dict[str, SimplicialMesh]:
        """The surface mesh of each damage layer: the fault mesh."""
        return {s: self.fault for s in SIDES}

    @property
    def domains(self) -> dict[str, SimplicialMesh]:
        """The meshes by domain name, in mesh-file order."""
        return {
            "matrix": self.matrix,
            "damage_left": self.fault,
            "damage_right": self.fault,
            "fault": self.fault,
        }

    def external_faces(self, name: str) -> np.ndarray:
        """Sorted boundary faces of domain ``name`` that take boundary data:
        all of them, except the matrix faces paired with a damage layer on
        the fault plane."""
        faces = self.domains[name].boundary_faces()
        if name == "matrix":
            plane = [self.matrix_damage[s].pairs[:, 0] for s in SIDES]
            faces = faces[~np.isin(faces, np.concatenate(plane))]
        return faces

    def validate(self) -> None:
        """Check all coupling invariants; raise TopologyError on failure."""
        self.matrix.validate()
        self.fault.validate()
        if self.fault.dim != self.matrix.dim - 1:
            raise TopologyError("fault must be one dimension below the matrix")
        for side in SIDES:
            self._check_matrix_damage(side)
        self._check_internal_tags()

    def _check_matrix_damage(self, side: str) -> None:
        imap = self.matrix_damage[side]
        surface = self.fault
        faces = imap.pairs[:, 0]
        cells = imap.pairs[:, 1]
        if len(imap) != surface.n_cells:
            raise TopologyError(
                f"matrix/damage map {side} has {len(imap)} pairs for "
                f"{surface.n_cells} surface cells"
            )
        for name, idx, limit in (
            ("matrix face", faces, self.matrix.n_faces),
            ("surface cell", cells, surface.n_cells),
        ):
            if len(idx) and (idx.min() < 0 or idx.max() >= limit):
                raise TopologyError(
                    f"matrix/damage map {side}: {name} index out of range"
                )
            if len(np.unique(idx)) != len(idx):
                dup = int(np.argmax(np.bincount(idx)))
                raise TopologyError(
                    f"matrix/damage map {side}: duplicate {name} {dup}"
                )
        if np.any(self.matrix.face_cells[faces, 1] >= 0):
            bad = int(faces[self.matrix.face_cells[faces, 1] >= 0][0])
            raise TopologyError(
                f"matrix face {bad} in map {side} is interior, not boundary"
            )
        dm = np.abs(
            self.matrix.face_measures[faces] - surface.cell_measures[cells]
        )
        if dm.size and dm.max() > GEOM_TOL * max(
            1.0, surface.cell_measures.max()
        ):
            bad = int(faces[np.argmax(dm)])
            raise TopologyError(
                f"matrix face {bad} and its surface cell on side {side} have "
                "different measures"
            )
        dc = np.linalg.norm(
            self.matrix.face_centroids()[faces]
            - surface.cell_centroids()[cells],
            axis=1,
        )
        if dc.size and dc.max() > 1e-9:
            bad = int(faces[np.argmax(dc)])
            raise TopologyError(
                f"matrix face {bad} and surface cell "
                f"{int(cells[np.argmax(dc)])} on side {side} are not "
                "geometrically coincident"
            )

    def _check_internal_tags(self) -> None:
        internal = set()
        for side in SIDES:
            internal.update(self.matrix_damage[side].pairs[:, 0].tolist())
        internal_tags = set()
        for f in internal:
            tag = self.matrix.boundary_tags.get(int(f))
            if tag is None:
                raise TopologyError(
                    f"matrix face {int(f)} on the fault plane carries no "
                    "internal-boundary tag"
                )
            internal_tags.add(tag)
        for f, tag in self.matrix.boundary_tags.items():
            if tag in internal_tags and f not in internal:
                raise TopologyError(
                    f"external matrix face {f} reuses internal-boundary tag "
                    f"{tag!r}"
                )


# ---------------------------------------------------------------------- #
#  structured generators
# ---------------------------------------------------------------------- #


def _square_grid(xs, ys):
    """Triangulated tensor grid on the breaks ``xs`` x ``ys`` (z = 0).

    Vertex (i, j) has index ``i * len(ys) + j``.  Quads are visited with i
    outer, j inner, and each splits along its lower-left to upper-right
    diagonal into two triangles."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), np.zeros(X.size)])
    ids = np.arange(X.size, dtype=np.int64).reshape(X.shape)
    v00, v10 = ids[:-1, :-1].ravel(), ids[1:, :-1].ravel()
    v11, v01 = ids[1:, 1:].ravel(), ids[:-1, 1:].ravel()
    cells = np.stack(
        [np.column_stack([v00, v10, v11]), np.column_stack([v00, v11, v01])],
        axis=1,
    )
    return verts, cells.reshape(-1, 3)


def _tag_box(mesh: SimplicialMesh, faces: np.ndarray) -> None:
    """Tag ``faces`` on the boundary of the box (0, 2) x (0, 1) as left,
    right, bottom or top."""
    fc = mesh.face_centroids()[faces]
    tags = np.select(
        [
            np.abs(fc[:, 0]) < GEOM_TOL,
            np.abs(fc[:, 0] - 2.0) < GEOM_TOL,
            np.abs(fc[:, 1]) < GEOM_TOL,
        ],
        ["left", "right", "bottom"],
        "top",
    )
    mesh.boundary_tags.update(zip(faces.tolist(), tags.tolist()))


def _segment_mesh(n: int) -> SimplicialMesh:
    ys = np.linspace(0.0, 1.0, n + 1)
    verts = np.column_stack([np.ones(n + 1), ys, np.zeros(n + 1)])
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    mesh = SimplicialMesh(1, verts, cells)
    fc = mesh.face_centroids()
    for f in mesh.boundary_faces():
        mesh.boundary_tags[int(f)] = "y0" if fc[f, 1] < 0.5 else "y1"
    return mesh


def build_two_block_geometry(n_x: int, n_y: int) -> MixedDimGeometry:
    """Two unit squares separated by a vertical fault at x = 1.

    Each square is an ``n_x`` by ``n_y`` structured triangulation (two
    triangles per quad).  The squares do not share vertices: the column of
    vertices at x = 1 is duplicated, so no face on the fault plane is
    interior to the matrix mesh.  The fault surface is a segment mesh with
    ``n_y`` cells, paired one-to-one with the matrix faces of each side.
    """
    if n_x < 1 or n_y < 1:
        raise MeshError("grid must have at least one cell per direction")
    ys = np.linspace(0.0, 1.0, n_y + 1)
    lv, lc = _square_grid(np.linspace(0.0, 1.0, n_x + 1), ys)
    rv, rc = _square_grid(np.linspace(1.0, 2.0, n_x + 1), ys)
    n_left = len(lv)
    verts = np.vstack([lv, rv])
    cells = np.vstack([lc, rc + n_left])
    matrix = SimplicialMesh(2, verts, cells)

    fc = matrix.face_centroids()
    boundary = matrix.boundary_faces()
    on_plane = np.abs(fc[boundary, 0] - 1.0) < GEOM_TOL
    _tag_box(matrix, boundary[~on_plane])
    # the duplicated planes differ by vertex block; sorted by y, their
    # faces pair with the surface cells, which are ordered by y
    plane = boundary[on_plane]
    in_left = matrix.faces[plane, 0] < n_left
    matrix_damage = {}
    for side, faces in zip(SIDES, (plane[in_left], plane[~in_left])):
        matrix.boundary_tags.update(
            dict.fromkeys(faces.tolist(), f"plane_{side}")
        )
        faces = faces[np.argsort(fc[faces, 1])]
        pairs = np.column_stack([faces, np.arange(n_y)])
        matrix_damage[side] = InterfaceMap(pairs, side)

    geom = MixedDimGeometry(matrix, _segment_mesh(n_y), matrix_damage)
    geom.validate()
    return geom


def _graded_breaks(length: float, h_near: float, h_far: float,
                   grow: float = 1.5) -> np.ndarray:
    """Interval sizes filling ``length``, starting at ``h_near`` and growing
    geometrically up to ``h_far``; rescaled so they sum exactly to length."""
    if length <= 0:
        return np.zeros(0)
    if h_far <= h_near * (1 + 1e-12):
        n = max(1, math.ceil(length / h_near))
        return np.full(n, length / n)
    sizes = []
    h = h_near
    acc = 0.0
    while acc < length:
        h = min(h, h_far)
        sizes.append(h)
        acc += h
        h *= grow
    sizes = np.array(sizes)
    return sizes * (length / sizes.sum())


def build_layered_equidim_mesh(
    eps_mu: float,
    eps_gamma: float,
    eta: float,
    eta_coarse: float | None = None,
) -> SimplicialMesh:
    """Triangulation of (0, 2) x (0, 1) with the fault structure resolved.

    Three vertical strips around x = 1 (damage, fault, damage, of widths
    ``eps_mu``, ``eps_gamma``, ``eps_mu``) are meshed conformingly with cell
    size ``eta`` across, the surrounding matrix graded up to ``eta_coarse``
    (default: ungraded, ``eta`` everywhere).  Every cell carries exactly one
    region label out of {matrix, damage_left, fault, damage_right}.
    """
    if eps_mu <= 0 or eps_gamma <= 0:
        raise MeshError("strip thicknesses must be positive")
    if eta > eps_gamma:
        raise MeshError(
            f"mesh size {eta} exceeds the fault thickness {eps_gamma}; the "
            "fault strip must be resolved by at least one cell"
        )
    if 2 * eps_mu + eps_gamma >= 1.0:
        raise MeshError("fault structure wider than the blocks around it")
    eta_coarse = eta if eta_coarse is None else max(eta, eta_coarse)

    a = 1.0 - eps_gamma / 2.0 - eps_mu
    b = 1.0 - eps_gamma / 2.0
    c = 1.0 + eps_gamma / 2.0
    d = 1.0 + eps_gamma / 2.0 + eps_mu

    def strip_breaks(x0, x1):
        n = max(1, math.ceil((x1 - x0) / eta - 1e-9))
        return np.linspace(x0, x1, n + 1)

    left_sizes = _graded_breaks(a, eta, eta_coarse)[::-1]
    xs = [np.concatenate([[0.0], np.cumsum(left_sizes)])]
    xs.append(strip_breaks(a, b)[1:])
    xs.append(strip_breaks(b, c)[1:])
    xs.append(strip_breaks(c, d)[1:])
    right_sizes = _graded_breaks(2.0 - d, eta, eta_coarse)
    xs.append(d + np.cumsum(right_sizes))
    xbreaks = np.concatenate(xs)
    xbreaks[0], xbreaks[-1] = 0.0, 2.0

    n_y = max(1, math.ceil(1.0 / eta_coarse))
    n_y = 4 * math.ceil(n_y / 4)  # keep the quarter lines y=0.25, 0.75 exact
    ys = np.linspace(0.0, 1.0, n_y + 1)

    verts, cells = _square_grid(xbreaks, ys)
    centroids_x = verts[cells, 0].mean(axis=1)
    regions = np.full(len(cells), "matrix", dtype=object)
    regions[(centroids_x > a) & (centroids_x < b)] = "damage_left"
    regions[(centroids_x > b) & (centroids_x < c)] = "fault"
    regions[(centroids_x > c) & (centroids_x < d)] = "damage_right"

    mesh = SimplicialMesh(2, verts, cells, cell_regions=regions)
    _tag_box(mesh, mesh.boundary_faces())
    return mesh


# ---------------------------------------------------------------------- #
#  text mesh format
# ---------------------------------------------------------------------- #

_INTERFACE_KEYS = {
    ("matrix", "damage_left"): ("matrix_damage", "left"),
    ("matrix", "damage_right"): ("matrix_damage", "right"),
    ("damage_left", "fault"): ("damage_fault", "left"),
    ("damage_right", "fault"): ("damage_fault", "right"),
}
# every domain ends some interface; in mesh-file order (that of
# MixedDimGeometry.domains)
_FILE_DOMAINS = tuple(
    dict.fromkeys(name for ends in _INTERFACE_KEYS for name in ends)
)


def export_mesh(geometry: MixedDimGeometry, path) -> None:
    """Write the geometry in the plain-text mesh format.

    Domain sections list vertices (``v x y z``) and cells (``c i0 i1 ...``);
    interface sections list ``p higher_entity lower_cell`` pairs, with face
    indices valid under the deterministic face derivation of SimplicialMesh.
    The format keeps one section per damage layer and one damage/fault map
    per side: each damage section repeats the fault mesh, and each
    damage/fault map pairs cell i with cell i.
    """
    n = geometry.fault.n_cells
    identity = np.column_stack([np.arange(n), np.arange(n)])
    lines = []
    for name, mesh in geometry.domains.items():
        lines.append(f"[domain {name} dim={mesh.dim}]")
        for v in mesh.vertices:
            lines.append(
                f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
            )
        for cell in mesh.cells:
            lines.append("c " + " ".join(str(int(i)) for i in cell))
    for (src, dst), (attr, side) in _INTERFACE_KEYS.items():
        pairs = (
            geometry.matrix_damage[side].pairs
            if attr == "matrix_damage"
            else identity
        )
        lines.append(f"[interface {attr}_{side} from={src} to={dst} side={side}]")
        for h, l in pairs:
            lines.append(f"p {int(h)} {int(l)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_mesh(path) -> MixedDimGeometry:
    """Read a geometry written in the plain-text mesh format and validate it.

    Only the matrix and fault sections become meshes.  Each damage section
    must repeat the fault section (same vertex count, same cell lines,
    coordinates within 1e-9), and each damage/fault map must pair cell i
    with cell i; a renumbered copy is refused.

    Raises MeshFormatError (with line numbers) on malformed input, non-finite
    coordinates included, and TopologyError (naming the entities or the
    side involved) when the interface pairing or mesh connectivity is
    inconsistent.
    """
    domains: dict[str, dict] = {}
    interfaces: list[dict] = []
    current: dict | None = None

    with open(path) as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                current = _parse_section_header(line, lineno)
                if current["kind"] == "domain":
                    name = current["name"]
                    if name in domains:
                        raise MeshFormatError(
                            f"duplicate domain {name!r}", lineno
                        )
                    domains[name] = current
                else:
                    interfaces.append(current)
                continue
            if current is None:
                raise MeshFormatError(
                    "data line before any section header", lineno
                )
            kind = line.split(None, 1)[0]
            if kind == "v" and current["kind"] == "domain":
                parts = line.split()
                if len(parts) != 4:
                    raise MeshFormatError(
                        "vertex line must be 'v x y z'", lineno
                    )
                try:
                    vertex = [float(p) for p in parts[1:]]
                except ValueError:
                    raise MeshFormatError(
                        "vertex coordinates are not numbers", lineno
                    ) from None
                if not all(map(math.isfinite, vertex)):
                    raise MeshFormatError(
                        "vertex coordinates must be finite", lineno
                    )
                current["verts"].append(vertex)
            elif kind == "c" and current["kind"] == "domain":
                parts = line.split()[1:]
                try:
                    cell = [int(p) for p in parts]
                except ValueError:
                    raise MeshFormatError(
                        "cell indices are not integers", lineno
                    ) from None
                if len(cell) != current["dim"] + 1:
                    raise MeshFormatError(
                        f"cell needs {current['dim'] + 1} vertices for a "
                        f"dim={current['dim']} domain, got {len(cell)}",
                        lineno,
                    )
                current["cells"].append(cell)
            elif kind == "p" and current["kind"] == "interface":
                parts = line.split()[1:]
                if len(parts) != 2:
                    raise MeshFormatError(
                        "pair line must be 'p higher lower'", lineno
                    )
                try:
                    current["pairs"].append((int(parts[0]), int(parts[1])))
                except ValueError:
                    raise MeshFormatError(
                        "pair indices are not integers", lineno
                    ) from None
            else:
                raise MeshFormatError(
                    f"unexpected line kind {kind!r} in "
                    f"{current['kind']} section",
                    lineno,
                )

    missing = [n for n in _FILE_DOMAINS if n not in domains]
    if missing:
        raise MeshFormatError(f"missing domain section {missing[0]!r}")

    meshes = {}
    for name in ("matrix", "fault"):
        sec = domains[name]
        if not sec["cells"]:
            raise MeshFormatError(f"domain {name!r} has no cells")
        try:
            meshes[name] = SimplicialMesh(
                sec["dim"],
                np.array(sec["verts"]),
                np.array(sec["cells"], dtype=np.int64),
            )
        except MeshError as exc:
            raise MeshFormatError(
                f"domain {name!r}: {exc}", sec["line"]
            ) from exc
    surface = domains["fault"]
    for side in SIDES:
        sec = domains[f"damage_{side}"]
        if len(sec["verts"]) != len(surface["verts"]):
            differs = "vertex count"
        elif sec["cells"] != surface["cells"]:
            differs = "cells"
        elif np.abs(np.subtract(sec["verts"], surface["verts"])).max() > 1e-9:
            differs = "vertex coordinates"
        else:
            continue
        raise TopologyError(
            f"damage layer {side} does not repeat the fault mesh: its "
            f"{differs} differ"
        )

    found: dict[tuple[str, str], np.ndarray] = {}
    for sec in interfaces:
        key = _INTERFACE_KEYS.get((sec["from"], sec["to"]))
        if key is None:
            raise MeshFormatError(
                f"interface from {sec['from']!r} to {sec['to']!r} does not "
                "connect known domains",
                sec["line"],
            )
        attr, side = key
        if side != sec["side"]:
            raise MeshFormatError(
                f"interface {sec['from']}->{sec['to']} must have "
                f"side={side}",
                sec["line"],
            )
        found[key] = np.array(sec["pairs"], dtype=np.int64).reshape(-1, 2)

    for key in _INTERFACE_KEYS.values():
        if key not in found:
            raise MeshFormatError(
                f"missing interface section for {key[0]} side {key[1]}"
            )

    matrix, fault = meshes["matrix"], meshes["fault"]
    n = fault.n_cells
    for side in SIDES:
        pairs = found[("damage_fault", side)]
        if pairs.shape != (n, 2) or np.any(pairs != np.arange(n)[:, None]):
            raise TopologyError(
                f"damage/fault map {side}: damage cell i must pair with "
                "fault cell i"
            )
        faces = found[("matrix_damage", side)][:, 0]
        if len(faces) and (faces.min() < 0 or faces.max() >= matrix.n_faces):
            raise TopologyError(
                f"matrix/damage map {side}: face index out of range"
            )
        matrix.boundary_tags.update(
            dict.fromkeys(faces.tolist(), f"plane_{side}")
        )
    for mesh in (matrix, fault):
        for f in mesh.boundary_faces():
            mesh.boundary_tags.setdefault(int(f), "boundary")
    geom = MixedDimGeometry(
        matrix=matrix,
        fault=fault,
        matrix_damage={
            s: InterfaceMap(found[("matrix_damage", s)], s) for s in SIDES
        },
    )
    geom.validate()
    return geom


def _parse_section_header(line: str, lineno: int) -> dict:
    if not line.endswith("]"):
        raise MeshFormatError("unterminated section header", lineno)
    body = line[1:-1].strip()
    parts = body.split()
    if not parts:
        raise MeshFormatError("empty section header", lineno)
    kind = parts[0]
    if kind == "domain":
        if len(parts) != 3 or not parts[2].startswith("dim="):
            raise MeshFormatError(
                "domain header must be '[domain <name> dim=<d>]'", lineno
            )
        name = parts[1]
        if name not in _FILE_DOMAINS:
            raise MeshFormatError(
                f"unknown domain {name!r} (expected one of "
                f"{', '.join(_FILE_DOMAINS)})",
                lineno,
            )
        try:
            dim = int(parts[2][4:])
        except ValueError:
            raise MeshFormatError("malformed dim= attribute", lineno) from None
        return {
            "kind": "domain",
            "name": name,
            "dim": dim,
            "verts": [],
            "cells": [],
            "line": lineno,
        }
    if kind == "interface":
        attrs = dict(
            p.split("=", 1) for p in parts[2:] if "=" in p
        )
        if len(parts) < 2 or set(attrs) != {"from", "to", "side"}:
            raise MeshFormatError(
                "interface header must be '[interface <name> from=<domain> "
                "to=<domain> side=<left|right>]'",
                lineno,
            )
        return {
            "kind": "interface",
            "name": parts[1],
            "from": attrs["from"],
            "to": attrs["to"],
            "side": attrs["side"],
            "pairs": [],
            "line": lineno,
        }
    raise MeshFormatError(f"unknown section kind {kind!r}", lineno)
