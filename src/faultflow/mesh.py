"""Simplicial meshes, interface maps, and the structured geometries.

All meshes store vertex coordinates in 3D (unused components zero) so that
segment, triangle, and tetrahedral meshes share one container.  Faces are the
codimension-one facets of the cells, derived at construction with a
deterministic ordering (lexicographic in the sorted vertex tuple, found
through one int64 key per tuple, so a mesh of dimension d takes fewer than
2^(63/d) vertices: 2^21 = 2,097,152 for tetrahedra); the facet opposite
local vertex ``i`` of a cell is local face ``i``.  Measures, normals and
the cell and face centroids are derived once, at construction.  Orientation
comes from ownership: the lowest-indexed cell on a face owns it, and the
orientation sign of a cell on a face is +1 where it owns the face and -1 on
the other cell.  ``face_normals`` holds one unit normal per face, its
owner's outward normal; no kernel reads it.  Construction refuses flat
cells, faces shared by more than two cells and bent or folded meshes, whose
two cells on a face do not lie on opposite sides of it, so the global normal
points out of the owner and into the other cell.  A boundary face has only
its owner, hence a boundary face's flux dof is its outward net flux.  The
coupled geometry holds two meshes: the matrix and one surface mesh of the
fault plane, which the fault core and both damage layers share.
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
    """Return an (n, 3) float copy of (n, k) vertex coordinates,
    zero-padding."""
    if vertices.shape[1] > 3:
        raise MeshError("vertex coordinates have more than three components")
    out = np.zeros((vertices.shape[0], 3))
    out[:, : vertices.shape[1]] = vertices
    return out


def _column_sum(points: np.ndarray) -> np.ndarray:
    """Sum over axis 1 of (n, k, 3) ``points``, added column by column from
    the first: the order ``points.sum(axis=1)`` adds in, so the result is
    the same to the bit, without the cost of a reduction over a short
    axis."""
    total = points[:, 0]
    for j in range(1, points.shape[1]):
        total = total + points[:, j]
    return total


def _norm(v: np.ndarray) -> np.ndarray:
    """Length of each row of the (n, 3) array ``v``.

    The plain sqrt(x*x + y*y + z*z) is kept on rows whose length lies
    inside (1e-130, 1e150).  The other rows (zero, tiny, huge, infinite or
    NaN) are first scaled by the power of two of their largest component,
    so that no square overflows: finite wherever the length itself is,
    infinite where a component is.  The scaling is exact, and inside that
    range no square overflows and a square that underflows is too small
    against the largest one to change the rounded sum, so both forms agree
    to the bit there.  Below about 1e-146 they need not: a square rounded
    to a subnormal can break a rounding tie the other way.
    """
    x, y, z = v.T
    length = np.sqrt(x * x + y * y + z * z)
    far = ~((length > 1e-130) & (length < 1e150))
    w = v[far]
    a = np.abs(w)
    _, exponent = np.frexp(np.maximum(np.maximum(a[:, 0], a[:, 1]), a[:, 2]))
    x, y, z = np.ldexp(w, -exponent[:, None]).T
    length[far] = np.ldexp(np.sqrt(x * x + y * y + z * z), exponent)
    return length


def _facet_geometry(facets: np.ndarray, apexes: np.ndarray):
    """Measure of each facet and its perpendicular from an opposite vertex.

    ``facets`` (n, k, 3) holds the k vertices of each facet and ``apexes``
    (n, 3) one vertex off it.  The facet's tangents are orthonormalised by
    modified Gram-Schmidt; its measure is the product of their lengths over
    (k-1)!, so a point facet measures 1.  The perpendicular is the facet
    centroid minus the apex with its components along the tangents
    removed: it points away from the apex and its length is the apex's
    height over the facet.  A tangent or perpendicular left at round-off
    (``GEOM_TOL`` of the vector it came from) is zero, so a flat cell
    measures exactly 0, and a zero tangent is not divided by.
    """
    basis = []

    def off_span(v):
        r = v.copy()
        for q in basis:
            r -= np.einsum("nx,nx->n", r, q)[:, None] * q
        length = _norm(r)
        # an overflowed length stays infinite, to be refused as such
        flat = length <= GEOM_TOL * _norm(v)
        length[flat & np.isfinite(length)] = 0.0
        return np.where(length[:, None] > 0, r, 0.0), length

    measure = np.ones(len(facets))
    for k in range(1, facets.shape[1]):
        e, length = off_span(facets[:, k] - facets[:, 0])
        measure *= length
        basis.append(e / np.where(length > 0, length, np.inf)[:, None])
    perp, _ = off_span(_column_sum(facets) / facets.shape[1] - apexes)
    return measure / math.factorial(facets.shape[1] - 1), perp


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

    Derived arrays (faces, measures, normals, orientation signs, and the
    centroids ``cell_centroids()`` and ``face_centroids()`` return) are
    computed once here and marked read-only; meshes are immutable after
    construction.  Faces are numbered through one int64 key per sorted
    vertex tuple, so a mesh with n_vertices^dim >= 2^63 (in 3D, 2^21 =
    2,097,152 vertices or more) is refused with a MeshError before its
    vertices are copied.
    Orientation comes from ownership: ``cell_face_signs`` is +1 on the faces
    a cell owns (the lowest-indexed cell on a face) and -1 elsewhere.
    ``face_normals`` holds one unit normal per face, taken from its owner;
    no kernel reads it.  Construction raises MeshError on a flat cell and
    on a bent or folded mesh, and TopologyError on a face shared by more
    than two cells.
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
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2:
            raise MeshError("vertex array must be two-dimensional")
        # refused before any copy: faces are numbered by one int64 key
        if len(vertices) ** dim >= 2**63:
            raise MeshError(
                f"{len(vertices)} vertices are too many for a mesh of "
                f"dimension {dim}: its face keys need vertices^{dim} < 2^63"
            )
        self.vertices = _pad3(vertices)
        infinite = ~np.isfinite(self.vertices).all(axis=1)
        if infinite.any():
            raise MeshError(
                f"vertex {int(np.argmax(infinite))} has a non-finite "
                "coordinate"
            )
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
            self._cell_centroids,
            self._face_centroids,
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
        # local facet i keeps every cell vertex except local vertex i, so
        # slot s of ``flat`` is opposite vertex ``self.cells.ravel()[s]``
        keep = np.array(
            [[j for j in range(d + 1) if j != i] for i in range(d + 1)],
            dtype=np.int64,
        )
        flat = np.sort(self.cells[:, keep].reshape(-1, d), axis=1)
        # one key per sorted vertex tuple, v0 nv^(d-1) + ... + v(d-1): keys
        # sort as the tuples do, and __init__ keeps them below 2^63
        key = flat[:, 0]
        for j in range(1, d):
            key = key * self.n_vertices + flat[:, j]
        _, first, inverse, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        self.faces = flat[first]
        nf = len(self.faces)
        self.cell_faces = inverse.reshape(nc, d + 1).astype(np.int64)

        # The first slot of a face, on its lowest-indexed cell, owns it: the
        # owner's outward normal is the face normal and its sign is +1.
        slots = np.arange(len(flat), dtype=np.int64)
        owned = first[inverse] == slots
        second = slots[~owned]
        shared = inverse[second]

        V = self.vertices
        cv = V[self.cells]  # (nc, d+1, 3)
        apex = V[self.cells.ravel()]  # (nc * (d+1), 3), per slot
        fv = V[self.faces]  # (nf, d, 3)
        self._cell_centroids = _column_sum(cv) / (d + 1)
        self._face_centroids = _column_sum(fv) / d
        # finite coordinates can still overflow here; what does is refused
        with np.errstate(over="ignore", invalid="ignore"):
            base, perp = _facet_geometry(cv[:, 1:], cv[:, 0])
            self.cell_measures = base * _norm(perp) / d
            self.face_measures, out = _facet_geometry(fv, apex[first])
            _, other = _facet_geometry(fv[shared], apex[second])
            # the height of every slot's apex over its face, owners first
            heights = _norm(np.concatenate([out, other]))
        slot_cells = np.concatenate([first, second]) // (d + 1)
        overflow = ~np.isfinite(self.cell_measures)
        overflow[slot_cells[~np.isfinite(heights)]] = True
        overflow[first[~np.isfinite(self.face_measures)] // (d + 1)] = True
        if overflow.any():
            raise MeshError(
                f"cell {int(np.argmax(overflow))} is too large: computing "
                "its measures overflows floating point"
            )
        # NaN-safe: a NaN measure or height fails the test too
        degenerate = ~(self.cell_measures > 0)
        degenerate[slot_cells[~(heights > 0)]] = True
        if degenerate.any():
            raise MeshError(
                f"cell {int(np.argmax(degenerate))} has non-positive measure"
            )
        if np.any(counts > 2):
            bad = int(np.argmax(counts > 2))
            raise TopologyError(f"face {bad} is shared by more than two cells")

        self.face_cells = np.full((nf, 2), -1, dtype=np.int64)
        self.face_cells[:, 0] = first // (d + 1)
        self.face_cells[shared, 1] = second // (d + 1)
        self.cell_face_signs = np.where(owned, 1, -1).reshape(nc, d + 1)
        self.face_normals = out / heights[:nf, None]
        # the second cell must lie on the other side of the face: its
        # outward normal is the opposite of the owner's
        cos = np.einsum(
            "fx,fx->f", other, self.face_normals[shared]
        ) / heights[nf:]
        bent = ~(np.abs(cos + 1.0) <= 1e-9)
        if bent.any():
            raise MeshError(
                f"non-conforming mesh: the two cells on face "
                f"{int(shared[np.argmax(bent)])} do not lie on opposite "
                "sides of it (a bent or folded mesh)"
            )

    # ------------------------------------------------------------------ #

    def cell_centroids(self) -> np.ndarray:
        """(n_cells, 3) cell centroids, derived at construction."""
        return self._cell_centroids

    def face_centroids(self) -> np.ndarray:
        """(n_faces, 3) face centroids, derived at construction."""
        return self._face_centroids

    def boundary_faces(self) -> np.ndarray:
        """Indices of faces adjacent to exactly one cell."""
        return np.flatnonzero(self.face_cells[:, 1] < 0)

    def faces_with_tag(self, tag: str) -> np.ndarray:
        return np.array(
            sorted(f for f, t in self.boundary_tags.items() if t == tag),
            dtype=np.int64,
        )

    def validate(self) -> None:
        """Check that every boundary tag names a face; raise MeshError
        otherwise.  Construction already refused degenerate cells, faces
        shared by more than two cells and bent or folded meshes."""
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
        """The meshes by domain name, in the order of the unknowns."""
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
        shared = np.intersect1d(
            *(self.matrix_damage[s].pairs[:, 0] for s in SIDES)
        )
        if len(shared):
            raise TopologyError(
                f"matrix face {int(shared[0])} is paired with both damage "
                "layers"
            )

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

# in mesh-file order; one interface per side runs from the matrix to the
# fault surface
_FILE_DOMAINS = ("matrix", "fault")
_DOMAIN_HEADER = "[domain {} dim={}]"
_INTERFACE_HEADER = (
    "[interface matrix_damage_{0} from=matrix to=fault side={0}]"
)
# every section header a mesh file may hold, in file order, and the
# section it opens: (kind, domain name or side, dim)
_HEADERS = {
    **{
        _DOMAIN_HEADER.format(name, dim): ("domain", name, dim)
        for name in _FILE_DOMAINS
        for dim in (1, 2, 3)
    },
    **{_INTERFACE_HEADER.format(s): ("interface", s, None) for s in SIDES},
}
_HEADER_FORMS = " or ".join(
    (
        _DOMAIN_HEADER.format(f"<{'|'.join(_FILE_DOMAINS)}>", "<1|2|3>"),
        _INTERFACE_HEADER.format(f"<{'|'.join(SIDES)}>"),
    )
)
# the tokens of a data line: converter, test of the converted line, and
# what the test asks for
_NUMBERS = (float, lambda xs: all(map(math.isfinite, xs)), "finite numbers")
_INDICES = (
    int, lambda xs: 0 <= min(xs) and max(xs) < 2**63, "integers in [0, 2^63)"
)


def _data_lines(dim: int | None) -> dict:
    """One rule per data line of a section: letter -> (tokens, count, rows
    read).  ``dim`` is the domain's dimension, None in an interface."""
    if dim is None:
        return {"p": (_INDICES, 2, [])}
    return {"v": (_NUMBERS, 3, []), "c": (_INDICES, dim + 1, [])}


def _write_rows(fh, values: np.ndarray, lead: str = "") -> None:
    """Write the rows of an (n,) or (n, k) array to the text file ``fh``,
    one line each, its tokens separated by single spaces and preceded by
    ``lead`` when one is given.  No rows, no line.

    A float token is ``repr(float(x))``, the shortest text that reads back
    to the same double, and an integer token ``str(int(i))``.  Each
    distinct token is formatted once: floats are told apart by their bit
    patterns (the int64 view, under which -0.0 and 0.0 differ, as their
    texts do), indices are looked up in a table of ``str(i)``.  The lines
    are joined column by column, with no Python list per row.
    """
    if not len(values):
        return
    rows = values.reshape(len(values), -1)
    if rows.dtype.kind == "f":
        bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)
        keys, index = np.unique(bits.ravel(), return_inverse=True)
        words = map(repr, keys.view(np.float64).tolist())
    elif 0 <= rows.min() and rows.max() < rows.size:
        index, words = rows, map(str, range(int(rows.max()) + 1))
    else:
        # a table of every index up to the largest would outgrow the rows
        keys, index = np.unique(rows.ravel(), return_inverse=True)
        words = map(str, keys.tolist())
    table = np.array(list(words), dtype=object)
    columns = table[index.reshape(rows.shape)].T.tolist()
    if lead:
        columns.insert(0, [lead] * len(rows))
    fh.write("\n".join(map(" ".join, zip(*columns))))
    fh.write("\n")


def export_mesh(geometry: MixedDimGeometry, path) -> None:
    """Write the geometry in the plain-text mesh format.

    Domain sections list vertices (``v x y z``) and cells (``c i0 i1 ...``);
    interface sections list ``p higher_entity lower_cell`` pairs, with face
    indices valid under the deterministic face derivation of SimplicialMesh.
    The file holds the matrix and fault domains and one matrix/damage map
    per side, which pairs matrix faces with cells of the fault surface.
    Numbers are written as ``repr`` writes them, so each reads back to the
    same double, -0.0 included.
    """
    with open(path, "w") as fh:
        for name in _FILE_DOMAINS:
            mesh = getattr(geometry, name)
            fh.write(_DOMAIN_HEADER.format(name, mesh.dim) + "\n")
            _write_rows(fh, mesh.vertices, "v")
            _write_rows(fh, mesh.cells, "c")
        for side in SIDES:
            fh.write(_INTERFACE_HEADER.format(side) + "\n")
            _write_rows(fh, geometry.matrix_damage[side].pairs, "p")


def import_mesh(path) -> MixedDimGeometry:
    """Read a geometry written in the plain-text mesh format and validate it.

    The file holds exactly the sections ``export_mesh`` writes, each once:
    the matrix and fault domains and one matrix/damage interface per side.
    A domain section takes ``v`` lines of three finite numbers and ``c``
    lines of dim + 1 vertex indices, an interface section ``p`` lines of
    two indices, each an integer in [0, 2^63); a data line is ASCII and
    holds no ``_``, as ``export_mesh`` writes it.  The faces that take
    boundary data (``external_faces``) are tagged ``boundary``.

    Raises MeshFormatError (with line numbers) on unreadable or malformed
    input: any other header, line kind, count or token.  Raises
    TopologyError (naming the entities or the side involved) when the
    interface pairing or mesh connectivity is inconsistent.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read {path}: {exc}") from exc

    # (kind, name or side) -> (dim, rows read by letter, header line)
    sections: dict[tuple, tuple] = {}
    rules = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        data = line.split("#", 1)[0]
        words = data.split()
        if not words:
            continue
        if words[0][0] == "[":
            header = " ".join(words)
            if header not in _HEADERS:
                kind, _, rest = header.strip("[]").partition(" ")
                name, _, attrs = rest.partition(" ")
                raise MeshFormatError(
                    f"unknown {kind or 'section'} {name!r} {attrs}".rstrip()
                    + f": a section header is {_HEADER_FORMS}",
                    lineno,
                )
            kind, key, dim = _HEADERS[header]
            if (kind, key) in sections:
                raise MeshFormatError(f"duplicate {kind} {key!r}", lineno)
            rules = _data_lines(dim)
            rows = {letter: rule[2] for letter, rule in rules.items()}
            sections[kind, key] = (dim, rows, lineno)
            continue
        if rules is None:
            raise MeshFormatError(
                "data line before any section header", lineno
            )
        try:
            (convert, valid, _), count, read = rules[words[0]]
            # int and float also read underscores and non-ASCII digits,
            # which export_mesh never writes
            if not data.isascii() or "_" in data:
                raise ValueError(data)
            values = list(map(convert, words[1:]))
            ok = len(values) == count and valid(values)
        except (KeyError, ValueError):
            ok = False
        if not ok:
            raise MeshFormatError(
                f"{header} takes only "
                + " and ".join(
                    f"'{letter}' lines of {count} {tokens[2]}"
                    for letter, (tokens, count, _) in rules.items()
                ),
                lineno,
            )
        read.append(values)

    for kind, key, _ in _HEADERS.values():
        if (kind, key) not in sections:
            raise MeshFormatError(f"missing {kind} section {key!r}")

    meshes = {}
    for name in _FILE_DOMAINS:
        dim, rows, line = sections["domain", name]
        if not rows["c"]:
            raise MeshFormatError(f"domain {name!r} has no cells")
        try:
            meshes[name] = SimplicialMesh(
                dim, np.array(rows["v"]), np.array(rows["c"], dtype=np.int64)
            )
        except MeshError as exc:
            raise MeshFormatError(f"domain {name!r}: {exc}", line) from exc

    matrix_damage = {
        s: InterfaceMap(sections["interface", s][1]["p"], s) for s in SIDES
    }
    geom = MixedDimGeometry(meshes["matrix"], meshes["fault"], matrix_damage)
    geom.validate()
    for name, mesh in meshes.items():
        mesh.boundary_tags.update(
            dict.fromkeys(geom.external_faces(name).tolist(), "boundary")
        )
    return geom
