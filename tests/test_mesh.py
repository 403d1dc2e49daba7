"""Mesh, geometry, and mesh-format tests."""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from faultflow.mesh import (
    InterfaceMap,
    MeshError,
    MeshFormatError,
    SimplicialMesh,
    TopologyError,
    _norm,
    _square_grid,
    build_layered_equidim_mesh,
    build_two_block_geometry,
    export_mesh,
    import_mesh,
)
from faultflow.scenarios import build_geometry, bundled_config, load_config
from helpers import faces_by_row_unique, scaled_norm

ROOT = Path(__file__).resolve().parents[1]
BUNDLED_3D = ROOT / "src" / "faultflow" / "data" / "single_fault_3d.msh"


def test_two_block_counts_small():
    geom = build_two_block_geometry(4, 4)
    assert geom.matrix.n_cells == 64  # 2 squares x 4x4 quads x 2
    assert geom.fault.n_cells == 4
    assert geom.damage["left"].n_cells == 4
    assert geom.damage["right"].n_cells == 4
    geom = build_two_block_geometry(1, 1)
    assert geom.matrix.n_cells == 4
    assert geom.fault.n_cells == 1


def test_square_grid_matches_quad_loop():
    # the vectorised triangulation against the per-quad loop it replaced
    for nx, ny in ((1, 1), (3, 7)):
        xs = np.linspace(0.0, 1.0, nx + 1)
        ys = np.linspace(0.0, 2.0, ny + 1) ** 2
        verts, cells = _square_grid(xs, ys)
        assert verts.tolist() == [[x, y, 0.0] for x in xs for y in ys]
        expected = []
        for i in range(nx):
            for j in range(ny):
                v00, v10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
                v11, v01 = v10 + 1, v00 + 1
                expected += [(v00, v10, v11), (v00, v11, v01)]
        assert [tuple(c) for c in cells.tolist()] == expected


def test_two_block_production_scale_counts():
    geom = build_two_block_geometry(53, 40)
    # about 8.5k triangles with 40 fault segments and 80 damage segments
    assert geom.matrix.n_cells == 8480
    assert geom.fault.n_cells == 40
    total_damage = sum(m.n_cells for m in geom.damage.values())
    assert total_damage == 80


def test_fault_plane_faces_are_boundary():
    geom = build_two_block_geometry(3, 5)
    centroids = geom.matrix.face_centroids()
    on_plane = np.flatnonzero(np.abs(centroids[:, 0] - 1.0) < 1e-12)
    assert len(on_plane) == 2 * 5  # duplicated: one per side
    assert all(geom.matrix.face_cells[f, 1] < 0 for f in on_plane)


def test_interior_faces_have_two_cells_with_opposite_signs():
    mesh = build_two_block_geometry(3, 3).matrix
    interior = np.flatnonzero(mesh.face_cells[:, 1] >= 0)
    assert len(interior) > 0
    for f in interior:
        signs = []
        for c in mesh.face_cells[f]:
            local = np.flatnonzero(mesh.cell_faces[c] == f)[0]
            signs.append(mesh.cell_face_signs[c, local])
        assert sorted(signs) == [-1, 1]


def test_owner_sign_is_plus_one_on_every_face():
    # the global normal of a face is its owner's outward normal, so every
    # boundary face's flux dof is its outward flux and no coupling or
    # boundary term needs a per-face sign
    meshes = [
        *build_two_block_geometry(4, 3).domains.values(),
        build_layered_equidim_mesh(0.05, 0.02, 0.02, eta_coarse=0.02),
        *import_mesh(BUNDLED_3D).domains.values(),
    ]
    for mesh in meshes:
        owner = mesh.face_cells[:, 0]
        local = mesh.cell_faces[owner] == np.arange(mesh.n_faces)[:, None]
        assert np.all(local.sum(axis=1) == 1)
        assert np.all(mesh.cell_face_signs[owner][local] == 1)


def test_closed_polytope_and_unit_normals():
    geom = build_two_block_geometry(5, 3)
    eq = build_layered_equidim_mesh(0.05, 0.02, 0.02, eta_coarse=0.02)
    for mesh in (geom.matrix, geom.damage["left"], geom.fault, eq):
        mesh.validate()
        norms = np.linalg.norm(mesh.face_normals, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        contrib = (
            mesh.cell_face_signs[..., None]
            * mesh.face_measures[mesh.cell_faces][..., None]
            * mesh.face_normals[mesh.cell_faces]
        )
        assert np.abs(contrib.sum(axis=1)).max() < 1e-12


# ------------------------------------------------------------------ #
#  refusals of mesh construction
# ------------------------------------------------------------------ #


@pytest.mark.parametrize(
    "dim,vertices",
    [
        (1, [[0.5, 0.25], [0.5, 0.25]]),  # zero-length segment
        (2, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),  # collinear, plane
        (2, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]),  # in 3D
        (2, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),  # repeated
        (3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),  # flat tet
        (3, [[0, 0, 1], [1, 0, 0], [2, 0, 0], [3, 0, 0]]),  # flat facet 0
        (3, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.7], [0.3, -0.1, 0.2],
             [0.6, 0.2, 0.6]]),  # coplanar to round-off
    ],
)
def test_degenerate_cell_is_refused(dim, vertices):
    with pytest.raises(MeshError, match="cell 0 has non-positive measure"):
        SimplicialMesh(dim, np.array(vertices, float), [list(range(dim + 1))])


TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        ((4, TRIANGLE, [[0, 1, 2]]), {}, "unsupported mesh dimension 4"),
        ((2, [0.0, 1.0, 2.0], [[0, 1, 2]]), {}, "two-dimensional"),
        ((2, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], [[0, 1, 2]]), {},
         "more than three components"),
        ((2, TRIANGLE, [[0, 1]]), {}, r"must be \(n, 3\) for dimension 2"),
        ((2, TRIANGLE, [[0, 1, 3]]), {}, "vertex that does not exist"),
        ((2, TRIANGLE, [[0, 1, 2]]), {"cell_regions": ["matrix"] * 2},
         "cell_regions length"),
    ],
)
def test_mesh_arguments_are_refused(args, kwargs, message):
    with pytest.raises(MeshError, match=message):
        SimplicialMesh(*args, **kwargs)


def test_tag_on_an_unknown_face_is_refused():
    mesh = SimplicialMesh(2, TRIANGLE, [[0, 1, 2]], boundary_tags={3: "top"})
    with pytest.raises(MeshError, match="unknown face 3"):
        mesh.validate()


def test_huge_cells_build_or_are_refused_in_one_line():
    # a well-shaped right triangle: legs of 1e150 measure 5e299, legs of
    # 1e200 overflow (the suite turns numpy warnings into errors); a
    # segment's length is taken without squaring it
    def triangle(leg):
        return SimplicialMesh(
            2, np.array([[leg, 0.0], [0.0, leg], [0.0, 0.0]]), [[0, 1, 2]]
        )

    assert triangle(1e150).cell_measures[0] == pytest.approx(5e299)
    with pytest.raises(MeshError, match="cell 0 is too large"):
        triangle(1e200)
    segment = SimplicialMesh(1, [[0.0, 0.0], [1e160, 0.0]], [[0, 1]])
    assert segment.cell_measures[0] == 1e160
    with pytest.raises(MeshError, match="cell 0 is too large"):
        SimplicialMesh(1, [[1.7e308, 0.0], [-1.7e308, 0.0]], [[0, 1]])
    with pytest.raises(MeshError, match="vertex 1 has a non-finite"):
        SimplicialMesh(1, [[0.0, 0.0], [np.inf, 0.0]], [[0, 1]])


def _breaks(rng, n):
    return np.cumsum(rng.uniform(0.2, 1.0, n + 1))


def _kuhn_grid(xs, ys, zs):
    """Tensor grid on the breaks, each box split into the six tetrahedra
    along the paths from its lowest to its highest corner."""
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    ids = np.arange(X.size).reshape(X.shape)
    n = [len(xs) - 1, len(ys) - 1, len(zs) - 1]

    def corner(off):
        return ids[tuple(slice(o, o + k) for o, k in zip(off, n))].ravel()

    cells = []
    for path in itertools.permutations(range(3)):
        off = [0, 0, 0]
        tet = [corner(off)]
        for axis in path:
            off[axis] += 1
            tet.append(corner(off))
        cells.append(np.column_stack(tet))
    return verts, np.vstack(cells)


def _random_mesh(rng, dim):
    """A conforming mesh of random size with its vertices renumbered, a few
    unused vertices added, its cells reordered and each cell's vertices
    permuted."""
    if dim == 1:
        n = int(rng.integers(1, 30))
        verts = np.column_stack([_breaks(rng, n), np.zeros(n + 1)])
        cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    elif dim == 2:
        verts, cells = _square_grid(
            *(_breaks(rng, int(rng.integers(1, 9))) for _ in range(2))
        )
    else:
        verts, cells = _kuhn_grid(
            *(_breaks(rng, int(rng.integers(1, 4))) for _ in range(3))
        )
    unused = rng.uniform(size=(rng.integers(0, 5), verts.shape[1]))
    verts = np.vstack([verts, unused])
    order = rng.permutation(len(verts))
    renumbered = np.empty_like(verts)
    renumbered[order] = verts
    cells = order[cells][rng.permutation(len(cells))]
    cells = np.take_along_axis(
        cells, rng.permuted(np.broadcast_to(np.arange(dim + 1), cells.shape),
                            axis=1), axis=1
    )
    return SimplicialMesh(dim, renumbered, cells)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_face_keys_derive_what_row_unique_derives(dim):
    # faces numbered by one int64 key per sorted vertex tuple come out as
    # np.unique over the tuples (axis=0) numbered them
    rng = np.random.default_rng(dim)
    for _ in range(20):
        mesh = _random_mesh(rng, dim)
        expected = faces_by_row_unique(dim, mesh.cells)
        for name, want in zip(
            ("faces", "cell_faces", "cell_face_signs", "face_cells"), expected
        ):
            got = getattr(mesh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_face_keys_too_large_are_refused_before_copying(monkeypatch):
    # 2^21 vertices make a tetrahedral mesh's keys reach 2^63; np.zeros
    # touches no memory, and the copy _pad3 makes is never reached
    def no_copy(vertices):
        raise AssertionError("vertices copied")

    monkeypatch.setattr("faultflow.mesh._pad3", no_copy)
    with pytest.raises(MeshError) as refused:
        SimplicialMesh(3, np.zeros((2**21, 3)), [[0, 1, 2, 3]])
    message = str(refused.value)
    assert message.startswith("2097152 vertices are too many for a mesh of "
                              "dimension 3")
    assert "\n" not in message
    with pytest.raises(AssertionError, match="vertices copied"):
        SimplicialMesh(3, np.zeros((2**21 - 1, 3)), [[0, 1, 2, 3]])


_COMPONENT = st.tuples(
    st.one_of(
        st.floats(1e-320, 1e300),
        st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1063, 996)),
        st.sampled_from([0.0, math.inf, math.nan]),
    ),
    st.booleans(),
).map(lambda drawn: -drawn[0] if drawn[1] else drawn[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT), min_size=1,
                max_size=12))
# a square rounded to a subnormal breaks a rounding tie the other way:
# the plain form is 1 ulp below the scaled one on this row (length 3.5e-148)
@example([(3.2961520671446874e-156, 0.0, 3.547571423892657e-148)])
@example([(1e300, 1e300, 0.0), (1e-320, 0.0, -1e-320), (0.0, 0.0, 0.0)])
def test_guarded_norm_is_the_scaled_norm_to_the_bit(rows):
    v = np.array(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _norm(v), scaled_norm(v)
    # every length is bit-identical; a NaN's sign bit is not defined
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_centroids_are_stored_read_only():
    meshes = [build_layered_equidim_mesh(1e-2, 1e-2, eta=2.5e-3,
                                         eta_coarse=1 / 48)]
    for name in ("case_i", "case_ii", "case_iii", "fault3d"):
        geometry = build_geometry(load_config(bundled_config(name)))
        meshes += [geometry.matrix, geometry.fault]
    for mesh in meshes:
        for method, entities in (
            (mesh.cell_centroids, mesh.cells),
            (mesh.face_centroids, mesh.faces),
        ):
            got = method()
            assert got is method() and not got.flags.writeable
            expected = mesh.vertices[entities].mean(axis=1)
            assert got.tobytes() == expected.tobytes()


def test_face_on_three_cells_is_refused():
    vertices = [[0, 0], [1, 0], [0, 1], [0, -1], [1, 1]]
    cells = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    with pytest.raises(
        TopologyError, match="face 0 is shared by more than two cells"
    ):
        SimplicialMesh(2, vertices, cells)


@pytest.mark.parametrize(
    "dim,vertices,cells",
    [
        # two triangles on one edge, bent by 0.1 rad out of their plane
        (2, [[0, 0, 0], [1, 0, 0], [0.5, -1, 0],
             [0.5, np.cos(0.1), np.sin(0.1)]], [[0, 1, 2], [0, 1, 3]]),
        # a polyline kinked at its middle vertex
        (1, [[0, 0], [1, 0], [2, 0.1]], [[0, 1], [1, 2]]),
    ],
)
def test_bent_mesh_is_refused(dim, vertices, cells):
    with pytest.raises(MeshError, match="non-conforming"):
        SimplicialMesh(dim, vertices, cells)


@pytest.mark.parametrize(
    "dim,vertices,cells",
    [
        # the second triangle lies on the same side of the shared edge
        (2, [[0, 0], [1, 0], [0, 1], [0.5, 0.3]], [[0, 1, 2], [0, 1, 3]]),
        # the second tetrahedron lies on the same side of the shared face
        (3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0.2, 0.2, 0.5]],
         [[0, 1, 2, 3], [0, 1, 2, 4]]),
        # a polyline that turns back on itself
        (1, [[0, 0], [1, 0], [0.5, 0]], [[0, 1], [1, 2]]),
    ],
)
def test_folded_mesh_is_refused(dim, vertices, cells):
    # both cells of a fold would take sign +1 on their shared face
    with pytest.raises(MeshError, match="non-conforming"):
        SimplicialMesh(dim, vertices, cells)


@st.composite
def _placed_simplex(draw):
    """A random affine simplex of dimension 1, 2 or 3 under a random
    rotation and shift in 3D."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    local = np.zeros((dim + 1, 3))
    local[:, :dim] = np.array(
        draw(st.lists(coord, min_size=dim * (dim + 1),
                      max_size=dim * (dim + 1)))
    ).reshape(dim + 1, dim)
    q, r = np.linalg.qr(
        np.array(draw(st.lists(coord, min_size=9, max_size=9))).reshape(3, 3)
    )
    assume(np.abs(np.diag(r)).min() > 1e-3)
    shift = np.array(draw(st.lists(coord, min_size=3, max_size=3)))
    return dim, local @ q.T + 4.0 * shift


def _simplex_measure(points):
    """Closed-form measure of the simplex on ``points`` (k, 3)."""
    e = points[1:] - points[0]
    if len(e) == 0:
        return 1.0
    if len(e) == 1:
        return float(np.linalg.norm(e[0]))
    if len(e) == 2:
        return float(np.linalg.norm(np.cross(e[0], e[1]))) / 2.0
    return abs(float(np.linalg.det(e))) / 6.0


@settings(max_examples=300, deadline=None)
@given(_placed_simplex())
def test_facet_formula_on_random_simplices(placed):
    dim, vertices = placed
    measure = _simplex_measure(vertices)
    assume(measure > 1e-2)  # degenerate cells: see the refusal tests
    mesh = SimplicialMesh(dim, vertices, [list(range(dim + 1))])
    assert mesh.cell_measures[0] == pytest.approx(measure, rel=1e-12)
    assert np.all(mesh.cell_face_signs == 1)
    for f, face in enumerate(mesh.faces):
        points = vertices[face]
        apex = vertices[np.setdiff1d(np.arange(dim + 1), face)[0]]
        assert mesh.face_measures[f] == pytest.approx(
            _simplex_measure(points), rel=1e-12
        )
        normal = mesh.face_normals[f]
        assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
        for edge in points[1:] - points[0]:
            assert abs(normal @ edge) <= 1e-12 * np.linalg.norm(edge)
        assert normal @ (points.mean(axis=0) - apex) > 0


def test_interface_maps_are_coincident_bijections():
    geom = build_two_block_geometry(4, 6)
    for side in ("left", "right"):
        imap = geom.matrix_damage[side]
        dmesh = geom.damage[side]
        assert len(imap) == dmesh.n_cells
        fcent = geom.matrix.face_centroids()[imap.pairs[:, 0]]
        ccent = dmesh.cell_centroids()[imap.pairs[:, 1]]
        assert np.linalg.norm(fcent - ccent, axis=1).max() < 1e-12
        fmeas = geom.matrix.face_measures[imap.pairs[:, 0]]
        cmeas = dmesh.cell_measures[imap.pairs[:, 1]]
        assert np.abs(fmeas - cmeas).max() < 1e-12


def test_total_measures():
    geom = build_two_block_geometry(7, 5)
    assert geom.matrix.cell_measures.sum() == pytest.approx(2.0, abs=1e-12)
    assert geom.fault.cell_measures.sum() == pytest.approx(1.0, abs=1e-12)


def test_geometry_validation_catches_tampering():
    geom = build_two_block_geometry(2, 2)
    broken = InterfaceMap(geom.matrix_damage["left"].pairs[:-1], "left")
    geom.matrix_damage["left"] = broken
    with pytest.raises(TopologyError, match="1 pairs for 2 surface cells"):
        geom.validate()


def test_interface_map_side_must_be_left_or_right():
    with pytest.raises(TopologyError, match="unknown interface side 'up'"):
        InterfaceMap(np.zeros((1, 2)), "up")


def test_fault_of_the_wrong_dimension_is_refused():
    geom = build_two_block_geometry(2, 2)
    geom.fault = geom.matrix
    with pytest.raises(TopologyError, match="one dimension below"):
        geom.validate()


@pytest.mark.parametrize(
    "column,pick,message",
    [
        (0, lambda g: -1, "map right: matrix face index out of range"),
        (1, lambda g: 2, "map right: surface cell index out of range"),
        (1, lambda g: 0, "map right: duplicate surface cell 0"),
        (0, lambda g: np.flatnonzero(g.matrix.face_cells[:, 1] >= 0)[0],
         "in map right is interior"),
        (0, lambda g: g.matrix.faces_with_tag("top")[0],
         "on side right have different measures"),
        (0, lambda g: g.matrix.faces_with_tag("left")[0],
         "on side right are not"),
    ],
    ids=["face_range", "cell_range", "duplicate", "interior", "measure",
         "place"],
)
def test_map_pairs_that_break_the_contract_are_refused(column, pick,
                                                       message):
    geom = build_two_block_geometry(3, 2)
    pairs = geom.matrix_damage["right"].pairs.copy()
    pairs[1, column] = pick(geom)
    geom.matrix_damage["right"] = InterfaceMap(pairs, "right")
    with pytest.raises(TopologyError, match=message):
        geom.validate()


@pytest.mark.parametrize("n_x,n_y", [(0, 1), (1, 0)])
def test_two_block_grid_needs_a_cell_per_direction(n_x, n_y):
    with pytest.raises(MeshError, match="at least one cell per direction"):
        build_two_block_geometry(n_x, n_y)


# ------------------------------------------------------------------ #
#  layered equi-dimensional mesh
# ------------------------------------------------------------------ #


def test_layered_mesh_strip_resolution():
    mesh = build_layered_equidim_mesh(1e-2, 1e-2, 5e-3, eta_coarse=5e-3)
    regions = mesh.cell_regions
    assert set(regions) == {"matrix", "damage_left", "fault", "damage_right"}
    # fault strip of width 1e-2 at size 5e-3: at least two cell columns
    xs = mesh.cell_centroids()[regions == "fault", 0]
    assert len(np.unique(np.round(xs, 12))) >= 2 * 2  # two columns of tris
    assert mesh.cell_measures.sum() == pytest.approx(2.0, abs=1e-10)


def test_layered_mesh_region_containment():
    eps_mu, eps_gamma = 3e-2, 2e-2
    mesh = build_layered_equidim_mesh(eps_mu, eps_gamma, 1e-2, eta_coarse=0.1)
    a = 1 - eps_gamma / 2 - eps_mu
    b = 1 - eps_gamma / 2
    c = 1 + eps_gamma / 2
    d = 1 + eps_gamma / 2 + eps_mu
    bounds = {
        "matrix": lambda x: (x <= a + 1e-12) | (x >= d - 1e-12),
        "damage_left": lambda x: (x >= a - 1e-12) & (x <= b + 1e-12),
        "fault": lambda x: (x >= b - 1e-12) & (x <= c + 1e-12),
        "damage_right": lambda x: (x >= c - 1e-12) & (x <= d + 1e-12),
    }
    for region, inside in bounds.items():
        cells = np.flatnonzero(mesh.cell_regions == region)
        assert len(cells)
        xs = mesh.vertices[mesh.cells[cells], 0]
        if region == "matrix":
            per_cell = inside(xs).all(axis=1) | (xs <= a + 1e-12).all(
                axis=1
            ) | (xs >= d - 1e-12).all(axis=1)
            assert per_cell.all()
        else:
            assert inside(xs).all()


@pytest.mark.parametrize(
    "eps_mu,eps_gamma,eta,eta_coarse,message",
    [
        (1e-2, 1e-2, 2e-2, 2e-2, "exceeds the fault thickness"),
        (0.0, 1e-2, 1e-2, 1e-2, "thicknesses must be positive"),
        (1e-2, -1e-2, 1e-2, 1e-2, "thicknesses must be positive"),
        (math.nan, 1e-2, 1e-2, 0.1, "thicknesses must be positive"),
        (1e-2, math.nan, 1e-2, 0.1, "thicknesses must be positive"),
        (0.3, 0.4, 0.1, 0.1, "wider than the blocks"),
        # a zero or negative strip size would grade the matrix forever
        (1e-2, 1e-2, 0.0, 0.1, "must be finite and positive"),
        (1e-2, 1e-2, -1e-3, 0.1, "must be finite and positive"),
        (1e-2, 1e-2, math.nan, 0.1, "must be finite and positive"),
        (1e-2, 1e-2, 1e-2, 0.0, "must be finite and positive"),
        (1e-2, 1e-2, 1e-2, math.nan, "must be finite and positive"),
        (1e-2, 1e-2, 1e-2, math.inf, "must be finite and positive"),
    ],
)
def test_layered_mesh_rejects_bad_strips(
    eps_mu, eps_gamma, eta, eta_coarse, message
):
    with pytest.raises(MeshError, match=message):
        build_layered_equidim_mesh(eps_mu, eps_gamma, eta, eta_coarse)


def test_layered_mesh_tags_strip_ends_as_layer_ends():
    mesh = build_layered_equidim_mesh(0.2, 0.1, eta=0.05, eta_coarse=0.25)
    faces = mesh.boundary_faces()
    homes = mesh.cell_regions[mesh.face_cells[faces, 0]]
    ys = mesh.face_centroids()[faces, 1]
    tags = np.array([mesh.boundary_tags[f] for f in faces.tolist()])
    strip = homes != "matrix"
    assert set(homes[strip]) == {"damage_left", "fault", "damage_right"}
    assert np.array_equal(tags[strip], np.where(ys[strip] < 0.5, "y0", "y1"))
    assert set(tags[~strip]) == {"left", "right", "bottom", "top"}


def test_layered_mesh_grading_keeps_conformity():
    mesh = build_layered_equidim_mesh(1e-2, 1e-2, 2.5e-3, eta_coarse=1 / 16)
    mesh.validate()
    # grading must not disconnect the grid: every interior face two cells
    interior = mesh.face_cells[:, 1] >= 0
    assert interior.sum() > 0


# ------------------------------------------------------------------ #
#  text format round trip
# ------------------------------------------------------------------ #


def test_mesh_roundtrip(tmp_path):
    geom = build_two_block_geometry(4, 4)
    path = tmp_path / "two_block.msh"
    export_mesh(geom, path)
    back = import_mesh(path)
    assert back.matrix.n_cells == geom.matrix.n_cells
    assert back.fault.n_cells == geom.fault.n_cells
    assert np.abs(back.matrix.vertices - geom.matrix.vertices).max() < 1e-12
    # the file has no tags: the faces that take boundary data are tagged
    assert sorted(back.matrix.boundary_tags) == (
        back.external_faces("matrix").tolist()
    )
    for side in ("left", "right"):
        assert np.array_equal(
            back.matrix_damage[side].pairs, geom.matrix_damage[side].pairs
        )


def test_3d_generator_reproduces_bundled_mesh(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_fault3d_mesh", ROOT / "tools" / "make_fault3d_mesh.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "single_fault_3d.msh"
    export_mesh(tool.build_geometry(18, 11), path)
    assert path.read_bytes() == BUNDLED_3D.read_bytes()


def test_bundled_mesh_round_trips_byte_for_byte(tmp_path):
    path = tmp_path / "single_fault_3d.msh"
    export_mesh(import_mesh(BUNDLED_3D), path)
    assert path.read_bytes() == BUNDLED_3D.read_bytes()


def test_import_reports_parse_errors_with_line(tmp_path):
    path = tmp_path / "bad.msh"
    for bad in (
        "v nonsense 0 0",
        "v 0 0",
        "v nan 0.0 0.0",
        "v 0 inf 0",
        "v 0 0 -inf",
        "v 1e400 0 0",
    ):
        path.write_text(f"[domain matrix dim=2]\nv 0 0 0\n{bad}\n")
        with pytest.raises(MeshFormatError, match="line 3"):
            import_mesh(path)


def _exported_lines(tmp_path):
    path = tmp_path / "geom.msh"
    export_mesh(build_two_block_geometry(2, 2), path)
    return path, path.read_text().splitlines()


def _section(lines, header):
    """The lines of the section whose header starts with ``header``,
    header included."""
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("[")),
        len(lines),
    )
    return lines[start:end]


def test_import_refuses_legacy_damage_sections(tmp_path):
    # the former format repeated the fault section for each damage layer
    path, lines = _exported_lines(tmp_path)
    fault = _section(lines, "[domain fault")
    at = lines.index(fault[0]) + len(fault)
    damage = ["[domain damage_left dim=1]", *fault[1:]]
    path.write_text("\n".join(lines[:at] + damage + lines[at:]) + "\n")
    with pytest.raises(
        MeshFormatError, match=f"line {at + 1}: unknown domain 'damage_left'"
    ):
        import_mesh(path)


def test_import_refuses_duplicate_interface_section(tmp_path):
    path, lines = _exported_lines(tmp_path)
    left = _section(lines, "[interface matrix_damage_left")
    path.write_text("\n".join(lines + left) + "\n")
    with pytest.raises(
        MeshFormatError,
        match=f"line {len(lines) + 1}: duplicate interface 'left'",
    ):
        import_mesh(path)


def test_import_refuses_sides_sharing_matrix_faces(tmp_path):
    # a left map that lists the right block's plane faces passes every
    # per-side check: the faces lie on the plane against the same cells
    path, lines = _exported_lines(tmp_path)
    left = _section(lines, "[interface matrix_damage_left")
    right = _section(lines, "[interface matrix_damage_right")
    at = lines.index(left[0])
    lines[at + 1 : at + len(left)] = right[1:]
    path.write_text("\n".join(lines) + "\n")
    shared = min(int(line.split()[1]) for line in right[1:])
    with pytest.raises(
        TopologyError,
        match=f"matrix face {shared} is paired with both damage layers",
    ):
        import_mesh(path)


@pytest.mark.parametrize(
    "section,at,line",
    [
        ("[domain matrix", 0, "[domain matrix dim=2"),  # unterminated
        ("[domain matrix", 0, "[domain matrix dim=two]"),
        ("[domain matrix", 0, "[domain matrix dim=2.0]"),
        ("[domain matrix", 0, "[domain matrix dim=4]"),
        ("[domain matrix", 0, "[block matrix dim=2]"),  # unknown kind
        ("[domain matrix", 0, "[domain matrix]"),
        ("[interface matrix_damage_left", 0,
         "[interface anything from=matrix to=fault side=left]"),
        ("[interface matrix_damage_left", 0,
         "[interface matrix_damage_left from=fault to=fault side=left]"),
        ("[interface matrix_damage_left", 0,
         "[interface matrix_damage_left from=matrix to=matrix side=left]"),
        ("[interface matrix_damage_left", 0,
         "[interface matrix_damage_left from=matrix to=fault side=right]"),
        ("[interface matrix_damage_left", 0,
         "[interface matrix_damage_left from=matrix to=fault]"),
        ("[interface matrix_damage_right", 0,
         "[interface matrix_damage_right from=matrix to=fault side=middle]"),
        # data lines, inserted after the header
        ("[domain matrix", 1, "c 0 1 99999999999999999999"),
        ("[domain matrix", 1, "c 0 1 -1"),
        ("[domain matrix", 1, "c 0 1 2 3"),
        # int and float read these as "c 0 3 4" and "v 1 0 0"
        ("[domain matrix", 1, "c 0_00 3 4"),
        ("[domain matrix", 1, "c 0 \u0663 4"),
        ("[domain matrix", 1, "v \uff11 0 0"),
        ("[domain matrix", 1, "p 0 1"),
        ("[interface matrix_damage_left", 1, "p 0 99999999999999999999"),
        ("[interface matrix_damage_left", 1, "p -1 0"),
        ("[interface matrix_damage_left", 1, "p 0 1.0"),
        ("[interface matrix_damage_left", 1, "v 0 0 0"),
    ],
)
def test_import_refuses_what_export_does_not_write(tmp_path, section, at,
                                                    line):
    # a header other than the ones export_mesh writes, and a data line of
    # the wrong kind, count or token, is one MeshFormatError at its line
    path, lines = _exported_lines(tmp_path)
    header = next(i for i, text in enumerate(lines)
                  if text.startswith(section))
    lines[header + at : header + 1] = [line]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MeshFormatError, match=f"^line {header + at + 1}: "):
        import_mesh(path)


MANGLE_TOKENS = (
    "0", "-1", "1", "99999", "99999999999999999999", "x", "1.5", "nan",
    "inf", "1e400",
)


@st.composite
def _mangled(draw, lines):
    """``lines`` with one to three lines dropped, duplicated, or with one
    token replaced."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("drop", "duplicate", "change")))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(MANGLE_TOKENS)
            )
            lines[i] = " ".join(tokens)
    return lines


@pytest.fixture(scope="module")
def small_mesh_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "two_block.msh"
    export_mesh(build_two_block_geometry(3, 2), path)
    return path.read_text().splitlines()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_import_refuses_or_returns_finite_geometry(
    small_mesh_lines, tmp_path, data
):
    # a damaged file ends in a MeshError or in a geometry with finite
    # vertices: never in another exception or in NaN coordinates
    lines = data.draw(_mangled(small_mesh_lines))
    path = tmp_path / "mangled.msh"
    path.write_text("\n".join(lines) + "\n")
    try:
        geom = import_mesh(path)
    except MeshError:
        return
    for mesh in geom.domains.values():
        assert np.all(np.isfinite(mesh.vertices))


def test_import_reports_missing_pair(tmp_path):
    path, lines = _exported_lines(tmp_path)
    # drop the last pair line of the matrix_damage left section
    left = _section(lines, "[interface matrix_damage_left")
    del lines[lines.index(left[0]) + len(left) - 1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(
        TopologyError, match="map left has 1 pairs for 2 surface cells"
    ):
        import_mesh(path)


def test_import_refuses_a_domain_with_no_cells(tmp_path):
    path, lines = _exported_lines(tmp_path)
    start = lines.index(_section(lines, "[domain fault")[0])
    end = start + len(_section(lines, "[domain fault"))
    lines[start:end] = [x for x in lines[start:end] if not x.startswith("c ")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError, match="domain 'fault' has no cells"):
        import_mesh(path)


def test_import_requires_all_domains(tmp_path):
    path = tmp_path / "incomplete.msh"
    path.write_text(
        "[domain matrix dim=2]\nv 0 0 0\nv 1 0 0\nv 0 1 0\nc 0 1 2\n"
    )
    with pytest.raises(MeshFormatError, match="missing domain"):
        import_mesh(path)
