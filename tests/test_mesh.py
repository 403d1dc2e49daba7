"""Mesh, geometry, and mesh-format tests."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from faultflow.mesh import (
    InterfaceMap,
    MeshError,
    MeshFormatError,
    SimplicialMesh,
    TopologyError,
    _square_grid,
    build_layered_equidim_mesh,
    build_two_block_geometry,
    export_mesh,
    import_mesh,
)

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
        build_layered_equidim_mesh(0.05, 0.02, 0.02),
        *import_mesh(BUNDLED_3D).domains.values(),
    ]
    for mesh in meshes:
        owner = mesh.face_cells[:, 0]
        local = mesh.cell_faces[owner] == np.arange(mesh.n_faces)[:, None]
        assert np.all(local.sum(axis=1) == 1)
        assert np.all(mesh.cell_face_signs[owner][local] == 1)


def test_closed_polytope_and_unit_normals():
    geom = build_two_block_geometry(5, 3)
    eq = build_layered_equidim_mesh(0.05, 0.02, 0.02)
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


# ------------------------------------------------------------------ #
#  layered equi-dimensional mesh
# ------------------------------------------------------------------ #


def test_layered_mesh_strip_resolution():
    mesh = build_layered_equidim_mesh(1e-2, 1e-2, 5e-3)
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


def test_layered_mesh_rejects_unresolvable_fault():
    with pytest.raises(MeshError, match="fault"):
        build_layered_equidim_mesh(1e-2, 1e-2, 2e-2)


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


def test_import_requires_damage_sections_to_repeat_the_fault(tmp_path):
    path = tmp_path / "geom.msh"
    export_mesh(build_two_block_geometry(2, 2), path)
    lines = path.read_text().splitlines()

    # one vertex of the right damage layer moved off the fault
    damage_right = lines.index("[domain damage_right dim=1]")
    x, y, z = lines[damage_right + 1].split()[1:]
    edited = list(lines)
    edited[damage_right + 1] = f"v {x} {float(y) + 1e-3!r} {z}"
    path.write_text("\n".join(edited) + "\n")
    with pytest.raises(TopologyError, match="damage layer right"):
        import_mesh(path)

    # two pairs of the left damage/fault map swapped
    damage_fault = next(
        i for i, line in enumerate(lines)
        if line.startswith("[interface damage_fault_left")
    )
    assert lines[damage_fault + 1 : damage_fault + 3] == ["p 0 0", "p 1 1"]
    edited = list(lines)
    edited[damage_fault + 1 : damage_fault + 3] = ["p 0 1", "p 1 0"]
    path.write_text("\n".join(edited) + "\n")
    with pytest.raises(TopologyError, match="damage/fault map left"):
        import_mesh(path)


MANGLE_TOKENS = ("0", "-1", "1", "99999", "x", "1.5", "nan", "inf", "1e400")


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
    geom = build_two_block_geometry(2, 2)
    path = tmp_path / "geom.msh"
    export_mesh(geom, path)
    lines = path.read_text().splitlines()
    # drop the last pair line of the damage_fault left section
    idx = max(
        i
        for i, line in enumerate(lines)
        if line.startswith("p")
        and lines[
            max(j for j in range(i) if lines[j].startswith("["))
        ].startswith("[interface damage_fault_left")
    )
    del lines[idx]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TopologyError, match="fault cell"):
        import_mesh(path)


def test_import_requires_all_domains(tmp_path):
    path = tmp_path / "incomplete.msh"
    path.write_text(
        "[domain matrix dim=2]\nv 0 0 0\nv 1 0 0\nv 0 1 0\nc 0 1 2\n"
    )
    with pytest.raises(MeshFormatError, match="missing domain"):
        import_mesh(path)
