"""Round-trip tests of the VTK writer via the structural checker, and the
text of the VTK and mesh-file writers against a per-value oracle."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from faultflow import vtk_io
from faultflow.mesh import (
    MeshFormatError,
    MixedDimGeometry,
    SimplicialMesh,
    build_two_block_geometry,
    export_mesh,
)
from faultflow.vtk_io import write_vtk

from helpers import check_vtk_file, mesh_text_by_value, vtk_text_by_value

ROOT = Path(__file__).resolve().parents[1]


def test_triangle_mesh_with_fields(tmp_path):
    geometry = build_two_block_geometry(2, 2)
    mesh = geometry.matrix
    path = tmp_path / "matrix.vtk"
    write_vtk(
        path,
        mesh,
        {
            "pressure": np.arange(mesh.n_cells, dtype=float),
            "velocity": np.ones((mesh.n_cells, 3)),
        },
    )
    summary = check_vtk_file(path)
    assert summary["n_points"] == mesh.n_vertices
    assert summary["n_cells"] == mesh.n_cells
    assert summary["cell_type"] == 5
    assert summary["fields"] == {"pressure": "scalars", "velocity": "vectors"}


def test_segment_and_tet_cell_types(tmp_path):
    geometry = build_two_block_geometry(1, 2)
    path = tmp_path / "fault.vtk"
    write_vtk(path, geometry.fault, {"pressure": np.zeros(2)})
    assert check_vtk_file(path)["cell_type"] == 3

    tet = SimplicialMesh(
        3,
        np.array(
            [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]
        ),
        np.array([[0, 1, 2, 3]]),
    )
    path = tmp_path / "tet.vtk"
    write_vtk(path, tet)
    summary = check_vtk_file(path)
    assert summary["cell_type"] == 10
    assert summary["fields"] == {}


def test_writer_rejects_bad_fields(tmp_path):
    geometry = build_two_block_geometry(1, 1)
    with pytest.raises(MeshFormatError, match="shape"):
        write_vtk(
            tmp_path / "bad.vtk", geometry.fault, {"pressure": np.zeros(7)}
        )
    with pytest.raises(MeshFormatError, match="spaces"):
        write_vtk(
            tmp_path / "bad.vtk",
            geometry.fault,
            {"bad name": np.zeros(geometry.fault.n_cells)},
        )


@pytest.mark.parametrize(
    "name,title,named",
    [
        ("bad\tname", "output", "bad\tname"),
        ("bad\nname", "output", "bad\nname"),
        ("", "output", ""),
        (5, "output", 5),
        ("pressure", "two\nlines", "two\nlines"),
        ("pressure", "", ""),
    ],
)
def test_writer_refuses_what_its_checker_refuses(tmp_path, name, title,
                                                  named):
    fault = build_two_block_geometry(1, 1).fault
    path = tmp_path / "bad.vtk"
    with pytest.raises(MeshFormatError) as refused:
        write_vtk(path, fault, {name: np.zeros(fault.n_cells)}, title=title)
    assert repr(named) in str(refused.value)
    assert not path.exists()


def test_writer_checks_every_field_before_formatting(tmp_path, monkeypatch):
    def formatted(*args, **kwargs):
        raise AssertionError("formatted before every field was checked")

    monkeypatch.setattr(vtk_io, "_write_rows", formatted)
    fault = build_two_block_geometry(1, 2).fault
    path = tmp_path / "bad.vtk"
    with pytest.raises(MeshFormatError, match="velocity.*shape"):
        write_vtk(
            path,
            fault,
            {"pressure": np.zeros(2), "velocity": np.zeros((2, 2))},
        )
    assert not path.exists()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.text(st.sampled_from("ab\t\n\r \x0b\x0c\x1c\x85\xa0\u2028é")),
    title=st.text(st.sampled_from("ab\t\n\r \x0b\x0c\x1d\x85\u3000é")),
)
def test_a_written_file_passes_the_checker(tmp_path, name, title):
    fault = build_two_block_geometry(1, 1).fault
    path = tmp_path / "any.vtk"
    path.unlink(missing_ok=True)
    try:
        write_vtk(path, fault, {name: np.zeros(fault.n_cells)}, title=title)
    except MeshFormatError:
        assert not path.exists()
        return
    assert check_vtk_file(path)["fields"] == {name: "scalars"}


def test_golden_bytes(tmp_path):
    path = tmp_path / "golden.vtk"
    write_vtk(
        path,
        build_two_block_geometry(1, 1).fault,
        {
            "pressure": np.array([2.5e-05]),
            "velocity": np.array([[-0.0, 0.0001, 1e16]]),
        },
        title="golden",
    )
    assert path.read_bytes() == (
        b"# vtk DataFile Version 2.0\n"
        b"golden\n"
        b"ASCII\n"
        b"DATASET UNSTRUCTURED_GRID\n"
        b"POINTS 2 double\n"
        b"1.0 0.0 0.0\n"
        b"1.0 1.0 0.0\n"
        b"CELLS 1 3\n"
        b"2 0 1\n"
        b"CELL_TYPES 1\n"
        b"3\n"
        b"CELL_DATA 1\n"
        b"SCALARS pressure double 1\n"
        b"LOOKUP_TABLE default\n"
        b"2.5e-05\n"
        b"VECTORS velocity double\n"
        b"-0.0 0.0001 1e+16\n"
    )


def _fault3d_tool():
    spec = importlib.util.spec_from_file_location(
        "make_fault3d_mesh", ROOT / "tools" / "make_fault3d_mesh.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# segment, triangle and tetrahedral meshes with many repeated coordinates
GEOMETRIES = (
    build_two_block_geometry(1, 1),
    build_two_block_geometry(3, 2),
    _fault3d_tool().build_geometry(2, 1),
)
# -0.0 next to 0.0, subnormals, infinities, NaNs of either sign, and
# values on both sides of where repr switches notation
SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, math.inf, -math.inf, math.nan, -math.nan,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5, 0.1,
)


@st.composite
def written(draw):
    """A geometry scaled and mirrored column by column, one of its meshes
    and a scalar and a vector field on that mesh."""
    base = draw(st.sampled_from(GEOMETRIES))
    factor = draw(st.sampled_from((1.0, 3e-5, 1e-4, 1e14, 1e-100, 1e50)))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=3,
                          max_size=3))
    factor = factor * np.array(signs)

    def scaled(mesh):
        return SimplicialMesh(mesh.dim, mesh.vertices * factor, mesh.cells)

    geometry = MixedDimGeometry(
        scaled(base.matrix), scaled(base.fault), base.matrix_damage
    )
    mesh = draw(st.sampled_from((geometry.matrix, geometry.fault)))
    values = st.one_of(st.sampled_from(SPECIAL), st.floats())
    fields = {
        "pressure": draw(arrays(np.float64, mesh.n_cells, elements=values)),
        "velocity": draw(
            arrays(np.float64, (mesh.n_cells, 3), elements=values)
        ),
    }
    return geometry, mesh, fields


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=written())
def test_writers_match_the_per_value_oracle(tmp_path, case):
    geometry, mesh, fields = case
    write_vtk(tmp_path / "out.vtk", mesh, fields, title="oracle")
    assert (tmp_path / "out.vtk").read_text() == vtk_text_by_value(
        mesh, fields, "oracle"
    )
    export_mesh(geometry, tmp_path / "out.msh")
    assert (tmp_path / "out.msh").read_text() == mesh_text_by_value(geometry)


def test_checker_reports_corruption_with_line_numbers(tmp_path):
    geometry = build_two_block_geometry(1, 1)
    mesh = geometry.matrix
    path = tmp_path / "ok.vtk"
    write_vtk(path, mesh, {"pressure": np.zeros(mesh.n_cells)})

    text = path.read_text().splitlines()
    # corrupt one vertex coordinate
    broken = list(text)
    broken[5] = "0.0 what 0.0"
    bad = tmp_path / "bad.vtk"
    bad.write_text("\n".join(broken))
    with pytest.raises(MeshFormatError, match="line 6"):
        check_vtk_file(bad)

    # truncate the scalar block
    bad.write_text("\n".join(text[:-1]))
    with pytest.raises(MeshFormatError, match="ended|expected"):
        check_vtk_file(bad)

    # advertise the wrong cell count
    broken = list(text)
    cells_line = next(
        i for i, line in enumerate(broken) if line.startswith("CELLS")
    )
    parts = broken[cells_line].split()
    broken[cells_line] = f"CELLS {parts[1]} 999"
    bad.write_text("\n".join(broken))
    with pytest.raises(MeshFormatError, match="advertised"):
        check_vtk_file(bad)
