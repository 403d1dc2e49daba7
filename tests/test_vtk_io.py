"""Round-trip tests of the VTK writer via the structural checker."""

import numpy as np
import pytest

from faultflow.mesh import (
    MeshFormatError,
    SimplicialMesh,
    build_two_block_geometry,
)
from faultflow.vtk_io import write_vtk

from helpers import check_vtk_file


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
