"""Legacy ASCII VTK output for cell-centered fields.

One file per mesh: an unstructured grid of segments, triangles, or
tetrahedra with any number of CELL_DATA arrays (scalars or 3-vectors).
Numbers are written as Python's ``repr`` writes them, the shortest text
that reads back to the same double, so a file gives back each value bit
for bit, -0.0 included.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshFormatError, SimplicialMesh, _write_rows

__all__ = ["write_vtk"]

_CELL_TYPE = {1: 3, 2: 5, 3: 10}  # segment, triangle, tetrahedron


def write_vtk(path, mesh: SimplicialMesh, cell_data: dict | None = None,
              title: str = "faultflow output") -> None:
    """Write the mesh and per-cell fields.  Scalars have shape (n_cells,),
    vectors (n_cells, 3).

    Raises MeshFormatError, before the file is opened, on a title that is
    not one non-blank line, a field name that is not a string, is empty or
    holds whitespace, or a field that is not bool, integer or float or has
    another shape.
    """
    if title.splitlines() != [title] or title.isspace():
        raise MeshFormatError(f"title {title!r} is not one non-blank line")
    fields = []
    for name, values in (cell_data or {}).items():
        if not isinstance(name, str) or name.split() != [name]:
            raise MeshFormatError(
                f"field name {name!r} is not a string, is empty or contains "
                "spaces, tabs or line breaks"
            )
        arr = np.asarray(values)
        if arr.dtype.kind not in "biuf":
            raise MeshFormatError(
                f"field {name!r} has dtype {arr.dtype}, expected bool, "
                "integer or float values"
            )
        arr = arr.astype(float, copy=False)
        if arr.shape == (mesh.n_cells,):
            header = f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
        elif arr.shape == (mesh.n_cells, 3):
            header = f"VECTORS {name} double\n"
        else:
            raise MeshFormatError(
                f"field {name!r} has shape {arr.shape}, expected "
                f"({mesh.n_cells},) or ({mesh.n_cells}, 3)"
            )
        fields.append((header, arr))

    n_per = mesh.dim + 1
    with open(path, "w") as fh:
        fh.write(
            f"# vtk DataFile Version 2.0\n{title}\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_vertices} double\n"
        )
        _write_rows(fh, mesh.vertices)
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (n_per + 1)}\n")
        _write_rows(fh, mesh.cells, str(n_per))
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        fh.write(f"{_CELL_TYPE[mesh.dim]}\n" * mesh.n_cells)
        if fields:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
            for header, arr in fields:
                fh.write(header)
                _write_rows(fh, arr)
