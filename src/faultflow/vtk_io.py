"""Legacy ASCII VTK output for cell-centered fields.

One file per mesh: an unstructured grid of segments, triangles, or
tetrahedra with any number of CELL_DATA arrays (scalars or 3-vectors).
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshFormatError, SimplicialMesh

__all__ = ["write_vtk"]

_CELL_TYPE = {1: 3, 2: 5, 3: 10}  # segment, triangle, tetrahedron


def write_vtk(path, mesh: SimplicialMesh, cell_data: dict | None = None,
              title: str = "faultflow output") -> None:
    """Write the mesh and per-cell fields.  Scalars have shape (n_cells,),
    vectors (n_cells, 3)."""
    cell_data = cell_data or {}
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    for v in mesh.vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}")
    n_per = mesh.dim + 1
    lines.append(f"CELLS {mesh.n_cells} {mesh.n_cells * (n_per + 1)}")
    for cell in mesh.cells:
        lines.append(" ".join([str(n_per)] + [str(int(i)) for i in cell]))
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend([str(_CELL_TYPE[mesh.dim])] * mesh.n_cells)

    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_cells}")
        for name, values in cell_data.items():
            arr = np.asarray(values, dtype=float)
            if " " in name:
                raise MeshFormatError(f"field name {name!r} contains spaces")
            if arr.shape == (mesh.n_cells,):
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{float(v)!r}" for v in arr)
            elif arr.shape == (mesh.n_cells, 3):
                lines.append(f"VECTORS {name} double")
                lines.extend(
                    f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
                    for v in arr
                )
            else:
                raise MeshFormatError(
                    f"field {name!r} has shape {arr.shape}, expected "
                    f"({mesh.n_cells},) or ({mesh.n_cells}, 3)"
                )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
