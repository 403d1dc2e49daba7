#!/usr/bin/env python3
"""Generate the bundled 3D single-fault mesh.

A 100 m cube is cut by the plane z = 80 - 0.6 x.  Both blocks are meshed
with structured sheared hexahedra conforming to the plane (the vertical
grid follows fixed fractions of the block height at every x), each split
into prisms and then tetrahedra.  Prism splitting follows the
minimum-vertex diagonal rule, so every quadrilateral is triangulated
through its smallest global vertex and neighbouring prisms always agree;
the same rule fixes the plane triangulation, which both blocks and the
one surface mesh of the fault therefore share exactly.  The mesh file
holds the matrix, that surface mesh and one matrix/damage map per side.

The upper block pairs with the "left" damage layer, the lower block with
the "right" one.  Vertical resolution is finer towards the top of the
upper block so that the inflow patch boundary z = 90 at x = 0 is a mesh
line.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from faultflow.mesh import (  # noqa: E402
    SIDES,
    InterfaceMap,
    MixedDimGeometry,
    SimplicialMesh,
    _square_grid,
    export_mesh,
    import_mesh,
)

LOWER_FRACTIONS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
UPPER_FRACTIONS = np.array([0.0, 0.5, 0.75, 0.875, 1.0])


def fault_z(x):
    return 80.0 - 0.6 * x


def _prism_tets(bottom, top):
    """Split one prism into three tetrahedra (minimum-vertex rule)."""
    verts = list(bottom) + list(top)
    m = int(np.argmin(verts))
    if m >= 3:
        bottom, top = top, bottom
        m -= 3
    if m:
        bottom = bottom[m:] + bottom[:m]
        top = top[m:] + top[:m]
    v0, v1, v2 = bottom
    v3, v4, v5 = top
    if min(v1, v5) < min(v2, v4):
        return [(v0, v1, v2, v5), (v0, v1, v5, v4), (v0, v4, v5, v3)]
    return [(v0, v1, v2, v4), (v0, v4, v2, v5), (v0, v4, v5, v3)]


def _orient_positive(tets, vertices):
    tets = np.asarray(tets, dtype=np.int64)
    cv = vertices[tets]
    det = np.linalg.det(
        np.stack(
            [cv[:, 1] - cv[:, 0], cv[:, 2] - cv[:, 0], cv[:, 3] - cv[:, 0]],
            axis=1,
        )
    )
    flip = det < 0
    tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2].copy()
    return tets


def build_geometry(nx: int, ny: int) -> MixedDimGeometry:
    xs = np.linspace(0.0, 100.0, nx + 1)
    ys = np.linspace(0.0, 100.0, ny + 1)
    nk = len(LOWER_FRACTIONS)  # z-lines per block, fault line included
    sheet = (nx + 1) * nk  # vertices per (x, z) sheet of one block

    def block_vertices(fractions, lower):
        pts = []
        for j in range(ny + 1):
            for i in range(nx + 1):
                zf = fault_z(xs[i])
                for frac in fractions:
                    z = zf * frac if lower else zf + (100.0 - zf) * frac
                    pts.append((xs[i], ys[j], z))
        return np.array(pts)

    lower_base = 0
    upper_base = (ny + 1) * sheet
    verts = np.vstack(
        [
            block_vertices(LOWER_FRACTIONS, lower=True),
            block_vertices(UPPER_FRACTIONS, lower=False),
        ]
    )

    # two triangles per (x, z) quad of a sheet (vertex i * nk + k),
    # extruded along y
    _, sheet_tris = _square_grid(np.arange(nx + 1), np.arange(nk))
    tets = []
    for base in (lower_base, upper_base):
        for tri in sheet_tris.tolist():
            for j in range(ny):
                bottom = [base + j * sheet + s for s in tri]
                top = [base + (j + 1) * sheet + s for s in tri]
                tets.extend(_prism_tets(bottom, top))
    matrix = SimplicialMesh(3, verts, _orient_positive(tets, verts))

    # the surface mesh triangulates the fault plane with the diagonal of
    # every quad through its (i, j) corner, exactly as the minimum-vertex
    # rule triangulated the block faces on the plane
    splane, surf_cells = _square_grid(xs, ys)
    splane[:, 2] = fault_z(splane[:, 0])
    fault = SimplicialMesh(2, splane, surf_cells)

    face_of = {tuple(tri): f for f, tri in enumerate(matrix.faces.tolist())}
    # plane vertex i * (ny + 1) + j is block vertex (i, k, j) of a side
    i, j = np.divmod(surf_cells, ny + 1)
    matrix_damage = {}
    for side, base, k in (("left", upper_base, 0),
                          ("right", lower_base, nk - 1)):
        corners = np.sort(base + j * sheet + i * nk + k, axis=1)
        pairs = []
        for cell, key in enumerate(map(tuple, corners.tolist())):
            if key not in face_of:
                raise RuntimeError(
                    f"plane face of surface cell {cell} not found on side "
                    f"{side}; the block and surface triangulations disagree"
                )
            pairs.append((face_of[key], cell))
        matrix_damage[side] = InterfaceMap(pairs, side)

    geometry = MixedDimGeometry(matrix, fault, matrix_damage)
    geometry.validate()
    return geometry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nx", type=int, default=18)
    parser.add_argument("--ny", type=int, default=11)
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parents[1]
            / "src"
            / "faultflow"
            / "data"
            / "single_fault_3d.msh"
        ),
    )
    args = parser.parse_args(argv)

    geometry = build_geometry(args.nx, args.ny)
    export_mesh(geometry, args.out)
    reread = import_mesh(args.out)
    kept = (
        reread.matrix.n_cells == geometry.matrix.n_cells
        and reread.fault.n_cells == geometry.fault.n_cells
        and all(
            np.array_equal(
                reread.matrix_damage[s].pairs, geometry.matrix_damage[s].pairs
            )
            for s in SIDES
        )
    )
    if not kept:
        raise RuntimeError(
            f"{args.out} does not re-read with the cell counts and "
            "matrix/damage pairs written"
        )
    print(
        f"wrote {args.out}: {geometry.matrix.n_cells} tetrahedra, "
        f"{geometry.fault.n_cells} fault triangles"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
