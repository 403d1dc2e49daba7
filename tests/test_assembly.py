"""Tests of the coupled block assembly.

The main check rebuilds the full operator for the smallest two-block
geometry (25 unknowns) with a completely separate dense code path: explicit
basis functions integrated by quadrature rules (edge midpoints on
triangles, Simpson on segments), signs taken from geometry, boundary
elimination done densely on the composed matrix.  Everything must agree to
1e-12.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from faultflow.assembly import (
    SIDES,
    BoundaryConditions,
    CoefficientSet,
    SourceField,
    assemble,
    coefficients_from_mode,
)
from faultflow.mesh import MeshError, build_two_block_geometry
from helpers import series_setup, series_solution_vector


# ---------------------------------------------------------------------------
# independent dense assembly
# ---------------------------------------------------------------------------


def lowest_order_basis(mesh, cell, face_mids):
    """The cell's flux basis functions, one per local face, built from the
    defining property alone: unit net flux through the own face along the
    global face normal, zero through the others."""
    verts = mesh.vertices[mesh.cells[cell]]
    fns = []
    for local in range(mesh.dim + 1):
        face = mesh.cell_faces[cell, local]
        opp = verts[local]
        normal = mesh.face_normals[face]
        scale = np.dot(face_mids[face] - opp, normal) * mesh.face_measures[
            face
        ]
        fns.append(lambda x, o=opp, c=1.0 / scale: c * (np.asarray(x) - o))
    return fns


def quad_points(mesh, cell):
    """Quadrature exact for the quadratic integrands that appear here."""
    verts = mesh.vertices[mesh.cells[cell]]
    measure = mesh.cell_measures[cell]
    if mesh.dim == 1:
        a, b = verts
        return [a, 0.5 * (a + b), b], np.array([1, 4, 1]) * measure / 6.0
    mids = [0.5 * (verts[i] + verts[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    return mids, np.full(3, measure / 3.0)


def outward(mesh, face, cell, face_mids, cell_mids):
    """Unit normal of ``face`` pointing away from ``cell``, geometrically."""
    n = mesh.face_normals[face]
    if np.dot(n, face_mids[face] - cell_mids[cell]) >= 0:
        return n
    return -n


def dense_operator(geometry, coeff, bc, sources):
    """Dense re-assembly of the coupled system, quadrature throughout."""
    meshes = {
        "matrix": geometry.matrix,
        "damage_left": geometry.damage["left"],
        "damage_right": geometry.damage["right"],
        "fault": geometry.fault,
    }
    mids = {d: m.face_centroids() for d, m in meshes.items()}
    cmids = {d: m.cell_centroids() for d, m in meshes.items()}

    sizes = {
        "matrix_flux": geometry.matrix.n_faces,
        "matrix_pressure": geometry.matrix.n_cells,
        "damage_flux": sum(geometry.damage[s].n_faces for s in SIDES),
        "damage_pressure": sum(geometry.damage[s].n_cells for s in SIDES),
        "fault_flux": geometry.fault.n_faces,
        "fault_pressure": geometry.fault.n_cells,
        "exchange_flux": 2 * geometry.fault.n_cells,
    }
    names = list(sizes)
    offs, total = {}, 0
    for name in names:
        offs[name] = total
        total += sizes[name]

    A = np.zeros((total, total))
    b = np.zeros(total)

    def domain_offsets(dom):
        if dom == "matrix":
            return offs["matrix_flux"], offs["matrix_pressure"]
        if dom == "fault":
            return offs["fault_flux"], offs["fault_pressure"]
        fo, po = offs["damage_flux"], offs["damage_pressure"]
        if dom == "damage_right":
            fo += geometry.damage["left"].n_faces
            po += geometry.damage["left"].n_cells
        return fo, po

    resist = {
        "matrix": coeff.matrix_resist,
        "damage_left": coeff.damage_resist["left"],
        "damage_right": coeff.damage_resist["right"],
        "fault": coeff.fault_resist,
    }

    # Darcy + divergence blocks of every domain, by quadrature
    for dom, mesh in meshes.items():
        fo, po = domain_offsets(dom)
        for cell in range(mesh.n_cells):
            fns = lowest_order_basis(mesh, cell, mids[dom])
            pts, wts = quad_points(mesh, cell)
            faces = mesh.cell_faces[cell]
            for i, fi in enumerate(faces):
                for j, fj in enumerate(faces):
                    val = sum(
                        w * np.dot(fns[i](p), fns[j](p))
                        for p, w in zip(pts, wts)
                    )
                    A[fo + fi, fo + fj] += resist[dom][cell] * val
                # divergence via the boundary of the cell
                div = sum(
                    np.dot(
                        fns[i](mids[dom][f]),
                        outward(mesh, f, cell, mids[dom], cmids[dom]),
                    )
                    * mesh.face_measures[f]
                    for f in faces
                )
                A[fo + fi, po + cell] += -div
                A[po + cell, fo + fi] += -div

    # matrix/damage interface: Robin penalty plus pressure coupling
    for side in SIDES:
        imap = geometry.matrix_damage[side]
        fo, _ = domain_offsets("matrix")
        _, dpo = domain_offsets(f"damage_{side}")
        for (face, dcell), rob in zip(
            imap.pairs, coeff.matrix_damage_resist[side]
        ):
            cell = geometry.matrix.face_cells[face, 0]
            fns = lowest_order_basis(geometry.matrix, cell, mids["matrix"])
            n_out = outward(
                geometry.matrix, face, cell, mids["matrix"], cmids["matrix"]
            )
            area = geometry.matrix.face_measures[face]
            traces = [
                np.dot(fn(mids["matrix"][face]), n_out) for fn in fns
            ]
            for i, fi in enumerate(geometry.matrix.cell_faces[cell]):
                for j, fj in enumerate(geometry.matrix.cell_faces[cell]):
                    A[fo + fi, fo + fj] += rob * traces[i] * traces[j] * area
                A[fo + fi, dpo + dcell] += traces[i] * area
                A[dpo + dcell, fo + fi] += traces[i] * area

    # damage/fault exchange
    for si, side in enumerate(SIDES):
        xo = offs["exchange_flux"] + si * geometry.fault.n_cells
        _, dpo = domain_offsets(f"damage_{side}")
        _, fpo = domain_offsets("fault")
        # cell i of each damage layer lies against cell i of the fault
        for cell in range(geometry.fault.n_cells):
            fverts = geometry.fault.vertices[geometry.fault.cells[cell]]
            length = np.linalg.norm(fverts[1] - fverts[0])
            A[dpo + cell, xo + cell] += -length
            A[xo + cell, dpo + cell] += -length
            A[fpo + cell, xo + cell] += length
            A[xo + cell, fpo + cell] += length
            A[xo + cell, xo + cell] += (
                coeff.damage_fault_resist[side][cell] * length
            )

    # natural boundary pressures
    for (dom, face), value in bc.pressure.items():
        mesh = meshes[dom]
        fo, _ = domain_offsets(dom)
        cell = mesh.face_cells[face, 0]
        fns = lowest_order_basis(mesh, cell, mids[dom])
        n_out = outward(mesh, face, cell, mids[dom], cmids[dom])
        local = list(mesh.cell_faces[cell]).index(face)
        b[fo + face] += (
            -value
            * np.dot(fns[local](mids[dom][face]), n_out)
            * mesh.face_measures[face]
        )

    # sources, entering the negated conservation rows
    q_matrix, q_damage, q_fault = sources.cell_integrals(geometry)
    per_dom = {
        "matrix": q_matrix,
        "damage_left": q_damage["left"],
        "damage_right": q_damage["right"],
        "fault": q_fault,
    }
    for dom, integrals in per_dom.items():
        _, po = domain_offsets(dom)
        b[po : po + len(integrals)] -= integrals

    # essential elimination, densely on the composed matrix
    plane = {
        int(f) for s in SIDES for f in geometry.matrix_damage[s].pairs[:, 0]
    }
    fixed = {}
    for dom, mesh in meshes.items():
        fo, _ = domain_offsets(dom)
        for face in range(mesh.n_faces):
            if mesh.face_cells[face, 1] >= 0:
                continue
            if dom == "matrix" and face in plane:
                continue
            if (dom, face) in bc.pressure:
                continue
            density = bc.flux.get((dom, face), 0.0)
            cell = mesh.face_cells[face, 0]
            n_out = outward(mesh, face, cell, mids[dom], cmids[dom])
            sign = 1.0 if np.dot(mesh.face_normals[face], n_out) > 0 else -1.0
            fixed[fo + face] = density * mesh.face_measures[face] * sign
    for dof, value in fixed.items():
        b -= A[:, dof] * value
        A[dof, :] = 0.0
        A[:, dof] = 0.0
        A[dof, dof] = 1.0
        b[dof] = value

    return A, b, fixed


# ---------------------------------------------------------------------------
# the oracle comparison
# ---------------------------------------------------------------------------


def smallest_case():
    geometry = build_two_block_geometry(1, 1)
    coeff = CoefficientSet.for_geometry(
        geometry,
        matrix_resist=np.array([1.0, 2.0, 3.0, 4.0]),
        damage_resist={"left": 3.0, "right": 5.0},
        fault_resist=7.0,
        matrix_damage_resist={"left": 0.25, "right": 0.5},
        damage_fault_resist={"left": 11.0, "right": 13.0},
    )
    bc = BoundaryConditions()
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 1.5
    for f in geometry.matrix.faces_with_tag("right"):
        bc.pressure[("matrix", int(f))] = -0.5
    top = int(geometry.matrix.faces_with_tag("top")[0])
    bc.flux[("matrix", top)] = 0.75
    tip = int(geometry.damage["left"].faces_with_tag("y1")[0])
    bc.pressure[("damage_left", tip)] = 2.0
    tip = int(geometry.fault.faces_with_tag("y0")[0])
    bc.pressure[("fault", tip)] = 0.25
    sources = SourceField(
        matrix=0.3, damage={"left": 0.1, "right": -0.2}, fault=0.7
    )
    return geometry, coeff, bc, sources


def test_operator_matches_dense_reassembly():
    geometry, coeff, bc, sources = smallest_case()
    system = assemble(geometry, coeff, bc, sources)
    assert system.n_dofs == 25

    dense, rhs, fixed = dense_operator(geometry, coeff, bc, sources)
    got = system.matrix.toarray()
    assert np.max(np.abs(got - dense)) <= 1e-12
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-12
    assert system.eliminated == fixed


def test_operator_is_symmetric():
    geometry, coeff, bc, sources = smallest_case()
    system = assemble(geometry, coeff, bc, sources)
    got = system.matrix
    asym = (got - got.T).toarray()
    assert np.max(np.abs(asym)) <= 1e-13 * np.max(np.abs(got.toarray()))


def test_solution_of_dense_and_sparse_agree():
    geometry, coeff, bc, sources = smallest_case()
    system = assemble(geometry, coeff, bc, sources)
    dense, rhs, _ = dense_operator(geometry, coeff, bc, sources)
    x_dense = np.linalg.solve(dense, rhs)
    x_sparse = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.max(np.abs(x_dense - x_sparse)) <= 1e-10


# ---------------------------------------------------------------------------
# exact solutions the assembled operator must reproduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,bres", [(1.0, 1.0), (10.0, 0.1), (1e4, 1e4)])
def test_series_flow_satisfies_the_assembled_equations(a, bres):
    geometry, coeff, bc = series_setup(3, a, bres)
    system = assemble(geometry, coeff, bc)
    x = series_solution_vector(system, a, bres)
    residual = system.matrix @ x - system.rhs
    scale = max(1.0, np.max(np.abs(system.rhs)))
    assert np.max(np.abs(residual)) <= 1e-11 * scale


def test_constant_pressure_with_uniform_boundary_data():
    geometry = build_two_block_geometry(3, 3)
    coeff = CoefficientSet.for_geometry(
        geometry,
        matrix_resist=2.0,
        damage_resist={"left": 1.0, "right": 4.0},
        fault_resist=3.0,
        matrix_damage_resist=0.5,
        damage_fault_resist=6.0,
    )
    bc = BoundaryConditions()
    hold = 2.25
    for dom, mesh in (
        ("matrix", geometry.matrix),
        ("damage_left", geometry.damage["left"]),
        ("damage_right", geometry.damage["right"]),
        ("fault", geometry.fault),
    ):
        plane = {
            int(f)
            for s in SIDES
            for f in geometry.matrix_damage[s].pairs[:, 0]
        }
        for f in mesh.boundary_faces():
            if dom == "matrix" and int(f) in plane:
                continue
            bc.pressure[(dom, int(f))] = hold
    system = assemble(geometry, coeff, bc)
    x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    parts = system.split(x)
    for name in ("matrix_pressure", "damage_pressure", "fault_pressure"):
        assert np.max(np.abs(parts[name] - hold)) <= 1e-12
    for name in ("matrix_flux", "damage_flux", "fault_flux", "exchange_flux"):
        assert np.max(np.abs(parts[name])) <= 1e-12


def test_fault_injection_raises_fault_pressure():
    geometry = build_two_block_geometry(2, 2)
    coeff = CoefficientSet.for_geometry(
        geometry,
        matrix_resist=1.0,
        damage_resist=1.0,
        fault_resist=1.0,
        matrix_damage_resist=1.0,
        damage_fault_resist=1.0,
    )
    bc = BoundaryConditions()
    for tag in ("left", "right", "top", "bottom"):
        for f in geometry.matrix.faces_with_tag(tag):
            bc.pressure[("matrix", int(f))] = 0.0
    system = assemble(
        geometry, coeff, bc, SourceField(fault=1.0)
    )
    x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    parts = system.split(x)
    assert np.all(parts["fault_pressure"] > 0)
    # positive exchange means layer-to-fault, so injection drives both
    # sides negative: the fault feeds both damage layers
    assert np.all(parts["exchange_flux"] < 0)


# ---------------------------------------------------------------------------
# coefficient modes
# ---------------------------------------------------------------------------


def test_mode_values_for_known_tables():
    geometry = build_two_block_geometry(2, 2)
    k = {"matrix": 1.0, "damage": 100.0, "fault": 100.0}
    coeff = coefficients_from_mode(
        geometry, k, "literal", eps_mu=1e-2, eps_gamma=1e-2
    )
    assert np.allclose(coeff.damage_resist["left"], 1.0, rtol=1e-12)
    assert np.allclose(coeff.matrix_damage_resist["left"], 1e4, rtol=1e-12)
    assert np.allclose(coeff.fault_resist, 1.0, rtol=1e-12)
    assert np.allclose(coeff.damage_fault_resist["right"], 1e4, rtol=1e-12)

    k = {"matrix": 1e-6, "damage": 1e-2, "fault": 1e-7}
    coeff = coefficients_from_mode(
        geometry, k, "permeability", eps_mu=1e-1, eps_gamma=1e-3
    )
    assert np.allclose(coeff.matrix_resist, 1e6, rtol=1e-12)
    assert np.allclose(coeff.damage_resist["right"], 1e3, rtol=1e-12)
    assert np.allclose(coeff.matrix_damage_resist["left"], 10.0, rtol=1e-12)
    assert np.allclose(coeff.fault_resist, 1e10, rtol=1e-12)
    assert np.allclose(coeff.damage_fault_resist["left"], 1e4, rtol=1e-12)


def test_modes_agree_only_at_unit_thickness_and_unit_k():
    geometry = build_two_block_geometry(1, 1)
    k = {"matrix": 1.0, "damage": 1.0, "fault": 1.0}
    lit = coefficients_from_mode(geometry, k, "literal", 1.0, 1.0)
    per = coefficients_from_mode(geometry, k, "permeability", 1.0, 1.0)
    for s in SIDES:
        assert np.allclose(lit.damage_resist[s], per.damage_resist[s])
        assert np.allclose(
            lit.matrix_damage_resist[s], per.matrix_damage_resist[s]
        )
        assert np.allclose(
            lit.damage_fault_resist[s], per.damage_fault_resist[s]
        )
    assert np.allclose(lit.fault_resist, per.fault_resist)

    # away from the k = 1/thickness coincidence the two modes differ
    k = {"matrix": 4.0, "damage": 100.0, "fault": 100.0}
    lit = coefficients_from_mode(geometry, k, "literal", 1e-1, 1e-1)
    per = coefficients_from_mode(geometry, k, "permeability", 1e-1, 1e-1)
    assert not np.allclose(lit.matrix_resist, per.matrix_resist)
    assert not np.allclose(lit.damage_resist["left"], per.damage_resist["left"])


def test_mode_rejects_bad_input():
    geometry = build_two_block_geometry(1, 1)
    k = {"matrix": 1.0, "damage": 1.0, "fault": 1.0}
    with pytest.raises(MeshError):
        coefficients_from_mode(geometry, k, "inverse", 1.0, 1.0)
    with pytest.raises(MeshError):
        coefficients_from_mode(geometry, k, "literal", -1.0, 1.0)
    with pytest.raises(MeshError):
        coefficients_from_mode(
            geometry, {"matrix": -2.0, "damage": 1.0, "fault": 1.0},
            "literal", 1.0, 1.0,
        )


# ---------------------------------------------------------------------------
# boundary condition validation
# ---------------------------------------------------------------------------


def test_boundary_data_validation():
    geometry = build_two_block_geometry(2, 2)
    coeff = CoefficientSet.for_geometry(
        geometry, 1.0, 1.0, 1.0, 1.0, 1.0
    )

    left = int(geometry.matrix.faces_with_tag("left")[0])
    bc = BoundaryConditions(
        pressure={("matrix", left): 1.0}, flux={("matrix", left): 2.0}
    )
    with pytest.raises(MeshError, match="both pressure and flux"):
        assemble(geometry, coeff, bc)

    plane = int(geometry.matrix_damage["left"].pairs[0, 0])
    bc = BoundaryConditions(pressure={("matrix", plane): 1.0})
    with pytest.raises(MeshError, match="fault plane"):
        assemble(geometry, coeff, bc)

    interior = int(
        np.flatnonzero(geometry.matrix.face_cells[:, 1] >= 0)[0]
    )
    bc = BoundaryConditions(flux={("matrix", interior): 1.0})
    with pytest.raises(MeshError, match="not an external boundary"):
        assemble(geometry, coeff, bc)

    bc = BoundaryConditions(pressure={("core", 0): 1.0})
    with pytest.raises(MeshError, match="unknown domain"):
        assemble(geometry, coeff, bc)


def test_field_layout_partitions_the_vector():
    geometry = build_two_block_geometry(2, 3)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0, 1.0, 1.0)
    system = assemble(geometry, coeff, BoundaryConditions())
    stops = [0]
    for name, sl in system.offsets.items():
        assert sl.start == stops[-1]
        stops.append(sl.stop)
    assert stops[-1] == system.n_dofs == system.matrix.shape[0]

    x = np.arange(system.n_dofs, dtype=float)
    parts = system.split(x)
    assert np.array_equal(
        np.concatenate([parts[name] for name in system.offsets]), x
    )
    flux = system.sided(parts["damage_flux"])
    assert len(flux["left"]) == geometry.damage["left"].n_faces
    assert len(flux["right"]) == geometry.damage["right"].n_faces


def test_eliminated_dofs_record_imposed_values():
    geometry = build_two_block_geometry(2, 2)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0, 1.0, 1.0)
    bc = BoundaryConditions()
    top = int(geometry.matrix.faces_with_tag("top")[0])
    bc.flux[("matrix", top)] = 2.5
    system = assemble(geometry, coeff, bc)

    dof = system.offsets["matrix_flux"].start + top
    expected = 2.5 * geometry.matrix.face_measures[top]
    assert system.eliminated[dof] == pytest.approx(expected, rel=1e-14)
    assert system.rhs[dof] == pytest.approx(expected, rel=1e-14)
    row = system.matrix[[dof], :].toarray().ravel()
    assert row[dof] == 1.0
    assert np.count_nonzero(row) == 1

    # pressure-held faces stay free, all other external faces are fixed
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 1.0
    system = assemble(geometry, coeff, bc)
    for f in geometry.matrix.faces_with_tag("left"):
        assert system.offsets["matrix_flux"].start + int(f) not in system.eliminated
    n_external = sum(
        len(m.boundary_faces())
        for m in (
            geometry.matrix,
            geometry.damage["left"],
            geometry.damage["right"],
            geometry.fault,
        )
    ) - 2 * geometry.fault.n_cells  # minus the paired plane faces
    assert len(system.eliminated) == n_external - len(
        geometry.matrix.faces_with_tag("left")
    )
