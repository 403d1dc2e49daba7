"""Tests of the coupled block assembly.

The main check rebuilds the full operator for the smallest two-block
geometry (25 unknowns) with a completely separate dense code path: explicit
basis functions integrated by quadrature rules (edge midpoints on
triangles, Simpson on segments), signs taken from geometry, boundary
elimination done densely on the composed matrix.  Everything must agree to
1e-12.  The same oracle checks a 2x3 grid in both coefficient modes and
with a per-cell matrix tensor, since F and C are the scatter of the table
of local fluxes that the hybridized solve also reads.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from faultflow.assembly import (
    SIDES,
    BoundaryConditions,
    CoefficientSet,
    assemble,
    coefficients_from_mode,
)
from faultflow.linsolve import (
    conservation_residuals,
    global_balance,
    interface_law_residuals,
    solve_saddle,
)
from faultflow.mesh import (
    InterfaceMap,
    MeshError,
    MixedDimGeometry,
    build_two_block_geometry,
)
from faultflow.scenarios import (
    bundled_config,
    load_config,
    resolve_boundary_conditions,
    resolve_coefficients,
)
from helpers import rt0_local_mass, series_setup, series_solution_vector


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
        "damage_flux": sum(geometry.damage[s].n_faces for s in SIDES),
        "fault_flux": geometry.fault.n_faces,
        "exchange_flux": 2 * geometry.fault.n_cells,
        "matrix_pressure": geometry.matrix.n_cells,
        "damage_pressure": sum(geometry.damage[s].n_cells for s in SIDES),
        "fault_pressure": geometry.fault.n_cells,
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

    resist = coeff.resist

    # Darcy + divergence blocks of every domain, by quadrature
    for dom, mesh in meshes.items():
        fo, po = domain_offsets(dom)
        for cell in range(mesh.n_cells):
            fns = lowest_order_basis(mesh, cell, mids[dom])
            pts, wts = quad_points(mesh, cell)
            faces = mesh.cell_faces[cell]
            W = resist[dom][cell]
            if np.ndim(W) == 0:
                W = W * np.eye(3)
            for i, fi in enumerate(faces):
                for j, fj in enumerate(faces):
                    A[fo + fi, fo + fj] += sum(
                        w * fns[i](p) @ W @ fns[j](p)
                        for p, w in zip(pts, wts)
                    )
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

    # sources, entering the negated conservation rows: each cell's
    # density times its measure
    for dom, density in sources.items():
        mesh = meshes[dom]
        _, po = domain_offsets(dom)
        density = np.broadcast_to(density, mesh.n_cells)
        for cell in range(mesh.n_cells):
            b[po + cell] -= density[cell] * mesh.cell_measures[cell]

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
        resist={
            "matrix": np.array([1.0, 2.0, 3.0, 4.0]),
            "damage_left": 3.0,
            "damage_right": 5.0,
            "fault": 7.0,
        },
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
    sources = {
        "matrix": 0.3,
        "damage_left": 0.1,
        "damage_right": -0.2,
        "fault": 0.7,
    }
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


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_two_block_systems_are_well_formed(data):
    # log-uniform coefficients per cell and a random pressure/flux/none
    # split of the external faces, at least one of them a pressure face
    geometry = build_two_block_geometry(
        data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    )

    def draw(n):
        exponents = st.lists(st.floats(-3, 3), min_size=n, max_size=n)
        return 10.0 ** np.array(data.draw(exponents))

    n_fault = geometry.fault.n_cells
    coeff = CoefficientSet.for_geometry(
        geometry,
        resist={
            "matrix": draw(geometry.matrix.n_cells),
            **{f"damage_{s}": draw(n_fault) for s in SIDES},
            "fault": draw(n_fault),
        },
        matrix_damage_resist={s: draw(n_fault) for s in SIDES},
        damage_fault_resist={s: draw(n_fault) for s in SIDES},
    )
    faces = [
        (dom, int(f))
        for dom in geometry.domains
        for f in geometry.external_faces(dom)
    ]
    n = len(faces)
    kinds = data.draw(
        st.lists(
            st.sampled_from(("pressure", "flux", "none")),
            min_size=n,
            max_size=n,
        )
    )
    kinds[data.draw(st.integers(0, n - 1))] = "pressure"
    values = data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    bc = BoundaryConditions()
    for face, kind, value in zip(faces, kinds, values):
        if kind != "none":
            getattr(bc, kind)[face] = value
    system = assemble(geometry, coeff, bc)

    F = system.F.toarray()
    assert np.max(np.abs(F - F.T)) <= 1e-13 * np.max(np.abs(F))
    np.linalg.cholesky(F)
    # the global vector is [u; p]
    saddle = sps.bmat([[system.F, system.C], [system.C.T, None]])
    assert np.array_equal(system.matrix.toarray(), saddle.toarray())
    assert np.array_equal(system.rhs, np.concatenate([system.g, system.f]))

    solution = solve_saddle(system)
    for residual in conservation_residuals(system, solution).values():
        assert np.max(np.abs(residual)) <= 1e-10
    laws = interface_law_residuals(system, solution)
    for side in SIDES:
        assert np.max(np.abs(laws["matrix_damage"][side])) <= 1e-9
        assert np.max(np.abs(laws["damage_fault"][side])) <= 1e-9
    assert abs(global_balance(system, solution)) <= 1e-9


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
        resist={
            "matrix": 2.0,
            "damage_left": 1.0,
            "damage_right": 4.0,
            "fault": 3.0,
        },
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
    for name, block in system.offsets.items():
        want = hold if name.endswith("_pressure") else 0.0
        assert np.max(np.abs(x[block] - want)) <= 1e-12, name


def test_fault_injection_raises_fault_pressure():
    geometry = build_two_block_geometry(2, 2)
    coeff = CoefficientSet.for_geometry(
        geometry,
        resist=1.0,
        matrix_damage_resist=1.0,
        damage_fault_resist=1.0,
    )
    bc = BoundaryConditions()
    for tag in ("left", "right", "top", "bottom"):
        for f in geometry.matrix.faces_with_tag(tag):
            bc.pressure[("matrix", int(f))] = 0.0
    system = assemble(
        geometry, coeff, bc, {"fault": 1.0}
    )
    x = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.all(x[system.offsets["fault_pressure"]] > 0)
    # positive exchange means layer-to-fault, so injection drives both
    # sides negative: the fault feeds both damage layers
    for side in SIDES:
        assert np.all(x[system.offsets[f"exchange_{side}_flux"]] < 0)


# ---------------------------------------------------------------------------
# coefficient modes
# ---------------------------------------------------------------------------


def k_table(matrix, damage, fault):
    """A conductivity table keyed like ``geometry.domains``."""
    return {
        "matrix": matrix,
        "damage_left": damage,
        "damage_right": damage,
        "fault": fault,
    }


def test_mode_values_for_known_tables():
    geometry = build_two_block_geometry(2, 2)
    k = k_table(matrix=1.0, damage=100.0, fault=100.0)
    coeff = coefficients_from_mode(
        geometry, k, "literal", eps_mu=1e-2, eps_gamma=1e-2
    )
    assert np.allclose(coeff.resist["damage_left"], 1.0, rtol=1e-12)
    assert np.allclose(coeff.matrix_damage_resist["left"], 1e4, rtol=1e-12)
    assert np.allclose(coeff.resist["fault"], 1.0, rtol=1e-12)
    assert np.allclose(coeff.damage_fault_resist["right"], 1e4, rtol=1e-12)

    k = k_table(matrix=1e-6, damage=1e-2, fault=1e-7)
    coeff = coefficients_from_mode(
        geometry, k, "permeability", eps_mu=1e-1, eps_gamma=1e-3
    )
    assert np.allclose(coeff.resist["matrix"], 1e6, rtol=1e-12)
    assert np.allclose(coeff.resist["damage_right"], 1e3, rtol=1e-12)
    assert np.allclose(coeff.matrix_damage_resist["left"], 10.0, rtol=1e-12)
    assert np.allclose(coeff.resist["fault"], 1e10, rtol=1e-12)
    assert np.allclose(coeff.damage_fault_resist["left"], 1e4, rtol=1e-12)


def test_modes_agree_only_at_unit_thickness_and_unit_k():
    geometry = build_two_block_geometry(1, 1)
    k = k_table(matrix=1.0, damage=1.0, fault=1.0)
    lit = coefficients_from_mode(geometry, k, "literal", 1.0, 1.0)
    per = coefficients_from_mode(geometry, k, "permeability", 1.0, 1.0)
    for s in SIDES:
        assert np.allclose(
            lit.resist[f"damage_{s}"], per.resist[f"damage_{s}"]
        )
        assert np.allclose(
            lit.matrix_damage_resist[s], per.matrix_damage_resist[s]
        )
        assert np.allclose(
            lit.damage_fault_resist[s], per.damage_fault_resist[s]
        )
    assert np.allclose(lit.resist["fault"], per.resist["fault"])

    # away from the k = 1/thickness coincidence the two modes differ
    k = k_table(matrix=4.0, damage=100.0, fault=100.0)
    lit = coefficients_from_mode(geometry, k, "literal", 1e-1, 1e-1)
    per = coefficients_from_mode(geometry, k, "permeability", 1e-1, 1e-1)
    assert not np.allclose(lit.resist["matrix"], per.resist["matrix"])
    assert not np.allclose(
        lit.resist["damage_left"], per.resist["damage_left"]
    )


def test_mode_rejects_bad_input():
    geometry = build_two_block_geometry(1, 1)
    k = k_table(matrix=1.0, damage=1.0, fault=1.0)
    with pytest.raises(MeshError):
        coefficients_from_mode(geometry, k, "inverse", 1.0, 1.0)
    with pytest.raises(MeshError):
        coefficients_from_mode(geometry, k, "literal", -1.0, 1.0)
    with pytest.raises(MeshError):
        coefficients_from_mode(
            geometry, k_table(matrix=-2.0, damage=1.0, fault=1.0),
            "literal", 1.0, 1.0,
        )
    with pytest.raises(MeshError, match="non-finite fault conductivity"):
        coefficients_from_mode(
            geometry, k_table(matrix=1.0, damage=1.0, fault=np.nan),
            "literal", 1.0, 1.0,
        )


def test_interface_resistances_take_one_value_per_pair():
    geometry = build_two_block_geometry(2, 2)
    tensors = np.tile(np.eye(3), (geometry.fault.n_cells, 1, 1))
    for name in ("matrix_damage_resist", "damage_fault_resist"):
        data = {"matrix_damage_resist": 1.0, "damage_fault_resist": 1.0}
        data[name] = {s: tensors for s in SIDES}
        with pytest.raises(MeshError, match="has shape"):
            CoefficientSet.for_geometry(geometry, 1.0, **data)

    # a per-cell tensor does weight a domain's Darcy law
    scalar = CoefficientSet.for_geometry(geometry, 2.0, 1.0, 1.0)
    resist = dict(scalar.resist)
    n = geometry.matrix.n_cells
    resist["matrix"] = np.tile(2.0 * np.eye(3), (n, 1, 1))
    tensor = CoefficientSet.for_geometry(geometry, resist, 1.0, 1.0)
    bc = BoundaryConditions()
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 1.0
    a = assemble(geometry, scalar, bc).matrix
    b = assemble(geometry, tensor, bc).matrix
    assert np.array_equal(a.toarray(), b.toarray())


@pytest.mark.parametrize("mode", ["literal", "permeability"])
def test_interface_pair_order_does_not_change_the_solution(mode):
    # every bundled pairing lists the surface cells in order; shuffled
    # rows exercise the per-pair lookup of the interface resistance
    geometry = build_two_block_geometry(6, 9)
    rng = np.random.default_rng(13)
    shuffled = MixedDimGeometry(
        geometry.matrix,
        geometry.fault,
        {
            s: InterfaceMap(rng.permutation(imap.pairs), s)
            for s, imap in geometry.matrix_damage.items()
        },
    )
    for s in SIDES:
        cells = shuffled.matrix_damage[s].pairs[:, 1]
        assert not np.array_equal(cells, np.arange(len(cells)))
    k = {
        dom: 10.0 ** rng.uniform(-2, 2, mesh.n_cells)
        for dom, mesh in geometry.domains.items()
    }
    bc = BoundaryConditions()
    for tag, value in (("left", 0.0), ("right", 1.0)):
        for f in geometry.matrix.faces_with_tag(tag):
            bc.pressure[("matrix", int(f))] = value

    pressures = []
    for geo in (geometry, shuffled):
        coeff = coefficients_from_mode(geo, k, mode, 1e-2, 1e-2)
        system = assemble(geo, coeff, bc)
        pressures.append(solve_saddle(system).vector[system.F.shape[0] :])
    assert np.array_equal(pressures[0], pressures[1])


# ---------------------------------------------------------------------------
# boundary condition validation
# ---------------------------------------------------------------------------


def test_boundary_data_validation():
    geometry = build_two_block_geometry(2, 2)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)

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


def test_non_finite_or_misshapen_data_names_its_cell_or_domain():
    geometry = build_two_block_geometry(2, 2)
    n = geometry.fault.n_cells
    tensors = np.tile(np.eye(3), (geometry.matrix.n_cells, 1, 1))
    tensors[3, 1, 1] = np.inf
    for resist, message in (
        (np.nan, "non-finite matrix resistance on cell 0"),
        ({**k_table(1.0, 1.0, 1.0), "matrix": tensors},
         "non-finite matrix resistance on cell 3"),
    ):
        with pytest.raises(MeshError, match=message):
            CoefficientSet.for_geometry(geometry, resist, 1.0, 1.0)

    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)
    source = np.ones(n)
    source[1] = np.nan
    for sources, message in (
        ({"fault": np.ones((n, 1))}, "fault source has shape"),
        ({"fault": source}, "non-finite fault source on cell 1"),
    ):
        with pytest.raises(MeshError, match=message):
            assemble(geometry, coeff, BoundaryConditions(), sources)
    # sources may be zero or negative
    sources = {"matrix": 0.0, "fault": -np.ones(n)}
    assemble(geometry, coeff, BoundaryConditions(), sources)


def test_field_layout_partitions_the_vector():
    geometry = build_two_block_geometry(2, 3)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)
    system = assemble(geometry, coeff, BoundaryConditions())
    stops = [0]
    for name, sl in system.offsets.items():
        assert sl.start == stops[-1]
        stops.append(sl.stop)
    assert stops[-1] == system.n_dofs == system.matrix.shape[0]

    # the fluxes of every domain, the exchanges, then the pressures of
    # every domain, the domains in the order of ``geometry.domains``
    domains = geometry.domains
    assert list(domains) == ["matrix", "damage_left", "damage_right", "fault"]
    assert list(system.offsets) == [
        *(f"{dom}_flux" for dom in domains),
        *(f"exchange_{side}_flux" for side in SIDES),
        *(f"{dom}_pressure" for dom in domains),
    ]
    assert system.offsets["matrix_pressure"].start == system.F.shape[0]

    def size(name):
        block = system.offsets[name]
        return block.stop - block.start

    for dom, mesh in domains.items():
        assert size(f"{dom}_flux") == mesh.n_faces
        assert size(f"{dom}_pressure") == mesh.n_cells
    for side in SIDES:
        assert size(f"exchange_{side}_flux") == geometry.fault.n_cells


def test_eliminated_dofs_record_imposed_values():
    geometry = build_two_block_geometry(2, 2)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)
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


# ---------------------------------------------------------------------------
# the table of local fluxes: F and C are its scatter
# ---------------------------------------------------------------------------


def fault3d_system(n_x, n_y):
    """A coarse version of the bundled 3D scenario."""
    spec = importlib.util.spec_from_file_location(
        "make_fault3d_mesh",
        Path(__file__).resolve().parents[1] / "tools" / "make_fault3d_mesh.py",
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    geometry = tool.build_geometry(n_x, n_y)
    config = load_config(bundled_config("fault3d"))
    return assemble(
        geometry,
        resolve_coefficients(config, geometry),
        resolve_boundary_conditions(config, geometry),
    )


def two_block_case(mode):
    """A 2x3 two-block grid with per-cell conductivities over six
    decades, pressure and flux data on the matrix and flux data on the
    layers; ``mode`` "tensor" gives the matrix anisotropic tensors."""
    geometry = build_two_block_geometry(2, 3)
    rng = np.random.default_rng(7)
    k = {
        dom: 10.0 ** rng.uniform(-3, 3, mesh.n_cells)
        for dom, mesh in geometry.domains.items()
    }
    if mode == "tensor":
        coeff = coefficients_from_mode(geometry, k, "permeability", 1e-2, 1e-3)
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        stretch = np.diag([1.0, 30.0, 1.0])
        coeff.resist["matrix"] = (
            coeff.resist["matrix"][:, None, None]
            * (rotation @ stretch @ rotation.T)
        )
    else:
        coeff = coefficients_from_mode(geometry, k, mode, 1e-2, 1e-3)
    bc = BoundaryConditions()
    for f in geometry.matrix.faces_with_tag("left"):
        bc.pressure[("matrix", int(f))] = 1.0
    for f in geometry.matrix.faces_with_tag("right"):
        bc.flux[("matrix", int(f))] = -0.5
    for f in geometry.fault.faces_with_tag("y0"):
        bc.flux[("fault", int(f))] = 0.25
        bc.pressure[("damage_left", int(f))] = 2.0
    return geometry, coeff, bc


@pytest.mark.parametrize("mode", ["literal", "permeability", "tensor"])
def test_operator_matches_dense_reassembly_in_every_mode(mode):
    # resistances over six decades and more, per cell: each entry is held
    # to its own size, with a floor for the exact zeros the quadrature
    # leaves a residue in
    geometry, coeff, bc = two_block_case(mode)
    sources = {"damage_right": 0.5}
    system = assemble(geometry, coeff, bc, sources)
    dense, rhs, fixed = dense_operator(geometry, coeff, bc, sources)
    got = system.matrix.toarray()
    floor = 1e-15 * np.abs(dense).max()
    assert np.all(np.abs(got - dense) <= 1e-12 * np.abs(dense) + floor)
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-12
    assert system.eliminated == fixed


def test_fault3d_couplings_match_their_closed_forms():
    system = fault3d_system(3, 2)
    geometry, coeff, offsets = (
        system.geometry,
        system.coefficients,
        system.offsets,
    )
    F, C = system.F, system.C.toarray()
    matrix, fault = geometry.matrix, geometry.fault
    measure = fault.cell_measures
    cells = np.arange(fault.n_cells)
    fault_cell = offsets["fault_pressure"].start - F.shape[0] + cells
    for side in SIDES:
        # the exchange: resistance R |fault cell| on the diagonal, and
        # -|fault cell| out of the damage cell, +|fault cell| into the fault
        x = offsets[f"exchange_{side}_flux"].start + cells
        assert np.allclose(
            F.diagonal()[x],
            coeff.damage_fault_resist[side] * measure,
            rtol=1e-15,
            atol=0.0,
        )
        damage_cell = (
            offsets[f"damage_{side}_pressure"].start - F.shape[0] + cells
        )
        expected = np.zeros((fault.n_cells, C.shape[1]))
        expected[cells, damage_cell] = -measure
        expected[cells, fault_cell] = measure
        assert np.array_equal(C[x], expected)

        # a paired matrix face: the Robin resistance r_md / |F| on top of
        # its RT0 diagonal, and 1 in the column of its damage cell
        faces, paired = geometry.matrix_damage[side].pairs.T
        robin = coeff.matrix_damage_resist[side] / matrix.face_measures[faces]
        for face, r, dcell in zip(faces, robin, paired):
            owner = matrix.face_cells[face, 0]
            local = list(matrix.cell_faces[owner]).index(face)
            M = rt0_local_mass(
                matrix.vertices[matrix.cells[owner]],
                matrix.cell_face_signs[owner],
                coeff.resist["matrix"][owner],
            )
            assert F[face, face] == pytest.approx(
                r + M[local, local], rel=1e-13
            )
            assert C[face, damage_cell[dcell]] == 1.0
            assert np.count_nonzero(C[face]) == 2


def test_flux_operator_couples_no_two_domains():
    # with pressure data on every external face nothing is eliminated, so
    # F is the scatter as it is: the zeros that pad the local resistance
    # of a damage or fault cell must not become entries between domains
    geometry = build_two_block_geometry(2, 3)
    coeff = CoefficientSet.for_geometry(geometry, 1.0, 1.0, 1.0)
    bc = BoundaryConditions()
    for dom in geometry.domains:
        for f in geometry.external_faces(dom):
            bc.pressure[(dom, int(f))] = 1.0
    system = assemble(geometry, coeff, bc)
    assert not system.eliminated
    block = np.empty(system.F.shape[0], dtype=int)
    for k, (name, sl) in enumerate(system.offsets.items()):
        if name.endswith("_flux"):
            block[sl] = k
    F = system.F.tocoo()
    assert np.array_equal(block[F.row], block[F.col])
    assert np.all(F.data != 0.0)
