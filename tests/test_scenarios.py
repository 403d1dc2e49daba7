"""Scenario files: parsing, rule resolution, runs, and the sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultflow.mesh import build_two_block_geometry
from faultflow.scenarios import (
    ConfigError,
    bundled_config,
    equidim_reference,
    load_config,
    parse_config,
    resolve_boundary_conditions,
    resolve_coefficients,
    run_scenario,
    sweep,
)

from helpers import check_vtk_file

BASE = """
geometry two_block
nx 4
ny 4
eps_mu 1e-2
eps_gamma 1e-2
mode literal
coeff matrix 1.0
coeff damage 2.0
coeff fault 3.0
bc pressure 0 on matrix:left
bc pressure 1 on matrix:right
"""


def test_parse_full_example():
    text = """
# driven fault scenario
name demo
geometry two_block
nx 8
ny 6
eps_mu 5e-3
eps_gamma 1e-3
mode permeability
solver schur
output_dir results
coeff matrix 1.0
coeff damage 100.0
coeff fault 1.0
coeff fault 2e-3 where 0.25 <= y <= 0.75
bc pressure 0 on matrix:left
bc flux 0.5 on matrix:top
bc pressure 1 on layers:y1
bc pressure 4 on matrix where x <= 0 and y >= 0.9
"""
    cfg = parse_config(text)
    assert cfg.name == "demo"
    assert (cfg.nx, cfg.ny) == (8, 6)
    assert cfg.eps_mu == 5e-3 and cfg.eps_gamma == 1e-3
    assert cfg.mode == "permeability"
    assert cfg.solver == "schur"
    assert cfg.output_dir == "results"
    assert len(cfg.coeff_rules) == 4
    assert cfg.coeff_rules[3].predicate is not None
    assert len(cfg.bc_rules) == 4
    assert cfg.bc_rules[1].kind == "flux"
    assert cfg.bc_rules[2].domain == "layers"
    assert cfg.bc_rules[3].tag is None
    assert cfg.bc_rules[3].predicate is not None


def test_parse_errors_carry_line_numbers():
    bad = [
        ("geometry two_block\nnx 2\nny 2\nwhatever 3", "line 4"),
        ("geometry nothing", "line 1"),
        ("geometry two_block\ncoeff basement 1.0", "line 2"),
        ("geometry two_block\ncoeff matrix fast", "line 2"),
        ("geometry two_block\nbc pressure 1 on matrix:diagonal", "line 2"),
        ("geometry two_block\nbc pressure 1 on fault:left", "line 2"),
        ("geometry two_block\nbc temperature 1 on matrix:left", "line 2"),
        ("geometry two_block\ncoeff matrix 1 where u < 3", "line 2"),
        ("geometry two_block\ncoeff matrix 1 where 1 < 2", "line 2"),
        ("geometry two_block\ncoeff matrix 1 where y <", "line 2"),
        ("geometry two_block\nmode wild", "line 2"),
        ("geometry two_block\nnx 2.5", "line 2"),
    ]
    for text, needle in bad:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert needle in str(err.value), text


# the words of every directive, and tokens a number parser may trip on
DIRECTIVE_WORDS = (
    "coeff", "bc", "geometry", "nx", "ny", "eps_mu", "eps_gamma", "mode",
    "solver", "name", "output_dir", "two_block", "mesh", "matrix", "damage",
    "damage_left", "damage_right", "fault", "layers", "pressure", "flux",
    "on", "where", "and", "x", "y", "z", "<", "<=", ">", ">=", "literal",
    "permeability", "saddle", "schur", "matrix:left", "layers:y0",
    "fault:boundary", "x<0.5", "0", "1", "-1", "2.5", "1e-2", "1e400",
    "nan", "-inf", "#", ":",
)


@settings(max_examples=500, deadline=None)
@given(
    text=st.one_of(
        st.text(),
        st.lists(
            st.lists(
                st.sampled_from(DIRECTIVE_WORDS), min_size=1, max_size=8
            ).map(" ".join),
            max_size=8,
        ).map("\n".join),
    )
)
def test_parse_config_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


def test_parse_requires_geometry_and_coefficients():
    with pytest.raises(ConfigError, match="geometry"):
        parse_config("coeff matrix 1.0")
    with pytest.raises(ConfigError, match="nx and ny"):
        parse_config("geometry two_block\ncoeff matrix 1.0")
    with pytest.raises(ConfigError, match="coeff"):
        parse_config("geometry two_block\nnx 2\nny 2")


def test_predicate_chain_and_conjunction():
    cfg = parse_config(
        BASE + "coeff fault 9.0 where 0.25 <= y <= 0.75\n"
    )
    pred = cfg.coeff_rules[-1].predicate
    pts = np.array(
        [[1.0, 0.1, 0.0], [1.0, 0.25, 0.0], [1.0, 0.5, 0.0], [1.0, 0.8, 0.0]]
    )
    assert pred.mask(pts).tolist() == [False, True, True, False]

    cfg = parse_config(
        BASE + "coeff matrix 9.0 where x <= 0.5 and y > 0.5\n"
    )
    pred = cfg.coeff_rules[-1].predicate
    pts = np.array(
        [[0.2, 0.8, 0.0], [0.2, 0.2, 0.0], [0.8, 0.8, 0.0]]
    )
    assert pred.mask(pts).tolist() == [True, False, False]


def test_coefficients_later_rules_override():
    cfg = parse_config(
        BASE + "coeff fault 9.0 where 0.25 <= y <= 0.75\n"
    )
    geometry = build_two_block_geometry(cfg.nx, cfg.ny)
    coeff = resolve_coefficients(cfg, geometry)
    # literal mode: fault resistance is k * eps_gamma
    y = geometry.fault.cell_centroids()[:, 1]
    inside = (y >= 0.25) & (y <= 0.75)
    assert np.allclose(coeff.resist["fault"][inside], 9.0 * 1e-2)
    assert np.allclose(coeff.resist["fault"][~inside], 3.0 * 1e-2)
    # the damage alias fans out to both sides
    for side in ("left", "right"):
        assert np.allclose(coeff.resist[f"damage_{side}"], 2.0 * 1e-2)


def test_coefficients_must_cover_every_cell():
    text = BASE.replace("coeff damage 2.0", "coeff damage 2.0 where y < 0.5")
    cfg = parse_config(text)
    geometry = build_two_block_geometry(cfg.nx, cfg.ny)
    with pytest.raises(ConfigError, match="damage_left"):
        resolve_coefficients(cfg, geometry)


def test_boundary_rules_resolve_tags_and_predicates():
    cfg = parse_config(
        BASE
        + "bc pressure 1 on layers:y1\n"
        + "bc flux 0.25 on matrix where x <= 0 and y >= 0.5\n"
    )
    geometry = build_two_block_geometry(cfg.nx, cfg.ny)
    bc = resolve_boundary_conditions(cfg, geometry)

    left = set(int(f) for f in geometry.matrix.faces_with_tag("left"))
    mids = geometry.matrix.face_centroids()
    upper = {f for f in left if mids[f, 1] >= 0.5}
    # the later flux rule stole the upper-left faces from the pressure rule
    for f in left:
        if f in upper:
            assert bc.flux[("matrix", f)] == 0.25
            assert ("matrix", f) not in bc.pressure
        else:
            assert bc.pressure[("matrix", f)] == 0.0

    # layers:y1 fans out to both damage sides and the fault
    for dom in ("damage_left", "damage_right", "fault"):
        mesh = geometry.damage[dom.split("_")[1]] if "damage" in dom \
            else geometry.fault
        (tip,) = (int(f) for f in mesh.faces_with_tag("y1"))
        assert bc.pressure[(dom, tip)] == 1.0


def test_boundary_rule_matching_nothing_is_an_error():
    cfg = parse_config(BASE + "bc pressure 3 on matrix where x > 5\n")
    geometry = build_two_block_geometry(cfg.nx, cfg.ny)
    with pytest.raises(ConfigError, match="matches no boundary face"):
        resolve_boundary_conditions(cfg, geometry)


def test_run_scenario_reports_clean_diagnostics():
    cfg = parse_config(BASE)
    result = run_scenario(cfg)
    assert result.diagnostics["conservation_max"] < 1e-10
    assert result.diagnostics["interface_max"] < 1e-9
    assert abs(result.diagnostics["balance"]) < 1e-9
    assert result.outputs == []
    # flow enters at the high-pressure right wall and exits left
    assert result.solution.matrix_pressure.min() > -1e-10
    assert result.solution.matrix_pressure.max() < 1.0 + 1e-10


def test_run_scenario_writes_outputs(tmp_path):
    cfg = parse_config(BASE)
    out = tmp_path / "demo"
    result = run_scenario(cfg, output_dir=out)
    names = sorted(p.name for p in result.outputs)
    assert names == [
        "damage_left.vtk",
        "damage_right.vtk",
        "fault.vtk",
        "matrix.vtk",
        "summary.csv",
    ]
    report = check_vtk_file(out / "matrix.vtk")
    assert report["n_cells"] == result.geometry.matrix.n_cells
    assert report["fields"] == {"pressure": "scalars", "velocity": "vectors"}
    report = check_vtk_file(out / "fault.vtk")
    assert report["n_cells"] == cfg.ny

    summary = (out / "summary.csv").read_text()
    assert summary.startswith("key,value")
    assert "p_fault_mean" in summary

    # reruns are byte-identical
    run_scenario(cfg, output_dir=tmp_path / "again")
    assert (tmp_path / "again" / "summary.csv").read_text() == summary


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FAULTFLOW_OUTDIR", str(tmp_path / "envout"))
    cfg = parse_config(BASE)
    result = run_scenario(cfg)
    assert (tmp_path / "envout" / "summary.csv").exists()
    assert all(str(tmp_path / "envout") in str(p) for p in result.outputs)


def test_schur_solver_path_matches_saddle():
    cfg = parse_config(BASE)
    direct = run_scenario(cfg)
    cfg.solver = "schur"
    iterative = run_scenario(cfg)
    assert iterative.diagnostics["iterations"] > 0
    assert np.allclose(
        direct.solution.matrix_pressure,
        iterative.solution.matrix_pressure,
        atol=1e-8,
    )


def test_bundled_scenarios_parse():
    for name in ("case_i", "case_ii", "case_iii", "fault3d"):
        cfg = load_config(bundled_config(name))
        assert cfg.name == name
        assert cfg.coeff_rules
    with pytest.raises(ConfigError, match="bundled"):
        bundled_config("case_iv")


def test_equidim_reference_reproduces_linear_flow():
    # uniform conductivity: the layered reference must see plain linear
    # flow across the whole strip structure
    cfg = parse_config(
        """
geometry two_block
nx 4
ny 4
eps_mu 0.1
eps_gamma 0.1
mode literal
coeff matrix 1.0
coeff damage 1.0
coeff fault 1.0
bc pressure 0 on matrix:left
bc pressure 1 on matrix:right
"""
    )
    mesh, solution = equidim_reference(cfg, eta=0.025, eta_coarse=0.2)
    regions = set(mesh.cell_regions.tolist())
    assert regions == {"matrix", "damage_left", "fault", "damage_right"}
    expected = mesh.cell_centroids()[:, 0] / 2.0
    assert np.max(np.abs(solution.pressure - expected)) < 1e-9


def test_equidim_reference_maps_boundary_data_to_strips():
    # layer data lands on the bottom/top faces of its own strip, and on
    # no other top or bottom face
    eps = 0.1
    cfg = parse_config(
        f"""
geometry two_block
nx 4
ny 4
eps_mu {eps}
eps_gamma {eps}
coeff matrix 1.0
coeff damage 1.0
coeff fault 1.0
bc pressure 0 on matrix:left
bc pressure 1 on matrix:right
bc flux 0.5 on damage_left:y0
bc flux -0.25 on fault:y1
"""
    )
    mesh, solution = equidim_reference(cfg, eta=0.025, eta_coarse=0.2)
    left_strip = (1.0 - eps / 2 - eps, 1.0 - eps / 2)
    fault_strip = (1.0 - eps / 2, 1.0 + eps / 2)
    faces = mesh.boundary_faces()
    mids = mesh.face_centroids()[faces]
    bottom = np.abs(mids[:, 1]) < 1e-12
    top = np.abs(mids[:, 1] - 1.0) < 1e-12

    def inside(strip):
        return (mids[:, 0] > strip[0]) & (mids[:, 0] < strip[1])

    expected = np.zeros(len(faces))
    expected[bottom & inside(left_strip)] = 0.5
    expected[top & inside(fault_strip)] = -0.25
    assert np.count_nonzero(expected == 0.5) > 0
    assert np.count_nonzero(expected == -0.25) > 0
    # a boundary face's flux dof is its outward net flux, density * |F|
    error = solution.flux[faces] - expected * mesh.face_measures[faces]
    assert np.max(np.abs(error[bottom | top])) < 1e-12


def test_equidim_reference_maps_band_coefficients():
    # a resistive band on the fault strip must show up as a larger
    # pressure jump across the strip inside the band than outside it
    cfg = parse_config(
        BASE + "coeff fault 100.0 where 0.25 <= y <= 0.75\n"
    )
    cfg.eps_mu = cfg.eps_gamma = 0.1
    mesh, solution = equidim_reference(cfg, eta=0.05, eta_coarse=0.2)
    mids = mesh.cell_centroids()

    def strip_jump(y_lo, y_hi):
        band = (mids[:, 1] > y_lo) & (mids[:, 1] < y_hi)
        left = band & (mids[:, 0] > 0.85) & (mids[:, 0] < 0.95)
        right = band & (mids[:, 0] > 1.05) & (mids[:, 0] < 1.15)
        return (
            solution.pressure[right].mean() - solution.pressure[left].mean()
        )

    assert strip_jump(0.4, 0.6) > 1.5 * strip_jump(0.0, 0.2)


def test_sweep_produces_bounds_table(tmp_path):
    cfg = parse_config(BASE)
    csv_path = tmp_path / "sweep.csv"
    rows = sweep(
        cfg,
        [0.1],
        h=0.25,
        h2=0.125,
        eta_coarse=0.125,
        modes=("literal",),
        output_path=csv_path,
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["case"] == "scenario"
    assert row["mode"] == "literal"
    assert row["e_tilde"] >= 0.0
    assert row["delta_p"] >= 0.0
    assert row["lower"] <= row["e_tilde"] <= row["upper"]

    text = csv_path.read_text()
    assert text.splitlines()[0] == "eps,case,mode,e_tilde,delta_p,lower,upper"
    assert len(text.splitlines()) == 2

    sweep(
        cfg,
        [0.1],
        h=0.25,
        h2=0.125,
        eta_coarse=0.125,
        modes=("literal",),
        output_path=tmp_path / "sweep2.csv",
    )
    assert (tmp_path / "sweep2.csv").read_text() == text


def test_sweep_covers_both_modes():
    cfg = parse_config(BASE)
    rows = sweep(cfg, [0.1], h=0.25, h2=0.125, eta_coarse=0.125)
    assert [r["mode"] for r in rows] == ["permeability", "literal"]
