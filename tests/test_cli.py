"""Command-line interface: commands, output, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import faultflow
from faultflow.assembly import assemble
from faultflow.cli import main
from faultflow.linsolve import conservation_residuals, solve_schur
from faultflow.mesh import build_two_block_geometry, export_mesh
from faultflow.scenarios import (
    build_geometry,
    load_config,
    resolve_boundary_conditions,
    resolve_coefficients,
)

MINI = """
geometry two_block
nx 5
ny 5
mode literal
coeff matrix 1.0
coeff damage 2.0
coeff fault 3.0
bc pressure 0 on matrix:left
bc pressure 1 on matrix:right
"""


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI)
    return path


def test_run_prints_diagnostics(mini_config, capsys):
    assert main(["run", str(mini_config)]) == 0
    out = capsys.readouterr().out
    assert "scenario mini" in out
    assert "conservation_max" in out
    assert "balance" in out


def test_run_writes_outputs(mini_config, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["run", str(mini_config), "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "matrix.vtk").exists()
    assert "summary.csv" in capsys.readouterr().out


def test_run_solver_override(mini_config, capsys):
    assert main(["run", str(mini_config), "--solver", "schur"]) == 0
    assert "iterations" in capsys.readouterr().out


def test_run_accepts_bundled_names(capsys, tmp_path, monkeypatch):
    # keep it light: parse failure would exit 1 long before the solve,
    # so run the smallest bundled scenario end to end
    monkeypatch.setenv("FAULTFLOW_OUTDIR", str(tmp_path / "o"))
    assert main(["run", "case_ii"]) == 0
    out = capsys.readouterr().out
    assert "scenario case_ii" in out
    assert (tmp_path / "o" / "summary.csv").exists()


def test_missing_config_exits_1(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_error_exits_1_with_line(tmp_path, capsys):
    # bad numbers are refused at parse time, not by the solve
    for bad in (
        "frobnicate 1",
        "nx 1e400",
        "nx 1e300",
        "nx nan",
        "eps_mu nan",
        "bc pressure nan on matrix:left",
        "coeff fault inf",
        "coeff matrix -1",
        "coeff matrix 1 where x < nan",
        "coeff fault 1 where y > inf",
    ):
        path = tmp_path / "bad.cfg"
        path.write_text(f"geometry two_block\nnx 4\nny 4\n{bad}\n")
        assert main(["run", str(path)]) == 1, bad
        assert "line 4" in capsys.readouterr().err, bad


def test_out_of_range_coefficient_exits_1_with_line(tmp_path, capsys):
    # a conductivity the mode rule turns into an infinite resistance, or
    # one whose reciprocal overflows, is a config error at its coeff line,
    # not a RuntimeWarning (an error in this suite) or a failed
    # factorization
    case_i = faultflow.bundled_config("case_i").read_text()
    tiny_literal = MINI.replace("nx 5\nny 5", "nx 2\nny 2")
    small_sweep = ["--eps", "0.1", "--h", "0.25", "--h2", "0.125",
                   "--eta-coarse", "0.125"]
    for text, old, new, mode in (
        (case_i, "coeff fault 100.0", "coeff fault 1e-310", "permeability"),
        (tiny_literal, "coeff fault 3.0", "coeff fault 1e-320", "literal"),
    ):
        text = text.replace(old, new)
        line = text.splitlines().index(new) + 1
        path = tmp_path / "extreme.cfg"
        path.write_text(text)
        for argv in (
            ["run", str(path)],
            ["sweep", str(path), *small_sweep, "--modes", mode],
        ):
            assert main(argv) == 1, (new, argv[0])
            err = capsys.readouterr().err
            assert err.startswith(f"error: line {line}: conductivity"), err
            assert "out of floating-point range" in err, err


def test_overflowing_net_flux_exits_1_with_line(tmp_path, capsys):
    # fault3d's face measures reach about 200, so a finite flux density of
    # 1e307 has no finite net flux: a config error at its bc line, not an
    # overflow warning (an error in this suite) and a failed solve
    bundled = faultflow.bundled_config("fault3d")
    mesh = bundled.parent / "single_fault_3d.msh"
    text = bundled.read_text().replace(
        "geometry mesh single_fault_3d.msh", f"geometry mesh {mesh}"
    )
    rule = "bc flux 1e307 on matrix where z <= 0"
    text += rule + "\n"
    path = tmp_path / "overflow.cfg"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    line = text.splitlines().index(rule) + 1
    assert err.startswith(f"error: line {line}: flux 1e+307 on a face"), err
    assert err.endswith("overflows\n") and err.count("\n") == 1, err


def test_unsolvable_scenario_exits_2(tmp_path, capsys):
    # no pressure anchored anywhere: the solve must refuse, not crash
    path = tmp_path / "floating.cfg"
    path.write_text(
        "geometry two_block\nnx 4\nny 4\n"
        "coeff matrix 1.0\ncoeff damage 1.0\ncoeff fault 1.0\n"
        "bc flux 1 on matrix:left\n"
    )
    assert main(["run", str(path)]) == 2
    assert "no boundary pressure" in capsys.readouterr().err


def test_check_mesh_roundtrip(tmp_path, capsys):
    mesh_path = tmp_path / "small.msh"
    export_mesh(build_two_block_geometry(3, 4), mesh_path)
    assert main(["check-mesh", str(mesh_path)]) == 0
    out = capsys.readouterr().out
    assert "mesh ok" in out
    assert "matrix: dim 2, 48 cells" in out
    assert "fault: dim 1, 4 cells" in out
    # the file holds the matrix and the fault, not the damage layers
    assert "damage_" not in out


def test_check_mesh_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.msh"
    bad.write_text("this is not a mesh\n")
    assert main(["check-mesh", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_mesh_refuses_folded_mesh(tmp_path, capsys):
    # move the interior matrix vertex (0.5, 0.5) past its upper neighbour:
    # its triangles fold over their neighbours, every measure stays positive
    mesh_path = tmp_path / "folded.msh"
    export_mesh(build_two_block_geometry(2, 2), mesh_path)
    lines = mesh_path.read_text().splitlines()
    assert lines[0] == "[domain matrix dim=2]" and lines[5] == "v 0.5 0.5 0.0"
    lines[5] = "v 0.5 1.25 0.0"
    mesh_path.write_text("\n".join(lines) + "\n")
    assert main(["check-mesh", str(mesh_path)]) == 2
    captured = capsys.readouterr()
    assert "mesh ok" not in captured.out
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "domain 'matrix': non-conforming mesh" in err


def test_check_mesh_refuses_overflowing_coordinates(tmp_path, capsys):
    # every coordinate scaled by 1e200: finite, but the measures overflow
    mesh_path = tmp_path / "huge.msh"
    export_mesh(build_two_block_geometry(2, 2), mesh_path)
    lines = [
        "v " + " ".join(repr(float(t) * 1e200) for t in line.split()[1:])
        if line.startswith("v ") else line
        for line in mesh_path.read_text().splitlines()
    ]
    mesh_path.write_text("\n".join(lines) + "\n")
    assert main(["check-mesh", str(mesh_path)]) == 2
    captured = capsys.readouterr()
    assert "mesh ok" not in captured.out
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "is too large" in err


def test_check_mesh_refuses_index_beyond_int64(tmp_path, capsys):
    mesh_path = tmp_path / "huge_index.msh"
    export_mesh(build_two_block_geometry(2, 2), mesh_path)
    lines = mesh_path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("c "))
    lines[at] = "c 0 1 99999999999999999999"
    mesh_path.write_text("\n".join(lines) + "\n")
    assert main(["check-mesh", str(mesh_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {at + 1}: ") and err.count("\n") == 1


# a literal-mode config whose schur solution violates conservation: the
# damage resistances dwarf the matrix rows, so a norm-wise CG stop leaves
# residuals of order one in the matrix cells
UNCONSERVED = """
geometry two_block
nx 1
ny 2
eps_mu 1e12
eps_gamma 2.5
mode literal
coeff matrix 1e-12
coeff damage 1e150
coeff fault 1
bc pressure -3 on matrix:boundary
bc pressure 1 on damage:y1
bc pressure -3 on layers:y0
"""


def worst_matrix_cell(config) -> int:
    """The matrix cell with the largest conservation residual after the
    schur solve.  Cells 1 and 6 of UNCONSERVED are mirror images whose
    residuals differ in the third digit, so which one is worst depends on
    round-off; the library decides rather than a pinned number."""
    geometry = build_geometry(config)
    system = assemble(
        geometry,
        resolve_coefficients(config, geometry),
        resolve_boundary_conditions(config, geometry),
    )
    solution, _ = solve_schur(system)
    residuals = conservation_residuals(system, solution)["matrix"]
    return int(np.argmax(np.abs(residuals)))


def test_solution_failing_conservation_exits_2(tmp_path, capsys):
    path = tmp_path / "unconserved.cfg"
    path.write_text(UNCONSERVED)
    assert main(["run", str(path), "--solver", "schur"]) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    cell = worst_matrix_cell(load_config(path))
    assert f"conservation check: matrix cell {cell} has residual" in err
    assert "conservation_max" not in captured.out
    assert main(["run", str(path), "--solver", "saddle"]) == 0
    assert "conservation_max" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,code",
    [
        (["check-mesh", "{tmp}/nope.msh"], 2),
        (["check-mesh", "{tmp}"], 2),
        (["check-mesh", "{tmp}/latin1.msh"], 2),
        (["run", "{tmp}/latin1.cfg"], 1),
        (["run", "{tmp}/lost_mesh.cfg"], 2),
    ],
)
def test_unreadable_input_is_a_one_line_error(tmp_path, capsys, argv, code):
    (tmp_path / "latin1.msh").write_bytes(b"[domain matrix dim=2]\n# \xe9\n")
    (tmp_path / "latin1.cfg").write_bytes(b"geometry two_block # \xe9\n")
    (tmp_path / "lost_mesh.cfg").write_text(
        MINI.replace("geometry two_block", "geometry mesh nope.msh")
    )
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "cannot read" in err


def test_sweep_writes_table(mini_config, tmp_path, capsys, monkeypatch):
    csv_path = tmp_path / "table.csv"
    argv = [
        "sweep",
        str(mini_config),
        "--eps",
        "0.1",
        "--h",
        "0.25",
        "--h2",
        "0.125",
        "--eta-coarse",
        "0.125",
        "--modes",
        "literal",
        "--out",
    ]
    code = main([*argv, str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("eps case mode e_tilde")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "eps,case,mode,e_tilde,delta_p,lower,upper"
    assert len(lines) == 2
    # a table under a file cannot be written: one line, exit 1, before
    # any solve
    monkeypatch.setattr("faultflow.scenarios._solve", _no_solve)
    monkeypatch.setattr("faultflow.scenarios.equidim_reference", _no_solve)
    assert main([*argv, str(csv_path / "table.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {csv_path / 'table.csv'}: ")
    assert err.count("\n") == 1, err


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before checking --out")


def test_run_out_on_a_file_is_refused_before_solving(
    mini_config, tmp_path, capsys, monkeypatch
):
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr("faultflow.scenarios._solve", _no_solve)
    assert main(["run", str(mini_config), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {taken}: it is not a directory\n"


def test_run_outputs_that_cannot_be_written_are_a_one_line_error(
    mini_config, tmp_path, capsys
):
    # the directory exists, but a directory takes the summary's name
    (tmp_path / "summary.csv").mkdir()
    assert main(["run", str(mini_config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert err.count("\n") == 1, err


def test_sweep_out_on_a_directory_is_refused_before_solving(
    mini_config, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("faultflow.scenarios.equidim_reference", _no_solve)
    argv = ["sweep", str(mini_config), "--eps", "0.1", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path}: it is a directory\n"


def test_sweep_rejects_bad_eps(mini_config, capsys):
    assert main(["sweep", str(mini_config), "--eps", "fast"]) == 1
    assert "--eps" in capsys.readouterr().err
    # every thickness and spacing must be finite and positive
    for extra, name in (
        (["--eps", "nan"], "eps"),
        (["--eps", "1e-2,-1"], "eps"),
        (["--eps", "inf"], "eps"),
        (["--eps", "1e-2", "--h", "nan"], "h"),
        (["--eps", "1e-2", "--h", "0"], "h"),
        (["--eps", "1e-2", "--h2", "-0.5"], "h2"),
        (["--eps", "1e-2", "--h", "3"], "h"),
        (["--eps", "1e-2", "--h2", "0.7"], "h2"),
        (["--eps", "1e-2", "--eta-coarse", "-1"], "eta_coarse"),
    ):
        assert main(["sweep", str(mini_config), *extra]) == 1, extra
        err = capsys.readouterr().err
        assert f"sweep {name} must be finite and positive" in err, extra
    # a fault structure as wide as the blocks is a usage error, not a mesh
    # failure
    assert main(["sweep", str(mini_config), "--eps", "1e-2,0.4"]) == 1
    assert "sweep eps 0.4 is too wide" in capsys.readouterr().err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["run"])
    assert err.value.code == 1


def test_module_entry_point(mini_config):
    # the child process must import the same package as this one, also
    # when that comes from a source checkout rather than an installation
    package_root = str(Path(faultflow.__file__).resolve().parents[1])
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "faultflow.cli", "run", str(mini_config)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "conservation_max" in proc.stdout
