"""Command-line interface: commands, output, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import faultflow
from faultflow.cli import main
from faultflow.mesh import build_two_block_geometry, export_mesh

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


def test_check_mesh_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.msh"
    bad.write_text("this is not a mesh\n")
    assert main(["check-mesh", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_writes_table(mini_config, tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code = main(
        [
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
            str(csv_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("eps case mode e_tilde")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "eps,case,mode,e_tilde,delta_p,lower,upper"
    assert len(lines) == 2


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
        (["--eps", "1e-2", "--eta-coarse", "-1"], "eta_coarse"),
    ):
        assert main(["sweep", str(mini_config), *extra]) == 1, extra
        err = capsys.readouterr().err
        assert f"sweep {name} must be finite and positive" in err, extra


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
