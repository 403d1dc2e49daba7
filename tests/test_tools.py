"""The snapshot comparison tool: round-off passes, anything else fails."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "compare_snapshots",
    Path(__file__).resolve().parents[1] / "tools" / "compare_snapshots.py",
)
compare_snapshots = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_snapshots)

VTK = """# vtk DataFile Version 2.0
case fault
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 2 double
0.0 0.0 0.0
1.0 0.0 0.0
CELLS 1 3
2 0 1
CELL_TYPES 1
3
CELL_DATA 1
SCALARS pressure double 1
LOOKUP_TABLE default
0.5
VECTORS velocity double
1e-17 0.0 0.0
"""
CSV = "key,value\ndofs,25\nbalance,-7.2e-16\np_max,2.0\n"


def snapshot(root: Path, vtk=VTK, csv=CSV) -> Path:
    (root / "case").mkdir(parents=True)
    (root / "case" / "fault.vtk").write_text(vtk)
    (root / "case" / "summary.csv").write_text(csv)
    return root


@pytest.mark.parametrize(
    "vtk,csv,where",
    [
        (VTK, CSV, None),
        # round-off: the velocity shares the pressure's scale, the
        # balance the largest float of its CSV file
        (VTK.replace("1e-17", "3e-17"), CSV.replace("-7.2e-16", "1e-15"),
         None),
        (VTK.replace("\n0.5\n", "\n0.5000001\n"), CSV, "case/fault.vtk:15"),
        (VTK.replace("2 0 1", "2 1 0"), CSV, "case/fault.vtk:9"),
        (VTK, CSV.replace("25", "26"), "case/summary.csv:2"),
        (VTK, CSV.replace("2.0", "2"), "case/summary.csv:4"),
        (VTK, CSV.replace("key,value", "key value"), "case/summary.csv:1"),
        (VTK, CSV + "p_min,0.0\n", "case/summary.csv:5"),
    ],
)
def test_compare_snapshots(tmp_path, capsys, vtk, csv, where):
    before = snapshot(tmp_path / "before")
    after = snapshot(tmp_path / "after", vtk, csv)
    code = compare_snapshots.main([str(before), str(after)])
    if where is None:
        assert code == 0
    else:
        assert code == 1
        assert capsys.readouterr().err.startswith(where + ":")


def test_compare_snapshots_names_a_missing_file(tmp_path, capsys):
    before = snapshot(tmp_path / "before")
    after = snapshot(tmp_path / "after")
    (after / "case" / "fault.vtk").unlink()
    assert compare_snapshots.main([str(before), str(after)]) == 1
    assert "case/fault.vtk: missing from AFTER" in capsys.readouterr().err
