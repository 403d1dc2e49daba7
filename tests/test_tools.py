"""The snapshot comparison tool: round-off passes, anything else fails.
The benchmark's traced replay reproduces the public call."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path):
    """Import a script that is not part of the package, by file path.  It
    is registered, as its dataclasses need, under its folder and name."""
    name = f"{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


compare_snapshots = load(ROOT / "tools" / "compare_snapshots.py")

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
        (VTK, CSV, "no float differs"),
        # round-off: the velocity shares the pressure's scale, the
        # balance the largest float of its CSV file; the balance moves
        # most, by 1.72e-15 against the 2.0 on line 4
        (VTK.replace("1e-17", "3e-17"), CSV.replace("-7.2e-16", "1e-15"),
         "largest 8.6e-16 of block scale at case/summary.csv:3"),
        (VTK.replace("\n0.5\n", "\n0.5000001\n"), CSV, "case/fault.vtk:15"),
        (VTK.replace("2 0 1", "2 1 0"), CSV, "case/fault.vtk:9"),
        (VTK, CSV.replace("25", "26"), "case/summary.csv:2"),
        (VTK, CSV.replace("2.0", "2"), "case/summary.csv:4"),
        (VTK, CSV.replace("key,value", "key value"), "case/summary.csv:1"),
        (VTK, CSV + "p_min,0.0\n", "case/summary.csv:5"),
    ],
)
def test_compare_snapshots(tmp_path, capsys, vtk, csv, where):
    # ``where`` is the failing line, or the end of the success report
    before = snapshot(tmp_path / "before")
    after = snapshot(tmp_path / "after", vtk, csv)
    code = compare_snapshots.main([str(before), str(after)])
    out, err = capsys.readouterr()
    if where.startswith("case/"):
        assert code == 1
        assert err.startswith(where + ":")
    else:
        assert code == 0
        first = out.splitlines()[0]
        assert first == f"2 files match within 1e-12 per block; {where}"


def test_compare_snapshots_lists_files_that_are_not_byte_identical(
    tmp_path, capsys
):
    before = snapshot(tmp_path / "before")
    same = snapshot(tmp_path / "same")
    assert compare_snapshots.main([str(before), str(same)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["2 of 2 files are byte-identical"]

    # the same value written another way matches, but not byte for byte
    after = snapshot(tmp_path / "after", csv=CSV.replace("2.0", "2.00"))
    assert compare_snapshots.main([str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "2 files match within 1e-12 per block; no float differs",
        "1 of 2 files are byte-identical; not byte-identical:",
        "  case/summary.csv",
    ]


def test_compare_snapshots_names_a_missing_file(tmp_path, capsys):
    before = snapshot(tmp_path / "before")
    after = snapshot(tmp_path / "after")
    (after / "case" / "fault.vtk").unlink()
    assert compare_snapshots.main([str(before), str(after)]) == 1
    assert "case/fault.vtk: missing from AFTER" in capsys.readouterr().err


def test_benchmark_replay_reproduces_the_public_call(tmp_path):
    # perfbench/ops.py repeats the pipeline of ``run_scenario`` call by
    # call; the benchmark rejects a run whose replay drifts from it.  Both
    # solve routes: run2d writes its outputs, schur writes none.
    ops = load(ROOT / "perfbench" / "ops.py")
    spans = load(ROOT / "perfbench" / "spans.py")
    for workload, scenario in (("run2d", "case_i"), ("schur", "case_ii")):
        (op,) = [o for o in ops.WORKLOADS[workload] if o.scenario == scenario]
        state = ops.setup(workload)
        public_dir = replay_dir = None
        if op.write:
            public_dir = tmp_path / workload / "public"
            replay_dir = tmp_path / workload / "replay"
        public = ops.run_op(op, state, public_dir)
        replay = ops.replay_op(op, state, replay_dir, spans.Tracer(), 0)

        pressures = list(zip(ops.pressures(public), ops.pressures(replay)))
        assert len(pressures) == 4
        for a, b in pressures:
            assert np.array_equal(a, b)
        assert public.diagnostics == replay.diagnostics
        if op.write:
            names = sorted(path.name for path in public_dir.iterdir())
            assert "summary.csv" in names
            assert names == sorted(path.name for path in replay_dir.iterdir())
            for name in names:
                assert (public_dir / name).read_bytes() == (
                    replay_dir / name
                ).read_bytes(), name
        for outcome in (public, replay):
            assert (
                ops.check(op, ops.observe(op, outcome), state.expected) == []
            ), workload
