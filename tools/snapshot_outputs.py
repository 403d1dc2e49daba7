#!/usr/bin/env python3
"""Write the outputs of the bundled scenarios for a before/after comparison.

    python3 tools/snapshot_outputs.py DIR

For each bundled scenario (case_i, case_ii, case_iii, fault3d) and each
solver route (saddle, schur), ``run_scenario`` writes its VTK files and
``summary.csv`` into ``DIR/<case>_<route>/``.  For case_i, case_ii and
case_iii, ``sweep`` writes the thickness-sweep table at eps 1e-2, 5e-3 and
2.5e-3, both coefficient modes, into ``DIR/sweep_<case>.csv``.  The
geometries of case_ii and fault3d are written by ``export_mesh`` into
``DIR/mesh_<case>.msh``.

Two snapshots taken from two checkouts are compared with
``tools/compare_snapshots.py BEFORE AFTER``, which allows round-off
differences, or with ``diff -r`` where the outputs must be byte-identical.
Only the public API is used, so the script runs unchanged against older
checkouts.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from faultflow.mesh import export_mesh  # noqa: E402
from faultflow.scenarios import (  # noqa: E402
    build_geometry,
    bundled_config,
    load_config,
    run_scenario,
    sweep,
)

CASES_2D = ("case_i", "case_ii", "case_iii")
ROUTES = ("saddle", "schur")
SWEEP_EPS = (1e-2, 5e-3, 2.5e-3)
MESHES = ("case_ii", "fault3d")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    out = Path(argv[0])
    for name in (*CASES_2D, "fault3d"):
        config = load_config(bundled_config(name))
        for route in ROUTES:
            run_scenario(
                replace(config, solver=route),
                output_dir=out / f"{name}_{route}",
            )
    for name in CASES_2D:
        sweep(
            load_config(bundled_config(name)),
            SWEEP_EPS,
            output_path=out / f"sweep_{name}.csv",
        )
    for name in MESHES:
        geometry = build_geometry(load_config(bundled_config(name)))
        export_mesh(geometry, out / f"mesh_{name}.msh")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
