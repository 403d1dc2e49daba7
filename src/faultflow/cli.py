"""Command-line front end.

    faultflow run case_i --out results/
    faultflow sweep case_ii --eps 1e-2,5e-3,2.5e-3 --out sweep.csv
    faultflow check-mesh some_mesh.msh

Scenario arguments take a file path or the name of a bundled scenario
(case_i, case_ii, case_iii, fault3d).  Exit codes: 0 on success, 1 for
configuration or usage problems, 2 when the mesh or the solve fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .linsolve import SolverError
from .mesh import SIDES, MeshError, import_mesh
from .scenarios import (
    ConfigError,
    bundled_config,
    load_config,
    run_scenario,
    sweep,
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _locate_config(token: str) -> Path:
    path = Path(token)
    if path.exists():
        return path
    if "/" not in token and not token.endswith(".cfg"):
        return bundled_config(token)
    raise ConfigError(f"no scenario file at {token}")


def _cmd_run(args) -> int:
    config = load_config(_locate_config(args.config))
    if args.solver:
        config.solver = args.solver
    result = run_scenario(config, output_dir=args.out)
    print(f"scenario {config.name}: {result.geometry.matrix.n_cells} "
          "matrix cells")
    for key in sorted(result.diagnostics):
        print(f"  {key}: {result.diagnostics[key]}")
    for path in result.outputs:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(_locate_config(args.config))
    try:
        eps_values = [float(tok) for tok in args.eps.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad --eps list {args.eps!r}") from None
    if not eps_values:
        raise ConfigError("--eps needs at least one value")
    modes = (
        ("permeability", "literal")
        if args.modes == "both"
        else (args.modes,)
    )
    rows = sweep(
        config,
        eps_values,
        h=args.h,
        h2=args.h2,
        eta_coarse=args.eta_coarse,
        modes=modes,
        output_path=args.out,
    )
    header = ("eps", "case", "mode", "e_tilde", "delta_p", "lower", "upper")
    print(" ".join(header))
    for row in rows:
        print(" ".join(str(row[key]) for key in header))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_check_mesh(args) -> int:
    geometry = import_mesh(args.mesh)
    for name, mesh in (("matrix", geometry.matrix), ("fault", geometry.fault)):
        print(
            f"{name}: dim {mesh.dim}, {mesh.n_cells} cells, "
            f"{mesh.n_faces} faces"
        )
    for side in SIDES:
        print(
            f"matrix/damage pairing ({side}): "
            f"{len(geometry.matrix_damage[side])} faces"
        )
    print("mesh ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="faultflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one scenario")
    p_run.add_argument("config", help="scenario file or bundled name")
    p_run.add_argument("--out", help="directory for VTK and summary output")
    p_run.add_argument(
        "--solver", choices=("saddle", "schur"),
        help="override the scenario's solver",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="model-error bounds across layer thicknesses"
    )
    p_sweep.add_argument("config", help="scenario file or bundled name")
    p_sweep.add_argument(
        "--eps", required=True, help="comma-separated layer thicknesses"
    )
    p_sweep.add_argument("--h", type=float, default=1.0 / 32.0,
                         help="reduced-model grid spacing")
    p_sweep.add_argument("--h2", type=float, default=1.0 / 64.0,
                         help="finer spacing for the discretization gap")
    p_sweep.add_argument(
        "--eta-coarse", type=float, default=1.0 / 48.0,
        help="far-field cell size of the layered reference mesh",
    )
    p_sweep.add_argument(
        "--modes", choices=("both", "literal", "permeability"),
        default="both", help="coefficient interpretations to run",
    )
    p_sweep.add_argument("--out", help="CSV file for the table")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser(
        "check-mesh", help="validate a mesh file and print its shape"
    )
    p_check.add_argument("mesh", help="mesh file to inspect")
    p_check.set_defaults(func=_cmd_check_mesh)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MeshError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
