"""The four workloads, their operations and the correctness gate.

Importing this module imports faultflow and with it numpy and scipy; the
worker times that import as part of set-up.

Each operation has two forms.  ``run_op`` makes the public call a user makes
(``load_config`` + ``run_scenario``, as ``faultflow run`` does, or one
``sweep`` row).  ``replay_op`` repeats the same pipeline step by step through
the public functions ``run_scenario`` and ``sweep`` call, with a span around
each call.  The replay must reproduce the public call bit for bit; the
worker compares the two on every traced operation.

Sweep rows are permeability mode only.  The literal-mode reference has no
settled meaning yet (the seed gives e_tilde about 0.26 in literal mode
against about 0.01 in permeability mode), so there is no value to gate it on.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from faultflow.assembly import SIDES, assemble
from faultflow.linsolve import (
    cell_velocities,
    conservation_residuals,
    global_balance,
    interface_law_residuals,
    solve_saddle,
    solve_schur,
)
from faultflow.model_error import error_bounds
from faultflow.scenarios import (
    RunResult,
    build_geometry,
    bundled_config,
    equidim_reference,
    load_config,
    resolve_boundary_conditions,
    resolve_coefficients,
    run_scenario,
    sweep,
)
from faultflow.vtk_io import write_vtk

CASES_2D = ("case_i", "case_ii", "case_iii")
SWEEP_EPS = (1e-2, 5e-3, 2.5e-3)
# sweep() defaults: reduced grids at h = 1/32 and 1/64, strips meshed at
# eps/4, matrix graded to 1/48.
SWEEP_GRIDS = (32, 64)
SWEEP_ETA_FACTOR = 0.25
SWEEP_ETA_COARSE = 1.0 / 48.0

# Tolerance of acceptance test 05, and the thresholds of tests 03 and 04.
REL_TOL = 1e-8
CONSERVATION_MAX = 1e-10
BALANCE_MAX = 1e-9
INTERFACE_MAX = 1e-9

EXPECTED_PATH = Path(__file__).with_name("expected.json")

@dataclass(frozen=True)
class Op:
    """One operation: a scenario run on one route, or one sweep row."""

    scenario: str
    route: str | None = None  # "saddle" or "schur" for runs
    write: bool = False  # runs: write VTK files and summary.csv
    eps: float | None = None  # sweep rows

    @property
    def key(self) -> str:
        if self.eps is not None:
            return f"{self.scenario}/eps={self.eps!r}"
        return f"{self.scenario}/{self.route}"


WORKLOADS = {
    "run2d": [Op(name, "saddle", write=True) for name in CASES_2D],
    "schur": [Op(name, "schur") for name in (*CASES_2D, "fault3d")],
    "fault3d": [Op("fault3d", "saddle", write=True)],
    "sweep": [Op(name, eps=eps) for name in CASES_2D for eps in SWEEP_EPS],
}


@dataclass
class State:
    """What set-up loads: the scenario files and their configs."""

    ops: list[Op]
    paths: dict[str, Path]
    configs: dict
    expected: dict


def setup(workload: str, expected_path: Path | None = EXPECTED_PATH) -> State:
    ops = WORKLOADS[workload]
    names = sorted({op.scenario for op in ops})
    paths = {name: bundled_config(name) for name in names}
    configs = {name: load_config(paths[name]) for name in names}
    expected = (
        json.loads(Path(expected_path).read_text()) if expected_path else {}
    )
    return State(ops=ops, paths=paths, configs=configs, expected=expected)


# ---------------------------------------------------------------------------
# the public call
# ---------------------------------------------------------------------------


def run_op(op: Op, state: State, out_dir: Path | None):
    """The operation as a user runs it.  Returns the RunResult or the
    sweep row."""
    if op.eps is not None:
        return sweep(
            state.configs[op.scenario], [op.eps], modes=("permeability",)
        )[0]
    config = load_config(state.paths[op.scenario])
    config.solver = op.route
    return run_scenario(config, output_dir=out_dir)


# ---------------------------------------------------------------------------
# the traced replay
# ---------------------------------------------------------------------------


def _cells(geometry) -> int:
    return (
        geometry.matrix.n_cells
        + sum(geometry.damage[s].n_cells for s in SIDES)
        + geometry.fault.n_cells
    )


def _solve_steps(tracer, op_id, config):
    """geometry -> coefficients -> boundary data -> assembly -> solve."""
    with tracer.span("mesh", "build_geometry", op_id) as counts:
        geometry = build_geometry(config)
        counts["cells"] = _cells(geometry)
    with tracer.span("scenarios", "resolve_coefficients", op_id):
        coeff = resolve_coefficients(config, geometry)
    with tracer.span("scenarios", "resolve_boundary_conditions", op_id):
        bc = resolve_boundary_conditions(config, geometry)
    with tracer.span("assembly", "assemble", op_id) as counts:
        system = assemble(geometry, coeff, bc)
        counts["dofs"] = system.n_dofs
        counts["nnz"] = system.matrix.nnz
    if config.solver == "schur":
        with tracer.span("linsolve", "solve_schur", op_id) as counts:
            solution, report = solve_schur(system)
            counts["cg_iterations"] = report["iterations"]
    else:
        with tracer.span("linsolve", "solve_saddle", op_id):
            solution, report = solve_saddle(system), None
    return geometry, system, solution, report


def _diagnostics(system, solution, report) -> dict:
    conservation = conservation_residuals(system, solution)
    laws = interface_law_residuals(system, solution)
    out = {
        "conservation_max": max(
            float(np.max(np.abs(v))) for v in conservation.values()
        ),
        "interface_max": max(
            float(np.max(np.abs(laws[name][side])))
            for name in ("matrix_damage", "damage_fault")
            for side in SIDES
        ),
        "balance": float(global_balance(system, solution)),
    }
    if report is not None:
        out["iterations"] = report["iterations"]
    return out


def _domain_fields(geometry, solution):
    return {
        "matrix": (geometry.matrix, solution.matrix_pressure),
        "damage_left": (
            geometry.damage["left"],
            solution.damage_pressure["left"],
        ),
        "damage_right": (
            geometry.damage["right"],
            solution.damage_pressure["right"],
        ),
        "fault": (geometry.fault, solution.fault_pressure),
    }


def _write_outputs(tracer, op_id, out_dir, config, geometry, system,
                   solution, diagnostics) -> list[Path]:
    """VTK files per domain, then summary.csv, as ``faultflow run --out``
    writes them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    with tracer.span("linsolve", "cell_velocities", op_id):
        vels = cell_velocities(system, solution)
    fields = _domain_fields(geometry, solution)
    for name, (mesh, pressure) in fields.items():
        path = out_dir / f"{name}.vtk"
        with tracer.span("vtk_io", "write_vtk", op_id) as counts:
            write_vtk(
                path,
                mesh,
                {"pressure": pressure, "velocity": vels[name]},
                title=f"{config.name} {name}",
            )
        counts["bytes"] = path.stat().st_size
        outputs.append(path)

    def num(value) -> str:
        return repr(float(value))

    rows = [
        ("name", config.name),
        ("mode", config.mode),
        ("solver", config.solver),
        ("eps_mu", num(config.eps_mu)),
        ("eps_gamma", num(config.eps_gamma)),
        ("cells_matrix", geometry.matrix.n_cells),
        ("cells_damage_left", geometry.damage["left"].n_cells),
        ("cells_damage_right", geometry.damage["right"].n_cells),
        ("cells_fault", geometry.fault.n_cells),
        ("dofs", system.n_dofs),
    ]
    for name, (_, values) in fields.items():
        rows.append((f"p_{name}_min", num(np.min(values))))
        rows.append((f"p_{name}_max", num(np.max(values))))
        rows.append((f"p_{name}_mean", num(np.mean(values))))
    exchange_max = max(
        float(np.max(np.abs(solution.exchange_flux[s]))) for s in SIDES
    )
    rows.append(("exchange_abs_max", num(exchange_max)))
    for key in ("conservation_max", "interface_max", "balance"):
        rows.append((key, num(diagnostics[key])))
    if "iterations" in diagnostics:
        rows.append(("iterations", diagnostics["iterations"]))
    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerows(rows)
    return outputs + [summary]


def replay_op(op: Op, state: State, out_dir: Path | None, tracer, op_id: int):
    """The operation step by step, one span per public call; returns a
    RunResult or the sweep row, as ``run_op`` does.  The root span's self
    time is the orchestration: summary.csv, config copies."""
    with tracer.span("scenarios", "op", op_id):
        if op.eps is not None:
            return _replay_sweep_row(op, state, tracer, op_id)
        with tracer.span("scenarios", "load_config", op_id):
            config = load_config(state.paths[op.scenario])
        config.solver = op.route
        geometry, system, solution, report = _solve_steps(
            tracer, op_id, config
        )
        with tracer.span("linsolve", "diagnostics", op_id):
            diagnostics = _diagnostics(system, solution, report)
        outputs = []
        if out_dir is not None:
            outputs = _write_outputs(tracer, op_id, out_dir, config, geometry,
                                     system, solution, diagnostics)
        return RunResult(config, geometry, system, solution, diagnostics,
                         outputs)


def _replay_sweep_row(op: Op, state: State, tracer, op_id: int) -> dict:
    eps = float(op.eps)
    config = replace(
        state.configs[op.scenario], eps_mu=eps, eps_gamma=eps,
        mode="permeability",
    )
    with tracer.span("equidim", "equidim_reference", op_id) as counts:
        mesh_ref, reference = equidim_reference(
            config, eta=SWEEP_ETA_FACTOR * eps, eta_coarse=SWEEP_ETA_COARSE
        )
        counts["reference_cells"] = mesh_ref.n_cells
    reduced = []
    for n in SWEEP_GRIDS:
        cfg = replace(config, nx=n, ny=n, solver="saddle")
        geometry, _, solution, _ = _solve_steps(tracer, op_id, cfg)
        reduced += [geometry.matrix, solution.matrix_pressure]
    with tracer.span("model_error", "error_bounds", op_id) as counts:
        bounds = error_bounds(mesh_ref, reference.pressure, *reduced)
        # every reference centroid is located in both reduced meshes
        counts["points"] = 2 * mesh_ref.n_cells
    return {"e_tilde": bounds.estimate, "delta_p": bounds.gap}


# ---------------------------------------------------------------------------
# what the gate compares
# ---------------------------------------------------------------------------


def observe(op: Op, outcome) -> dict:
    """The checked values of one operation, from either form's result."""
    if op.eps is not None:
        return {"e_tilde": outcome["e_tilde"], "delta_p": outcome["delta_p"]}
    out = {}
    fields = _domain_fields(outcome.geometry, outcome.solution)
    for name, (_, values) in fields.items():
        out[f"p_{name}_min"] = float(np.min(values))
        out[f"p_{name}_max"] = float(np.max(values))
        out[f"p_{name}_mean"] = float(np.mean(values))
    for key in ("conservation_max", "interface_max", "balance"):
        out[key] = outcome.diagnostics[key]
    return out


def pressures(result: RunResult) -> list[np.ndarray]:
    """Every pressure field of a run, for the bit-for-bit replay check."""
    fields = _domain_fields(result.geometry, result.solution)
    return [values for _, values in fields.values()]


def check(op: Op, observed: dict, expected: dict) -> list[str]:
    """Misses of one operation against the stored seed values and the
    acceptance thresholds; empty when the operation is correct."""
    misses = []
    if op.eps is not None:
        want = expected["sweep"][op.key]
        for key, value in want.items():
            if abs(observed[key] - value) > REL_TOL * abs(value):
                misses.append(f"{key} {observed[key]!r} != {value!r}")
        return misses
    want = expected["runs"][op.key]
    scale = max(abs(v) for v in want.values())
    for key, value in want.items():
        if abs(observed[key] - value) > REL_TOL * scale:
            misses.append(f"{key} {observed[key]!r} != {value!r}")
    if not observed["conservation_max"] <= CONSERVATION_MAX:
        misses.append(f"conservation_max {observed['conservation_max']!r}")
    if not abs(observed["balance"]) <= BALANCE_MAX:
        misses.append(f"balance {observed['balance']!r}")
    if not observed["interface_max"] <= INTERFACE_MAX:
        misses.append(f"interface_max {observed['interface_max']!r}")
    return misses
