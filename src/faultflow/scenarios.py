"""Scenario configuration and the run/sweep pipelines.

A scenario lives in a small text file, one directive per line:

    name case_i
    geometry two_block        # or: geometry mesh some_file.msh
    nx 53
    ny 40
    eps_mu 1e-2
    eps_gamma 1e-2
    mode permeability         # or literal
    solver saddle             # or schur
    coeff matrix 1.0
    coeff damage 100.0
    coeff fault 2e-3 where 0.25 <= y <= 0.75
    bc pressure 0 on matrix:left
    bc pressure 1 on matrix:right
    bc pressure 1 on layers:y1
    bc flux 0 on fault:y0
    bc pressure 4 on matrix where x <= 0 and z > 90

``coeff`` lines assign a conductivity table entry to a region (later lines
override earlier ones where their predicate matches); ``mode`` decides how
the table becomes resistances.  ``bc`` lines address external boundary
faces of a domain either by mesh tag or by a centroid predicate; the
domains ``damage`` and ``layers`` fan out to both damage sides (plus the
fault for ``layers``).  Unaddressed external faces are zero-flux.
Predicates chain comparisons on x, y, z joined by ``and``.

``run_scenario`` solves one configuration and, given an output directory,
writes one VTK file per domain plus a key,value summary.csv whose floats
are full-precision reprs (so reruns are byte-identical).  ``sweep``
re-solves a two-block scenario across layer thicknesses against the
equi-dimensional reference and tabulates the model-error brackets.
"""

from __future__ import annotations

import csv
import ctypes
import math
import os
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .assembly import (
    SIDES,
    BlockSystem,
    BoundaryConditions,
    CoefficientSet,
    _resistances,
    _UnusableResistance,
    assemble,
    coefficients_from_mode,
)
from .equidim import solve_equidim
from .linsolve import (
    _REFINE_TOL,
    MixedSolution,
    SolverError,
    cell_velocities,
    conservation_residuals,
    global_balance,
    interface_law_residuals,
    solve_saddle,
    solve_schur,
)
from .mesh import (
    MixedDimGeometry,
    build_layered_equidim_mesh,
    build_two_block_geometry,
    import_mesh,
)
from .model_error import error_bounds
from .vtk_io import write_vtk

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "bundled_config",
    "build_geometry",
    "resolve_coefficients",
    "resolve_boundary_conditions",
    "RunResult",
    "run_scenario",
    "equidim_reference",
    "sweep",
]

_COEFF_REGIONS = ("matrix", "damage", "damage_left", "damage_right", "fault")
_BC_DOMAINS = _COEFF_REGIONS + ("layers",)
_MATRIX_TAGS = ("left", "right", "top", "bottom", "boundary")
_LAYER_TAGS = ("y0", "y1", "boundary")


class ConfigError(Exception):
    """A scenario file could not be understood."""


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}
_AXES = {"x": 0, "y": 1, "z": 2}
_TOKEN = re.compile(r"<=|>=|<|>|[^\s<>]+")


@dataclass(frozen=True)
class Predicate:
    """Conjunction of comparison chains over point coordinates.  A chain
    term is an axis name (x, y, z) or a float constant."""

    chains: tuple
    text: str

    def mask(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)

        def value(term):
            return pts[:, _AXES[term]] if isinstance(term, str) else term

        out = np.ones(len(pts), dtype=bool)
        for chain in self.chains:
            for lhs, op, rhs in chain:
                out &= _OPS[op](value(lhs), value(rhs))
        return out

    def __str__(self) -> str:
        return self.text


def _parse_predicate(text: str, line: int) -> Predicate:
    chains = []
    for clause in re.split(r"\band\b", text):
        clause = clause.strip()
        if not clause:
            raise ConfigError(f"line {line}: empty clause in {text!r}")
        tokens = _TOKEN.findall(clause)
        if len(tokens) < 3 or len(tokens) % 2 == 0:
            raise ConfigError(
                f"line {line}: cannot read comparison {clause!r}"
            )
        terms, ops = tokens[0::2], tokens[1::2]
        if any(op not in _OPS for op in ops):
            raise ConfigError(
                f"line {line}: unknown operator in {clause!r}"
            )
        # a term is a coordinate name or a finite constant
        terms = [
            t if t in _AXES else _number(t, line, "term") for t in terms
        ]
        if not any(isinstance(t, str) for t in terms):
            raise ConfigError(
                f"line {line}: comparison {clause!r} uses no coordinate"
            )
        chains.append(
            tuple(
                (terms[i], ops[i], terms[i + 1]) for i in range(len(ops))
            )
        )
    return Predicate(chains=tuple(chains), text=text.strip())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class CoeffRule:
    region: str
    value: float
    predicate: Predicate | None
    line: int


@dataclass
class BcRule:
    kind: str
    value: float
    domain: str
    tag: str | None
    predicate: Predicate | None
    line: int


@dataclass
class RunConfig:
    name: str
    geometry_kind: str = "two_block"
    nx: int | None = None
    ny: int | None = None
    mesh_path: str | None = None
    eps_mu: float = 1e-2
    eps_gamma: float = 1e-2
    mode: str = "permeability"
    solver: str = "saddle"
    output_dir: str | None = None
    base_dir: Path = field(default_factory=Path)
    coeff_rules: list[CoeffRule] = field(default_factory=list)
    bc_rules: list[BcRule] = field(default_factory=list)


def _number(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"line {line}: {what} {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line}: {what} {token!r} is not finite")
    return value


def parse_config(text: str, name: str = "scenario",
                 base_dir: Path | None = None) -> RunConfig:
    config = RunConfig(name=name, base_dir=base_dir or Path("."))
    saw_geometry = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)
        body = rest[0] if rest else ""

        if head == "coeff":
            parts = body.split(None, 2)
            if len(parts) < 2:
                raise ConfigError(
                    f"line {lineno}: coeff needs a region and a value"
                )
            region, value = parts[0], _number(parts[1], lineno, "value")
            if value <= 0:
                raise ConfigError(
                    f"line {lineno}: coeff value must be positive"
                )
            if region not in _COEFF_REGIONS:
                raise ConfigError(
                    f"line {lineno}: unknown region {region!r} "
                    f"(one of {', '.join(_COEFF_REGIONS)})"
                )
            predicate = None
            if len(parts) == 3:
                where = parts[2]
                if not where.startswith("where"):
                    raise ConfigError(
                        f"line {lineno}: expected 'where', got {where!r}"
                    )
                predicate = _parse_predicate(where[5:], lineno)
            config.coeff_rules.append(
                CoeffRule(region, value, predicate, lineno)
            )

        elif head == "bc":
            m = re.match(
                r"(pressure|flux)\s+(\S+)\s+on\s+(\S+?)(?:\s+where\s+(.+))?$",
                body,
            )
            if not m:
                raise ConfigError(
                    f"line {lineno}: expected "
                    "'bc pressure|flux <value> on <domain>[:<tag>]' or "
                    "'... on <domain> where <predicate>'"
                )
            kind, value_token, target, where = m.groups()
            value = _number(value_token, lineno, "value")
            domain, _, tag = target.partition(":")
            if domain not in _BC_DOMAINS:
                raise ConfigError(
                    f"line {lineno}: unknown domain {domain!r} "
                    f"(one of {', '.join(_BC_DOMAINS)})"
                )
            tag = tag or None
            if tag and where:
                raise ConfigError(
                    f"line {lineno}: give either a tag or a predicate"
                )
            if tag:
                allowed = (
                    _MATRIX_TAGS if domain == "matrix" else _LAYER_TAGS
                )
                if tag not in allowed:
                    raise ConfigError(
                        f"line {lineno}: tag {tag!r} is not valid for "
                        f"{domain} (one of {', '.join(allowed)})"
                    )
            predicate = (
                _parse_predicate(where, lineno) if where else None
            )
            config.bc_rules.append(
                BcRule(kind, value, domain, tag, predicate, lineno)
            )

        elif head == "geometry":
            parts = body.split(None, 1)
            if not parts:
                raise ConfigError(f"line {lineno}: geometry needs a kind")
            if parts[0] == "two_block":
                config.geometry_kind = "two_block"
            elif parts[0] == "mesh":
                if len(parts) != 2:
                    raise ConfigError(
                        f"line {lineno}: geometry mesh needs a file path"
                    )
                config.geometry_kind = "mesh"
                config.mesh_path = parts[1].strip()
            else:
                raise ConfigError(
                    f"line {lineno}: unknown geometry {parts[0]!r}"
                )
            saw_geometry = True

        elif head in ("nx", "ny"):
            value = _number(body, lineno, head)
            if value != int(value) or value < 1:
                raise ConfigError(
                    f"line {lineno}: {head} must be a positive integer"
                )
            setattr(config, head, int(value))
            # 4 nx ny matrix cells, indexed in int32 by SuperLU and by
            # scipy's sparse arrays
            cells = 4 * (config.nx or 1) * (config.ny or 1)
            if cells > 2**31 - 1:
                raise ConfigError(
                    f"line {lineno}: {head} {body} gives {cells:.3g} matrix "
                    "cells (4 nx ny), over the 2^31 - 1 index limit"
                )

        elif head in ("eps_mu", "eps_gamma"):
            value = _number(body, lineno, head)
            if value <= 0:
                raise ConfigError(f"line {lineno}: {head} must be positive")
            setattr(config, head, value)

        elif head == "mode":
            if body not in ("literal", "permeability"):
                raise ConfigError(
                    f"line {lineno}: mode must be literal or permeability"
                )
            config.mode = body

        elif head == "solver":
            if body not in ("saddle", "schur"):
                raise ConfigError(
                    f"line {lineno}: solver must be saddle or schur"
                )
            config.solver = body

        elif head == "name":
            if not body:
                raise ConfigError(f"line {lineno}: name needs a value")
            config.name = body

        elif head == "output_dir":
            config.output_dir = body

        else:
            raise ConfigError(
                f"line {lineno}: unknown directive {head!r}"
            )

    if not saw_geometry:
        raise ConfigError("no geometry directive in the scenario")
    if config.geometry_kind == "two_block" and (
        config.nx is None or config.ny is None
    ):
        raise ConfigError("two_block geometry needs nx and ny")
    if not config.coeff_rules:
        raise ConfigError("no coeff directives in the scenario")
    return config


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text, name=path.stem, base_dir=path.parent)


def bundled_config(name: str) -> Path:
    """Path of a scenario shipped with the package (case_i, case_ii,
    case_iii, fault3d)."""
    root = resources.files("faultflow") / "data" / f"{name}.cfg"
    path = Path(str(root))
    if not path.exists():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return path


# ---------------------------------------------------------------------------
# geometry / coefficients / boundary conditions
# ---------------------------------------------------------------------------


def build_geometry(config: RunConfig) -> MixedDimGeometry:
    if config.geometry_kind == "two_block":
        return build_two_block_geometry(config.nx, config.ny)
    return import_mesh(config.base_dir / config.mesh_path)


def _domain_targets(domain: str) -> list[str]:
    """The geometry domains a coeff region or bc domain name stands for."""
    if domain == "damage":
        return [f"damage_{s}" for s in SIDES]
    if domain == "layers":
        return [f"damage_{s}" for s in SIDES] + ["fault"]
    return [domain]


def _coefficient_table(rules, centroids, regions) -> tuple:
    """Conductivity per cell from the coeff rules, later rules overriding
    earlier ones where their predicate matches, and each cell's rule
    index.  ``regions`` labels every cell with its domain name."""
    winner = np.full(len(regions), -1)
    for i, rule in enumerate(rules):
        mask = np.isin(regions, _domain_targets(rule.region))
        if rule.predicate:
            mask &= rule.predicate.mask(centroids)
        winner[mask] = i
    uncovered = winner < 0
    if uncovered.any():
        region = regions[np.argmax(uncovered)]
        raise ConfigError(
            f"some {region} cells have no coefficient; add a coeff "
            f"{region} line without a predicate first"
        )
    values = np.array([rule.value for rule in rules], dtype=float)
    return values[winner], winner


def resolve_coefficients(
    config: RunConfig, geometry: MixedDimGeometry
) -> CoefficientSet:
    meshes = geometry.domains
    counts = [mesh.n_cells for mesh in meshes.values()]
    k, winners = _coefficient_table(
        config.coeff_rules,
        np.concatenate([mesh.cell_centroids() for mesh in meshes.values()]),
        np.repeat(list(meshes), counts),
    )
    cuts = np.cumsum(counts)[:-1]
    try:
        return coefficients_from_mode(
            geometry,
            dict(zip(meshes, np.split(k, cuts))),
            config.mode,
            eps_mu=config.eps_mu,
            eps_gamma=config.eps_gamma,
        )
    except _UnusableResistance as exc:
        winner = dict(zip(meshes, np.split(winners, cuts)))[exc.domain]
        rule = config.coeff_rules[winner[exc.cell]]
        raise ConfigError(f"line {rule.line}: {exc}") from None


def _boundary_rules(rules, domains, tags, centroids) -> tuple:
    """The bc rule deciding each boundary face, later rules overriding
    earlier ones.  A face is given by its domain name, its mesh tag and its
    centroid; a rule matches it through its domain (``damage`` and
    ``layers`` fan out), then its tag (``boundary`` matches any) or its
    predicate.  Returns the winning rule per face (None where no rule
    matches) and, per rule, whether it matched any face."""
    winner = np.full(len(domains), -1)
    matched = np.zeros(len(rules), dtype=bool)
    for i, rule in enumerate(rules):
        mask = np.isin(domains, _domain_targets(rule.domain))
        if rule.tag not in (None, "boundary"):
            mask &= tags == rule.tag
        if rule.predicate is not None:
            mask &= rule.predicate.mask(centroids)
        winner[mask] = i
        matched[i] = mask.any()
    return [rules[i] if i >= 0 else None for i in winner.tolist()], matched


def _split_by_kind(keys, winners, measures) -> tuple[dict, dict]:
    """Pressure and flux data (key -> value) of the faces a rule won.  A
    flux rule whose net flux (density times the face's measure) overflows
    on a face it won is a config error at its line."""
    data = {"pressure": {}, "flux": {}}
    for key, rule, measure in zip(keys, winners, measures):
        if rule is None:
            continue
        if rule.kind == "flux" and not math.isfinite(rule.value * measure):
            raise ConfigError(
                f"line {rule.line}: flux {rule.value:g} on a face of "
                f"measure {measure:g} overflows"
            )
        data[rule.kind][key] = rule.value
    return data["pressure"], data["flux"]


def resolve_boundary_conditions(
    config: RunConfig, geometry: MixedDimGeometry
) -> BoundaryConditions:
    meshes = geometry.domains
    external = {dom: geometry.external_faces(dom) for dom in meshes}
    keys = [(dom, f) for dom in meshes for f in external[dom].tolist()]
    tags = [meshes[dom].boundary_tags.get(f) for dom, f in keys]
    centroids = [meshes[dom].face_centroids()[external[dom]] for dom in meshes]
    winners, matched = _boundary_rules(
        config.bc_rules,
        np.array([dom for dom, _ in keys]),
        np.array(tags, dtype=object),
        np.concatenate(centroids),
    )
    if not matched.all():
        rule = config.bc_rules[int(np.argmin(matched))]
        raise ConfigError(
            f"line {rule.line}: the rule matches no boundary face"
        )
    measures = [meshes[dom].face_measures[external[dom]] for dom in meshes]
    pressure, flux = _split_by_kind(
        keys, winners, np.concatenate(measures).tolist()
    )
    return BoundaryConditions(pressure=pressure, flux=flux)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    config: RunConfig
    geometry: MixedDimGeometry
    system: BlockSystem
    solution: MixedSolution
    diagnostics: dict
    outputs: list[Path]


def _diagnostics(system, solution, solver_report, conservation) -> dict:
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
    if solver_report is not None:
        out["iterations"] = solver_report["iterations"]
    return out


def _float_repr(value) -> str:
    return repr(float(value))


def _write_outputs(
    out_dir: Path, config: RunConfig, system, solution, diagnostics
) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    meshes = system.geometry.domains
    vels = cell_velocities(system, solution)
    pressures = {
        name: solution.vector[system.offsets[f"{name}_pressure"]]
        for name in meshes
    }
    outputs = []
    for name, mesh in meshes.items():
        path = out_dir / f"{name}.vtk"
        write_vtk(
            path,
            mesh,
            {"pressure": pressures[name], "velocity": vels[name]},
            title=f"{config.name} {name}",
        )
        outputs.append(path)

    rows = [
        ("name", config.name),
        ("mode", config.mode),
        ("solver", config.solver),
        ("eps_mu", _float_repr(config.eps_mu)),
        ("eps_gamma", _float_repr(config.eps_gamma)),
        *((f"cells_{name}", mesh.n_cells) for name, mesh in meshes.items()),
        ("dofs", system.n_dofs),
    ]
    for dom, values in pressures.items():
        rows.append((f"p_{dom}_min", _float_repr(np.min(values))))
        rows.append((f"p_{dom}_max", _float_repr(np.max(values))))
        rows.append((f"p_{dom}_mean", _float_repr(np.mean(values))))
    exchange_max = max(
        float(np.max(np.abs(solution.exchange_flux[s]))) for s in SIDES
    )
    rows.append(("exchange_abs_max", _float_repr(exchange_max)))
    for key in ("conservation_max", "interface_max", "balance"):
        rows.append((key, _float_repr(diagnostics[key])))
    if "iterations" in diagnostics:
        rows.append(("iterations", diagnostics["iterations"]))

    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for key, value in rows:
            writer.writerow([key, value])
    outputs.append(summary)
    return outputs


def _resolve_output_dir(config: RunConfig, output_dir) -> Path | None:
    if output_dir is not None:
        return Path(output_dir)
    env = os.environ.get("FAULTFLOW_OUTDIR")
    if env:
        return Path(env)
    if config.output_dir:
        return config.base_dir / config.output_dir
    return None


def _solve(config: RunConfig) -> tuple:
    """Geometry, coefficients, boundary data, assembly and the solve of
    the configured route.  Returns (system, solution, solver report,
    conservation residuals by domain).

    Raises SolverError when a row-scaled conservation residual is above
    ``_REFINE_TOL`` max|x|: the solution does not solve its own system."""
    geometry = build_geometry(config)
    coeff = resolve_coefficients(config, geometry)
    bc = resolve_boundary_conditions(config, geometry)
    system = assemble(geometry, coeff, bc)
    _release_free_heap()
    if config.solver == "schur":
        solution, report = solve_schur(system)
    else:
        solution, report = solve_saddle(system), None
    conservation = conservation_residuals(system, solution)
    size = float(np.max(np.abs(solution.vector)))
    for name, residuals in conservation.items():
        cell = int(np.argmax(np.abs(residuals)))
        worst = abs(float(residuals[cell]))
        if not worst <= _REFINE_TOL * size + np.finfo(float).tiny:
            raise SolverError(
                f"the {config.solver} solution fails its conservation "
                f"check: {name} cell {cell} has residual {worst:.1e} "
                f"against max|x| {size:.1e}"
            )
    return system, solution, report, conservation


def run_scenario(config: RunConfig | str | Path, output_dir=None) -> RunResult:
    """Build, solve, and optionally write one scenario.  An output path
    that is not a directory is a ConfigError before the solve; so are
    outputs that cannot be written."""
    if not isinstance(config, RunConfig):
        config = load_config(config)
    out_dir = _resolve_output_dir(config, output_dir)
    if out_dir is not None and out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"cannot write {out_dir}: it is not a directory")
    system, solution, report, conservation = _solve(config)
    diagnostics = _diagnostics(system, solution, report, conservation)

    outputs = []
    if out_dir is not None:
        try:
            outputs = _write_outputs(
                out_dir, config, system, solution, diagnostics
            )
        except OSError as exc:
            raise ConfigError(f"cannot write {out_dir}: {exc}") from None
    return RunResult(
        config=config,
        geometry=system.geometry,
        system=system,
        solution=solution,
        diagnostics=diagnostics,
        outputs=outputs,
    )


# ---------------------------------------------------------------------------
# equi-dimensional reference and the thickness sweep
# ---------------------------------------------------------------------------


def equidim_reference(
    config: RunConfig, eta: float, eta_coarse: float
) -> tuple:
    """Solve the scenario with the layers at physical width.

    The strips are meshed at size ``eta`` and the surrounding matrix
    graded up to ``eta_coarse``.  Conductivities come from the same coeff
    rules, evaluated at the cells of the layered mesh.  Boundary data
    follows the region of each boundary face's owner cell: a layer's y0/y1
    data lands on the bottom/top faces of its strip, matrix data on the
    rest; rules that match no face here are ignored.  Returns (mesh,
    solution).
    """
    if config.geometry_kind != "two_block":
        raise ConfigError(
            "the equi-dimensional reference needs a two_block scenario"
        )
    mesh = build_layered_equidim_mesh(
        config.eps_mu, config.eps_gamma, eta=eta, eta_coarse=eta_coarse
    )

    k, winners = _coefficient_table(
        config.coeff_rules, mesh.cell_centroids(), mesh.cell_regions
    )
    # strips meshed at their physical width: the along rule at t = 1
    try:
        resist, _ = _resistances(k, 1.0, config.mode, "reference")
    except _UnusableResistance as exc:
        rule = config.coeff_rules[winners[exc.cell]]
        raise ConfigError(f"line {rule.line}: {exc}") from None

    # a boundary face takes the data of its owner cell's domain; on a
    # strip, the bottom and top faces are that layer's y0 and y1 ends
    faces = mesh.boundary_faces()
    homes = mesh.cell_regions[mesh.face_cells[faces, 0]]
    tags = np.array([mesh.boundary_tags[f] for f in faces.tolist()])
    strip = homes != "matrix"
    tags[strip] = np.where(tags[strip] == "top", "y1", "y0")
    winners, _ = _boundary_rules(
        config.bc_rules, homes, tags, mesh.face_centroids()[faces]
    )
    pressure_bc, flux_bc = _split_by_kind(
        faces.tolist(), winners, mesh.face_measures[faces].tolist()
    )
    solution = solve_equidim(
        mesh, resist, pressure_bc=pressure_bc, flux_bc=flux_bc
    )
    return mesh, solution


try:  # glibc only; elsewhere the release is skipped
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_free_heap() -> None:
    """Hand the C heap's free pages back to the system before a large
    solve.  glibc keeps freed memory resident until the free space at the
    top of its heap passes a threshold, and one small block still in use
    near the top keeps it from ever doing so; the next factorization then
    grows the heap past memory that is free but resident.  Without the
    release, the peak memory of a sweep row depends on where earlier rows
    happened to leave their blocks.  Still needed with the hybridized
    saddle solve: made a no-op, it raised the benchmark's peak RSS from
    99-101 to 109-125 MB (run2d), from 155 to 174-176 MB (fault3d) and
    from 114 to 116 MB (sweep) on a 2-vCPU host."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def sweep(
    config: RunConfig,
    eps_values,
    h: float = 1.0 / 32.0,
    h2: float = 1.0 / 64.0,
    eta_coarse: float = 1.0 / 48.0,
    modes=("permeability", "literal"),
    output_path=None,
) -> list[dict]:
    """Model-error bounds across layer thicknesses.

    For each thickness and mode: solve the reduced problem at grid
    spacings ``h`` and ``h2``, solve the layered reference with strip
    resolution ``eps / 4``, and record the error bracket.  Every thickness
    and spacing must be finite and positive, the fault structure (two
    damage layers and the core, 3 eps) narrower than the unit blocks, and
    1/h and 1/h2 must lie within 1e-9 of a whole number of cells, and
    ``output_path`` may not be a directory and its parent directory must
    exist or be creatable (ConfigError otherwise, before any solve; so is
    a table that cannot be written).
    """
    if config.geometry_kind != "two_block":
        raise ConfigError("sweep needs a two_block scenario")
    if output_path is not None and Path(output_path).is_dir():
        raise ConfigError(f"cannot write {output_path}: it is a directory")
    eps_values = list(eps_values)
    for name, values in (
        ("eps", eps_values),
        ("h", [h]),
        ("h2", [h2]),
        ("eta_coarse", [eta_coarse]),
    ):
        for value in map(float, values):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"sweep {name} must be finite and positive, got {value!r}"
                )
    for eps in map(float, eps_values):
        if 2 * eps + eps >= 1.0:  # as ``build_layered_equidim_mesh`` tests
            raise ConfigError(
                f"sweep eps {eps!r} is too wide: the damage layers and the "
                "fault core (3 eps) must be narrower than the unit blocks"
            )
    grids = []
    for name, spacing in (("h", float(h)), ("h2", float(h2))):
        cells = 1.0 / spacing
        if not (
            math.isfinite(cells)
            and round(cells) >= 1
            and abs(cells - round(cells)) <= 1e-9
        ):
            raise ConfigError(
                f"sweep {name} must be finite and positive with 1/{name} a "
                f"whole number of cells, got {spacing!r}"
            )
        grids.append(round(cells))
    if output_path is not None:
        try:
            Path(output_path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write {output_path}: {exc}") from None
    rows = []
    for eps in eps_values:
        for mode in modes:
            cfg = replace(
                config, eps_mu=float(eps), eps_gamma=float(eps), mode=mode
            )
            _release_free_heap()
            mesh_ref, reference = equidim_reference(
                cfg, eta=0.25 * float(eps), eta_coarse=eta_coarse
            )
            reduced = []
            for n in grids:
                system, solution, _, _ = _solve(
                    replace(cfg, nx=n, ny=n, solver="saddle")
                )
                reduced += [system.geometry.matrix, solution.matrix_pressure]
                # keep only the matrix mesh and pressure: holding a whole
                # system through the next solve raises the peak memory
                del system, solution
            bounds = error_bounds(mesh_ref, reference.pressure, *reduced)
            rows.append(
                {
                    "eps": float(eps),
                    "case": config.name,
                    "mode": mode,
                    "e_tilde": bounds.estimate,
                    "delta_p": bounds.gap,
                    "lower": bounds.lower,
                    "upper": bounds.upper,
                }
            )
    if output_path is not None:
        try:
            with open(output_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["eps", "case", "mode", "e_tilde", "delta_p", "lower",
                     "upper"]
                )
                for row in rows:
                    writer.writerow(
                        [
                            _float_repr(row["eps"]),
                            row["case"],
                            row["mode"],
                            _float_repr(row["e_tilde"]),
                            _float_repr(row["delta_p"]),
                            _float_repr(row["lower"]),
                            _float_repr(row["upper"]),
                        ]
                    )
        except OSError as exc:
            raise ConfigError(f"cannot write {output_path}: {exc}") from None
    return rows
