"""One workload in one process: set-up, a closed loop of operations, metrics.

    python3 perfbench/worker.py --workload run2d --seed 1 --seconds 20 \
        --trace 0 --scratch .perfbench_run

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count capped at the CPU count.  The last line of
standard output is a JSON object with the raw results; ``run.py`` turns it
into the reported metrics.

One client sends the next operation only after the previous one finished.
Each pass runs every operation of the workload once, in an order drawn from
``--seed``.  Untraced, passes repeat until ``--seconds`` have gone by and
the last pass is completed, so every run times the same set of operations.
Traced (``--trace 1``), every operation runs twice, first as the public call
and then as the replay with spans, and the loop stops at the first pair that
ends after ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import LAYERS, Tracer, self_times

# Public call (span layer, span name) -> per-layer metric of its self time.
SPAN_METRICS = {
    ("scenarios", "load_config"): "scenarios.load_config_s",
    ("scenarios", "resolve_coefficients"): "scenarios.coefficients_s",
    ("scenarios", "resolve_boundary_conditions"): "scenarios.boundary_s",
    ("scenarios", "op"): "scenarios.untraced_s",
    ("mesh", "build_geometry"): "mesh.geometry_s",
    ("assembly", "assemble"): "assembly.assemble_s",
    ("linsolve", "solve_saddle"): "linsolve.saddle_s",
    ("linsolve", "solve_schur"): "linsolve.schur_s",
    ("linsolve", "diagnostics"): "linsolve.diagnostics_s",
    ("linsolve", "cell_velocities"): "linsolve.velocities_s",
    ("vtk_io", "write_vtk"): "vtk_io.write_s",
    ("equidim", "equidim_reference"): "equidim.reference_s",
    ("model_error", "error_bounds"): "model_error.bounds_s",
}
# Span count -> per-layer metric.
COUNT_METRICS = {
    "cells": "mesh.cells",
    "dofs": "assembly.dofs",
    "nnz": "assembly.nnz",
    "cg_iterations": "linsolve.cg_iterations",
    "bytes": "vtk_io.bytes",
    "reference_cells": "equidim.reference_cells",
    "points": "model_error.points",
}


def failing_layer(exc: BaseException) -> str:
    """The innermost faultflow module on the traceback, or ``check`` when
    the exception came from elsewhere."""
    layer = "check"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        name = module.rpartition(".")[2]
        if module.startswith("faultflow.") and name in LAYERS:
            layer = name
    return layer


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(
        os.path.dirname(numpy.__file__), os.pardir, "numpy.libs"
    )
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Loop:
    """Runs operations and keeps their times and failures."""

    def __init__(self, ops, state, scratch: Path):
        self.ops = ops
        self.state = state
        self.scratch = scratch
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer: dict[str, int] = {}
        self.misses: list[str] = []
        self.tracer = Tracer()
        self.traced_ops: list[int] = []

    def _fail(self, op, layer: str, why: str) -> None:
        self.failed += 1
        self.failed_by_layer[layer] = self.failed_by_layer.get(layer, 0) + 1
        self.misses.append(f"{op.key}: {why}")

    def one(self, op, traced: bool = False, op_id: int = 0):
        """Run one operation and gate it.  Returns (outcome, out_dir) when it
        passed, else None; the caller removes out_dir."""
        self.attempted += 1
        out_dir = (
            Path(tempfile.mkdtemp(prefix="op-", dir=self.scratch))
            if op.write else None
        )
        t0 = time.perf_counter()
        try:
            if traced:
                outcome = self.ops.replay_op(
                    op, self.state, out_dir, self.tracer, op_id
                )
            else:
                outcome = self.ops.run_op(op, self.state, out_dir)
        except Exception as exc:  # an operation that raises counts as failed
            self._fail(op, failing_layer(exc), f"{type(exc).__name__}: {exc}")
            _remove(out_dir)
            return None
        elapsed = time.perf_counter() - t0
        misses = self.ops.check(
            op, self.ops.observe(op, outcome), self.state.expected
        )
        if misses:
            self._fail(op, "check", "; ".join(misses))
            _remove(out_dir)
            return None
        (self.traced_times if traced else self.times).append(elapsed)
        if traced:
            self.traced_ops.append(op_id)
        return outcome, out_dir


def _remove(path: Path | None) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


class ReplayDrift(Exception):
    """The traced replay did not reproduce the public call bit for bit."""


def compare_replay(ops, op, public, replay) -> None:
    outcome, out_dir = public
    r_outcome, r_dir = replay
    if op.eps is not None:
        same = all(outcome[k] == r_outcome[k] for k in ("e_tilde", "delta_p"))
    else:
        import numpy as np

        same = all(
            np.array_equal(a, b)
            for a, b in zip(ops.pressures(outcome), ops.pressures(r_outcome))
        )
        if same and out_dir is not None:
            names = sorted(p.name for p in out_dir.iterdir())
            same = names == sorted(p.name for p in r_dir.iterdir()) and all(
                (out_dir / n).read_bytes() == (r_dir / n).read_bytes()
                for n in names
            )
    if not same:
        raise ReplayDrift(
            f"{op.key}: the traced replay differs from the public call; "
            "perfbench/ops.py no longer follows the pipeline"
        )


def layer_metrics(loop: Loop) -> dict:
    """Per-operation averages over the traced operations that passed."""
    passed = set(loop.traced_ops)
    spans = [s for s in loop.tracer.spans if s["op"] in passed]
    n_ops = max(len(loop.traced_ops), 1)
    own = self_times(loop.tracer.spans)
    sums = {name: 0.0 for name in SPAN_METRICS.values()}
    counts = {name: 0 for name in COUNT_METRICS.values()}
    layer_self = {layer: 0.0 for layer in LAYERS}
    op_total = 0.0
    for s in spans:
        sums[SPAN_METRICS[(s["layer"], s["name"])]] += own[s["id"]]
        layer_self[s["layer"]] += own[s["id"]]
        if s["name"] == "op":
            op_total += s["end"] - s["start"]
        for key, value in s["counts"].items():
            counts[COUNT_METRICS[key]] += value

    out = {name: (v / n_ops, "s") for name, v in sums.items()}
    out.update({name: (v / n_ops, "count") for name, v in counts.items()})
    iters = counts["linsolve.cg_iterations"]
    out["linsolve.cg_s_per_iter"] = (
        sums["linsolve.schur_s"] / iters if iters else 0.0, "s")
    bound_s = sums["model_error.bounds_s"]
    out["model_error.points_per_s"] = (
        counts["model_error.points"] / bound_s if bound_s else 0.0, "1/s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / n_ops, "s")
        out[f"{layer}.share"] = (
            layer_self[layer] / op_total if op_total else 0.0, "ratio")
    for layer in (*LAYERS, "check"):
        out[f"{layer}.failed"] = (loop.failed_by_layer.get(layer, 0), "count")
    out["trace.overhead_ratio"] = (
        statistics.median(loop.traced_times) / statistics.median(loop.times)
        if loop.times and loop.traced_times else 0.0,
        "ratio",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--expected", type=Path, default=None)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many operations (0: no limit)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import ops

    state = ops.setup(args.workload, args.expected or ops.EXPECTED_PATH)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    args.scratch.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    loop = Loop(ops, state, args.scratch)
    orders = []
    ran = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    stop = False
    while not stop:
        order = list(state.ops)
        rng.shuffle(order)
        orders.append([op.key for op in order])
        for op in order:
            ran += 1
            if args.trace:
                public = loop.one(op)
                replay = loop.one(op, traced=True, op_id=ran)
                try:
                    if public and replay:
                        compare_replay(ops, op, public, replay)
                finally:
                    for result in (public, replay):
                        if result:
                            _remove(result[1])
            else:
                result = loop.one(op)
                if result:
                    _remove(result[1])
            stop = ran == args.max_ops or (
                args.trace and time.perf_counter() >= deadline
            )
            if stop:
                break
        stop = stop or time.perf_counter() >= deadline
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "op_times_s": loop.times,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "misses": loop.misses,
        "peak_rss_mb": peak_rss_mb,
        "pass_orders": orders,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        record["traced_op_times_s"] = loop.traced_times
        record["layers"] = {
            k: {"value": v, "unit": u}
            for k, (v, u) in layer_metrics(loop).items()
        }
        spans_path = (
            args.scratch / f"spans-{args.workload}-seed{args.seed}.json"
        )
        loop.tracer.dump(spans_path)
        record["spans_file"] = str(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
