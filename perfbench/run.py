"""faultflow benchmark: four pipeline workloads, timed end to end and by layer.

    python3 perfbench/run.py                      # every workload, a table
    python3 perfbench/run.py --workload run2d --seed 3 --seconds 15 --trace 0

Run it from the root of a checkout; it imports faultflow from ``src``.
README.md describes the workloads (run2d, schur, fault3d, sweep), the
metrics and the correctness gate.

Each workload runs in its own worker process (``worker.py``), so its peak
resident memory is its own.  Set-up is timed in that worker and in
``SETUP_PROBES`` more fresh processes; the median is reported.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  The full record of a run (versions, CPU and
BLAS thread counts, commit, op count, tail percentile, fail_ratio, pass
orders) is written to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("run2d", "schur", "fault3d", "sweep")
SETUP_PROBES = 4
DEADLINE_S = 170.0
# samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_run"


def worker_env() -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("FAULTFLOW_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON record."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=budget,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited with {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, timeout=30,
    )
    return proc.stdout.strip() or None


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    as (value, percentile), the minimum being p0 and the maximum p100.
    With fewer than 2 * TAIL_BEYOND + 1 samples that rule would fall below
    the median; the tail is then the median, as no tail can be told apart
    at that sample count.  fault3d, schur and sweep run that few."""
    ordered = sorted(times)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    rank = n - 1 - min(TAIL_BEYOND, (n - 1) // 2)
    return ordered[rank], 100.0 * rank / max(n - 1, 1)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float, extra: tuple = ()) -> tuple[dict, dict]:
    """One workload: returns (result line, full record).  ``extra`` goes
    to the worker as further arguments."""
    SCRATCH.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed),
              "--scratch", str(SCRATCH)]
    record = call_worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace), *extra],
        deadline,
    )
    record.update(nproc=len(os.sched_getaffinity(0)), commit=git_commit())
    times = record["op_times_s"]
    if trace:
        metrics = record["layers"]
    else:
        setups = [record["setup_s"]] + [
            call_worker([*common, "--seconds", "0", "--setup-only"],
                        deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        tail_s, percentile = tail(times)
        record.update(setup_samples_s=setups, op_s_tail_percentile=percentile)
        # Latencies cover the operations that passed; a run where none
        # passed is reported with correct false and zero latencies.
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s_p50": {"value": statistics.median(times) if times else 0.0,
                         "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": len(times) / record["elapsed_s"],
                          "unit": "1/s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    record["ops"] = len(times)
    record["fail_ratio"] = record["failed"] / record["attempted"]
    record["metrics"] = metrics
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    out = SCRATCH / f"result-{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def report(record: dict) -> None:
    """Human-readable block for one workload."""
    print(
        f"{record['workload']}: seed {record['seed']}, {record['ops']} ops, "
        f"nproc {record['nproc']}, blas threads {record['blas_threads']}, "
        f"python {record['python']}, numpy {record['numpy']}, "
        f"scipy {record['scipy']}, commit {record['commit']}"
    )
    for name, m in record["metrics"].items():
        note = ""
        if name == "op_s_tail":
            percentile = record["op_s_tail_percentile"]
            note = f"  (p{percentile:.1f} of {record['ops']})"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':28s} {record['fail_ratio']:.6g} ratio")
    for miss in record["misses"]:
        print(f"  FAILED {miss}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="fixes the order of operations in each pass")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "faultflow" / "__init__.py").is_file():
        print(f"error: no faultflow sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result, record = run_workload(
                workload, args.seed, args.seconds, args.trace, deadline
            )
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        report(record)
        results[workload] = result
    print(json.dumps(results if len(results) > 1 else result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
