"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one operation per workload, untraced and traced, and checks that every
metric named in BENCHMARK.json comes out with its unit.  Then it alters the
stored expected values and checks that the correctness gate fails the
operation, and it checks that the benchmark refuses to run without the
faultflow sources.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + run.DEADLINE_S
            result, _ = run.run_workload(
                workload, 0, 0, trace, deadline, extra=("--max-ops", "1")
            )
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == wanted[trace], (workload, trace, got)
            assert result["correct"] and result["failed"] == 0, result
            if trace == 0:
                metrics = result["metrics"]
                zero = [k for k, m in metrics.items() if not m["value"]]
                assert not zero, (workload, zero)
            print(f"ok {workload} trace {trace}: {len(got)} metrics")

    # The gate bites: every stored value moved by 1e-6 relative, a hundred
    # times the tolerance.
    expected = json.loads(run.HERE.joinpath("expected.json").read_text())
    for group in expected.values():
        for values in group.values():
            for key in values:
                values[key] *= 1.0 + 1e-6
    run.SCRATCH.mkdir(exist_ok=True)
    altered = run.SCRATCH / "expected-altered.json"
    altered.write_text(json.dumps(expected))
    result, record = run.run_workload(
        "run2d", 0, 0, 0, time.monotonic() + run.DEADLINE_S,
        extra=("--max-ops", "1", "--expected", str(altered)),
    )
    assert record["fail_ratio"] > 0 and not result["correct"], record
    print(f"ok altered expected value: fail_ratio {record['fail_ratio']}")

    # Without the sources the benchmark exits non-zero and prints no result.
    bare = run.SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "run2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
