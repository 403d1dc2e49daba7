"""Write expected.json: the values the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/capture_expected.py

Run it on the commit whose results are the reference.  For every scenario
and route it stores the pressure statistics of summary.csv (min, max and
mean per domain); for every sweep row it stores e_tilde and delta_p.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ops  # noqa: E402


def main() -> int:
    expected = {"runs": {}, "sweep": {}}
    for workload, op_list in ops.WORKLOADS.items():
        state = ops.setup(workload, expected_path=None)
        for op in op_list:
            observed = ops.observe(op, ops.run_op(op, state, None))
            if op.eps is not None:
                expected["sweep"][op.key] = observed
            else:
                expected["runs"][op.key] = {
                    k: v for k, v in observed.items() if k.startswith("p_")
                }
            print(op.key, file=sys.stderr)
    ops.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
