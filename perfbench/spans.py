"""In-memory spans around the calls the benchmark makes into faultflow.

A span has a layer, a name, a start and an end (``time.perf_counter``), the
index of its parent span and the id of the operation it belongs to.  Counts
of work done at the same boundary (cells, dofs, CG iterations, bytes) hang
off the span.  Spans stay in memory until the run ends; ``dump`` writes them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# The faultflow modules timed from outside, in pipeline order.
LAYERS = (
    "scenarios",
    "mesh",
    "assembly",
    "linsolve",
    "vtk_io",
    "equidim",
    "model_error",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str, op: int):
        record = {
            "id": len(self.spans),
            "op": op,
            "layer": layer,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover.
    Children of one span run one after another, so their durations add."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
