#!/usr/bin/env python3
"""List the lines of ``src/faultflow`` that no test runs.

    python3 tools/line_trace.py [PYTEST ARGS...]

Runs pytest in this process under ``sys.settrace`` and prints every
executable line of the package that never ran, as ``path:line: source``,
then a count.  A line is executable when the compiled module has code on
it (``co_lines`` of each code object), so comments, blank lines and
docstrings never count.  Code run in a subprocess, such as ``python -m
faultflow.cli``, is not traced.  The exit status is pytest's.  Only the
standard library is needed; the ``coverage`` package measures the same
with more care where it is installed.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "faultflow"


def executable_lines(path: Path) -> set[int]:
    """The lines that carry code in the compiled module at ``path``."""
    stack = [compile(Path(path).read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace(files, run):
    """Call ``run()`` with every line it executes in ``files`` recorded.
    Returns run's result and the unreached lines, as sorted (path, line)
    pairs.  The tracers in place before the call are restored after it."""
    hits = {os.path.realpath(f): set() for f in files}
    known = {}  # co_filename -> its hit set, or None for other files

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = hits.get(os.path.realpath(name))
        seen = known[name]
        if seen is None:
            return None
        seen.add(frame.f_code.co_firstlineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    missed = sorted(
        (path, line)
        for path, seen in hits.items()
        for line in executable_lines(path) - seen
    )
    return result, missed


def main(argv) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    files = sorted(PACKAGE.glob("*.py"))
    status, missed = trace(files, lambda: pytest.main(list(argv)))
    sources = {}
    for path, line in missed:
        if path not in sources:
            sources[path] = Path(path).read_text().splitlines()
        where = os.path.relpath(path, ROOT)
        print(f"{where}:{line}: {sources[path][line - 1].strip()}")
    total = sum(len(executable_lines(f)) for f in files)
    print(
        f"{len(missed)} of {total} executable lines in {len(files)} files "
        "of src/faultflow were not reached"
    )
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
