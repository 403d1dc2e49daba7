#!/usr/bin/env python3
"""Compare two output snapshots within round-off.

    python3 tools/compare_snapshots.py BEFORE AFTER

BEFORE and AFTER are directories written by ``tools/snapshot_outputs.py``.
Both must hold the same files with the same number of lines.  Lines are
split into tokens at commas and whitespace, and the separators must match
exactly.  Integer tokens and text tokens must match exactly.  A float
token (one with a decimal point or an exponent) may differ by at most
1e-12 times the largest float magnitude in its block, taken over both
snapshots.  A block is a whole CSV file, or one section of a VTK file:
the header, POINTS, CELLS, CELL_TYPES, or the CELL_DATA (POINT_DATA)
section with all its arrays.  The arrays of one data section share a
scale, so a field that is zero up to round-off (the fault velocity of a
symmetric case) is measured against the pressures next to it.

Exits 0 when every file matches, and then prints the largest difference
relative to its block's scale and the file and line where it occurs, how
many files are byte-identical, and the files that are not, one a line.
Exits 1 at the first file and line that does not match, which it names.
"""

import re
import sys
from pathlib import Path

RTOL = 1e-12
INTEGER = re.compile(r"[+-]?\d+")
NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
SEPARATOR = re.compile(r"([,\s]+)")
VTK_SECTIONS = ("POINTS", "CELLS", "CELL_TYPES", "POINT_DATA", "CELL_DATA")


def _as_float(token: str) -> float | None:
    """The value of a float token, None for an integer or text token."""
    if INTEGER.fullmatch(token) or not NUMBER.fullmatch(token):
        return None
    return float(token)


def _blocks(path: Path, lines: list[list[str]]) -> list[int]:
    """The block number of every line of ``path``."""
    if path.suffix == ".csv":
        return [0] * len(lines)
    out, block = [], 0
    for parts in lines:
        if parts[0] in VTK_SECTIONS:
            block += 1
        out.append(block)
    return out


def _scales(blocks: list[int], *snapshots: list[list[str]]) -> dict:
    """The largest float magnitude of every block over all snapshots."""
    scale = dict.fromkeys(blocks, 0.0)
    for lines in snapshots:
        for block, parts in zip(blocks, lines):
            for token in parts[::2]:
                value = _as_float(token)
                if value is not None:
                    scale[block] = max(scale[block], abs(value))
    return scale


def compare_file(rel: Path, before: Path, after: Path):
    """Compare one file of the two snapshots.  Returns (message, largest):
    the message names the first line that does not match (None when all
    do), and largest is (difference relative to its block's scale, line
    number) of the float that moved most before that line."""
    old = [SEPARATOR.split(line) for line in before.read_text().splitlines()]
    new = [SEPARATOR.split(line) for line in after.read_text().splitlines()]
    largest = (0.0, 0)
    if len(old) != len(new):
        line = min(len(old), len(new)) + 1
        message = f"{rel}:{line}: {len(old)} lines before, {len(new)} after"
        return message, largest
    blocks = _blocks(rel, old)
    scale = _scales(blocks, old, new)
    for number, (block, a, b) in enumerate(zip(blocks, old, new), start=1):
        if len(a) != len(b) or a[1::2] != b[1::2]:
            return f"{rel}:{number}: the token layout differs", largest
        for x, y in zip(a[::2], b[::2]):
            fx, fy = _as_float(x), _as_float(y)
            if fx is None or fy is None:
                if x != y:
                    return f"{rel}:{number}: {x!r} != {y!r}", largest
            elif abs(fx - fy) > RTOL * scale[block]:
                return (
                    f"{rel}:{number}: {x} vs {y} differ by "
                    f"{abs(fx - fy):.3g}, above {RTOL:g} x {scale[block]:.3g}"
                ), largest
            elif fx != fy:
                largest = max(largest, (abs(fx - fy) / scale[block], number))
    return None, largest


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = map(Path, argv)
    files = [
        sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
        for root in (before, after)
    ]
    missing = sorted(set(files[0]) ^ set(files[1]))
    if missing:
        side = "AFTER" if missing[0] in files[0] else "BEFORE"
        print(f"{missing[0]}: missing from {side}", file=sys.stderr)
        return 1
    largest = (0.0, "")
    changed = []
    for rel in files[0]:
        message, (relative, line) = compare_file(
            rel, before / rel, after / rel
        )
        if message:
            print(message, file=sys.stderr)
            return 1
        largest = max(largest, (relative, f"{rel}:{line}"))
        if (before / rel).read_bytes() != (after / rel).read_bytes():
            changed.append(rel)
    relative, where = largest
    print(
        f"{len(files[0])} files match within {RTOL:g} per block; "
        + (f"largest {relative:.2g} of block scale at {where}"
           if relative else "no float differs")
    )
    identical = len(files[0]) - len(changed)
    print(
        f"{identical} of {len(files[0])} files are byte-identical"
        + ("; not byte-identical:" if changed else "")
    )
    for rel in changed:
        print(f"  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
