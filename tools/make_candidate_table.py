"""Regenerate the census kernel's evaluation sets and their certifying forest.

Titrates every swap of two cells in the canonical grid of every class of
the 2x4, 3x3 and 2x5 shapes (about 885k swaps) through
``classes._titrated_swaps``, which decides them in batch, and keeps the
certified edges I(low) <= I(high).  On the max side, ``C`` is the set of
classes no edge points above and ``F`` the other classes whose every edge
up lands in ``C``; the min side is the mirror image.  Every other class
gets one of its own certified swaps to a class outside that side's ``C``;
where it can, a class's max-side swap and its image's min-side swap are
the same edge, so the tests titrate it once.

Run from the repository root (about 7 s in one process on a 2-vCPU VM)::

    PYTHONPATH=src python3 tools/make_candidate_table.py

It rewrites ``src/specmi/_candidate_table.py`` (the sets, which the census
reads) and ``src/specmi/_candidate_forest.py`` (the forest, which only the
tests read) and prints a summary of each shape to stderr.  ``census``
never imports this script.
"""
from __future__ import annotations

import itertools
import sys
import time

import numpy as np

from specmi.classes import _titrated_swaps, class_table

SHAPES = ((2, 4), (3, 3), (2, 5))
CHUNK = 2000  # classes titrated per batch, which bounds the batch's memory
LINE = 80  # forest characters per line of the table
OUT_DIR = "src/specmi"


def _titrate(m: int, n: int):
    """Certified swaps (src, a, b, dst, forward) of every class of one shape."""
    table = class_table(m, n)
    cells = list(itertools.combinations(range(m * n), 2))
    for lo in range(0, len(table), CHUNK):
        grids = table._grids[lo : lo + CHUNK]
        kinds, images = _titrated_swaps(
            table, np.repeat(grids, len(cells), axis=0), np.tile(cells, (len(grids), 1))
        )
        for swap in np.flatnonzero(kinds).tolist():
            src, dst = lo + swap // len(cells) + 1, int(images[swap])
            if dst != src:
                yield (src, *cells[swap % len(cells)], dst, bool(kinds[swap] > 0))


def _topological_check(up: dict[int, set[int]]) -> None:
    indegree = {x: 0 for x in up}
    for ys in up.values():
        for y in ys:
            indegree[y] += 1
    ready = [x for x, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        x = ready.pop()
        seen += 1
        for y in up[x]:
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    if seen != len(up):
        raise RuntimeError("the titration graph has a cycle")


def _shape_sets(m: int, n: int):
    n_classes = len(class_table(m, n))
    up = {x: set() for x in range(1, n_classes + 1)}
    down = {x: set() for x in range(1, n_classes + 1)}
    # own[x][(a, b)] = (image class, forward): certified swaps of x's own grid
    own: dict[int, dict[tuple[int, int], tuple[int, bool]]] = {x: {} for x in up}
    for src, a, b, dst, forward in _titrate(m, n):
        own[src][(a, b)] = (dst, forward)
        low, high = (src, dst) if forward else (dst, src)
        up[low].add(high)
        down[high].add(low)
    _topological_check(up)

    c_max = {x for x in up if not up[x]}
    f_max = {x for x in up if x not in c_max and up[x] <= c_max}
    c_min = {x for x in down if not down[x]}
    f_min = {x for x in down if x not in c_min and down[x] <= c_min}

    def own_swaps(x, forward, outside):
        return [
            (cells, dst)
            for cells, (dst, fwd) in sorted(own[x].items())
            if fwd == forward and dst not in outside
        ]

    max_forest, min_forest, min_child = {}, {}, {}
    for x in sorted(up):
        if x in c_max or x in f_max:
            continue
        options = own_swaps(x, True, c_max)
        if not options:
            raise RuntimeError(f"{m}x{n} class {x} has no own certified swap up out of C")

        def shared(option):
            # x can be the min-side step of its image, stored on the image's grid
            (_, y) = option
            return (
                x not in c_min
                and y not in c_min
                and y not in f_min
                and y not in min_child
                and any(dst == x for _, dst in own_swaps(y, False, c_min))
            )

        cells, y = next((o for o in options if shared(o)), options[0])
        max_forest[x] = cells
        if shared((cells, y)):
            min_child[y] = x
    for y in sorted(down):
        if y in c_min or y in f_min:
            continue
        options = own_swaps(y, False, c_min)
        if not options:
            raise RuntimeError(f"{m}x{n} class {y} has no own certified swap down out of C")
        if y in min_child:
            options = [o for o in options if o[1] == min_child[y]]
        min_forest[y] = options[0][0]

    claims = {(x, own[x][c][0]) for x, c in max_forest.items()}
    claims |= {(own[y][c][0], y) for y, c in min_forest.items()}
    print(
        f"{m}x{n}: {n_classes} classes, {sum(len(v) for v in up.values())} edges, "
        f"C+F max {len(c_max)}+{len(f_max)}, min {len(c_min)}+{len(f_min)}, "
        f"forest {len(max_forest)}+{len(min_forest)} swaps, {len(claims)} distinct edges",
        file=sys.stderr,
    )
    sets = tuple(tuple(sorted(s)) for s in (c_max, f_max, c_min, f_min))

    def encode(forest):
        return "".join(
            f"{forest[x][0]}{forest[x][1]}" if x in forest else ".." for x in range(1, n_classes + 1)
        )

    return sets, (encode(max_forest), encode(min_forest))


def _wrap_ints(values, indent):
    """Space-separated values as string literals that Python concatenates."""
    lines, line = [], ""
    for v in values:
        item = f"{v} "
        if len(indent) + len(line) + len(item) + 2 > 88:
            lines.append(f'{indent}"{line}"')
            line = ""
        line += item
    lines.append(f'{indent}"{line.rstrip()}"')
    return "\n".join(lines)


COMMAND = "    PYTHONPATH=src python3 tools/make_candidate_table.py"

TABLE_HEADER = f'''"""Certified evaluation sets of the census kernel for the 2x4, 3x3 and 2x5 shapes.

Generated by ``tools/make_candidate_table.py`` from the certified
titration edges I(low) <= I(high) between classes (about 7 s on 2 vCPUs)::

{COMMAND}

``EVALUATION_SETS[(m, n)]`` holds four strings of sorted, space-separated
1-based class indices: the max-side candidates ``C`` (no certified edge
points above them), the max-side feeders ``F`` (the other classes whose
every edge up lands in ``C``), then the min-side ``C`` and ``F`` (mirror
image).  Strings, unlike tuples of ints, cost next to nothing to compile
when no bytecode cache is kept.  Every other class reaches ``F`` through
certified swaps, listed in ``_candidate_forest``.  Shipped as data, like
the 2x3 class table, so a test failure tells a certificate bug from a
transcription bug.
"""
'''

FOREST_HEADER = f'''"""The certified swaps behind ``_candidate_table``; read by the tests only.

Generated with the table by ``tools/make_candidate_table.py``::

{COMMAND}

``FORESTS[(m, n)]`` holds one string per side with two characters per
class, in class order: the row-major cells whose swap in the class's
canonical grid is certified to reach a class outside that side's ``C``
without lowering (max side) or raising (min side) the mutual
information, and ".." for the members of ``C`` and ``F``.  Following
these swaps from any other class ends in ``F``; the tests re-certify every
one of them.
"""
'''


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> None:
    sets, forests = {}, {}
    for m, n in SHAPES:
        t0 = time.perf_counter()
        sets[m, n], forests[m, n] = _shape_sets(m, n)
        print(f"{m}x{n}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    out = [TABLE_HEADER, "# (m, n) -> (max C, max F, min C, min F)", "EVALUATION_SETS = {"]
    for shape, four in sets.items():
        out.append(f"    {shape}: (")
        for s in four:
            out.append("        (")
            out.append(_wrap_ints(s, " " * 12))
            out.append("        ),")
        out.append("    ),")
    out.append("}")
    _write(f"{OUT_DIR}/_candidate_table.py", out)
    out = [FOREST_HEADER, "# (m, n) -> (max-side forest, min-side forest)", "FORESTS = {"]
    for shape, pair in forests.items():
        out.append(f"    {shape}: (")
        for text in pair:
            out.append("        (")
            out += [f'            "{text[i : i + LINE]}"' for i in range(0, len(text), LINE)]
            out.append("        ),")
        out.append("    ),")
    out.append("}")
    _write(f"{OUT_DIR}/_candidate_forest.py", out)


if __name__ == "__main__":
    main()
