"""Regenerate the census kernel's evaluation sets.

Reads the sets of the 2x4, 3x3 and 2x5 shapes from one titration pass
each, ``classes._titration_candidates``, which titrates every swap of two
cells in the canonical grid of every class (about 885k swaps) in batch and
keeps the certified edges I(low) <= I(high).  On the max side, ``C`` is
the set of classes no edge points above and ``F`` the other classes whose
every edge up lands in ``C``; the min side is the mirror image.

Run from the repository root (about 4 s in one process on a 2-vCPU VM)::

    PYTHONPATH=src python3 tools/make_candidate_table.py

It rewrites ``src/specmi/_candidate_table.py``, which the census reads, and
prints a summary of each shape to stderr.  ``census`` never imports this
script.
"""
from __future__ import annotations

import sys
import time

from specmi.classes import _titration_candidates, class_table

SHAPES = ((2, 4), (3, 3), (2, 5))
OUT = "src/specmi/_candidate_table.py"


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


TABLE_HEADER = '''"""Certified evaluation sets of the census kernel for the 2x4, 3x3 and 2x5 shapes.

Generated by ``tools/make_candidate_table.py`` from the certified
titration edges I(low) <= I(high) between classes (about 4 s on 2 vCPUs)::

    PYTHONPATH=src python3 tools/make_candidate_table.py

``EVALUATION_SETS[(m, n)]`` holds four strings of sorted, space-separated
1-based class indices: the max-side candidates ``C`` (no certified edge
points above them), the max-side feeders ``F`` (the other classes whose
every edge up lands in ``C``), then the min-side ``C`` and ``F`` (mirror
image).  Strings, unlike tuples of ints, cost next to nothing to compile
when no bytecode cache is kept.  Shipped as data, so that the census never
titrates; the tests re-derive every set from the titration pass
(``classes._titration_candidates``).
"""
'''


def main() -> None:
    out = [TABLE_HEADER, "# (m, n) -> (max C, max F, min C, min F)", "EVALUATION_SETS = {"]
    for m, n in SHAPES:
        t0 = time.perf_counter()
        sets = _titration_candidates(m, n)
        print(
            f"{m}x{n}: {len(class_table(m, n))} classes, C+F max {len(sets[0])}+{len(sets[1])}, "
            f"min {len(sets[2])}+{len(sets[3])}, {time.perf_counter() - t0:.1f} s",
            file=sys.stderr,
        )
        out.append(f"    {(m, n)}: (")
        for s in sets:
            out.append("        (")
            out.append(_wrap_ints(s, " " * 12))
            out.append("        ),")
        out.append("    ),")
    out.append("}")
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
