"""Arrangement classes of a fixed spectrum.

Two arrangements of the same multiset of probabilities are equivalent when
one is obtained from the other by permuting rows, permuting columns, or (for
square shapes) transposing; mutual information is constant on each class.
A class is named by its canonical representative: place the largest symbol
at the top-left, then take the lexicographically smallest symbol word over
the remaining row orders, column orders, and the transpose when square.

Symbols are alphabet indices 0..mn-1 with 0 ('a') the *largest* value, so a
row whose symbol indices increase holds decreasing probabilities.  Words
read the grid row-major ("adefcb"); displays insert a row separator
("ade|fcb").  Cycle labels name the positional permutation that carries the
identity word to the class word (symbol k moves to position sigma(k)),
written in cycle notation with fixed points omitted; a class derives its
label from its word when the label is first read.

With distinct symbols the canonical word of a non-square grid is fixed by
two facts: row 0 is symbol 0 followed by its other symbols in ascending
order, and the other rows are ordered by their first entry.  So the class
words are listed directly, C(mn-1, n-1) row-0 choices times the orderings of
the remaining symbols with increasing row heads (15120 words for 2x5), never
by canonicalising all (mn-1)! grids.  The exception is a square shape: the
same listing holds each class twice, as a grid and its transpose, and the
smaller of the two words is canonical.
The 2x3 table (60 classes) ships embedded and versioned; other shapes up to
10 cells are generated on demand.

Certified edges between classes are derived here, once each, and titrate
cell swaps through one helper: the 2x3 honeycomb (rendered by
``extrema.verify_theorem_chain``; an expected certificate that is not
derivable raises RuntimeError) and the relation graph ``derive_relation`` reads.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Sequence

import numpy as np

from ._r23_table import ENTRIES, TABLE_VERSION
from .core import ProbMatrix, Spectrum
from .orders import (
    SYMBOL_LETTERS,
    RelationVerdict,
    majorisation_certificate,
    symbolic_transposition_context,
    titrate_check,
)

__all__ = [
    "MAX_CELLS",
    "RELATION_SHAPES",
    "check_relation_shape",
    "Grid",
    "MatrixClass",
    "ClassTable",
    "grid_word",
    "word_to_grid",
    "grid_display",
    "cycle_label_of_word",
    "canonical_form",
    "enumerate_classes",
    "r23_table",
    "class_table",
    "varpi",
    "involution_xi",
    "xi_pairs",
    "StandardFormSets",
    "standard_form_sets",
    "CertifiedEdge",
    "Honeycomb",
    "honeycomb",
    "maxima_chain_steps",
    "cross_pairs",
    "honeycomb_dot",
]

#: Largest supported grid.  A shape has (mn)!/(m! n!) classes (half that
#: when square): 15120 for 2x5, but 332,640 for 2x6 and 3,326,400 for 3x4,
#: and every table, census and relation graph is built per class.
MAX_CELLS = 10

Grid = tuple[tuple[int, ...], ...]


def _check_shape(m: int, n: int) -> None:
    if not (2 <= m <= n):
        raise ValueError(f"shape must satisfy 2 <= m <= n, got {(m, n)}")
    if m * n > MAX_CELLS:
        raise ValueError(f"shape {(m, n)} has {m * n} cells; the cap is {MAX_CELLS}")


def grid_word(grid: Sequence[Sequence[int]]) -> str:
    """Row-major symbol word of a grid, e.g. ((0,3,4),(5,2,1)) -> 'adefcb'."""
    return "".join(SYMBOL_LETTERS[s] for row in grid for s in row)


def word_to_grid(word: str, m: int, n: int) -> Grid:
    if len(word) != m * n:
        raise ValueError(f"word {word!r} does not fill a {m}x{n} grid")
    syms = [SYMBOL_LETTERS.index(ch) for ch in word]
    return tuple(tuple(syms[i * n : (i + 1) * n]) for i in range(m))


def grid_display(grid: Sequence[Sequence[int]]) -> str:
    """Word with a row separator, e.g. 'ade|fcb'."""
    return "|".join("".join(SYMBOL_LETTERS[s] for s in row) for row in grid)


def cycle_label_of_word(word: str) -> str:
    """Cycle notation of the positional permutation behind a class word.

    Symbol k (1-based) sits at position sigma(k); the label lists the
    non-trivial cycles of sigma, smallest element first, e.g. 'adefcb' ->
    '(264)(35)'.  The identity word gets '()'.
    """
    k = len(word)
    sigma = {s + 1: word.index(SYMBOL_LETTERS[s]) + 1 for s in range(k)}
    seen: set[int] = set()
    cycles: list[list[int]] = []
    for start in range(1, k + 1):
        if start in seen or sigma[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = sigma[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = sigma[nxt]
        cycles.append(cyc)
    if not cycles:
        return "()"
    sep = "," if k > 9 else ""
    return "".join("(" + sep.join(str(x) for x in cyc) + ")" for cyc in cycles)


@dataclasses.dataclass(frozen=True)
class MatrixClass:
    """One arrangement class: canonical word and 1-based index."""

    index: int
    m: int
    n: int
    word: str

    @functools.cached_property
    def cycle_label(self) -> str:
        return cycle_label_of_word(self.word)

    @property
    def canonical(self) -> Grid:
        return word_to_grid(self.word, self.m, self.n)

    @property
    def display(self) -> str:
        return grid_display(self.canonical)

    def instantiate(self, spectrum: Spectrum) -> ProbMatrix:
        """Fill the canonical grid with the spectrum's values."""
        if spectrum.dim != self.m * self.n:
            raise ValueError(
                f"spectrum has {spectrum.dim} entries; class needs {self.m * self.n}"
            )
        return ProbMatrix(
            tuple(tuple(spectrum.values[s] for s in row) for row in self.canonical)
        )


@dataclasses.dataclass(frozen=True)
class ClassTable:
    """All arrangement classes of one shape, ordered by canonical word."""

    m: int
    n: int
    classes: tuple[MatrixClass, ...]

    def __len__(self) -> int:
        return len(self.classes)

    @functools.cached_property
    def _by_word(self) -> dict[str, MatrixClass]:
        return {c.word: c for c in self.classes}

    @functools.cached_property
    def _grids(self) -> np.ndarray:
        """Canonical symbol grids of all classes, a (classes, m, n) int64 array."""
        letters = np.frombuffer("".join(c.word for c in self.classes).encode(), np.uint8)
        return np.searchsorted(_LETTER_BYTES, letters).reshape(len(self), self.m, self.n)

    @functools.cached_property
    def _codes(self) -> np.ndarray:
        """Base-mn codes of the canonical words, ascending like the words."""
        return _encode(self._grids.reshape(len(self), -1))

    def get(self, index: int) -> MatrixClass:
        if not 1 <= index <= len(self.classes):
            raise ValueError(f"class index {index} outside 1..{len(self.classes)}")
        return self.classes[index - 1]

    def index_of(self, word: str) -> int:
        try:
            return self._by_word[word].index
        except KeyError:
            raise ValueError(f"{word!r} is not a canonical word of this table") from None


def _transposed(grid: Grid) -> Grid:
    return tuple(zip(*grid))


def _to_symbol_grid(arrangement) -> Grid:
    """Coerce to a symbol grid; rank numeric entries (descending) if needed."""
    if isinstance(arrangement, ProbMatrix):
        rows = arrangement.entries
    elif isinstance(arrangement, np.ndarray):
        rows = tuple(tuple(row) for row in arrangement.tolist())
    else:
        rows = tuple(tuple(row) for row in arrangement)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("arrangement must be rectangular and non-empty")
    flat = [v for row in rows for v in row]
    mn = len(flat)
    if all(isinstance(v, (int, np.integer)) for v in flat):
        if sorted(flat) == list(range(mn)):
            return tuple(tuple(int(v) for v in row) for row in rows)
        raise ValueError(
            f"integer arrangement must use each symbol 0..{mn - 1} exactly once"
        )
    values = sorted((float(v) for v in flat), reverse=True)
    for a, b in zip(values, values[1:]):
        if a - b <= 1e-12:
            raise ValueError(
                f"cannot rank tied entries {a!r} and {b!r}; classes need distinct values"
            )
    rank = {v: s for s, v in enumerate(values)}
    return tuple(tuple(rank[float(v)] for v in row) for row in rows)


def canonical_form(arrangement, table: ClassTable | None = None) -> MatrixClass:
    """Resolve an arrangement to its class.

    Accepts a symbol grid (each of 0..mn-1 exactly once), a ProbMatrix, or
    a numeric grid; numeric entries are ranked descending and must be
    distinct beyond 1e-12.  Raises ValueError on ties or malformed input.
    """
    grid = _to_symbol_grid(arrangement)
    m, n = len(grid), len(grid[0])
    _check_shape(m, n)
    if table is None:
        table = class_table(m, n)
    elif (table.m, table.n) != (m, n):
        raise ValueError(f"table is for {(table.m, table.n)}, arrangement is {(m, n)}")
    return _classes_of([grid], table)[0]


#: ASCII bytes of the symbol letters, in symbol order (which is also byte order).
_LETTER_BYTES = np.frombuffer(SYMBOL_LETTERS.encode(), dtype=np.uint8)


def _encode(words: np.ndarray) -> np.ndarray:
    """Base-mn codes of symbol words (one per row); code order is word order."""
    mn = words.shape[1]
    return words @ mn ** np.arange(mn - 1, -1, -1, dtype=np.int64)


def _canonical_codes(grids: np.ndarray) -> np.ndarray:
    """Codes of the canonical words of a (count, m, n) batch of symbol grids.

    Sorts the columns by the row that holds symbol 0, then the rows by their
    first column; a square shape does the same to the transposes and keeps
    the smaller code.
    """
    count, m, n = grids.shape
    k = np.arange(count)
    codes = []
    for g in (grids, grids.transpose(0, 2, 1))[: 1 + (m == n)]:
        top = g[k, g.reshape(count, m * n).argmin(axis=1) // n]
        g = np.take_along_axis(g, np.argsort(top, axis=1)[:, None, :], axis=2)
        g = np.take_along_axis(g, np.argsort(g[:, :, 0], axis=1)[:, :, None], axis=1)
        codes.append(_encode(g.reshape(count, m * n)))
    return np.minimum.reduce(codes)


def _classes_of(grids: Sequence[Grid], table: ClassTable) -> list[MatrixClass]:
    """Classes of a batch of symbol grids of the table's shape, in one pass."""
    batch = np.array(grids, dtype=np.int64).reshape(len(grids), table.m, table.n)
    rows = np.searchsorted(table._codes, _canonical_codes(batch))
    return [table.classes[i] for i in rows.tolist()]


def enumerate_classes(m: int, n: int) -> ClassTable:
    """Generate every arrangement class of an m x n grid.

    Lists the grids whose row 0 is symbol 0 followed by an ascending choice
    of n-1 symbols and whose other rows hold the remaining symbols with
    increasing first entries: one grid per class, or two (a grid and its
    transpose) for square shapes.  Their canonical codes, sorted and
    deduplicated, give the classes in lexicographic word order.
    """
    _check_shape(m, n)
    mn = m * n
    tops = np.array(list(itertools.combinations(range(1, mn), n - 1)), dtype=np.int64)
    free = np.ones((len(tops), mn), dtype=bool)
    free[:, 0] = False
    free[np.arange(len(tops))[:, None], tops] = False
    rest = np.nonzero(free)[1].reshape(len(tops), mn - n)
    orders = np.array(list(itertools.permutations(range(mn - n))), dtype=np.int64)
    orders = orders[(np.diff(orders[:, ::n], axis=1) > 0).all(axis=1)]
    words = np.zeros((len(tops), len(orders), mn), dtype=np.int64)
    words[:, :, 1:n] = tops[:, None]
    words[:, :, n:] = rest[:, orders]
    codes = np.unique(_canonical_codes(words.reshape(-1, m, n)))
    digits = codes[:, None] // mn ** np.arange(mn - 1, -1, -1, dtype=np.int64) % mn
    letters = _LETTER_BYTES[digits].tobytes().decode()
    classes = tuple(
        MatrixClass(index=i + 1, m=m, n=n, word=letters[i * mn : (i + 1) * mn])
        for i in range(len(codes))
    )
    return ClassTable(m=m, n=n, classes=classes)


@functools.lru_cache(maxsize=None)
def r23_table() -> ClassTable:
    """The embedded, versioned table of the 60 classes of a 2x3 grid."""
    classes = tuple(MatrixClass(index=i, m=2, n=3, word=word) for i, word, _ in ENTRIES)
    return ClassTable(m=2, n=3, classes=classes)


@functools.lru_cache(maxsize=None)
def class_table(m: int, n: int) -> ClassTable:
    """Cached class table; the 2x3 shape uses the embedded table."""
    _check_shape(m, n)
    if (m, n) == (2, 3):
        return r23_table()
    return enumerate_classes(m, n)


def varpi(arrangement):
    """Bottom-row outer transposition of a 2x3 arrangement.

    Swaps the bottom-left and bottom-right entries and returns the same
    kind of object (ProbMatrix in, ProbMatrix out; grid in, grid out).
    An involution; it maps each standard-form non-minimal head to a
    maximal-side class.
    """
    if isinstance(arrangement, ProbMatrix):
        if (arrangement.m, arrangement.n) != (2, 3):
            raise ValueError("varpi acts on 2x3 arrangements")
        top, bottom = arrangement.entries
        return ProbMatrix((top, (bottom[2], bottom[1], bottom[0])))
    rows = tuple(tuple(row) for row in arrangement)
    if len(rows) != 2 or any(len(r) != 3 for r in rows):
        raise ValueError("varpi acts on 2x3 arrangements")
    top, bottom = rows
    return (top, (bottom[2], bottom[1], bottom[0]))


def involution_xi(c: MatrixClass | int, table: ClassTable | None = None) -> MatrixClass:
    """The mirror involution on classes: reverse the roles of the symbols.

    Relabels every symbol s as mn-1-s in the canonical representative (the
    k-th largest value becomes the k-th smallest) and canonicalises the
    result.  Equivalently, conjugates the class's positional permutation by
    the order-reversing involution of the alphabet.
    """
    if table is None:
        table = class_table(c.m, c.n) if isinstance(c, MatrixClass) else r23_table()
    cls = c if isinstance(c, MatrixClass) else table.get(int(c))
    mn = cls.m * cls.n
    mirrored = tuple(tuple(mn - 1 - s for s in row) for row in cls.canonical)
    return canonical_form(mirrored, table=table)


def xi_pairs(table: ClassTable | None = None) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Fixed points and swapped pairs of the mirror involution."""
    if table is None:
        table = r23_table()
    fixed: list[int] = []
    pairs: list[tuple[int, int]] = []
    for cls in table.classes:
        image = involution_xi(cls, table=table).index
        if image == cls.index:
            fixed.append(cls.index)
        elif cls.index < image:
            pairs.append((cls.index, image))
    return tuple(fixed), tuple(pairs)


@dataclasses.dataclass(frozen=True)
class StandardFormSets:
    """Index sets singled out by row/column orderedness of the 2x3 classes.

    ``heads`` have every row in descending value; ``minz`` additionally
    every column (the only candidates for minimal mutual information);
    ``minzoneup`` are the heads that are not minz; ``maxima_candidates``
    are the images of the minzoneup representatives under the bottom-row
    outer transposition.
    """

    heads: tuple[int, ...]
    minz: tuple[int, ...]
    minzoneup: tuple[int, ...]
    maxima_candidates: tuple[int, ...]


def _rows_descending(grid: Grid) -> bool:
    return all(all(row[j] < row[j + 1] for j in range(len(row) - 1)) for row in grid)


def _cols_descending(grid: Grid) -> bool:
    return _rows_descending(_transposed(grid))


@functools.lru_cache(maxsize=None)
def standard_form_sets() -> StandardFormSets:
    table = r23_table()
    heads = tuple(c.index for c in table.classes if _rows_descending(c.canonical))
    minz = tuple(
        c.index
        for c in table.classes
        if _rows_descending(c.canonical) and _cols_descending(c.canonical)
    )
    minzoneup = tuple(i for i in heads if i not in minz)
    maxima = tuple(
        sorted(
            canonical_form(varpi(table.get(i).canonical), table=table).index
            for i in minzoneup
        )
    )
    return StandardFormSets(heads=heads, minz=minz, minzoneup=minzoneup, maxima_candidates=maxima)


# ---------------------------------------------------------------------------
# Certified edges: titrated cell swaps and the all-pairs relation graph
# ---------------------------------------------------------------------------

#: Shapes whose relation graph builds in seconds; the 2x4 graph takes
#: minutes and larger ones hours.
RELATION_SHAPES = ((2, 2), (2, 3))


def check_relation_shape(m: int, n: int) -> None:
    """Raise ValueError unless the m x n relation graph is supported."""
    if (m, n) not in RELATION_SHAPES:
        supported = " and ".join(f"{a}x{b}" for a, b in RELATION_SHAPES)
        raise ValueError(f"relation supports the shapes {supported}, got {m}x{n}")


def _titrated_swaps(
    table: ClassTable, swaps: Sequence[tuple[Grid, tuple[int, int], tuple[int, int]]]
) -> list[tuple[RelationVerdict, Grid | None, MatrixClass | None]]:
    """Titrate each (grid, position, position) swap of two cells.

    Returns, per swap, the titration verdict with the swapped grid and its
    class; both are None when the verdict is inconclusive.  The images of
    all certified swaps are canonicalised in one batch.
    """
    verdicts = [titrate_check(symbolic_transposition_context(*swap)) for swap in swaps]
    images: list[Grid] = []
    for (grid, (ia, ja), (ib, jb)), verdict in zip(swaps, verdicts):
        if not verdict.is_inconclusive:
            rows = [list(row) for row in grid]
            rows[ia][ja], rows[ib][jb] = rows[ib][jb], rows[ia][ja]
            images.append(tuple(tuple(row) for row in rows))
    certified = iter(zip(images, _classes_of(images, table)))
    return [(v, None, None) if v.is_inconclusive else (v, *next(certified)) for v in verdicts]


@functools.lru_cache(maxsize=None)
def _relation_graph(m: int, n: int) -> dict[int, dict[int, tuple[str, ...]]]:
    """Directed certified edges i -> j meaning I(class i) <= I(class j).

    Edges come from symbolic matrix majorisation between class
    representatives (the majoriser has the lower mutual information) and
    from titrate-certified single transpositions of a representative.
    Only the shapes in RELATION_SHAPES are built.
    """
    check_relation_shape(m, n)
    table = class_table(m, n)
    grids = {c.index: c.canonical for c in table.classes}
    edges: dict[int, dict[int, tuple[str, ...]]] = {i: {} for i in grids}

    for i, gi in grids.items():
        for j, gj in grids.items():
            if i == j:
                continue
            cert = majorisation_certificate(gi, gj)
            if cert is not None:
                edges[i].setdefault(j, cert)

    pairs = list(itertools.combinations([(k // n, k % n) for k in range(m * n)], 2))
    swaps = [(gi, pa, pb) for gi in grids.values() for pa, pb in pairs]
    sources = [i for i in grids for _ in pairs]
    for i, (gi, pa, pb), (verdict, image, cls) in zip(
        sources, swaps, _titrated_swaps(table, swaps)
    ):
        if cls is None or cls.index == i:
            continue
        j = cls.index
        a, b = gi[pa[0]][pa[1]], gi[pb[0]][pb[1]]
        lines = (
            f"rule transposition: swap {SYMBOL_LETTERS[a]},{SYMBOL_LETTERS[b]} in "
            f"{grid_display(gi)} gives {grid_display(image)} (class {j})",
        ) + verdict.certificate
        if verdict.is_forward:
            edges[i].setdefault(j, lines)
        else:
            edges[j].setdefault(i, lines)
    return edges


# ---------------------------------------------------------------------------
# The honeycomb of the 60 classes
# ---------------------------------------------------------------------------

#: Within one hexagon (six classes sharing a top row, ordered by word), the
#: single-transposition majorisations between bottom-row orderings.
_FLEA_OFFSETS = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5))

#: Cross-hexagon majorisations that settle the extremal candidates:
#: heads dominating non-minimal heads, and classes dominating class 48.
_CROSS_PAIRS = (
    (13, 19),
    (31, 37),
    (31, 43),
    (31, 49),
    (25, 55),
    (6, 48),
    (12, 48),
    (18, 48),
    (30, 48),
    (36, 48),
    (1, 48),
    (7, 48),
    (13, 48),
    (25, 48),
    (31, 48),
)

#: Single transpositions, certified by titration, that walk every
#: maximal-side candidate up to class 48: 24 -> 42 -> 48 and 60 -> 54 -> 48.
_CHAIN_STEPS = (
    (24, (0, 1), (1, 2), 42),
    (42, (0, 0), (1, 2), 48),
    (60, (0, 1), (1, 0), 54),
    (54, (0, 2), (1, 0), 48),
)


def maxima_chain_steps() -> tuple[tuple[int, tuple[int, int], tuple[int, int], int], ...]:
    """The certified transposition chain (src, position, position, dst)."""
    return _CHAIN_STEPS


def cross_pairs() -> tuple[tuple[int, int], ...]:
    """The cross-hexagon majorisation pairs (majoriser, majorised)."""
    return _CROSS_PAIRS


@dataclasses.dataclass(frozen=True)
class CertifiedEdge:
    """A directed certified relation: I(class src) <= I(class dst).

    ``kind`` is 'majorisation' (src majorises dst), 'entropic' (a
    titration-certified transposition), or 'xi' (an undirected mirror
    pairing, stored with src < dst).
    """

    src: int
    dst: int
    kind: str
    certificate: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class Honeycomb:
    """Hexagon partition of the 2x3 classes plus every certified edge."""

    hexagons: tuple[tuple[int, ...], ...]
    edges: tuple[CertifiedEdge, ...]

    def edges_of_kind(self, kind: str) -> tuple[CertifiedEdge, ...]:
        return tuple(e for e in self.edges if e.kind == kind)


def _majorisation_edge(table: ClassTable, src: int, dst: int) -> CertifiedEdge:
    cert = majorisation_certificate(table.get(src).canonical, table.get(dst).canonical)
    if cert is None:
        raise RuntimeError(f"expected a majorisation certificate for {src} -> {dst}")
    return CertifiedEdge(src=src, dst=dst, kind="majorisation", certificate=cert)


@functools.lru_cache(maxsize=None)
def honeycomb() -> Honeycomb:
    """Build the certified honeycomb of the 60 classes.

    Every class sits in one of ten hexagons (six bottom-row orderings over
    a shared top row).  Edges carry their full derivation trace; all of
    them are recomputed and re-certified here, never trusted from data.
    """
    table = r23_table()
    if len(table) != 60:
        raise RuntimeError("the 2x3 table must have 60 classes")
    hexagons = tuple(tuple(range(b * 6 + 1, b * 6 + 7)) for b in range(10))
    edges: list[CertifiedEdge] = []
    for hexagon in hexagons:
        for lo, hi in _FLEA_OFFSETS:
            edges.append(_majorisation_edge(table, hexagon[lo], hexagon[hi]))
    for src, dst in _CROSS_PAIRS:
        edges.append(_majorisation_edge(table, src, dst))
    swaps = [(table.get(src).canonical, pos_a, pos_b) for src, pos_a, pos_b, _ in _CHAIN_STEPS]
    for (src, _, _, dst), (verdict, _, image) in zip(_CHAIN_STEPS, _titrated_swaps(table, swaps)):
        if not verdict.is_forward:
            raise RuntimeError(f"expected a forward titration for {src} -> {dst}")
        if image.index != dst:
            raise RuntimeError(f"chain step {src} -> {dst} lands in the wrong class")
        edges.append(
            CertifiedEdge(src=src, dst=dst, kind="entropic", certificate=verdict.certificate)
        )
    for lo, hi in xi_pairs(table)[1]:
        edges.append(
            CertifiedEdge(
                src=lo,
                dst=hi,
                kind="xi",
                certificate=(f"mirror involution pairs class {lo} with class {hi}",),
            )
        )
    return Honeycomb(hexagons=hexagons, edges=tuple(edges))


def honeycomb_dot() -> str:
    """Render the honeycomb as Graphviz DOT (deterministic output)."""
    hc = honeycomb()
    table = r23_table()
    lines = [
        "// honeycomb of 2x3 arrangement classes, schema_version 1",
        f"// table_version {TABLE_VERSION}",
        "digraph honeycomb {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for h, hexagon in enumerate(hc.hexagons, start=1):
        lines.append(f"  subgraph cluster_hex_{h} {{")
        lines.append(f'    label="hexagon {h}";')
        for idx in hexagon:
            lines.append(f'    n{idx} [label="{table.get(idx).display}"];')
        lines.append("  }")
    style = {
        "majorisation": "[kind=majorisation]",
        "entropic": "[kind=entropic, style=bold]",
        "xi": "[kind=xi, style=dashed, dir=none]",
    }
    for edge in hc.edges:
        lines.append(f"  n{edge.src} -> n{edge.dst} {style[edge.kind]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
