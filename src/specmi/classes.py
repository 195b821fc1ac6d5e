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

Certified edges between classes are derived here, once each.  One store
per shape, ``_certified_swaps``, decides every cell swap that carries a
class to a higher one, a chunk of classes per ``orders._decide_swaps``
call, reading the class each swap reaches from the action of symbol
exchanges on classes (``_exchanges``), and keeps the certified ones in
class order.  Both of its readers take their swap edges from it:
``_titration_candidates``, the census kernel's candidate sets and each
candidate's feeder list, when a census of a shape first runs
(``extrema._census_decomposition``), and the relation, read one class at
a time.  ``_relation_row`` decides a class's majorisations of every class
in one batch (``orders._decide_line_majorisation``, which reads the same
per-shape table of symbol-set orders as the swaps, and the line masks the
class table keeps), adds its swap edges from the store, and keeps a
reference to each edge's proof; ``_edge_lines`` renders
the edges of a printed chain once each.  ``_search_tree`` keeps one
breadth-first tree per source class, so each class's chains are searched
once and a cold query decides only the rows its search expands.  The 2x3
honeycomb decides its 95 majorisation pairs in one batch and its 4 chain
steps in one titration batch, without the relation rows; a
``CertifiedEdge`` renders its certificate (read by
``verify_theorem_chain``) when first read.  A honeycomb pair the
batch does not certify raises RuntimeError when the honeycomb is built, and
a text prover that does not certify an edge the batch decided, in a row or
the honeycomb, raises RuntimeError when the edge's text is read.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from typing import NamedTuple, Sequence

import numpy as np

from .core import ProbMatrix, Spectrum, _distinct
from .orders import (
    SYMBOL_LETTERS,
    _SEARCH_DEPTH,
    RelationKind,
    RelationVerdict,
    _decide_line_majorisation,
    _decide_majorisation,
    _decide_swaps,
    _decide_titration,
    _line_masks,
    _swap_lines,
    grid_display,
    majorisation_certificate,
    symbolic_transposition_context,
    titrate_check,
)

__all__ = [
    "MAX_CELLS",
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
    "verify_theorem_chain",
    "honeycomb_dot",
]

#: Largest supported grid.  A shape has (mn)!/(m! n!) classes (half that
#: when square): 15120 for 2x5, but 332,640 for 2x6 and 3,326,400 for 3x4,
#: and every table, census and relation row is built per class.
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
    """One arrangement class: canonical word and 1-based index.

    The canonical grid, its display and the row pickers that
    :meth:`instantiate` fills are derived from the word on first use and
    kept with the class, so every later call only reads the spectrum.
    """

    index: int
    m: int
    n: int
    word: str

    @functools.cached_property
    def cycle_label(self) -> str:
        return cycle_label_of_word(self.word)

    @functools.cached_property
    def canonical(self) -> Grid:
        return word_to_grid(self.word, self.m, self.n)

    @functools.cached_property
    def display(self) -> str:
        """The word's m rows of n letters, joined by '|' (``grid_display`` of the grid)."""
        n = self.n
        return "|".join(self.word[r * n : (r + 1) * n] for r in range(self.m))

    @functools.cached_property
    def _row_pickers(self) -> tuple[operator.itemgetter, ...]:
        """Per canonical row, a picker taking spectrum values to the row's entries.

        A one-cell row picks a slice, because an itemgetter of one index
        returns the bare value instead of a tuple.
        """
        return tuple(
            operator.itemgetter(*row)
            if len(row) > 1
            else operator.itemgetter(slice(row[0], row[0] + 1))
            for row in self.canonical
        )

    def instantiate(self, spectrum: Spectrum) -> ProbMatrix:
        """Fill the canonical grid with the spectrum's values.

        Only the spectrum's length is checked here: its values were checked
        when it was built, and the grid places each of them once, so the
        matrix is built by ``ProbMatrix._of``.
        """
        if spectrum.dim != self.m * self.n:
            raise ValueError(
                f"spectrum has {spectrum.dim} entries; class needs {self.m * self.n}"
            )
        values = spectrum.values
        return ProbMatrix._of(tuple([pick(values) for pick in self._row_pickers]))


@dataclasses.dataclass(frozen=True)
class ClassTable:
    """All arrangement classes of one shape, ordered by canonical word.

    ``letters`` holds every canonical word once, ``m * n`` letters per
    class in class order; the :class:`MatrixClass` objects are built on the
    first read of :attr:`classes` and kept, with whatever they derive.
    """

    m: int
    n: int
    letters: str

    def __len__(self) -> int:
        return self._count

    @functools.cached_property
    def _count(self) -> int:
        """The number of classes; kept, so a relation query reads it as an attribute."""
        return len(self.letters) // (self.m * self.n)

    @functools.cached_property
    def classes(self) -> tuple[MatrixClass, ...]:
        m, n, mn, letters = self.m, self.n, self.m * self.n, self.letters
        return tuple(
            MatrixClass(index=i + 1, m=m, n=n, word=letters[i * mn : (i + 1) * mn])
            for i in range(len(self))
        )

    @functools.cached_property
    def _index_by_word(self) -> dict[str, int]:
        mn = self.m * self.n
        return {self.letters[i * mn : (i + 1) * mn]: i + 1 for i in range(len(self))}

    @functools.cached_property
    def _grids(self) -> np.ndarray:
        """Canonical symbol grids of all classes, a (classes, m, n) int64 array."""
        letters = np.frombuffer(self.letters.encode(), np.uint8)
        return np.searchsorted(_LETTER_BYTES, letters).reshape(len(self), self.m, self.n)

    @functools.cached_property
    def _lines(self) -> tuple[np.ndarray, np.ndarray]:
        """Symbol bitmasks of every class's rows and columns (``orders._line_masks``)."""
        lines = _line_masks(self._grids)
        for masks in lines:
            masks.flags.writeable = False  # shared by every reader of the table
        return lines

    @functools.cached_property
    def _codes(self) -> np.ndarray:
        """Base-mn codes of the canonical words, ascending like the words."""
        return _encode(self._grids.reshape(len(self), -1))

    @functools.cached_property
    def _cycle_labels(self) -> tuple[str, ...]:
        """Every class's ``cycle_label``, in class order, derived in one batch.

        Each element of each class's permutation sigma (symbol x at position
        sigma(x)) is written as a token: "(" if it is the smallest of its
        cycle, then its 1-based number, then ")" if sigma takes it to that
        smallest element, else the separator.  Sorted by (smallest element
        of their cycle, steps from it), the tokens list the cycles as
        ``cycle_label_of_word`` does; fixed points are left out, and a
        permutation of fixed points alone reads "()".
        """
        count, mn = len(self), self.m * self.n
        # elements as flat positions k * mn + x; ``after`` is sigma's action
        flat = np.arange(count * mn)
        after = (np.argsort(self._grids.reshape(count, mn), axis=1) + flat[::mn, None]).ravel()
        leader, image = flat.copy(), flat
        for _ in range(mn - 1):
            image = after[image]
            np.minimum(leader, image, out=leader)
        steps, image = np.zeros_like(flat), leader
        for step in range(1, mn):
            image = after[image]
            steps[(image == flat) & (steps == 0) & (leader != flat)] = step
        fixed = after == flat
        key = np.where(fixed, mn * mn, (leader % mn) * mn + steps).reshape(count, mn)
        order = (np.argsort(key, axis=1) + flat[::mn, None]).ravel()
        # token 0 is a fixed point's, empty; then four per element
        sep = "," if mn > 9 else ""
        tokens = [""] + [
            ("(" if opens else "") + str(x + 1) + (")" if closes else sep)
            for x in range(mn)
            for opens in (False, True)
            for closes in (False, True)
        ]
        ids = 1 + 4 * (order % mn) + 2 * (steps[order] == 0) + (after[order] == leader[order])
        ids[fixed[order]] = 0
        rows = np.array(tokens, dtype=object)[ids.reshape(count, mn)].tolist()
        return tuple("".join(row) or "()" for row in rows)

    def get(self, index: int) -> MatrixClass:
        if not 1 <= index <= len(self):
            raise ValueError(f"class index {index} outside 1..{len(self)}")
        return self.classes[index - 1]

    def index_of(self, word: str) -> int:
        try:
            return self._index_by_word[word]
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


def _class_rows(grids: np.ndarray, table: ClassTable) -> np.ndarray:
    """0-based classes of a (count, m, n) batch of symbol grids of the table's shape."""
    return np.searchsorted(table._codes, _canonical_codes(grids))


def _classes_of(grids: Sequence[Grid] | np.ndarray, table: ClassTable) -> list[MatrixClass]:
    """Classes of a batch of symbol grids of the table's shape, in one pass."""
    batch = np.array(grids, dtype=np.int64).reshape(len(grids), table.m, table.n)
    return [table.classes[i] for i in _class_rows(batch, table).tolist()]


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
    codes = _distinct(_canonical_codes(words.reshape(-1, m, n)))
    digits = codes[:, None] // mn ** np.arange(mn - 1, -1, -1, dtype=np.int64) % mn
    return ClassTable(m=m, n=n, letters=_LETTER_BYTES[digits].tobytes().decode())


@functools.lru_cache(maxsize=None)
def r23_table() -> ClassTable:
    """The 60 classes of a 2x3 grid; memoised, so relation queries skip ``class_table``."""
    return class_table(2, 3)


@functools.lru_cache(maxsize=None)
def class_table(m: int, n: int) -> ClassTable:
    """Cached class table of one shape."""
    _check_shape(m, n)
    return enumerate_classes(m, n)


def varpi(arrangement):
    """Bottom-row outer transposition of a 2x3 arrangement.

    Swaps the bottom-left and bottom-right entries and returns the same
    kind of object (ProbMatrix in, ProbMatrix out; grid in, grid out).
    An involution; it maps each standard-form non-minimal head to a
    maximal-side class.  A ProbMatrix result only moves the input's checked
    values, so it is built by ``ProbMatrix._of``.
    """
    if isinstance(arrangement, ProbMatrix):
        if (arrangement.m, arrangement.n) != (2, 3):
            raise ValueError("varpi acts on 2x3 arrangements")
        top, bottom = arrangement.entries
        return ProbMatrix._of((top, (bottom[2], bottom[1], bottom[0])))
    rows = tuple(tuple(row) for row in arrangement)
    if len(rows) != 2 or any(len(r) != 3 for r in rows):
        raise ValueError("varpi acts on 2x3 arrangements")
    top, bottom = rows
    return (top, (bottom[2], bottom[1], bottom[0]))


def involution_xi(c: MatrixClass | int) -> MatrixClass:
    """The mirror involution on classes: reverse the roles of the symbols.

    Relabels every symbol s as mn-1-s in the canonical representative (the
    k-th largest value becomes the k-th smallest) and canonicalises the
    result.  Equivalently, conjugates the class's positional permutation by
    the order-reversing involution of the alphabet.  An int is a 2x3 class
    index.
    """
    cls = c if isinstance(c, MatrixClass) else r23_table().get(int(c))
    mn = cls.m * cls.n
    mirrored = tuple(tuple(mn - 1 - s for s in row) for row in cls.canonical)
    return canonical_form(mirrored, table=class_table(cls.m, cls.n))


def xi_pairs() -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Fixed points and swapped pairs of the mirror involution on the 2x3 classes."""
    table = r23_table()
    fixed: list[int] = []
    pairs: list[tuple[int, int]] = []
    mirrored = table.m * table.n - 1 - table._grids
    for cls, image in zip(table.classes, (c.index for c in _classes_of(mirrored, table))):
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
    images = _classes_of([varpi(table.get(i).canonical) for i in minzoneup], table)
    maxima = tuple(sorted(c.index for c in images))
    return StandardFormSets(heads=heads, minz=minz, minzoneup=minzoneup, maxima_candidates=maxima)


# ---------------------------------------------------------------------------
# Certified edges: titrated cell swaps and the relation, one class at a time
# ---------------------------------------------------------------------------

def _exchanges(table: ClassTable) -> np.ndarray:
    """The classes that exchanging two symbols carries each class to.

    Returns ``images``, an (mn, mn, classes) int16 array: for symbols s < t,
    ``images[s, t, k]`` is the 0-based class of class k's canonical grid
    with s and t exchanged (other entries are 0).

    Exchanging two symbols is the swap of the two cells that hold them.  It
    commutes with permuting rows and columns, so it acts on classes, and a
    product of exchanges acts as the product of their actions.  Two actions
    are read by classifying every class grid once: the exchange of 0 and 1,
    and the cycle s -> s + 1 (mod mn).  Conjugating (s s+1) by the cycle
    gives (s+1 s+2), and conjugating (s t-1) by (t-1 t) gives (s t).
    """
    grids, mn = table._grids, table.m * table.n
    # both classifications before the images array, so that their
    # temporaries and it are not held at once
    cycle = _class_rows((grids + 1) % mn, table)
    exchange = _class_rows(np.where(grids < 2, 1 - grids, grids), table)
    uncycle = np.empty_like(cycle)
    uncycle[cycle] = np.arange(len(cycle))
    images = np.zeros((mn, mn, len(table)), dtype=np.int16)
    images[0, 1] = exchange
    for s in range(1, mn - 1):
        images[s, s + 1] = cycle[images[s - 1, s][uncycle]]
    for t in range(2, mn):
        step = images[t - 1, t]
        for s in range(t - 1):
            images[s, t] = step[images[s, t - 1][step]]
    return images


#: Cell pairs listed per chunk of classes when the swaps are decided, so
#: that the build holds one chunk's temporaries: 728 classes of 45 pairs at
#: 2x5, of which half reach a higher class.  Its tracemalloc peak at 2x5 is
#: 5.8 MB with the class table warm (5.4 MB at half the chunk, which was
#: about 10 ms slower in three runs on a 2-vCPU VM).  2x2, 2x3 and 2x4
#: take one chunk.
_SWAP_CHUNK = 1 << 15


@functools.lru_cache(maxsize=None)
def _certified_swaps(m: int, n: int) -> tuple[np.ndarray, ...]:
    """Every certified swap of two cells, kept once, in the grid of its lower class.

    Returns the arrays ``(low, high, a, b)``: int16 1-based classes and int8
    row-major cells a < b, 6 bytes a swap (1.2 MB at 2x5).  Each swap
    exchanges the cells a and b of the canonical grid of class
    ``min(low, high)``, reaches the other class and proves I(low) <= I(high).
    They are listed by the class whose grid holds them, then by cell pair.

    Only the swaps that carry a class k to a class j > k are decided.
    Exchanging the same two symbols in j's grid carries j back to k, and its
    base sums are the swap's with the beta and alpha-tau sides exchanged, so
    it proves the mirrored direction: the same edge, whose first proof in
    (class, cell pair) order is the one in k's grid.  The classes are
    walked ``_SWAP_CHUNK`` cell pairs at a time; the class each swap reaches
    is read from ``_exchanges``, and each chunk's swaps are decided in one
    ``orders._decide_swaps`` call on the lines the class table keeps.  Kept
    for the relation rows and the census's candidate sets.  Raises
    RuntimeError if a swap is proven in both directions, as its two edges
    would form a cycle.
    """
    table = class_table(m, n)
    mn, count = m * n, len(table)
    cells = np.array(list(itertools.combinations(range(mn), 2)), dtype=np.int8)
    images = _exchanges(table).ravel()
    grids, (rows, cols) = table._grids.reshape(count, mn), table._lines
    step = max(1, _SWAP_CHUNK // len(cells))
    found = []
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        symbols = grids[lo:hi].take(cells, axis=1).reshape(-1, 2)  # per class, per cell pair
        k = np.repeat(np.arange(lo, hi, dtype=np.int16), len(cells))
        s, t = np.minimum(symbols[:, 0], symbols[:, 1]), np.maximum(symbols[:, 0], symbols[:, 1])
        j = images.take((s * mn + t) * count + k)
        at = np.flatnonzero(j > k)
        k, j, symbols = k[at], j[at], symbols.take(at, axis=0)
        pairs = cells.take(at % len(cells), axis=0)
        forward, reverse = _decide_swaps(m, n, *_swap_lines(rows, cols, k, pairs, symbols))
        if (forward & reverse).any():
            raise RuntimeError(f"a {m}x{n} swap is proven in both directions")
        at = np.flatnonzero(forward | reverse)
        up, k, j, pairs = forward[at], k[at] + 1, j[at] + 1, pairs.take(at, axis=0)
        found.append((np.where(up, k, j), np.where(up, j, k), pairs[:, 0], pairs[:, 1]))
    return tuple(np.concatenate(arrays) for arrays in zip(*found))


class _CandidateSets(NamedTuple):
    """The census kernel's evaluation sets, 1-based classes in ascending order.

    ``feeders_max[i]`` lists the classes of ``f_max`` with an edge up into
    ``c_max[i]``, and ``feeders_min`` is the min side's mirror image.
    """

    c_max: tuple[int, ...]
    f_max: tuple[int, ...]
    c_min: tuple[int, ...]
    f_min: tuple[int, ...]
    feeders_max: tuple[tuple[int, ...], ...]
    feeders_min: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=None)
def _titration_candidates(m: int, n: int) -> _CandidateSets:
    """The census kernel's evaluation sets ``C_max, F_max, C_min, F_min`` and feeders.

    Read from the certified edges I(low) <= I(high) of
    :func:`_certified_swaps`, the store the relation rows read, so a
    process that runs a census and relation queries titrates once.  On the
    max side, ``C`` holds the classes no edge points above and ``F`` the
    other classes whose every edge up lands in ``C``; the feeders of a
    class of ``C`` are the classes of ``F`` with an edge up into it, so
    every class of ``F`` feeds at least one.  The min side is the mirror
    image.  Raises RuntimeError if the edges have a cycle.
    """
    low, high = _certified_swaps(m, n)[:2]
    size = len(class_table(m, n)) + 1
    # peel the classes with no edge up, then the edges into them (Kahn's algorithm)
    by_head = np.argsort(high, kind="stable")
    tails, ends = low[by_head], np.cumsum(np.bincount(high, minlength=size)).tolist()
    up = np.bincount(low, minlength=size)
    tops, left = np.flatnonzero(up[1:] == 0) + 1, size - 1
    while len(tops):
        left -= len(tops)
        into = np.concatenate([tails[ends[top - 1] : ends[top]] for top in tops.tolist()])
        up -= np.bincount(into, minlength=size)
        tops = np.flatnonzero((up == 0) & (np.bincount(into, minlength=size) > 0))
    if left:
        raise RuntimeError(f"the {m}x{n} titration edges have a cycle")
    sets, feeders = [], []
    for tail, head in ((low, high), (high, low)):
        c = np.bincount(tail, minlength=size) == 0
        f = ~c & (np.bincount(tail[~c[head]], minlength=size) == 0)
        members = np.flatnonzero(c)[1:]
        sets += [tuple(members.tolist()), tuple(np.flatnonzero(f).tolist())]
        # every edge out of F lands in C: its (head, tail) pairs, once each, by head
        out_of_f = f[tail]
        pairs = head[out_of_f].astype(np.intp) * size + tail[out_of_f]
        fed, feeder = np.divmod(_distinct(pairs), size)
        lists = np.split(feeder, np.searchsorted(fed, members[1:]))
        feeders.append(tuple(tuple(group.tolist()) for group in lists))
    return _CandidateSets(*sets, *feeders)


#: A relation edge's reference to its proof: None for the majorisation of
#: its end points, or (k, a, b) for the titrated swap of the row-major cells
#: a < b in the canonical grid of class k, the smaller of its end points.
_Proof = tuple[int, int, int] | None


@functools.lru_cache(maxsize=None)
def _relation_row(m: int, n: int, i: int) -> dict[int, _Proof]:
    """The certified edges i -> j, meaning I(class i) <= I(class j), of one class.

    First the classes that i majorises (the majoriser has the lower mutual
    information), ascending, decided in one batch against every class; then
    the high end of every titrated swap of :func:`_certified_swaps` whose
    low end is i, in store order.  An edge keeps its first proof, as a
    reference only; :func:`_edge_lines` renders the text.
    """
    lines = class_table(m, n)._lines
    majorised = _decide_line_majorisation(m, n, [masks[i - 1 : i] for masks in lines], lines)
    majorised[i - 1] = False
    row: dict[int, _Proof] = dict.fromkeys((np.flatnonzero(majorised) + 1).tolist())
    low, high, a, b = _certified_swaps(m, n)
    mine = np.flatnonzero(low == i)
    for j, *cells in zip(*(v[mine].tolist() for v in (high, a, b))):
        row.setdefault(j, (min(i, j), *cells))
    return row


@functools.lru_cache(maxsize=None)
def _search_tree(m: int, n: int, src: int) -> dict[int, int]:
    """Breadth-first tree of the m x n relation from class src.

    Maps every class within ``orders._SEARCH_DEPTH`` hops of src to its
    parent (src to itself).  Neighbours are expanded in sorted order and a
    class keeps the parent it was first discovered from, so the path read
    back from the tree is the one a search stopping at that class finds.
    """
    parent = {src: src}
    frontier = [src]
    for _ in range(_SEARCH_DEPTH):
        nxt = []
        for node in frontier:
            for j in sorted(_relation_row(m, n, node)):
                if j not in parent:
                    parent[j] = node
                    nxt.append(j)
        frontier = nxt
    return parent


def _certified_majorisation(table: ClassTable, src: int, dst: int) -> tuple[str, ...]:
    """The majorisation certificate of class src over class dst; raises if there is none."""
    cert = majorisation_certificate(table.get(src).canonical, table.get(dst).canonical)
    if cert is None:
        raise RuntimeError(f"expected a majorisation certificate for {src} -> {dst}")
    return cert


def _certified_swap(
    grid: Grid, pos_a: tuple[int, int], pos_b: tuple[int, int], kind: RelationKind, edge: str
) -> tuple[str, ...]:
    """The titration trace of a swap; raises unless its verdict is ``kind``."""
    verdict = titrate_check(symbolic_transposition_context(grid, pos_a, pos_b))
    if verdict.kind is not kind:
        raise RuntimeError(f"expected a {kind.value} titration for {edge}")
    return verdict.certificate


@functools.lru_cache(maxsize=None)
def _edge_lines(m: int, n: int, src: int, dst: int) -> tuple[str, ...]:
    """The proof text of the edge src -> dst of the m x n relation.

    Rendered by the text provers when first read, and kept.  Raises
    RuntimeError if the text prover does not certify the edge that the
    batched decision put in the row of src.
    """
    proof = _relation_row(m, n, src)[dst]
    table = class_table(m, n)
    if proof is None:
        return _certified_majorisation(table, src, dst)
    k, a, b = proof
    grid = table.get(k).canonical
    cells = [s for row in grid for s in row]
    swap = f"swap {SYMBOL_LETTERS[cells[a]]},{SYMBOL_LETTERS[cells[b]]} in {grid_display(grid)}"
    cells[a], cells[b] = cells[b], cells[a]
    image = grid_display([cells[r * n : (r + 1) * n] for r in range(m)])
    forward = k == src
    kind = RelationKind.PROVEN_FORWARD if forward else RelationKind.PROVEN_REVERSE
    head = f"rule transposition: {swap} gives {image} (class {dst if forward else src})"
    return (head,) + _certified_swap(grid, divmod(a, n), divmod(b, n), kind, f"{src} -> {dst}")


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


@dataclasses.dataclass(frozen=True)
class CertifiedEdge:
    """A directed certified relation of the honeycomb: I(class src) <= I(class dst).

    ``kind`` is 'majorisation' (src majorises dst), 'entropic' (the
    titration-certified transposition of the cells ``swap`` in the canonical
    grid of src), or 'xi' (an undirected mirror pairing, stored with src <
    dst).  :func:`honeycomb` decides the edges in batch, on symbol sets;
    ``certificate`` is the proof text, rendered by the text provers when
    first read and kept.  Reading it raises RuntimeError if the text prover
    does not certify the edge.
    """

    src: int
    dst: int
    kind: str
    swap: tuple[tuple[int, int], tuple[int, int]] | None = None

    @functools.cached_property
    def certificate(self) -> tuple[str, ...]:
        if self.kind == "xi":
            return (f"mirror involution pairs class {self.src} with class {self.dst}",)
        table = r23_table()
        if self.kind == "majorisation":
            return _certified_majorisation(table, self.src, self.dst)
        pos_a, pos_b = self.swap
        kind, edge = RelationKind.PROVEN_FORWARD, f"{self.src} -> {self.dst}"
        return _certified_swap(table.get(self.src).canonical, pos_a, pos_b, kind, edge)


@dataclasses.dataclass(frozen=True)
class Honeycomb:
    """Hexagon partition of the 2x3 classes plus every certified edge."""

    hexagons: tuple[tuple[int, ...], ...]
    edges: tuple[CertifiedEdge, ...]

    def edges_of_kind(self, kind: str) -> tuple[CertifiedEdge, ...]:
        return tuple(e for e in self.edges if e.kind == kind)


@functools.lru_cache(maxsize=None)
def honeycomb() -> Honeycomb:
    """Build the certified honeycomb of the 60 classes.

    Every class sits in one of ten hexagons (six bottom-row orderings over
    a shared top row).  Every edge is decided here from the class grids,
    never trusted from data: the majorisation pairs in one
    ``orders._decide_majorisation`` batch and the chain steps in one
    titration batch.  Raises RuntimeError if one is not certified.  Proof
    text is rendered only when an edge's ``certificate`` is read.
    """
    table = r23_table()
    hexagons = tuple(tuple(range(b * 6 + 1, b * 6 + 7)) for b in range(10))
    pairs = [(h[lo], h[hi]) for h in hexagons for lo, hi in _FLEA_OFFSETS] + list(_CROSS_PAIRS)
    ends = np.array(pairs) - 1
    certified = _decide_majorisation(table._grids[ends[:, 0]], table._grids[ends[:, 1]])
    if not certified.all():
        src, dst = pairs[int(np.argmin(certified))]
        raise RuntimeError(f"expected a majorisation certificate for {src} -> {dst}")
    edges = [CertifiedEdge(src, dst, "majorisation") for src, dst in pairs]
    steps = np.array([(src, 3 * ia + ja, 3 * ib + jb) for src, (ia, ja), (ib, jb), _ in _CHAIN_STEPS])
    grids = table._grids[steps[:, 0] - 1]
    kinds = _decide_titration(grids, steps[:, 1:])
    images = grids.reshape(len(steps), -1)
    k, a, b = np.arange(len(steps)), steps[:, 1], steps[:, 2]
    images[k, a], images[k, b] = images[k, b], images[k, a]
    images = _class_rows(images.reshape(grids.shape), table) + 1
    if kinds.tolist() != [1] * len(steps) or images.tolist() != [s[3] for s in _CHAIN_STEPS]:
        raise RuntimeError("a chain step is not a certified swap into its class")
    edges += [
        CertifiedEdge(src, dst, "entropic", swap=(pos_a, pos_b))
        for src, pos_a, pos_b, dst in _CHAIN_STEPS
    ]
    edges += [CertifiedEdge(lo, hi, "xi") for lo, hi in xi_pairs()[1]]
    return Honeycomb(hexagons=hexagons, edges=tuple(edges))


def verify_theorem_chain() -> list[RelationVerdict]:
    """Render every certificate behind the 2x3 extremal classification.

    Returns one ProvenForward verdict per certified step of the cached
    :func:`honeycomb`: the four titration-certified transpositions walking
    the maximal-side candidates up to class 48, then the fifteen
    cross-hexagon majorisations that eliminate the remaining candidates.
    Each edge's certificate is rendered by the text provers when first
    read; RuntimeError if one is not derivable.
    """
    hc = honeycomb()
    majorisations = {(e.src, e.dst): e for e in hc.edges_of_kind("majorisation")}
    headed = [
        (f"chain step: class {e.src} -> class {e.dst} "
         f"(swap positions {e.swap[0]} and {e.swap[1]})", e)
        for e in hc.edges_of_kind("entropic")
    ] + [
        (f"cross edge: class {src} majorises class {dst}", majorisations[src, dst])
        for src, dst in _CROSS_PAIRS
    ]
    return [RelationVerdict(RelationKind.PROVEN_FORWARD, (h,) + e.certificate) for h, e in headed]


#: Version of the 2x3 class table that ``honeycomb_dot`` prints.
TABLE_VERSION = 1


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
