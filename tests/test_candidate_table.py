"""The census kernel's certified evaluation sets, and what they say of the paper.

The census reads, per shape and side, the candidates ``C`` and each
candidate's feeder list (the classes of ``F`` with an edge into it) as
0-based arrays from ``classes._titration_candidates``, which derives them
from the shape's certified-swap store (``classes._certified_swaps``) the
first time it runs.  The kernel is exact only if every class outside
``C`` and ``F`` has a chain of certified edges that ends in ``F``, and
every edge out of ``F`` is listed; these tests pin the store, the sets and
the longest lists, derive ``C`` and ``F`` again from the store's edges,
check the store against a titration of every swap, check its edges and
the listed ones at random spectra, and check the chains' existence
instead of trusting the store.  They also
test the paper's closing claim against the full relation (majorisation and
titration edges): only 2x3 has a single undominated maximum.
"""
import functools
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from specmi import (
    Spectrum,
    brute_force_extrema,
    census,
    majorisation_certificate,
    sample_spectra,
    verify_total_order_2x2,
)
from specmi import classes, extrema, orders
from specmi.classes import (
    _certified_swaps,
    _titration_candidates,
    canonical_form,
    class_table,
    standard_form_sets,
)
from specmi.orders import symbolic_transposition_context, titrate_check

PROVEN_FORWARD = orders.RelationKind.PROVEN_FORWARD
PROVEN_REVERSE = orders.RelationKind.PROVEN_REVERSE

SHAPES = [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)]
MINZ = {1, 7, 13, 25, 31}

#: Per shape, the sizes of ``C_max, F_max, C_min, F_min`` and the SHA-256 of
#: the four sets written as space-separated indices, one set per line; at
#: 2x4, 3x3 and 2x5 the sets of the generated table that the census once read.
PINNED_SETS = {
    (2, 2): ((1, 1, 1, 1), "9740b32781952f60d7920caa86a78ccfdb9ef57598041932dd415d3e88530799"),
    (2, 3): ((1, 4, 5, 9), "1451cad1475d3d56fbfd36c7b18a696f578d038795680f1896de99e25d851176"),
    (2, 4): ((7, 26, 17, 51), "32f64ec953b728dd687198326608c86ca0c5becec5ac88d4941b558d7d7f6f42"),
    (3, 3): ((18, 69, 18, 79), "b1947dab0245f4568f30ee6cecc8229623126b2da20a8e4cdf7319b1397111d1"),
    (2, 5): ((40, 158, 70, 268), "3aceac3778e57e645421c4bada4edd3e16063d2c7515475ce4edf7d517526328"),
}

#: Per shape, the number of certified swaps and the SHA-256 of the arrays
#: (low, high, a, b) of ``_certified_swaps`` as one int64 array.
PINNED_SWAPS = {
    (2, 2): (6, "959479510ef35ba38546134cb05cc17bfd640bc390e9ab6459c4232b694738a1"),
    (2, 3): (330, "37dc13b2fbe47511f056295c95b908cebce771abe04dfb9d26ab1b1dd1ede1cc"),
    (2, 4): (7560, "4cc2ac887c96a1bd0eb6a96545d25b915594a4d0acf7c8b52c54334516a8ec19"),
    (3, 3): (56952, "8d9eb41b75e7af44822e9506d36f35a656beedc2c985ce2f9bf82271fb298691"),
    (2, 5): (204120, "19b0431de25beac4bb15355e556cd8a84cf56f43d4ebceb4de3f3fbd546496be"),
}


def _relation_graph(m, n):
    """The whole m x n relation, read row by row."""
    return {i: classes._relation_row(m, n, i) for i in range(1, len(class_table(m, n)) + 1)}


def _candidates(m, n):
    """Per side, max then min, ``C`` and each candidate's feeder list, 1-based tuples.

    Reads back the 0-based arrays of ``_titration_candidates``: a row of a
    feeder table is its ascending list, then repeats of its first feeder.
    """
    sides = []
    for c, table in _titration_candidates(m, n):
        lists = []
        for row in (table + 1).tolist():
            k = next((i for i in range(1, len(row)) if row[i] <= row[i - 1]), len(row))
            assert row[k:] == row[:1] * (len(row) - k)
            lists.append(tuple(row[:k]))
        sides.append((tuple((c + 1).tolist()), tuple(lists)))
    return tuple(sides)


def _sets(m, n):
    """``C_max, F_max, C_min, F_min`` of one shape as sets of 1-based classes.

    Each ``F`` is the union of its side's feeder lists.
    """
    (c_max, fed_max), (c_min, fed_min) = _candidates(m, n)
    return set(c_max), set().union(*fed_max), set(c_min), set().union(*fed_min)


def _edge_sets(m, n):
    """``C_max, F_max, C_min, F_min`` derived from the swap store's edges alone.

    On the max side, ``C`` holds the classes with no edge up and ``F`` the
    other classes whose every edge up lands in ``C``; the min side mirrors it.
    """
    every = set(range(1, len(class_table(m, n)) + 1))
    low, high = (side.tolist() for side in _edges(m, n))
    sets = []
    for tails, heads in ((low, high), (high, low)):
        out = {x: set() for x in every}
        for x, y in zip(tails, heads):
            out[x].add(y)
        c = {x for x in every if not out[x]}
        sets += [c, {x for x in every - c if out[x] <= c}]
    return tuple(sets)


def _edges(m, n):
    """The certified edges ``(low, high)``, I(low) <= I(high), of the swap store."""
    return _certified_swaps(m, n)[:2]


@pytest.mark.parametrize("m,n", SHAPES)
def test_titration_pass_reproduces_the_table(m, n):
    sets = _sets(m, n)
    text = "\n".join(" ".join(map(str, sorted(s))) for s in sets)
    assert (tuple(map(len, sets)), hashlib.sha256(text.encode()).hexdigest()) == PINNED_SETS[m, n]
    # C ascending, and one row of feeders per candidate, as wide as the longest list
    for (c, table), width in zip(_titration_candidates(m, n), PINNED_FEEDER_WIDTHS[m, n]):
        assert c.dtype == table.dtype == np.intp and (np.diff(c) > 0).all()
        assert table.shape == (len(c), width)


#: Per shape, the longest feeder list of a ``C_max`` and of a ``C_min`` class.
PINNED_FEEDER_WIDTHS = {
    (2, 2): (1, 1), (2, 3): (4, 3), (2, 4): (9, 7), (3, 3): (7, 7), (2, 5): (7, 9)
}


def _class_values(spectra, m, n):
    """Every class's mutual information at each spectrum, as ``brute_force_extrema`` reports it."""
    return np.array([brute_force_extrema(Spectrum(tuple(row)), m, n).values for row in spectra])


def _feeder_edges(m, n):
    """Per side, the feeder lists as edges ``(low, high)``, I(low) <= I(high)."""
    (c_max, fed_max), (c_min, fed_min) = _candidates(m, n)
    up = [(f, c) for c, fed in zip(c_max, fed_max) for f in fed]
    down = [(c, f) for c, fed in zip(c_min, fed_min) for f in fed]
    return up, down


@pytest.mark.parametrize("m,n", SHAPES)
def test_feeder_lists_are_the_edges_out_of_the_feeders(m, n):
    c_max, f_max, c_min, f_min = _edge_sets(m, n)
    widths = []
    for (c, feeders), want_c, want_f in zip(_candidates(m, n), (c_max, c_min), (f_max, f_min)):
        assert c == tuple(sorted(want_c)) and len(feeders) == len(c)
        assert all(fed and list(fed) == sorted(set(fed)) for fed in feeders)
        assert set().union(*feeders) == want_f
        widths.append(max(map(len, feeders)))
    assert tuple(widths) == PINNED_FEEDER_WIDTHS[m, n]
    # every listed pair is a certified edge, and every edge out of F is listed
    certified = set(zip(*(side.tolist() for side in _edges(m, n))))
    up, down = _feeder_edges(m, n)
    assert set(up) == {(x, y) for x, y in certified if x in f_max}
    assert set(down) == {(x, y) for x, y in certified if y in f_min}
    assert len(set(up)) == len(up) and len(set(down)) == len(down)


@pytest.mark.parametrize("m,n", SHAPES)
def test_feeder_edges_hold_at_random_spectra(m, n):
    spectra = sample_spectra(m * n, 64, np.random.default_rng(m * n + 2))
    values = _class_values(spectra, m, n)
    up, down = _feeder_edges(m, n)
    low, high = np.array(up + down).T - 1
    # the allowance of test_certified_swaps_hold_at_random_spectra
    assert (values[:, low] <= values[:, high] + 1e-13).all()


def test_the_2x5_titration_pass_decides_its_swaps_a_chunk_at_a_time():
    # the store's cold build; one batch of all 340,200 swaps peaked at 20 MB
    class_table(2, 5)._lines
    orders._set_order(2, 5)
    tracemalloc.start()
    try:
        _certified_swaps.__wrapped__(2, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("m,n", sorted(PINNED_SWAPS))
def test_certified_swaps_are_pinned(m, n):
    swaps = _certified_swaps(m, n)
    assert [v.dtype for v in swaps] == [np.int16] * 2 + [np.int8] * 2
    values = np.stack(swaps).astype(np.int64)
    assert (len(swaps[0]), hashlib.sha256(values.tobytes()).hexdigest()) == PINNED_SWAPS[m, n]
    low, high, a, b = values
    assert (low != high).all() and (a < b).all()


def _titrated_swaps(m, n):
    """Every swap of two cells in every class's canonical grid, titrated alone.

    Returns the int64 rows ``(k, a, b, j, verdict)`` in class k, then cell
    pair a < b order: the class j the swap reaches (by canonicalising the
    swapped grid) and its ``_decide_swaps`` verdict (1 forward, else -1
    reverse, else 0), 1-based classes.
    """
    table = class_table(m, n)
    mn = m * n
    cells = np.array(list(itertools.combinations(range(mn), 2)))
    found = []
    for lo in range(0, len(table), 1024):
        grids = np.repeat(table._grids[lo : lo + 1024], len(cells), axis=0)
        pairs = np.tile(cells, (len(grids) // len(cells), 1))
        swapped = grids.reshape(-1, mn).copy()
        at = np.arange(len(swapped))
        a, b = pairs.T
        swapped[at, a], swapped[at, b] = swapped[at, b], swapped[at, a]
        k = lo + 1 + np.arange(len(grids)) // len(cells)
        j = classes._class_rows(swapped.reshape(-1, m, n), table) + 1
        symbols = np.take_along_axis(grids.reshape(-1, mn), pairs, axis=1)
        forward, reverse = orders._decide_swaps(
            *orders._line_masks(grids), np.arange(len(grids)), pairs, symbols
        )
        found.append(np.stack([k, a, b, j, np.where(forward, 1, np.where(reverse, -1, 0))]))
    return np.concatenate(found, axis=1)


def _reference_row(m, n, i, swaps):
    """Class i's relation row as ``swaps``, a :func:`_titrated_swaps`, gives it.

    The majorisations first, ascending; then the edges of the swaps that
    prove I(i) <= I(j), in class then cell-pair order over every grid, the
    swap's own and its mirror's, each edge keeping its first proof.
    """
    table = class_table(m, n)
    grids = table._grids
    lines_i = orders._line_masks(np.repeat(grids[i - 1 : i], len(grids), axis=0))
    majorised = orders._decide_line_majorisation(lines_i, orders._line_masks(grids))
    majorised[i - 1] = False
    row = dict.fromkeys((np.flatnonzero(majorised) + 1).tolist())
    k, a, b, j, verdict = swaps
    mine = ((k == i) & (verdict == 1) | (j == i) & (verdict == -1)) & (k != j)
    for src, x, y, dst in zip(*(v[mine].tolist() for v in (k, a, b, j))):
        row.setdefault(dst if src == i else src, (src, x, y))
    return row


@pytest.mark.parametrize("m,n", SHAPES)
def test_relation_rows_equal_a_titration_of_every_swap(m, n):
    count = len(class_table(m, n))
    if count <= 840:
        rows = range(1, count + 1)
    else:
        rows = np.random.default_rng(m * n + 40).choice(np.arange(1, count + 1), 40, replace=False)
    swaps = _titrated_swaps(m, n)
    for i in map(int, rows):
        row, reference = classes._relation_row(m, n, i), _reference_row(m, n, i, swaps)
        assert list(row.items()) == list(reference.items())


@pytest.mark.parametrize("m,n", SHAPES)
def test_stored_swaps_titrate_in_the_grid_of_their_lower_class(m, n):
    table = class_table(m, n)
    low, high, a, b = (v.tolist() for v in _certified_swaps(m, n))
    rng = np.random.default_rng(m * n + 200)
    for x in rng.choice(len(low), min(200, len(low)), replace=False).tolist():
        k = min(low[x], high[x])
        grid = table.get(k).canonical
        cells = [s for row in grid for s in row]
        cells[a[x]], cells[b[x]] = cells[b[x]], cells[a[x]]
        image = canonical_form([cells[r * n : (r + 1) * n] for r in range(m)]).index
        assert image == low[x] + high[x] - k
        context = symbolic_transposition_context(grid, divmod(a[x], n), divmod(b[x], n))
        verdict = titrate_check(context)
        assert verdict.kind is (PROVEN_FORWARD if k == low[x] else PROVEN_REVERSE)


def test_a_swap_proven_both_ways_stops_the_store(monkeypatch):
    def both(rows, cols, grid, cells, symbols):
        return np.ones(len(grid), dtype=bool), np.ones(len(grid), dtype=bool)

    monkeypatch.setattr(classes, "_decide_swaps", both)
    with pytest.raises(RuntimeError, match="proven in both directions"):
        _certified_swaps.__wrapped__(2, 3)


def test_a_candidate_without_a_feeder_stops_the_sets(monkeypatch):
    # one 2x2 edge, 1 -> 2: class 3 has no edge, so no class feeds it
    edge = np.array([1], dtype=np.int16), np.array([2], dtype=np.int16)
    monkeypatch.setattr(classes, "_certified_swaps", lambda m, n: edge)
    with pytest.raises(RuntimeError, match="2x2 titration candidate has no feeder"):
        _titration_candidates.__wrapped__(2, 2)


def test_a_census_and_every_relation_row_titrate_each_swap_once(monkeypatch):
    decided = []

    def counted(rows, cols, grid, cells, symbols):
        decided.append(len(grid))
        return orders._decide_swaps(rows, cols, grid, cells, symbols)

    monkeypatch.setattr(classes, "_decide_swaps", counted)
    cold = {}
    for module, name in ((classes, "_certified_swaps"), (classes, "_relation_row"),
                         (extrema, "_titration_candidates"), (extrema, "_census_candidates")):
        cold[name] = functools.lru_cache(maxsize=None)(getattr(module, name).__wrapped__)
        monkeypatch.setattr(module, name, cold[name])
    census(2, 4, 5000, 3)
    for i in range(1, len(class_table(2, 4)) + 1):
        cold["_relation_row"](2, 4, i)
    # each of the 840 classes' 28 swaps reaches another class; half reach a higher one
    assert sum(decided) == 840 * 28 // 2


@pytest.mark.parametrize("m,n", SHAPES)
def test_every_class_outside_the_table_walks_into_the_feeders(m, n):
    """The exactness argument of the pruned kernel, on the swap store.

    Every class outside ``C`` and ``F`` has an edge up (down) to a class
    outside ``C``, and the edges have no cycle, so every walk along such
    edges ends in ``F``.
    """
    n_classes = len(class_table(m, n))
    low, high = (side.tolist() for side in _edges(m, n))
    c_max, f_max, c_min, f_min = _sets(m, n)
    for c, f, tails, heads in ((c_max, f_max, low, high), (c_min, f_min, high, low)):
        assert c and f and not c & f
        assert c | f <= set(range(1, n_classes + 1))
        leaving = {x for x, y in zip(tails, heads) if y not in c}
        assert set(range(1, n_classes + 1)) - c - f <= leaving
        assert not leaving & f and not set(tails) & c
    # acyclic: a topological order takes every class (Kahn's algorithm)
    up = {x: [] for x in range(1, n_classes + 1)}
    indegree = dict.fromkeys(up, 0)
    for x, y in zip(low, high):
        up[x].append(y)
        indegree[y] += 1
    ready, ordered = [x for x, d in indegree.items() if d == 0], 0
    while ready:
        ordered += 1
        for y in up[ready.pop()]:
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    assert ordered == n_classes


@pytest.mark.parametrize("m,n", SHAPES)
def test_certified_swaps_hold_at_random_spectra(m, n):
    spectra = sample_spectra(m * n, 64, np.random.default_rng(m * n))
    values = _class_values(spectra, m, n)
    low, high = (side - 1 for side in _edges(m, n))
    # 1e-13 covers the round-off of two computed values, under 2e-14; one
    # spectrum at a time keeps the 2x5 check to two 204k-entry rows
    for row in values:
        assert (row[low] <= row[high] + 1e-13).all()


def test_only_2x3_has_a_unique_candidate():
    # the 2x3 relation graph (majorisation and titration edges) singles out
    # class 48 at the top and the five MINZ classes at the bottom
    edges = _relation_graph(2, 3)
    assert {i for i, out in edges.items() if not out} == {48}
    assert set(edges) - set(itertools.chain.from_iterable(edges.values())) == MINZ
    # titration edges alone leave several candidates in every larger shape
    sizes = {shape: (len(_sets(*shape)[0]), len(_sets(*shape)[2])) for shape in SHAPES}
    assert sizes == {
        (2, 2): (1, 1), (2, 3): (1, 5), (2, 4): (7, 17), (3, 3): (18, 18), (2, 5): (40, 70)
    }


def test_the_2x2_and_2x3_candidates_are_the_extremes_of_the_paper():
    # at 2x3 the census scores class 48 and the five MINZ classes only; at
    # 2x2 the antidiagonal ac|db and the identity ab|cd, the two ends of
    # the total order of qubit2.verify_total_order_2x2
    (c_max, _), (c_min, _) = _candidates(2, 3)
    assert c_max == (48,) and c_min == standard_form_sets().minz
    (c_max, _), (c_min, _) = _candidates(2, 2)
    assert (c_max, c_min) == ((3,), (1,))
    table = class_table(2, 2)
    assert (table.get(3).display, table.get(1).display) == ("ac|db", "ab|cd")
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    order, report = verify_total_order_2x2(s), brute_force_extrema(s, 2, 2)
    assert (report.maxima, report.minima) == ((3,), (1,))
    assert report.max_value == pytest.approx(order.i_antidiagonal, abs=1e-15)
    assert report.min_value == pytest.approx(order.i_identity, abs=1e-15)


def _undominated_maxima(m, n):
    """The max-side candidates with no certified edge up in the full relation."""
    return {i for i in _sets(m, n)[0] if not classes._relation_row(m, n, i)}


def test_only_2x3_has_a_unique_undominated_maximum():
    # the paper's closing claim against the full relation: majorisation
    # edges remove two of 2x4's seven candidates and none of 3x3's or 2x5's
    assert _undominated_maxima(2, 3) == {48}
    assert _undominated_maxima(2, 4) == {360, 576, 672, 696, 768}
    for shape, count in (((3, 3), 18), ((2, 5), 40)):
        assert _undominated_maxima(*shape) == _sets(*shape)[0]
        assert len(_sets(*shape)[0]) == count


def test_the_majorisations_that_remove_2x4_maxima_hold_at_random_spectra():
    table = class_table(2, 4)
    edges = [(240, 504), (240, 696), (504, 696)]
    removed = _sets(2, 4)[0] - _undominated_maxima(2, 4)
    assert removed == {240, 504}
    assert [(i, j) for i in sorted(removed) for j in classes._relation_row(2, 4, i)] == edges
    for i, j in edges:  # the majoriser has the lower mutual information
        assert majorisation_certificate(table.get(i).canonical, table.get(j).canonical)
    spectra = sample_spectra(8, 256, np.random.default_rng(240))
    values = _class_values(spectra, 2, 4)
    low, high = np.array(edges).T - 1
    assert (values[:, low] <= values[:, high] + 1e-13).all()


@pytest.mark.parametrize("m,n", SHAPES)
def test_census_without_ties_credits_only_candidates(m, n):
    report = census(m, n, 20_000, 11)
    assert report.tie_events_max == report.tie_events_min == 0
    c_max, _, c_min, _ = _sets(m, n)
    assert set(report.max_classes) <= _undominated_maxima(m, n) <= c_max
    assert set(report.min_classes) <= c_min
