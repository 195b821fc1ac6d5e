"""The census kernel's certified evaluation sets, and what they say of the paper.

``_candidate_table`` ships, per shape and side, the candidates ``C`` and the
feeders ``F``; ``_candidate_forest`` a swap from every other class that
leads into ``F``.  The kernel is exact only if every forest swap is
certified and the forest ends in ``F``; these tests re-derive both instead
of trusting the data.
"""
import itertools

import numpy as np
import pytest

from specmi import census, sample_spectra
from specmi import extrema
from specmi._candidate_forest import FORESTS
from specmi._candidate_table import EVALUATION_SETS
from specmi.classes import _classes_of, _relation_graph, _titrated_swaps, class_table

SHAPES = [(2, 4), (3, 3), (2, 5)]
MINZ = {1, 7, 13, 25, 31}


def _sets(m, n):
    """``C_max, F_max, C_min, F_min`` of one shape as sets of class indices."""
    return tuple(set(map(int, text.split())) for text in EVALUATION_SETS[m, n])


def _swapped(grid, a, b, n):
    cells = [s for row in grid for s in row]
    cells[a], cells[b] = cells[b], cells[a]
    return tuple(tuple(cells[i : i + n]) for i in range(0, len(cells), n))


def _forest(m, n, side):
    """``{class: (cell, cell, image class)}`` of one side's forest (0 max, 1 min)."""
    table = class_table(m, n)
    text = FORESTS[m, n][side]
    assert len(text) == 2 * len(table)
    steps = {
        x: (int(text[2 * x - 2]), int(text[2 * x - 1]))
        for x in range(1, len(table) + 1)
        if text[2 * x - 2 : 2 * x] != ".."
    }
    grids = [_swapped(table.get(x).canonical, a, b, n) for x, (a, b) in steps.items()]
    images = _classes_of(grids, table)
    return {x: (a, b, image.index) for (x, (a, b)), image in zip(steps.items(), images)}


def _claims(m, n):
    """Distinct certified relations I(low) <= I(high) the two forests rely on.

    Maps ``(low, high)`` to one swap ``(class, cell, cell, forward)`` that
    states it: a max-side step is a swap of ``low`` that cannot decrease the
    information, a min-side step a swap of ``high`` that cannot increase it.
    A relation both forests use is stated once.
    """
    claims = {}
    for x, (a, b, up) in _forest(m, n, 0).items():
        claims.setdefault((x, up), (x, a, b, True))
    for x, (a, b, down) in _forest(m, n, 1).items():
        claims.setdefault((down, x), (x, a, b, False))
    return claims


@pytest.mark.parametrize("m,n", SHAPES)
def test_forest_ends_in_the_feeders(m, n):
    n_classes = len(class_table(m, n))
    c_max, f_max, c_min, f_min = _sets(m, n)
    for side, (c, f) in enumerate(((c_max, f_max), (c_min, f_min))):
        assert c and f and not c & f
        assert c | f <= set(range(1, n_classes + 1))
        forest = _forest(m, n, side)
        assert set(forest) == set(range(1, n_classes + 1)) - c - f
        assert all(parent not in c and parent != x for x, (_, _, parent) in forest.items())
        # every walk ends in F within n_classes steps, so the forest is acyclic
        for x in forest:
            for _ in range(n_classes):
                x = forest[x][2]
                if x not in forest:
                    break
            assert x in f


@pytest.mark.parametrize("m,n", SHAPES)
def test_forest_steps_are_certified_by_titration(m, n):
    table = class_table(m, n)
    claims = _claims(m, n)
    items = list(claims.items())
    for k in range(0, len(items), 2000):
        chunk = items[k : k + 2000]
        grids = table._grids[[x - 1 for _, (x, _, _, _) in chunk]]
        cells = np.array([(a, b) for _, (_, a, b, _) in chunk])
        kinds, images = _titrated_swaps(table, grids, cells)
        for ((low, high), (_, _, _, forward)), kind, image in zip(chunk, kinds, images):
            assert kind == (1 if forward else -1), (low, high)
            assert image == (high if forward else low)


@pytest.mark.parametrize("m,n", SHAPES)
def test_forest_steps_hold_at_random_spectra(m, n):
    dec = extrema._decomposition(m, n)
    spectra = sample_spectra(m * n, 64, np.random.default_rng(m * n))
    totals = extrema._marginal_entropy_terms(spectra, dec.symbols_by_term) @ dec.term_counts
    low, high = (np.array(side) - 1 for side in zip(*_claims(m, n)))
    # 1e-13 covers the round-off of two computed totals, under 2e-14
    assert (totals[:, low] <= totals[:, high] + 1e-13).all()


def test_only_2x3_has_a_unique_candidate():
    # the 2x3 relation graph (majorisation and titration edges) singles out
    # class 48 at the top and the five MINZ classes at the bottom
    edges = _relation_graph(2, 3)
    assert {i for i, out in edges.items() if not out} == {48}
    assert set(edges) - set(itertools.chain.from_iterable(edges.values())) == MINZ
    # titration edges alone leave several candidates in every larger shape
    sizes = {shape: (len(_sets(*shape)[0]), len(_sets(*shape)[2])) for shape in EVALUATION_SETS}
    assert sizes == {(2, 4): (7, 17), (3, 3): (18, 18), (2, 5): (40, 70)}


@pytest.mark.parametrize("m,n", SHAPES)
def test_census_without_ties_credits_only_candidates(m, n):
    report = census(m, n, 20_000, 11)
    assert report.tie_events_max == report.tie_events_min == 0
    c_max, _, c_min, _ = _sets(m, n)
    assert set(report.max_classes) <= c_max
    assert set(report.min_classes) <= c_min
