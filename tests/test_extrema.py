"""Brute-force extremes, the randomized census, and the ordering theorem."""
import collections
import dataclasses
import functools
import itertools
import json
import os
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from specmi import (
    EPSILON,
    CensusReport,
    CheckpointMismatchError,
    RelationKind,
    Spectrum,
    brute_force_extrema,
    census,
    cmi,
    r23_table,
    sample_spectra,
    sample_spectrum,
    verify_theorem_chain,
)
from specmi import classes, extrema
from specmi.cli import main
from specmi.classes import _titration_candidates
from specmi.core import entropy_terms

DATA = Path(__file__).parent / "data"
PINNED = Spectrum((0.3, 0.25, 0.2, 0.15, 0.07, 0.03))


# --------------------------------------------------------- brute-force report

def test_brute_force_matches_direct_evaluation():
    report = brute_force_extrema(PINNED, 2, 3)
    table = r23_table()
    for cls, value in zip(table.classes, report.values):
        direct = cmi(cls.instantiate(PINNED))
        assert value == pytest.approx(direct, abs=1e-12)


def test_brute_force_pinned_extremes():
    report = brute_force_extrema(PINNED, 2, 3)
    assert report.maxima == (48,)
    assert report.max_value == pytest.approx(0.18469639607455747, abs=1e-12)
    assert set(report.minima) <= {1, 7, 13, 25, 31}
    assert report.min_value == min(report.values)
    assert report.max_value == max(report.values)


def test_extrema_builds_no_titration_pass(monkeypatch, capsys):
    # set-up cost stays flat: only a census derives the candidate sets
    def titrate(*args):
        raise AssertionError("titrated")

    monkeypatch.setattr(classes, "_decide_swaps", titrate)
    for module, name in ((classes, "_certified_swaps"), (extrema, "_titration_candidates"),
                         (extrema, "_decomposition")):
        cold = functools.lru_cache(maxsize=None)(getattr(module, name).__wrapped__)
        monkeypatch.setattr(module, name, cold)
    spectrum = "0.18,0.16,0.14,0.12,0.1,0.09,0.08,0.06,0.04,0.03"
    report = brute_force_extrema(Spectrum(tuple(map(float, spectrum.split(",")))), 2, 5)
    assert len(report.values) == 15120
    assert main(["extrema", "--m", "2", "--n", "5", "--spectrum", spectrum]) == 0
    maxima = json.loads(capsys.readouterr().out)["maxima"]
    assert [cls["index"] for cls in maxima] == list(report.maxima)
    with pytest.raises(AssertionError, match="titrated"):  # the census would titrate
        extrema._census_candidates.__wrapped__(2, 5)


def test_brute_force_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="needs"):
        brute_force_extrema(Spectrum((0.6, 0.4)), 2, 3)


def test_brute_force_uniform_spectrum_ties_every_class():
    s = Spectrum((1.0 / 6.0,) * 6)
    report = brute_force_extrema(s, 2, 3)
    assert report.maxima == tuple(range(1, 61))
    assert report.minima == tuple(range(1, 61))


@pytest.mark.parametrize("values", [(0.5, 0.5, 0, 0, 0, 0), (0.4, 0.3, 0.3, 0, 0, 0)])
def test_brute_force_spectra_with_zero_entries_match_scalar_cmi(values):
    s = Spectrum(values)
    report = brute_force_extrema(s, 2, 3)
    scalar = [cmi(cls.instantiate(s)) for cls in r23_table().classes]
    assert report.values == pytest.approx(scalar, abs=1e-12)
    assert report.max_value == pytest.approx(max(scalar), abs=1e-12)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 5)])
def test_brute_force_at_a_rank_one_spectrum_equals_cmi_bit_for_bit(m, n):
    # every value is zero; the entropy terms alone would leave -0.0
    s = Spectrum((1.0,) + (0.0,) * (m * n - 1))
    report = brute_force_extrema(s, m, n)
    scalar = [cmi(cls.instantiate(s)) for cls in classes.class_table(m, n).classes]
    assert np.array(report.values).tobytes() == np.array(scalar).tobytes()
    assert np.array([report.max_value, report.min_value]).tobytes() == np.zeros(2).tobytes()


def test_brute_force_other_shape():
    rng = np.random.default_rng(11)
    s = sample_spectrum(8, rng)
    report = brute_force_extrema(s, 2, 4)
    assert len(report.values) == 840
    k = int(np.argmax(report.values))
    assert report.maxima[0] == k + 1 or (k + 1) in report.maxima


# ------------------------------------------------------------ the block kernel

def _brute_force_tally(spectra, m, n):
    """Hits and tie events of a block, recounted one ``brute_force_extrema`` at a time."""
    n_classes = len(extrema.class_table(m, n))
    max_hits, min_hits = [0] * n_classes, [0] * n_classes
    ties_max = ties_min = 0
    for row in spectra:
        report = brute_force_extrema(Spectrum(tuple(row)), m, n)
        for k in report.maxima:
            max_hits[k - 1] += 1
        for k in report.minima:
            min_hits[k - 1] += 1
        ties_max += len(report.maxima) >= 2
        ties_min += len(report.minima) >= 2
    return max_hits, min_hits, ties_max, ties_min


def _budget(cand, rows):
    """The ``_WORK_BYTES`` whose tiles hold at most ``rows`` spectra."""
    return 8 * rows * extrema._row_elements(cand)


def test_block_extrema_tiles_agree_with_one_pass_and_brute_force(monkeypatch):
    cand = extrema._census_candidates(2, 3)
    spectra = sample_spectra(6, 40, np.random.default_rng(8))
    spectra[[0, 17, 39]] = 1.0 / 6.0  # the uniform spectrum: every class ties

    def block_tally(rows_per_tile):
        monkeypatch.setattr(extrema, "_WORK_BYTES", _budget(cand, rows_per_tile))
        max_hits, min_hits, ties_max, ties_min = _census_block(spectra, 2, 3)
        return max_hits.tolist(), min_hits.tolist(), ties_max, ties_min

    one_pass = block_tally(len(spectra))
    assert block_tally(7) == one_pass  # four tiles of 7 rows and two of 6
    assert one_pass == _brute_force_tally(spectra, 2, 3)
    assert one_pass[2] == one_pass[3] == 3


def _tied_spectra(mn, seed):
    """Seeded spectra with equal runs of entries and zero tails, which tie classes.

    Each base spectrum gets every split of its entries into runs of
    neighbours, each run set to its mean, with 0 to mn - 2 trailing zeros.
    """
    rows = []
    for base in sample_spectra(mn, 3, np.random.default_rng(seed)):
        for zeros in range(mn - 1):
            for cuts in itertools.product((False, True), repeat=mn - 1):
                s = base.copy()
                s[mn - zeros :] = 0.0
                start = 0
                for i, cut in enumerate(cuts + (True,)):
                    if cut:
                        s[start : i + 1] = s[start : i + 1].mean()
                        start = i + 1
                rows.append(s / s.sum())
    return np.array(rows)


#: (max, min) tie sizes among the spectra of ``_tied_spectra``: 2x2 has ties
#: on one side only and 3-way ties, 2x3 2-way and wider ties on both sides.
_TIE_SIZES = {
    (2, 2): {(2, 1), (1, 2), (3, 3)},
    (2, 3): {(2, 2), (2, 4), (4, 2), (6, 6), (60, 60)},
}


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
def test_census_tally_with_and_without_ties_equals_a_per_row_recount(monkeypatch, m, n):
    mn = m * n
    cand = extrema._census_candidates(m, n)
    tied = _tied_spectra(mn, seed=21)
    sizes = {
        (len(r.maxima), len(r.minima))
        for r in (brute_force_extrema(Spectrum(tuple(s)), m, n) for s in tied)
    }
    assert _TIE_SIZES[m, n] <= sizes
    untied = sample_spectra(mn, 2 * len(tied), np.random.default_rng(22))
    mixed = np.empty((3 * len(tied), mn))
    mixed[0::3], mixed[1::3], mixed[2::3] = untied[::2], tied, untied[1::2]
    # untied rows alone, then mixed with ties, then every class tied on every row
    spectra = np.concatenate([untied[:64], mixed, np.full((64, mn), 1.0 / mn)])
    expected = _brute_force_tally(spectra, m, n)
    assert expected[2] > 64 and expected[3] > 64
    for rows_per_tile in (1, 5, 64, len(spectra)):
        monkeypatch.setattr(extrema, "_WORK_BYTES", _budget(cand, rows_per_tile))
        assert _tallies(spectra, m, n) == expected, rows_per_tile


def _loop_decomposition(m, n):
    """The term matrices built one class and one marginal at a time."""
    table = extrema.class_table(m, n)
    term_index, hits = {}, []
    for col, cls in enumerate(table.classes):
        grid = cls.canonical
        for sig in [tuple(sorted(r)) for r in grid] + [tuple(sorted(c)) for c in zip(*grid)]:
            hits.append((term_index.setdefault(sig, len(term_index)), col))
    A = np.zeros((m * n, len(term_index)))
    for sig, t in term_index.items():
        A[list(sig), t] = 1.0
    G = np.zeros((len(term_index), len(table)))
    for t, col in hits:
        G[t, col] += 1.0
    return A, G


def _unique_decomposition(m, n):
    """The term matrices built with ``np.unique``, a rank by first index and ``np.add.at``."""
    table = extrema.class_table(m, n)
    bits = np.left_shift(1, table._grids)
    masks = np.concatenate([bits.sum(axis=2), bits.sum(axis=1)], axis=1)
    codes, first, inverse = np.unique(masks.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    terms = rank[inverse].reshape(masks.shape)
    A = ((codes[order][None, :] >> np.arange(m * n)[:, None]) & 1).astype(np.float64)
    G = np.zeros((len(codes), len(table)))
    np.add.at(G, (terms, np.arange(len(table))[:, None]), 1.0)
    return A, G


#: (terms a census tile computes, terms of the shape): those that the
#: candidates and their feeders read.
_TILE_TERMS = {
    (2, 2): (6, 6), (2, 3): (31, 35), (2, 4): (98, 98), (3, 3): (79, 84), (2, 5): (297, 297),
}


def _assert_decomposition_is(dec, A, G, m, n):
    assert dec.term_symbols.flags.c_contiguous and np.array_equal(dec.term_symbols, A.T)
    # each term's symbols, ascending, then the padding symbol m * n
    padded = dec.padded_symbols
    assert padded.flags.c_contiguous and padded.shape == (max(m, n), A.shape[1])
    for symbols, column in zip(padded.T, A.T):
        listed = np.flatnonzero(column)
        pad = len(symbols) - len(listed)
        assert np.array_equal(symbols, np.pad(listed, (0, pad), constant_values=m * n))
    # each class's m + n term indices, ascending, count G's column exactly
    terms = dec.terms_by_class
    n_classes = G.shape[1]
    assert terms.dtype == np.int32 and terms.shape == (n_classes, m + n)
    assert (np.diff(terms, axis=1) > 0).all()
    counts = np.zeros_like(G)
    np.add.at(counts, (terms, np.arange(n_classes)[:, None]), 1.0)
    assert np.array_equal(counts, G)
    cand = extrema._census_candidates(m, n)
    # a tile computes the terms of the C classes and their feeders only, in
    # term order: the rows of A.T that they read
    (c_max, fed_max), (c_min, fed_min) = _titration_candidates(m, n)
    read = np.concatenate([c_max, c_min, fed_max.ravel(), fed_min.ravel()])
    used = np.flatnonzero(G[:, read].any(axis=1))
    assert (len(used), len(G)) == _TILE_TERMS[m, n]
    tile = cand.term_symbols
    assert tile.flags.c_contiguous and np.array_equal(tile, A.T[used])
    # the tile term indices of the C classes, C_max then C_min, one column
    # per class; each C class's padded feeder list as their tile term indices
    expected = [np.flatnonzero(G[used, c]) for c in np.concatenate([c_max, c_min])]
    assert cand.terms.flags.c_contiguous and np.array_equal(cand.terms, np.transpose(expected))
    sides = zip(cand.sides, (c_max, c_min), (fed_max, fed_min), (1.0, -1.0))
    for side, c, feeders, sign in sides:
        assert np.array_equal(side.classes, c) and side.sign == sign
        assert side.feeder_terms.shape == (m + n, feeders.shape[1], len(c))
        for i, slots in enumerate(feeders):
            expected = [np.flatnonzero(G[used, f]) for f in slots]
            assert np.array_equal(side.feeder_terms[:, :, i].T, expected)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_decomposition_matches_the_loop_reference(m, n):
    _assert_decomposition_is(extrema._decomposition(m, n), *_loop_decomposition(m, n), m, n)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_decomposition_matches_the_unique_and_add_at_reference(m, n):
    _assert_decomposition_is(extrema._decomposition(m, n), *_unique_decomposition(m, n), m, n)


def _fixed_order_values(row, m, n):
    """Every class's mutual information at one spectrum, summed one float at a time.

    Each marginal sum adds its entries in ascending symbol order and each
    class's total its entropy terms in ascending term order, in Python
    floats; the terms take NumPy's ``log``, as the program does.
    """
    A, G = _unique_decomposition(m, n)
    add = functools.partial(functools.reduce, float.__add__)
    sums = np.array([add(row[np.flatnonzero(symbols)].tolist()) for symbols in A.T])
    hterms = entropy_terms(sums).tolist()
    totals = [add(hterms[t] for t in np.flatnonzero(col)) for col in G.T]
    return np.array(totals) - float(entropy_terms(row).sum())


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 3), (2, 5)])
def test_one_spectrum_is_evaluated_in_fixed_order_bit_for_bit(m, n):
    spectra = sample_spectra(m * n, 3, np.random.default_rng(m * n + 30))
    spectra[2, -2:] = 0.0  # zero entries and zero marginal sums
    spectra[2] /= spectra[2].sum()
    for row in spectra:
        want = _fixed_order_values(row, m, n)
        values = np.array(brute_force_extrema(Spectrum(tuple(row)), m, n).values)
        assert (values.view(np.int64) == want.view(np.int64)).all()


def test_the_2x5_decomposition_holds_no_dense_term_counts():
    # the term indices take 423 KB where a dense G took 36 MB
    dec, cand = extrema._decomposition(2, 5), extrema._census_candidates(2, 5)
    arrays = [dec.term_symbols, dec.padded_symbols, dec.terms_by_class]
    arrays += [cand.term_symbols, cand.terms]
    for side in cand.sides:
        arrays += [side.classes, side.feeder_terms, side.band_weights]
    assert sum(a.nbytes for a in arrays) < 2**20


def test_brute_force_builds_no_dense_g(monkeypatch):
    # a dense 297 x 15120 G would take 36 MB, whether built or kept
    cold = functools.lru_cache(maxsize=None)(extrema._decomposition.__wrapped__)
    monkeypatch.setattr(extrema, "_decomposition", cold)
    extrema.class_table(2, 5)
    s = Spectrum((0.2, 0.16, 0.13, 0.11, 0.1, 0.09, 0.08, 0.06, 0.04, 0.03))
    for _ in range(2):  # the decomposition built, then read from the cache
        tracemalloc.start()
        try:
            brute_force_extrema(s, 2, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


def _census_block(spectra, m, n):
    """``_block_extrema`` of one block, given the tables a census of the shape passes."""
    return extrema._block_extrema(
        spectra, extrema._decomposition(m, n), extrema._census_candidates(m, n)
    )


def _tallies(spectra, m, n):
    return tuple(np.asarray(x).tolist() for x in _census_block(spectra, m, n))


def _recording_evaluations(monkeypatch):
    """The spectra that the census kernel evaluates alone, in call order."""
    rows = []
    spectrum_extremes = extrema._spectrum_extremes

    def recording(spectrum, dec):
        rows.append(spectrum.copy())
        return spectrum_extremes(spectrum, dec)

    monkeypatch.setattr(extrema, "_spectrum_extremes", recording)
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "m,n,rows", [(2, 2, 2500), (2, 3, 2500), (2, 4, 2500), (3, 3, 1700), (2, 5, 600)]
)
def test_pruned_block_tallies_equal_a_per_row_recount(monkeypatch, m, n, rows, seed):
    spectra = sample_spectra(m * n, rows, np.random.default_rng(seed))
    reference = _brute_force_tally(spectra, m, n)
    evaluated = _recording_evaluations(monkeypatch)
    assert _tallies(spectra, m, n) == reference
    assert evaluated == []  # random rows resolve among the candidates


def _max_gap(spectrum, dec):
    """The largest class value at one spectrum and the next one below it."""
    top = np.sort(extrema._spectrum_extremes(spectrum, dec)[0])
    return top[-1], top[-2]


#: Half the pruned kernel's slack: a runner-up this far beyond EPSILON is no
#: tie when the row is evaluated alone, but must still leave the row to it.
_HALF_SLACK = 5e-14


def _near_tie_rows(mn, dec):
    """Spectra with two equal entries, then nudged to either side of the band.

    Returns per tie the row with the exact tie, then, after bisection, the
    last nudge whose runner-up ``brute_force_extrema`` still credits, the
    first one it does not, and the first one whose runner-up is
    ``_HALF_SLACK`` beyond ``EPSILON``.
    """
    base = sample_spectra(mn, 1, np.random.default_rng(4))[0]

    def within(s, width):
        top, second = _max_gap(s, dec)
        return second >= top - width

    def bisect(s, nudge, width):
        lo, hi = 0.0, 1e-9
        assert not within(s + hi * nudge, width)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if within(s + mid * nudge, width) else (lo, mid)
        return lo, hi

    rows = []
    for i in range(mn - 1):
        s = base.copy()
        s[i] = s[i + 1] = (s[i] + s[i + 1]) / 2
        if abs(np.subtract(*_max_gap(s, dec))) > 1e-14:
            continue  # swapping these two entries maps the argmax class to itself
        nudge = np.zeros(mn)
        nudge[i], nudge[i + 1] = 1.0, -1.0
        lo, hi = bisect(s, nudge, EPSILON)
        assert abs(np.subtract(*_max_gap(s + hi * nudge, dec)) - EPSILON) < 1e-14
        _, beyond = bisect(s, nudge, EPSILON + _HALF_SLACK)
        assert abs(np.subtract(*_max_gap(s + beyond * nudge, dec)) - EPSILON - _HALF_SLACK) < 1e-14
        rows += [s, s + lo * nudge, s + hi * nudge, s + beyond * nudge]
    assert rows
    return rows


@functools.cache
def _shape_near_tie_rows(m, n):
    """``_near_tie_rows`` of one shape's decomposition, built once."""
    return tuple(_near_tie_rows(m * n, extrema._decomposition(m, n)))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_pruned_kernel_hands_ties_and_near_ties_to_the_one_spectrum_evaluation(monkeypatch, m, n):
    mn = m * n
    constructed = np.array([np.full(mn, 1.0 / mn), *_shape_near_tie_rows(m, n)])
    third = 200
    spectra = sample_spectra(mn, 3 * third, np.random.default_rng(5))
    spread = third // len(constructed)
    spectra[third : 2 * third : spread][: len(constructed)] = constructed  # the middle third
    reference = _brute_force_tally(spectra, m, n)
    evaluated = _recording_evaluations(monkeypatch)
    assert _tallies(spectra, m, n) == reference
    assert reference[2] >= 1 and reference[3] >= 1  # the uniform row ties both sides
    # exactly the constructed rows were evaluated alone, no random one
    assert np.array_equal(evaluated, constructed)


#: Twice the bound delta < 68 * 2**-53 on the distance of every computed
#: total from the exact one (the ``extrema`` docstring): two computed totals
#: of one class may differ by this much, whoever computes them.
_TWO_DELTA = 1.52e-14


def _recording_work_arrays(monkeypatch):
    """Every work array the kernel asks for, fresh and kept, as (name, array) pairs."""
    arrays = []

    def fresh(work, name, *shape, dtype=np.float64):
        arrays.append((name, np.empty(shape, dtype=dtype)))
        return arrays[-1][1]

    monkeypatch.setattr(extrema, "_work_array", fresh)
    return arrays


#: Per shape, whether the max and the min side have one candidate class,
#: whose fixed feeders the kernel totals without a band or a per-sample
#: gather.
_SINGLETON_SIDES = {
    (2, 2): (True, True), (2, 3): (True, False), (2, 4): (False, False),
    (3, 3): (False, False), (2, 5): (False, False),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_gathered_totals_lie_within_two_delta_of_the_dense_product(monkeypatch, m, n, seed):
    # the premise of the exactness proof: the candidates' and the feeders'
    # totals, gathered from a tile's term rows, against the product of
    # every term row with a whole G, tied and near-tied rows included
    dec, cand = extrema._decomposition(m, n), extrema._census_candidates(m, n)
    spectra = sample_spectra(m * n, 96, np.random.default_rng(seed))
    spectra[::16] = _tied_spectra(m * n, seed)[::7][:6]
    hterms = extrema._marginal_entropy_terms(spectra, cand.term_symbols)
    every_term = extrema._marginal_entropy_terms(spectra, dec.term_symbols)
    dense = _unique_decomposition(m, n)[1].T @ every_term
    arrays = _recording_work_arrays(monkeypatch)
    extrema._sole_candidates(hterms, cand, {})
    recorded = collections.defaultdict(list)
    for name, array in arrays:
        recorded[name].append(array)
    # every candidate, C_max then C_min negated, at every row
    classes = np.concatenate([side.classes for side in cand.sides])
    signs = np.concatenate([np.full(len(side.classes), side.sign) for side in cand.sides])
    (totals,) = recorded["product"]
    assert np.abs(totals - signs[:, None] * dense[classes]).max() <= _TWO_DELTA
    # a one-class side takes no band: its class is every row's best
    singletons = tuple(len(side.classes) == 1 for side in cand.sides)
    assert singletons == _SINGLETON_SIDES[m, n]
    assert len(recorded["band"]) == len(recorded["count"]) == singletons.count(False)
    assert len(recorded["index"]) == len(recorded["feeds"]) == singletons.count(False)
    counts = iter(recorded["count"])
    positions = [np.zeros(len(spectra)) if alone else next(counts)[1] for alone in singletons]
    # per side, the feeders of each row's best candidate (its position
    # clipped into C, as the kernel reads it), slot by slot
    feeders = (fed_by for _, fed_by in _titration_candidates(m, n))
    sides = zip(cand.sides, feeders, positions, recorded["totals"], strict=True)
    for side, fed_by, position, feeder_totals in sides:
        best = np.clip(position.astype(np.intp), 0, len(side.classes) - 1)
        fed = fed_by[best].T  # (K, rows): the class in each feeder slot
        expected = side.sign * np.take_along_axis(dense, fed, axis=0)
        assert feeder_totals.shape == expected.shape
        assert np.abs(feeder_totals - expected).max() <= _TWO_DELTA


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_forced_rows_tally_as_a_per_row_recount(monkeypatch, m, n):
    # every 7th row of each tile leaves the pruned kernel whatever its totals,
    # and is tallied as a brute_force_extrema of that row alone
    mn = m * n
    cand = extrema._census_candidates(m, n)
    near_ties = _shape_near_tie_rows(m, n)
    spectra = sample_spectra(mn, 60 + len(near_ties), np.random.default_rng(mn + 70))
    spectra[5::9][:7] = _tied_spectra(mn, seed=mn)[::5][:7]
    spectra[60:] = near_ties
    expected = _brute_force_tally(spectra, m, n)
    assert expected[2] >= 1 and expected[3] >= 1
    sole = extrema._sole_candidates

    def forcing(hterms, cand, work):
        resolved, top, bottom = sole(hterms, cand, work)
        resolved[::7] = False
        return resolved, top, bottom

    monkeypatch.setattr(extrema, "_sole_candidates", forcing)
    evaluated = _recording_evaluations(monkeypatch)
    # one-row tiles, all forced; two-row tiles, whose forced row is
    # evaluated alone; uneven 7-row tiles with one forced row each; one tile
    for rows_per_tile in (1, 2, 7, len(spectra)):
        monkeypatch.setattr(extrema, "_WORK_BYTES", _budget(cand, rows_per_tile))
        evaluated.clear()
        assert _tallies(spectra, m, n) == expected, rows_per_tile
        bounds = extrema._tiles(cand, len(spectra))
        forced = {r for r0, r1 in zip(bounds, bounds[1:]) for r in range(r0, r1, 7)}
        went_alone = {row.tobytes() for row in evaluated}
        assert all(spectra[r].tobytes() in went_alone for r in forced)
    # one-row blocks: one tile of one row, forced
    for row in spectra[:3]:
        expected = _brute_force_tally(row[None, :], m, n)
        evaluated.clear()
        assert _tallies(row[None, :], m, n) == expected
        assert len(evaluated) == 1


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_a_one_row_block_tallies_as_its_row_in_a_larger_block(m, n):
    # a tile of one row takes its marginal sums through another BLAS kernel
    # than a tile of many, yet every row is credited alike
    spectra = _near_tie_block(m, n)
    alone = [_tallies(row[None, :], m, n) for row in spectra]
    whole = _tallies(spectra, m, n)
    assert tuple(np.sum(x, axis=0).tolist() for x in zip(*alone)) == whole
    assert whole[2] >= 2 and whole[3] >= 2


def test_block_memory_stays_within_the_tile_budget(monkeypatch):
    # a block of nine tiles; its first 31 spectra are uniform, so every
    # class ties and they are evaluated one at a time
    monkeypatch.setattr(extrema, "_spare_work", [])  # a set allocated while traced
    spectra = sample_spectra(10, 8000, np.random.default_rng(6))
    assert len(extrema._tiles(extrema._census_candidates(2, 5), len(spectra))) - 1 == 9
    uniform = 31
    spectra[:uniform] = 0.1
    tracemalloc.start()
    try:
        max_hits, min_hits, ties_max, ties_min = _census_block(spectra, 2, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ties_max == ties_min == uniform
    assert max_hits.sum() == min_hits.sum() == uniform * 15120 + len(spectra) - uniform
    # the whole block's entropy terms alone would take three budgets
    assert peak < 2 * extrema._WORK_BYTES


#: Tiles of a 2500-sample block at the default budget: one at 2x3 and 3x3,
#: whose code paths stay those of one tile per block.
_DEFAULT_TILES = {(2, 2): 1, (2, 3): 1, (2, 4): 2, (3, 3): 1, (2, 5): 3}


@pytest.mark.parametrize("m,n", list(_DEFAULT_TILES))
def test_tiles_split_a_block_equally_within_the_budget(monkeypatch, m, n):
    cand = extrema._census_candidates(m, n)
    row_bytes = 8 * extrema._row_elements(cand)
    assert len(extrema._tiles(cand, 2500)) - 1 == _DEFAULT_TILES[m, n]
    for budget in (8, _budget(cand, 7), extrema._WORK_BYTES, _budget(cand, 10**6)):
        monkeypatch.setattr(extrema, "_WORK_BYTES", budget)
        for rows in (1, 6, 7, 8, 2500, 9001, 100_000):
            bounds = extrema._tiles(cand, rows)
            sizes = np.diff(bounds)
            # every row once, in tiles equal within one row, the largest first
            assert bounds[0] == 0 and bounds[-1] == rows and sizes.min() >= 1
            assert sizes.max() - sizes.min() <= 1 and sizes[0] == sizes.max()
            if budget < row_bytes:
                assert sizes[0] == 1  # the budget fits no row: one row a tile
                continue
            # no tile exceeds the budget, and the tiles are the fewest that fit
            assert sizes[0] * row_bytes <= budget
            if len(sizes) > 1:
                assert -(-rows // (len(sizes) - 1)) * row_bytes > budget


def _near_tie_block(m, n):
    """A seeded block with the uniform spectrum and ``_near_tie_rows`` at every other row."""
    mn = m * n
    constructed = [np.full(mn, 1.0 / mn), *_shape_near_tie_rows(m, n)]
    spectra = sample_spectra(mn, 40 + len(constructed), np.random.default_rng(mn + 50))
    spectra[1::2][: len(constructed)] = constructed
    spectra[-1] = 1.0 / mn
    return spectra


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_pruned_block_tallies_do_not_depend_on_the_tile_size(monkeypatch, m, n):
    cand = extrema._census_candidates(m, n)
    spectra = _near_tie_block(m, n)
    tallies = []
    # one-row tiles, uneven tiles of 7 rows and one tile; the default holds
    # the whole block in one tile too, so two tiles also run.  The near-tie
    # rows sit within the last bit of EPSILON, so the tallies agree only if
    # a row's credit does not depend on how many rows share its tile.
    for budget in (8, _budget(cand, 7), extrema._WORK_BYTES, _budget(cand, len(spectra))):
        monkeypatch.setattr(extrema, "_WORK_BYTES", budget)
        tallies.append(_tallies(spectra, m, n))
    assert tallies[1:] == tallies[:-1]
    assert tallies[0][2] >= 2 and tallies[0][3] >= 2  # the uniform rows tie both sides
    monkeypatch.setattr(extrema, "_WORK_BYTES", _budget(cand, 2 * len(spectra) // 3))
    assert len(extrema._tiles(cand, len(spectra))) == 3
    assert _tallies(spectra, m, n) == tallies[0]


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_near_tie_blocks_count_the_ties_of_a_per_row_recount(m, n):
    # the census credits each row as specmi extrema does, ties included
    spectra = _near_tie_block(m, n)
    assert _tallies(spectra, m, n) == _brute_force_tally(spectra, m, n)


def _set_bytes(work):
    return sum(a.nbytes for a in work.values())


def test_census_work_arrays_stay_within_the_budget(monkeypatch):
    spare = []
    monkeypatch.setattr(extrema, "_spare_work", spare)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    census(2, 5, 20_000, 7, workers=2)
    assert 1 <= len(spare) <= 2  # one set per block thread, kept
    assert all(_set_bytes(work) <= extrema._WORK_BYTES for work in spare)
    # a tie-heavy block: its tied rows are evaluated outside the set
    spectra = sample_spectra(10, 2500, np.random.default_rng(13))
    spectra[:100] = 0.1
    ties_max, ties_min = _census_block(spectra, 2, 5)[2:]
    assert ties_max == ties_min == 100
    assert 1 <= len(spare) <= 2
    assert all(_set_bytes(work) <= extrema._WORK_BYTES for work in spare)


def test_a_set_grown_beyond_the_budget_is_not_kept(monkeypatch):
    # as tiles of another shape can leave it: here one array the 2x4 tiles
    # do not use takes the whole budget
    unused = np.empty(extrema._WORK_BYTES // 8)
    monkeypatch.setattr(extrema, "_spare_work", [{"unused": unused}])
    _census_block(sample_spectra(8, 100, np.random.default_rng(14)), 2, 4)
    assert extrema._spare_work == []
    _census_block(sample_spectra(8, 100, np.random.default_rng(15)), 2, 4)
    assert len(extrema._spare_work) == 1 and "index" in extrema._spare_work[0]


def _masked_log_terms(spectra, term_symbols):
    sums = term_symbols @ spectra.T
    return -(sums * np.log(sums, out=np.zeros_like(sums), where=sums > 0))


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 3), (2, 5)])
def test_entropy_terms_equal_the_masked_log_bit_for_bit(m, n):
    # one set of work arrays, reused across calls that grow and shrink it
    dec = extrema._decomposition(m, n)
    rng = np.random.default_rng(m * n)
    work = {}
    for rows, zeros in itertools.product((1, 300, 2500, 40, 2500), (True, False)):
        spectra = sample_spectra(m * n, rows, rng)
        if zeros:
            spectra[::3, -2:] = 0.0  # marginal sums of 0: 0 log 0 = 0
        else:  # every sum positive: the log takes no mask
            assert (spectra @ dec.term_symbols.T > 0).all()
        expected = _masked_log_terms(spectra, dec.term_symbols)
        for terms in (
            extrema._marginal_entropy_terms(spectra, dec.term_symbols, work),
            extrema._marginal_entropy_terms(spectra, dec.term_symbols),
        ):
            assert terms.shape == expected.shape
            assert (terms.view(np.int64) == expected.view(np.int64)).all()


def _fill_copy_log_terms(spectra, term_symbols):
    """``-s log s`` by filling 1, copying the positive sums over it, then one log."""
    sums = term_symbols @ spectra.T
    terms = np.ones_like(sums)
    np.copyto(terms, sums, where=sums > 0)
    np.log(terms, out=terms)
    terms *= sums
    return np.negative(terms, out=terms)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 5)])
def test_entropy_terms_equal_the_fill_copy_log_steps_bit_for_bit(m, n):
    # positive sums, sums of exactly 0 and sums of -1e-13 (round-off below 0)
    dec = extrema._decomposition(m, n)
    spectra = sample_spectra(m * n, 600, np.random.default_rng(m * n + 1))
    spectra[::3, -3:] = 0.0
    spectra[::6, -1] = -1e-13
    sums = spectra @ dec.term_symbols.T
    assert (sums > 0).any() and (sums == 0).any() and (sums == -1e-13).any()
    terms = extrema._marginal_entropy_terms(spectra, dec.term_symbols)
    expected = _fill_copy_log_terms(spectra, dec.term_symbols)
    assert (terms.view(np.int64) == expected.view(np.int64)).all()


def test_a_block_reuses_the_work_arrays_of_the_last(monkeypatch):
    # a set that tiles of other shapes grew may not fit the budget, and is dropped
    monkeypatch.setattr(extrema, "_spare_work", [])
    spectra = sample_spectra(10, 2500, np.random.default_rng(12))
    first = _census_block(spectra, 2, 5)
    tracemalloc.start()
    try:
        again = _census_block(spectra, 2, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [np.asarray(x).tolist() for x in again] == [np.asarray(x).tolist() for x in first]
    # only masks, per-row results and the candidates' gathered term rows
    # (0.7 MB each, two at a time) are new; a tile's terms and candidate
    # totals (2.0 MB each), band masks (0.5 MB) and feeder gathers (0.9 MB)
    # are not allocated again
    assert peak < 4 * 2**20


# ---------------------------------------------------------------- the census

def test_census_small_run_counts():
    rep = census(2, 3, 5000, 7, block_size=500)
    assert isinstance(rep, CensusReport)
    assert rep.samples_done == 5000
    assert sum(rep.max_hits) >= 5000
    assert sum(rep.min_hits) >= 5000
    if rep.tie_events_max == 0:
        assert sum(rep.max_hits) == 5000
    assert rep.max_classes == (48,)
    assert set(rep.min_classes) <= {1, 7, 13, 25, 31}


def test_census_convergence_trace_is_cumulative():
    rep = census(2, 3, 30_000, 3, block_size=1000)
    samples = [p.samples for p in rep.convergence]
    assert samples == [10_000, 20_000, 30_000]
    for p in rep.convergence:
        assert 1 <= p.n_max_classes <= 60
        assert 1 <= p.n_min_classes <= 60


@pytest.mark.parametrize(
    "block_size, recorded",
    [
        (3000, [12_000, 21_000, 30_000, 42_000, 51_000, 60_000]),
        (7000, [14_000, 21_000, 35_000, 42_000, 56_000, 60_000]),
    ],
)
def test_census_records_each_block_that_reaches_or_passes_a_multiple_of_10000(
    block_size, recorded
):
    rep = census(2, 3, 60_000, 7, block_size=block_size)
    assert [p.samples for p in rep.convergence] == recorded


@pytest.mark.parametrize(
    "blocks, recorded", [(9, [12_000, 21_000]), (10, [12_000, 21_000, 30_000])]
)
def test_census_interrupted_off_the_10000_grid_resumes_to_the_direct_run(
    tmp_path, monkeypatch, blocks, recorded
):
    ck = str(tmp_path / "census.json")
    block_extrema, calls = extrema._block_extrema, itertools.count()

    def interrupted(*args):  # the run stops once it has done `blocks` blocks
        if next(calls) == blocks:
            raise RuntimeError("interrupted")
        return block_extrema(*args)

    with monkeypatch.context() as patch:
        patch.setattr(extrema, "_block_extrema", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            census(2, 3, 60_000, 7, block_size=3000, checkpoint_path=ck)
    payload = json.loads(Path(ck).read_text())
    assert payload["blocks_done"] * 3000 == recorded[-1]
    assert [row[0] for row in payload["convergence"]] == recorded
    resumed = census(2, 3, 60_000, 7, block_size=3000, checkpoint_path=ck, resume=True)
    assert resumed == census(2, 3, 60_000, 7, block_size=3000)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 3), (2, 5)])
def test_census_worker_count_does_not_change_the_tallies(monkeypatch, m, n):
    # two threads, each with its capped BLAS, against one thread with the full count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    a = census(m, n, 10_000, 42, workers=1, block_size=1000)
    b = census(m, n, 10_000, 42, workers=4, block_size=1000)
    assert dataclasses.replace(b, workers=1) == a


def _blas_thread_count():
    """The get function of NumPy's OpenBLAS thread count; skips where it cannot be capped."""
    blas = extrema._openblas_threads()
    if blas is None:
        pytest.skip("NumPy's OpenBLAS is not found")
    get, _ = blas
    if get() == 1:
        pytest.skip("OpenBLAS already runs one thread")
    return get


def _recording_blas_threads(monkeypatch, get):
    """The BLAS thread counts that ``_block_extrema`` calls see, in call order."""
    counts = []
    block_extrema = extrema._block_extrema

    def recording(*args):
        counts.append(get())
        return block_extrema(*args)

    monkeypatch.setattr(extrema, "_block_extrema", recording)
    return counts


def test_census_caps_blas_threads_only_while_it_runs_threads(monkeypatch):
    get = _blas_thread_count()
    prior = get()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    counts = _recording_blas_threads(monkeypatch, get)
    census(2, 3, 4000, 7, workers=2, block_size=500)
    assert counts == [1] * 8
    assert get() == prior
    counts.clear()
    census(2, 3, 4000, 7, workers=1, block_size=500)
    assert counts == [prior] * 8
    assert get() == prior


def test_census_restores_blas_threads_after_a_failing_block(monkeypatch):
    get = _blas_thread_count()
    prior = get()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    block_extrema, calls = extrema._block_extrema, itertools.count()

    def failing(*args):
        if next(calls) == 2:
            raise RuntimeError("block failed")
        return block_extrema(*args)

    monkeypatch.setattr(extrema, "_block_extrema", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        census(2, 3, 10_000, 7, workers=2, block_size=500)
    assert get() == prior


def test_concurrent_censuses_restore_blas_threads(monkeypatch):
    # more censuses than CPUs, each with two block threads, started together
    get = _blas_thread_count()
    prior = get()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    counts = _recording_blas_threads(monkeypatch, get)
    block_extrema = extrema._block_extrema
    seeds = (7, 8, 9, 10)
    first_blocks = [
        sample_spectra(6, 500, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))))
        for seed in seeds
    ]
    all_running = threading.Barrier(len(seeds), timeout=30)

    def meeting(spectra, *tables):  # each census's first block waits for the others'
        if any(np.array_equal(spectra, first) for first in first_blocks):
            all_running.wait()
        return block_extrema(spectra, *tables)

    def run(seed):
        return census(2, 3, 10_000, seed, workers=2, block_size=500)

    monkeypatch.setattr(extrema, "_block_extrema", meeting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            reports = list(pool.map(run, seeds))
    finally:
        sys.setswitchinterval(interval)
    assert counts == [1] * 20 * len(seeds)
    assert get() == prior
    monkeypatch.undo()
    assert reports == [run(seed) for seed in seeds]


def test_census_seed_changes_the_tallies():
    a = census(2, 3, 2000, 1, block_size=500)
    b = census(2, 3, 2000, 2, block_size=500)
    assert a.max_hits != b.max_hits or a.min_hits != b.min_hits


def test_census_checkpoint_resume_matches_direct_run(tmp_path, monkeypatch):
    ck = str(tmp_path / "census.json")
    block_extrema, calls = extrema._block_extrema, itertools.count()

    def interrupted(*args):  # the run stops when it reaches block 10
        if next(calls) == 10:
            raise RuntimeError("interrupted")
        return block_extrema(*args)

    with monkeypatch.context() as patch:
        patch.setattr(extrema, "_block_extrema", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            census(2, 3, 20_000, 7, block_size=1000, checkpoint_path=ck)
    assert json.loads(Path(ck).read_text())["blocks_done"] == 10
    resumed = census(
        2, 3, 20_000, 7, block_size=1000, checkpoint_path=ck, resume=True,
    )
    direct = census(2, 3, 20_000, 7, block_size=1000)
    assert resumed.samples_done == 20_000
    assert resumed.max_hits == direct.max_hits
    assert resumed.min_hits == direct.min_hits


def test_census_checkpoint_file_shape(tmp_path):
    ck = tmp_path / "census.json"
    census(2, 3, 3000, 9, block_size=1000, checkpoint_path=str(ck))
    payload = json.loads(ck.read_text())
    assert payload["schema_version"] == 1
    assert payload["m"] == 2 and payload["n"] == 3
    assert payload["samples"] == 3000 and payload["seed"] == 9
    assert payload["blocks_done"] == 3
    assert all(isinstance(k, str) for k in payload["max_hits"])
    assert sum(payload["max_hits"].values()) >= 3000


@pytest.mark.parametrize("samples, blocks_done", [(20_000, [4, 8]), (25_000, [4, 8, 10])])
def test_census_writes_its_checkpoint_once_per_recorded_row(
    tmp_path, monkeypatch, samples, blocks_done
):
    written = []
    write = extrema._write_checkpoint

    def recording(path, payload):
        written.append(payload["blocks_done"])
        write(path, payload)

    monkeypatch.setattr(extrema, "_write_checkpoint", recording)
    ck = str(tmp_path / "census.json")
    census(2, 3, samples, 7, block_size=2500, checkpoint_path=ck)
    census(2, 3, samples, 7, block_size=2500, checkpoint_path=ck, resume=True)
    assert written == blocks_done


def test_census_checkpoint_mismatch_raises(tmp_path):
    ck = str(tmp_path / "census.json")
    census(2, 3, 2000, 7, block_size=500, checkpoint_path=ck)
    with pytest.raises(CheckpointMismatchError, match="seed"):
        census(2, 3, 2000, 8, block_size=500, checkpoint_path=ck, resume=True)


def test_census_resume_without_checkpoint_starts_fresh(tmp_path):
    ck = str(tmp_path / "missing.json")
    rep = census(2, 3, 2000, 7, block_size=500, checkpoint_path=ck, resume=True)
    assert rep.samples_done == 2000


def test_census_resume_needs_a_checkpoint_path():
    with pytest.raises(ValueError, match="checkpoint"):
        census(2, 3, 2000, 7, resume=True)


@pytest.mark.parametrize(
    "change,problem",
    [
        (lambda payload: [payload], "is not a JSON object"),
        (lambda payload: {**payload, "max_hits": {"48": 2001}},
         "has max_hits['48']=2001, outside 0..2000"),
    ],
    ids=["a-list", "hits-above-samples-done"],
)
def test_census_resume_rejects_a_checkpoint_it_could_not_have_written(tmp_path, change, problem):
    ck = tmp_path / "census.json"
    census(2, 3, 2000, 7, block_size=500, checkpoint_path=str(ck))
    ck.write_text(json.dumps(change(json.loads(ck.read_text()))))
    with pytest.raises(CheckpointMismatchError, match=re.escape(f"{str(ck)!r} {problem}")):
        census(2, 3, 2000, 7, block_size=500, checkpoint_path=str(ck), resume=True)


@pytest.mark.parametrize(
    "rows",
    [
        [[5000, 1, 5], [20_000, 1, 5]],
        [[10_000, 0, 5], [20_000, 1, 5]],
        [[10_000, 1, 5], [20_000, 2, 5]],
        [[10_000, 1, 5], [20_000, 1, 4]],
        [[10_000, 1, 3], [20_000, 1, 3]],
    ],
    ids=["shifted-samples", "zero-count", "uncredited-count", "decreasing", "stale-last-row"],
)
def test_census_resume_rejects_convergence_rows_it_did_not_record(tmp_path, rows):
    ck = tmp_path / "census.json"
    census(2, 3, 20_000, 7, checkpoint_path=str(ck))
    payload = json.loads(ck.read_text())
    assert payload["convergence"] == [[10_000, 1, 5], [20_000, 1, 5]]
    payload["convergence"] = rows
    ck.write_text(json.dumps(payload))
    with pytest.raises(CheckpointMismatchError, match="convergence"):
        census(2, 3, 20_000, 7, checkpoint_path=str(ck), resume=True)


def test_census_runs_at_most_one_thread_per_cpu(monkeypatch):
    seen = []
    block_extrema = extrema._block_extrema

    def counting(*args):
        seen.append(threading.active_count())
        return block_extrema(*args)

    monkeypatch.setattr(extrema, "_block_extrema", counting)
    rep = census(2, 3, 16_000, 7, workers=32, block_size=500)
    assert len(seen) == 32
    assert max(seen) <= (os.cpu_count() or 1) + 1
    assert rep.workers == 32


def test_census_threads_are_capped_by_cpu_affinity(monkeypatch):
    threads = []
    block_extrema = extrema._block_extrema

    def recording(*args):
        threads.append(threading.current_thread())
        return block_extrema(*args)

    monkeypatch.setattr(extrema, "_block_extrema", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    rep = census(2, 3, 4000, 7, workers=8, block_size=500)
    assert threads == [threading.main_thread()] * 8
    assert rep.workers == 8


def test_census_keeps_one_block_per_thread_in_flight(monkeypatch):
    # Block 0 is held while the other thread runs whatever has been submitted;
    # the census may submit only the two blocks after it before it waits.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seed_0 = np.random.SeedSequence(entropy=7, spawn_key=(0,))
    block_0 = sample_spectra(6, 1, np.random.Generator(np.random.PCG64(seed_0)))
    submitted, submitted_while_held = [], []
    submit = ThreadPoolExecutor.submit
    block_extrema = extrema._block_extrema

    def counting_submit(self, *args, **kwargs):
        submitted.append(args)
        return submit(self, *args, **kwargs)

    def holding(spectra, *tables):
        if np.array_equal(spectra, block_0):
            time.sleep(0.2)
            submitted_while_held.append(len(submitted))
        return block_extrema(spectra, *tables)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    monkeypatch.setattr(extrema, "_block_extrema", holding)
    rep = census(2, 3, 50, 7, workers=2, block_size=1)
    assert len(submitted_while_held) == 1 and 1 <= submitted_while_held[0] <= 3
    assert len(submitted) == 50
    monkeypatch.undo()
    assert dataclasses.replace(rep, workers=1) == census(2, 3, 50, 7, block_size=1)


def test_census_validates_arguments():
    with pytest.raises(ValueError, match="samples"):
        census(2, 3, 0, 7)
    with pytest.raises(ValueError, match="workers"):
        census(2, 3, 100, 7, workers=0)
    with pytest.raises(ValueError, match="block_size"):
        census(2, 3, 100, 7, block_size=0)


def test_census_rejects_a_block_over_the_cap_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a census over the block cap did work")

    monkeypatch.setattr(extrema, "_decomposition", no_work)
    monkeypatch.setattr(extrema, "sample_spectra", no_work)
    cap = extrema.MAX_BLOCK_SIZE
    with pytest.raises(ValueError, match=f"block_size <= {cap}"):
        census(2, 3, 10 * cap, 7, block_size=cap + 1)


def test_census_rejects_a_negative_seed_before_any_work(monkeypatch):
    # the swap titration and the sampling would come first otherwise
    def no_work(*args, **kwargs):
        raise AssertionError("a census with a negative seed did work")

    monkeypatch.setattr(extrema, "_decomposition", no_work)
    monkeypatch.setattr(extrema, "_census_candidates", no_work)
    monkeypatch.setattr(extrema, "sample_spectra", no_work)
    with pytest.raises(ValueError, match="seed >= 0"):
        census(2, 5, 10, -1)
    with pytest.raises(ValueError, match="seed >= 0"):
        census(2, 3, 10, np.int64(-7), workers=2, block_size=5)


def test_census_last_partial_block():
    rep = census(2, 3, 1234, 5, block_size=500)
    assert rep.samples_done == 1234
    if rep.tie_events_max == 0:
        assert sum(rep.max_hits) == 1234


def test_census_other_shapes_quickly():
    rep = census(2, 4, 2000, 7, block_size=500)
    assert rep.samples_done == 2000
    assert len(rep.max_hits) == 840


# --------------------------------------------------------- theorem chain check

def test_verify_theorem_chain_all_forward():
    t0 = time.perf_counter()
    verdicts = verify_theorem_chain()
    dt = time.perf_counter() - t0
    assert len(verdicts) == 19
    assert all(v.kind is RelationKind.PROVEN_FORWARD for v in verdicts)
    assert dt < 1.0


def test_verify_theorem_chain_trace_is_stable():
    verdicts = verify_theorem_chain()
    rendered = "\n\n".join(v.render() for v in verdicts) + "\n"
    golden = (DATA / "chain_traces.txt").read_text()
    assert rendered == golden
