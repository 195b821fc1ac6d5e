"""Extremal arrangements of a spectrum: exact sweeps and randomized censuses.

The mutual information of every class of one shape is evaluated together
through a term decomposition: the distinct row/column symbol subsets that
occur across all canonical representatives are the terms, and each class's
marginals are m + n of them.  At a spectrum (descending, symbol k its k-th
value) each term's marginal sum s gives one entropy term ``-s log s``; a
class's total is the sum of its m + n terms, and its mutual information is
that total minus the spectrum entropy.  The subtraction is constant across
classes, so the census's kernel works on the totals directly.  A
decomposition holds each class's m + n term indices (423 KB at 2x5), never
the terms x classes count matrix G (297 x 15120 float64 at 2x5, 36 MB).

One spectrum is evaluated without BLAS (``_spectrum_extremes``): each
marginal sum adds its symbols' values in ascending symbol order, each
class's total adds its m + n entropy terms in term order, as m + n gathers
over ``terms_by_class``, and the spectrum entropy is subtracted before the
``EPSILON`` masks.  Elementwise adds are exact IEEE operations, so the
values do not depend on the BLAS kernel, a tile's width or the thread
count.  ``brute_force_extrema`` and the census's unresolved rows both take
this path, so a census credits each spectrum as ``specmi extrema`` does,
ties included.

A census tile lays its entropy terms out terms x samples: the marginal sums
are one product ``A.T @ S.T``, of the tile's spectra with the rows of
``term_symbols`` (the symbols x terms 0/1 matrix A, transposed and
C-contiguous) that its candidates and their feeders read, and each term is
one C-contiguous row over the tile's samples, so a class's total is the sum
of its m + n term rows.  That is 31 of the 35 terms at 2x3, 79 of 84 at
3x3, and every term at 2x2, 2x4 and 2x5; the candidates' term indices
number those rows (``_Candidates.term_symbols``), while the decomposition
and the evaluation of one spectrum keep every term.  Fixed-order adds
would cost 3-10x the product's time on whole tiles, so it stays a BLAS
call: the rows it leaves unresolved are evaluated again from their
spectra, and the rows it resolves are credited the same class whatever
order BLAS sums in (below).

Each block is reduced in tiles whose work arrays fit one byte budget,
``_WORK_BYTES`` (6 MB): the fewest tiles that fit, of equal size within one
row, so a 2500-sample 2x5 block runs as three tiles of 834 rows, not two of
936 and one of 628.  Each block thread keeps its set of arrays for the next
block (``_spare_work``).

Census tiles of every shape evaluate only certified candidate classes.
On the max side, ``C`` holds the classes that no certified titration edge
I(x) <= I(y) points above, and ``F`` the other classes whose every edge up
lands in ``C``.  So every other class has an edge up to
a class outside ``C``, and the edges have no cycle: every walk along such
edges ends in ``F``, and whenever a class outside ``C`` and ``F`` is within
some band of the maximum, a class of ``F`` is too.  The min side is the
mirror image.  The sets are derived (``classes._titration_candidates``)
from the shape's certified-swap store, which the relation rows read too
(``classes._certified_swaps``, built in 41-74 ms at 2x5 on a 2-vCPU VM),
when a census of the shape first runs, in ``_census_decomposition``;
``brute_force_extrema`` and ``_decomposition`` never titrate.  The tests
pin the sets and check the store's edges at random spectra.  The kernel
computes the totals of ``C_max`` and ``C_min`` only (2x5: 110 of 15120;
2x4: 24 of 840; 3x3: 36 of 378; 2x3: 6 of 60, class 48 and the five
``minz``; 2x2: 2 of 3), each as the sum of its m + n term rows: m + n row
gathers over the (m + n) x len(C) table of their term indices, added in
term order, then ``C_min``'s totals negated so that both extremes are
maxima.  A product with their rows of G would spend 97.6% of its
multiply-adds on zeros at 2x5, where each of the 110 rows holds 7 ones
among 297 terms.  The feeders of a class c of ``C`` are the classes of
``F`` with an edge into c: at most 9 per class at every shape, 4.0 on
average at 2x5.  A sample credits, on each side, the class c that is the
only class of ``C`` within ``EPSILON + _SLACK`` of the extreme over ``C``,
when none of c's feeders is in that band; their totals are sums of their
m + n terms too, gathered from the sample's column of terms.  A side whose
``C`` is one class (both sides at 2x2, the max side at 2x3: class 48)
takes neither a band nor a per-sample gather: its class is alone in its
band at every sample, and its feeders are the same at every sample, so
their totals are m + n row gathers, as the candidates' are, and the class
is credited wherever each feeder is below its total minus ``EPSILON +
_SLACK``.  Every sample that lacks such a class on either side is
evaluated alone, as ``brute_force_extrema`` evaluates it.

Exactness.  The certificates order exact totals, so computed totals must
be close to them.  The rows must be the entropy terms of descending spectra
(symbol 0 the largest value), as ``sample_spectra`` returns; the
certificates also hold at ties and zero entries.  With u = 2**-53, to
first order in u:

* a marginal sum adds at most 5 values (products by 0/1 are exact), so its
  relative error is at most 4u, which moves ``-s log s`` by at most 4u
  because s |1 + log s| <= 1 on (0, 1];
* ``log`` within 4 ulp (8u relative, covering NumPy's SIMD loops) and the
  rounded product with s add at most 9u/e;

so each of the at most m + n <= 7 terms of a total is within 7.4u of
exact, and adding them in any order costs at most 6u * 7/e < 15.5u more.
Every computed total, gathered in a tile or added in the fixed order of one
spectrum's evaluation, is therefore within delta = 7 * 7.4u + 15.5u < 68u <
7.6e-15 of exact, so a total moves by at most 2 delta between the two; the
tests check that bound on every gathered total against a whole G.  Let c be
credited at the maximum: every other class of ``C``, and every feeder of
c, is more than ``EPSILON + _SLACK`` below c in this kernel.  Take a class
x outside ``C``.  Walking up from x ends at some f in ``F`` (f = x if x is
in ``F``) with exact I(x) <= I(f), and every edge out of f lands in ``C``.
If one lands in c, f is a feeder of c; otherwise one lands in some c' of
``C`` other than c, and exact I(x) <= I(f) <= I(c').  Either way x's exact
total is at most that of a class computed here more than ``EPSILON +
_SLACK`` below c, so x's total in the evaluation of the spectrum alone is
at most 2 delta above that class's total here.  There every class other
than c is thus more than ``EPSILON + _SLACK`` - 4 delta below c, which
with ``_SLACK = 1e-13`` exceeds ``EPSILON`` by far more than the rounding
of the entropy's subtraction and of the two thresholds (each under 1e-15
at values below 7/e): the evaluation finds c alone within ``EPSILON``.
The other rows are evaluated alone, so tallies and tie counts equal those
of a ``brute_force_extrema`` at each spectrum.

Censuses draw each block of spectra from its own child of the seed
(``SeedSequence(seed, spawn_key=(block,))``), so results are invariant
under the worker count, and blocks are accumulated in block order.
"""
from __future__ import annotations

import collections
import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .classes import _titration_candidates, class_table
from .core import EPSILON, Spectrum, _json_text, entropy_terms, sample_spectra, write_text_atomic

__all__ = [
    "MAX_BLOCK_SIZE",
    "ExtremaReport",
    "brute_force_extrema",
    "ConvergencePoint",
    "CensusReport",
    "CheckpointMismatchError",
    "census",
]

#: Largest ``block_size`` of :func:`census`.  ``sample_spectra`` draws a whole
#: block at once, so peak memory grows with it: a 2x3 census peaks at about
#: 42 MB RSS at block 2500 and 61 MB at this cap, a one-worker 2x5 census at
#: 82 MB at this cap.
MAX_BLOCK_SIZE = 100_000

#: Bytes of one set of census work arrays (see ``_spare_work``).  A block of
#: samples is reduced tile by tile, each tile as many rows as fit here
#: (``_tiles``), so a set stays bounded whatever the block size, the shape
#: or the number of workers.  A 2500-sample block runs as three 834-row
#: tiles at 2x5 (a 5.3 MB set), two at 2x4 (3.3 MB) and one at 2x2, 2x3
#: and 3x3 (0.3, 2.1 and 5.4 MB).  A tile costs about 0.1 ms of fixed NumPy
#: calls, yet small tiles keep the gathers in cache: with one BLAS thread a
#: 2500-sample 2x5 block took 6.6-6.7 ms as one 2500-row tile (a 16 MB
#: set), 5.5-5.7 ms as three 834-row tiles and 5.4-5.6 ms as four 625-row
#: ones (4.0 MB; medians of 30 rounds, one process, 2-vCPU VM).
_WORK_BYTES = 6_000_000

#: Round-off allowance of the pruned kernel's band around each extreme, far
#: above the 4 delta < 3.1e-14 by which a gap between two classes can differ
#: between the pruned kernel and the evaluation of one spectrum (see above).
_SLACK = 1e-13

_CHECKPOINT_SCHEMA = 1

#: Work arrays of the census kernel, one set per block in flight, handed on
#: to the next block (and census) when a block is done if they fit
#: ``_WORK_BYTES``, which a set grown by one shape always does.  A set holds
#: a tile's entropy terms ("terms"), the product being reduced ("product":
#: the marginal sums, then the candidates' totals) and the pruned kernel's
#: band masks and feeder gathers (see ``_sole_candidates``): 5.3 MB at 2x5,
#: 10.7 MB for two workers.  The candidates' term rows are gathered outside
#: the set, at most two at a time (0.7 MB each in an 834-row 2x5 tile).
#: Allocated afresh, these
#: multi-megabyte arrays are paged in again whenever malloc has trimmed its
#: heap in between: 1,400 to 2,200 minor page faults per 2500-sample 2x4 or
#: 3x3 block, which doubled its time.
_spare_work: list[dict[str, np.ndarray]] = []

#: A census records a convergence row, and rewrites its checkpoint, after each
#: block whose samples done first reach or pass a multiple of this, and at
#: the last sample.
_RECORD_EVERY = 10_000


def _records(done: int, block_size: int, samples: int) -> bool:
    """Whether a census records a row at the block that ends at ``done`` samples."""
    return done == samples or done // _RECORD_EVERY > (done - block_size) // _RECORD_EVERY


@dataclasses.dataclass(frozen=True)
class _Side:
    """One side of the pruned kernel: its candidates ``C`` and their feeders."""

    classes: np.ndarray  # C, 0-based
    # (m + n, K, len(C)): the tile term indices of each C class's feeders, a
    # list of up to K padded to K by repeating its first feeder
    feeder_terms: np.ndarray
    sign: float  # 1.0 at the max; -1.0 at the min, whose totals are negated
    band_weights: np.ndarray  # (2, len(C)): ones, then each class's position in C


@dataclasses.dataclass(frozen=True)
class _Candidates:
    """The pruned kernel's classes ``[C_max | C_min]`` and the feeders of each.

    Their term indices number the rows of ``term_symbols``, the terms a
    census tile computes: those the candidates and the feeders read, in
    term order.
    """

    term_symbols: np.ndarray  # (T', mn) 0/1: the rows of A.T read here, C-contiguous
    # (m + n, len(C_max) + len(C_min)): the tile term indices of each class
    # of [C_max | C_min], one row per term of a class
    terms: np.ndarray
    sides: tuple[_Side, _Side]


@dataclasses.dataclass(frozen=True)
class _TermDecomposition:
    term_symbols: np.ndarray  # (T, mn) 0/1: A.T, C-contiguous
    # (max(m, n), T) intp: each term's symbols, ascending, padded with mn
    padded_symbols: np.ndarray
    # (C, m + n) int32: each class's term indices, ascending, the rows where
    # its column of G holds a 1
    terms_by_class: np.ndarray
    candidates: _Candidates | None  # None in ``_decomposition``, which never titrates


@functools.lru_cache(maxsize=None)
def _decomposition(m: int, n: int) -> _TermDecomposition:
    table = class_table(m, n)
    # One symbol bitmask per marginal, in class order, rows before columns;
    # terms are numbered by first appearance in that sequence.
    masks = np.concatenate(table._lines, axis=1)
    first = np.full(1 << (m * n), masks.size)
    np.minimum.at(first, masks.ravel(), np.arange(masks.size))
    codes = np.flatnonzero(first < masks.size)
    codes = codes[np.argsort(first[codes])]
    number = np.empty_like(first)
    number[codes] = np.arange(len(codes))
    A_T = (codes[:, None] >> np.arange(m * n)) & 1
    padded = np.sort(np.where(A_T == 1, np.arange(m * n), m * n), axis=1)[:, : max(m, n)]
    terms = np.sort(number[masks], axis=1).astype(np.int32)
    # A class's marginals are distinct symbol sets, so each term counts once.
    assert (terms[:, 1:] > terms[:, :-1]).all()
    return _TermDecomposition(
        term_symbols=A_T.astype(np.float64),
        padded_symbols=np.ascontiguousarray(padded.T),
        terms_by_class=terms,
        candidates=None,
    )


@functools.lru_cache(maxsize=None)
def _census_decomposition(m: int, n: int) -> _TermDecomposition:
    """The decomposition a census evaluates, with its candidates.

    The candidates are derived here (``classes._titration_candidates``)
    when a census of the shape first runs, from the shape's certified-swap
    store, which the relation rows read too.  Their tiles compute only the
    terms that the candidates and their feeders read (2x3: 31 of 35; 3x3:
    79 of 84; every term at 2x2, 2x4 and 2x5), renumbered in term order;
    the decomposition's own tables keep the full numbering.
    """
    dec = _decomposition(m, n)
    sets = _titration_candidates(m, n)
    _trim_heap()
    terms = dec.terms_by_class
    classes, feeder_terms = [], []
    for c, feeders in ((sets.c_max, sets.feeders_max), (sets.c_min, sets.feeders_min)):
        assert all(feeders), "every candidate has a feeder"
        width = max(map(len, feeders))
        padded = np.array([f + f[:1] * (width - len(f)) for f in feeders], dtype=np.intp) - 1
        classes.append(np.array(c, dtype=np.intp) - 1)
        feeder_terms.append(terms[padded].transpose(2, 1, 0))
    cand_terms = terms[np.concatenate(classes)].T
    read = np.zeros(len(dec.term_symbols), dtype=bool)
    for table in (cand_terms, *feeder_terms):
        read[table] = True
    used = np.flatnonzero(read)
    tile = np.zeros(len(read), dtype=np.intp)
    tile[used] = np.arange(len(used))  # each read term's row in the tile
    sides = tuple(
        _Side(
            classes=c,
            feeder_terms=np.ascontiguousarray(tile[table]),
            sign=sign,
            band_weights=np.stack([np.ones(len(c)), np.arange(len(c), dtype=np.float64)]),
        )
        for c, table, sign in zip(classes, feeder_terms, (1.0, -1.0))
    )
    candidates = _Candidates(
        term_symbols=np.ascontiguousarray(dec.term_symbols[used]),
        terms=np.ascontiguousarray(tile[cand_terms]),
        sides=sides,
    )
    return dataclasses.replace(dec, candidates=candidates)


def _trim_heap() -> None:
    """Hand the C heap's free memory back to the system, where glibc can.

    Building the certified-swap store frees megabytes of temporaries, and
    glibc keeps up to twice the largest block it has freed at the top of
    the heap.  Census blocks on other threads do not reuse it: without
    this, a process that ran five two-worker 5000-sample 2x5 censuses
    peaked at 67.8 MB against 62.3-62.4 MB, 5.4-5.5 MB (9%) higher (four
    alternated runs each, 2-vCPU VM).
    """
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):  # no process-wide symbol table to search
        return
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def _work_array(
    work: dict[str, np.ndarray], name: str, *shape: int, dtype: type = np.float64
) -> np.ndarray:
    """The work array ``name`` of one set, grown as needed, as a view of ``shape``."""
    size = math.prod(shape)
    if name not in work or work[name].size < size:
        work.pop(name, None)  # free the smaller array before allocating
        work[name] = np.empty(size, dtype=dtype)
    return work[name][:size].reshape(shape)


def _marginal_entropy_terms(
    spectra: np.ndarray, term_symbols: np.ndarray, work: dict[str, np.ndarray] | None = None
) -> np.ndarray:
    """``-s log s`` of every marginal sum ``s = A.T @ spectra.T``, with 0 log 0 = 0.

    ``term_symbols`` is A.T, C-contiguous: in a census block, one BLAS
    thread, the sums of a 2500-sample 2x4 block took 170 us from it and
    310 us from the transposed view of A.  The terms are laid out terms x
    samples, one C-contiguous row per term.  Given a set of work arrays,
    returns a view of its "terms".
    """
    work = {} if work is None else work
    shape = (term_symbols.shape[0], spectra.shape[0])
    sums = np.matmul(term_symbols, spectra.T, out=_work_array(work, "product", *shape))
    return entropy_terms(sums, out=_work_array(work, "terms", *shape))


def _gathered_totals(hterms: np.ndarray, terms: np.ndarray, out: np.ndarray) -> None:
    """Into ``out``, the total of each column of ``terms`` ((m + n, k) term indices).

    m + n row gathers of ``hterms`` (terms x samples), added in the order
    of ``terms``' rows: ``out[j]`` is the sum of column j's term rows.
    """
    first, second, *rest = terms
    np.add(hterms[first], hterms[second], out=out)
    for term in rest:
        out += hterms[term]


def _sole_candidates(
    hterms: np.ndarray, cand: _Candidates, work: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per sample, whether one candidate alone holds each extreme, and which.

    Returns ``(resolved, top, bottom)``: sample i credits class ``top[i]``
    at the max and ``bottom[i]`` at the min if ``resolved[i]``, which needs,
    on both sides, one class of ``C`` alone within ``EPSILON + _SLACK`` of
    the extreme over ``C``, and none of that class's feeders in the band.
    Every total, of a candidate or a feeder, is the sum of its m + n term
    rows of ``hterms`` (a tile's terms x samples): the candidates' and a
    one-class side's fixed feeders' as m + n row gathers, the feeders of
    each sample's best class on a wider side as one flat gather.
    """
    rows = hterms.shape[1]
    vals = _work_array(work, "product", cand.terms.shape[1], rows)
    _gathered_totals(hterms, cand.terms, vals)
    n_max = len(cand.sides[0].classes)
    vals[n_max:] *= -1.0  # the min side negated: both extremes are maxima
    offsets = np.arange(rows)  # of each sample in a term row of hterms.flat
    resolved = np.ones(rows, dtype=bool)
    credited = []
    for side, c_vals in zip(cand.sides, (vals[:n_max], vals[n_max:])):
        if len(side.classes) == 1:
            # its one class is alone in its band in every row, and its
            # feeders are the same in every row: no band and no per-sample
            # feeder gather
            edge = c_vals[0] - (EPSILON + _SLACK)
            fixed = side.feeder_terms[:, :, 0]
            totals = _work_array(work, "totals", fixed.shape[1], rows)
            _gathered_totals(hterms, fixed, totals)
            credited.append(side.classes.repeat(rows))
        else:
            edge = c_vals.max(axis=0) - (EPSILON + _SLACK)
            band = np.greater_equal(c_vals, edge, out=_work_array(work, "band", *c_vals.shape))
            # per sample, the classes of C in the band and the sum of their
            # positions in C: the position of the best one where it is
            # alone, elsewhere a position that is only read clipped into range
            counts = _work_array(work, "count", 2, rows)
            count, position = np.matmul(side.band_weights, band, out=counts)
            resolved &= count == 1
            best = position.astype(np.intp)
            # per term of each feeder slot, sample by sample: the term's
            # flat index in hterms, then its value
            shape = (*side.feeder_terms.shape[:2], rows)
            index = _work_array(work, "index", *shape, dtype=np.intp)
            np.take(side.feeder_terms * rows, best, axis=2, out=index, mode="clip")
            index += offsets
            feeds = np.take(hterms, index, out=_work_array(work, "feeds", *shape), mode="clip")
            totals = np.add.reduce(feeds, axis=0, out=_work_array(work, "totals", *shape[1:]))
            credited.append(np.take(side.classes, best, mode="clip"))
        totals *= side.sign
        resolved &= totals.max(axis=0) < edge
    return resolved, *credited


def _row_elements(dec: _TermDecomposition) -> int:
    """Census work-array elements per tile row, 8 bytes each.

    A tile holds its entropy terms (those its candidates and feeders read)
    and the product (the marginal sums, then the candidates' totals), and
    each feeder's total (``_sole_candidates``).  A side of more than one
    class adds its band and the band's two counts, and each feeder term's
    index and value.  The sides share these arrays by name, so each counts
    at the larger side's size.
    """
    cand = dec.candidates
    n_terms = cand.term_symbols.shape[0]
    banded = [side for side in cand.sides if len(side.classes) > 1]
    band = max((len(side.classes) + 2 for side in banded), default=0)
    slots = max((side.feeder_terms.shape[1] for side in banded), default=0)
    gathers = 2 * dec.terms_by_class.shape[1] * slots
    totals = max(side.feeder_terms.shape[1] for side in cand.sides)
    return n_terms + max(n_terms, cand.terms.shape[1]) + band + gathers + totals


def _tiles(dec: _TermDecomposition, rows: int) -> list[int]:
    """The bounds of the tiles of a block of ``rows`` spectra.

    The block is split into the fewest tiles whose work arrays
    (``_row_elements``) fit ``_WORK_BYTES``, equal within one row and
    largest first: ``ceil(rows / ceil(rows / most))`` rows, so no small
    leftover tile costs a round of calls, and a set's arrays grow only at
    its first tile.
    """
    most = max(1, _WORK_BYTES // 8 // _row_elements(dec))
    count = -(-rows // most)
    return [-(-rows * i // count) for i in range(count + 1)]


def _spectrum_extremes(
    spectrum: np.ndarray, dec: _TermDecomposition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every class's mutual information at one spectrum, and the classes at its extremes.

    Returns ``(values, at_max, at_min)``, the last two the 0-based classes
    within ``EPSILON`` of the largest and of the smallest value, ascending.
    No BLAS call: each marginal sum adds its symbols' values in ascending
    symbol order (the padding symbol reads 0.0, which adds exactly), and
    each class's total adds its m + n entropy terms in term order.  A zero
    value is +0.0: at a rank-one spectrum each class adds m + n terms of
    -0.0, and subtracting the spectrum's +0.0 keeps -0.0, which the final
    +0.0 turns into +0.0, keeping the bits of every other value.
    """
    sums, *rest = np.append(spectrum, 0.0).take(dec.padded_symbols)
    for symbols in rest:
        sums += symbols
    values, *rest = entropy_terms(sums).take(dec.terms_by_class.T)
    for terms in rest:
        values += terms
    values -= entropy_terms(spectrum).sum()
    values += 0.0
    at_max = np.flatnonzero(values >= values.max() - EPSILON)
    return values, at_max, np.flatnonzero(values <= values.min() + EPSILON)


def _block_extrema(
    spectra: np.ndarray, dec: _TermDecomposition
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Per-class argmax/argmin hit counts and tie-event counts for one block.

    Tile by tile (``_tiles``), so memory stays within ``_WORK_BYTES``
    whatever the block size: a tile's entropy terms, then its rows that one
    candidate resolves credit it.  Every other row is evaluated alone
    (``_spectrum_extremes``), as ``brute_force_extrema`` evaluates it.
    """
    n_classes = len(dec.terms_by_class)
    bounds = _tiles(dec, spectra.shape[0])
    max_hits = np.zeros(n_classes, dtype=np.int64)
    min_hits = np.zeros(n_classes, dtype=np.int64)
    ties_max = ties_min = 0
    try:
        work = _spare_work.pop()
    except IndexError:
        work = {}
    for r0, r1 in zip(bounds, bounds[1:]):
        hterms = _marginal_entropy_terms(spectra[r0:r1], dec.candidates.term_symbols, work)
        resolved, top, bottom = _sole_candidates(hterms, dec.candidates, work)
        max_hits += np.bincount(top[resolved], minlength=n_classes)
        min_hits += np.bincount(bottom[resolved], minlength=n_classes)
        for spectrum in spectra[r0:r1][~resolved]:
            _, at_max, at_min = _spectrum_extremes(spectrum, dec)
            max_hits[at_max] += 1
            min_hits[at_min] += 1
            ties_max += len(at_max) >= 2
            ties_min += len(at_min) >= 2
    # a set grown by tiles of another shape may hold more; it is dropped
    if sum(a.nbytes for a in work.values()) <= _WORK_BYTES:
        _spare_work.append(work)
    return max_hits, min_hits, ties_max, ties_min


@dataclasses.dataclass(frozen=True)
class ExtremaReport:
    """Mutual information of every class of one shape at one spectrum."""

    m: int
    n: int
    spectrum: Spectrum
    values: tuple[float, ...]  # nats, indexed by class (1-based index - 1)
    maxima: tuple[int, ...]  # 1-based class indices within EPSILON of the max
    minima: tuple[int, ...]
    max_value: float
    min_value: float


def brute_force_extrema(s: Spectrum, m: int, n: int) -> ExtremaReport:
    """Evaluate every class at one spectrum and report the extremal ones."""
    if s.dim != m * n:
        raise ValueError(f"spectrum has {s.dim} entries; a {m}x{n} grid needs {m * n}")
    values, at_max, at_min = _spectrum_extremes(s.as_array(), _decomposition(m, n))
    return ExtremaReport(
        m=m,
        n=n,
        spectrum=s,
        values=tuple(values.tolist()),
        maxima=tuple((at_max + 1).tolist()),
        minima=tuple((at_min + 1).tolist()),
        max_value=float(values[at_max].max()),
        min_value=float(values[at_min].min()),
    )


@dataclasses.dataclass(frozen=True)
class ConvergencePoint:
    """Realized argmax/argmin class counts after a number of samples."""

    samples: int
    n_max_classes: int
    n_min_classes: int


class CheckpointMismatchError(Exception):
    """A checkpoint file disagrees with the requested census parameters."""


@dataclasses.dataclass(frozen=True)
class CensusReport:
    """Result of a randomized census over one shape.

    ``max_hits[c]``/``min_hits[c]`` count the samples at which class c+1
    attained the maximum/minimum (ties within EPSILON credit every tied
    class and are also tallied as tie events).  ``max_classes`` and
    ``min_classes`` are the 1-based classes credited at least once,
    ascending, derived once from the tallies.
    """

    m: int
    n: int
    samples: int
    samples_done: int
    seed: int
    block_size: int
    workers: int
    max_hits: tuple[int, ...]
    min_hits: tuple[int, ...]
    tie_events_max: int
    tie_events_min: int
    convergence: tuple[ConvergencePoint, ...]
    max_classes: tuple[int, ...]
    min_classes: tuple[int, ...]


@dataclasses.dataclass
class _CensusState:
    blocks_done: int
    max_hits: np.ndarray
    min_hits: np.ndarray
    tie_events_max: int
    tie_events_min: int
    convergence: list[ConvergencePoint]


def _credited_hits(hits: np.ndarray) -> dict[str, int]:
    """The nonzero ``hits``, keyed by 1-based class index as a string, in key order."""
    credited = np.flatnonzero(hits)
    return dict(sorted(zip(map(str, (credited + 1).tolist()), hits[credited].tolist())))


def _checkpoint_payload(state: _CensusState, params: dict) -> dict:
    """The checkpoint document, its keys sorted at both levels as the file holds them."""
    return dict(sorted({
        **params,
        "blocks_done": state.blocks_done,
        "max_hits": _credited_hits(state.max_hits),
        "min_hits": _credited_hits(state.min_hits),
        "tie_events_max": state.tie_events_max,
        "tie_events_min": state.tie_events_min,
        "convergence": [
            [p.samples, p.n_max_classes, p.n_min_classes] for p in state.convergence
        ],
    }.items()))


def _write_checkpoint(path: str, payload: dict) -> None:
    write_text_atomic(path, _json_text(payload))


def _load_checkpoint(path: str, params: dict, n_classes: int) -> _CensusState:
    """Read a checkpoint and check it against the census it should resume.

    ``params`` holds the identity fields the file must repeat exactly.

    Any malformed, inconsistent or mismatched content raises
    CheckpointMismatchError; only failing to read the file raises OSError.
    """

    def fail(problem: str) -> CheckpointMismatchError:
        return CheckpointMismatchError(f"checkpoint {path!r} {problem}")

    def is_count(value) -> bool:
        return type(value) is int and value >= 0

    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # malformed JSON or UTF-8
        raise fail(f"is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise fail("is not a JSON object")
    for key, want in params.items():
        got = payload.get(key)
        if type(got) is not int or got != want:
            raise fail(f"has {key}={got!r}, expected {want!r}")
    for key in ("blocks_done", "tie_events_max", "tie_events_min"):
        if not is_count(payload.get(key)):
            raise fail(f"has {key}={payload.get(key)!r}; it must be a non-negative integer")
    samples, block_size = params["samples"], params["block_size"]
    n_blocks = (samples + block_size - 1) // block_size
    blocks_done = payload["blocks_done"]
    if blocks_done > n_blocks:
        raise fail(f"has blocks_done={blocks_done}, but the census has {n_blocks} blocks")
    samples_done = min(blocks_done * block_size, samples)
    tallies = []
    for side in ("max", "min"):
        hits_in = payload.get(f"{side}_hits")
        if not isinstance(hits_in, dict):
            raise fail(f"has {side}_hits={hits_in!r}; it must be an object")
        hits = np.zeros(n_classes, dtype=np.int64)
        for key, h in hits_in.items():
            try:
                index = int(key)
            except ValueError:
                index = 0
            if str(index) != key or not 1 <= index <= n_classes:
                raise fail(f"credits {side}_hits to class {key!r}, outside 1..{n_classes}")
            if not (is_count(h) and h <= samples_done):
                raise fail(f"has {side}_hits[{key!r}]={h!r}, outside 0..{samples_done}")
            hits[index - 1] = h
        total, ties = int(hits.sum()), payload[f"tie_events_{side}"]
        if (
            ties > samples_done
            or total < samples_done + ties
            or (ties == 0 and total != samples_done)
        ):
            raise fail(
                f"has {total} {side} hits and {ties} tie events, "
                f"inconsistent with {samples_done} samples done"
            )
        tallies.append(hits)
    convergence = payload.get("convergence")
    if not (
        isinstance(convergence, list)
        and all(
            isinstance(row, list) and len(row) == 3 and all(is_count(v) for v in row)
            for row in convergence
        )
    ):
        raise fail("has a convergence table that is not a list of three-count rows")
    dones = (min(b * block_size, samples) for b in range(1, blocks_done + 1))
    recorded = [done for done in dones if _records(done, block_size, samples)]
    if [row[0] for row in convergence] != recorded:
        raise fail(f"has convergence rows at other samples than the {len(recorded)} recorded")
    for col, side, hits in ((1, "max", tallies[0]), (2, "min", tallies[1])):
        counts = [row[col] for row in convergence]
        credited = int((hits > 0).sum())
        stale = bool(counts) and recorded[-1] == samples_done and counts[-1] != credited
        if stale or counts != sorted(counts) or any(not 1 <= c <= credited for c in counts):
            raise fail(
                f"has convergence {side} class counts that decrease, leave 1..{credited} "
                f"or end below {credited} at {samples_done} samples"
            )
    return _CensusState(
        blocks_done=blocks_done,
        max_hits=tallies[0],
        min_hits=tallies[1],
        tie_events_max=payload["tie_events_max"],
        tie_events_min=payload["tie_events_min"],
        convergence=[ConvergencePoint(*row) for row in convergence],
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: (prefix, suffix) of the thread-count functions of NumPy 2's bundled
#: OpenBLAS, of an ILP64 build, and of a plain build, tried in this order.
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set functions of the thread count of NumPy's OpenBLAS, or None.

    Looks for the library where NumPy's wheels bundle it.  Not
    ``openblas_set_num_threads_local``: a pthreads build applies that one to
    the whole process too.
    """
    pkg = Path(np.__file__).parent
    for libdir in (pkg.parent / "numpy.libs", pkg / ".libs", pkg / ".dylibs"):
        for path in sorted(libdir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for prefix, suffix in _OPENBLAS_SYMBOLS:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


#: Censuses inside :func:`_blas_budget`, and the OpenBLAS thread count the
#: first of them found, which the last to leave restores.
_budget_lock = threading.Lock()
_budget_depth = 0
_budget_prior = 0


@contextlib.contextmanager
def _blas_budget(threads: int) -> Iterator[None]:
    """Cap OpenBLAS so that ``threads`` block threads times its threads fit the CPUs.

    OpenBLAS would start a thread per CPU for each block thread's products.
    The first census to enter caps the count at ``usable CPUs // threads``
    (at least 1, never above the count it finds); the last to leave restores
    it.  Without NumPy's OpenBLAS this does nothing.
    """
    global _budget_depth, _budget_prior
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _budget_lock:
        if _budget_depth == 0:
            _budget_prior = get()
            set_(min(_budget_prior, max(1, _usable_cpus() // threads)))
        _budget_depth += 1
    try:
        yield
    finally:
        with _budget_lock:
            _budget_depth -= 1
            if _budget_depth == 0:
                set_(_budget_prior)


def _in_order(pool: ThreadPoolExecutor, run_block, todo: range, threads: int) -> Iterator:
    """``run_block(b)`` for each block of ``todo``, in order, run on ``pool``.

    At most ``threads`` blocks are submitted past the one being waited for,
    so the futures held stay bounded however many blocks the run has.
    """
    pending = collections.deque()
    for b in todo:
        pending.append(pool.submit(run_block, b))
        if len(pending) > threads:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def census(
    m: int,
    n: int,
    samples: int,
    seed: int,
    *,
    workers: int = 1,
    block_size: int = 2500,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> CensusReport:
    """Randomized census of argmax/argmin classes over uniform spectra.

    Draws ``samples`` spectra uniformly from the simplex (each block of
    ``block_size`` from its own deterministic child of ``seed``), evaluates
    every class, and tallies which classes attain the extremes.  The result
    is independent of ``workers``, of which at most as many as the process
    has CPUs in its affinity mask run as threads at once, each with at most
    one block in flight past the one being tallied.  A ``seed`` below 0, or
    ``block_size`` above ``MAX_BLOCK_SIZE``, raises ValueError before any
    work.  With ``resume=True`` and an existing checkpoint written by the
    same parameters, continues where it left off; ``resume=True`` without a
    ``checkpoint_path`` raises ValueError, and a checkpoint for different
    parameters raises CheckpointMismatchError.

    While more than one thread runs, the thread count ``c`` of NumPy's
    OpenBLAS is capped at ``min(c, max(1, cpus // threads))``, so it is
    never raised, and ``c`` is restored when the census ends, also on an
    error.  Other BLAS calls in the process get the capped count meanwhile.
    Where NumPy's OpenBLAS is not found, the count is left alone.
    """
    for name, value, least in (
        ("samples", samples, 1), ("workers", workers, 1), ("block_size", block_size, 1),
        ("seed", seed, 0),
    ):
        if value < least:
            raise ValueError(f"census needs {name} >= {least}")
    if block_size > MAX_BLOCK_SIZE:
        raise ValueError(f"census needs block_size <= {MAX_BLOCK_SIZE} (the cap), got {block_size}")
    if resume and not checkpoint_path:
        raise ValueError("census cannot resume without a checkpoint path (--checkpoint)")
    params = dict(
        schema_version=_CHECKPOINT_SCHEMA, m=m, n=n, samples=samples, seed=seed,
        block_size=block_size,
    )
    dec = _census_decomposition(m, n)
    n_classes = len(dec.terms_by_class)
    mn = m * n
    n_blocks = (samples + block_size - 1) // block_size

    state = _CensusState(
        blocks_done=0,
        max_hits=np.zeros(n_classes, dtype=np.int64),
        min_hits=np.zeros(n_classes, dtype=np.int64),
        tie_events_max=0,
        tie_events_min=0,
        convergence=[],
    )
    if resume and os.path.exists(checkpoint_path):
        state = _load_checkpoint(checkpoint_path, params, n_classes)

    def run_block(b: int) -> tuple[np.ndarray, np.ndarray, int, int]:
        size = min(block_size, samples - b * block_size)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        return _block_extrema(sample_spectra(mn, size, rng), dec)

    def accumulate(b: int, result: tuple[np.ndarray, np.ndarray, int, int]) -> None:
        max_hits, min_hits, ties_max, ties_min = result
        state.max_hits += max_hits
        state.min_hits += min_hits
        state.tie_events_max += ties_max
        state.tie_events_min += ties_min
        state.blocks_done = b + 1
        done = min(state.blocks_done * block_size, samples)
        if _records(done, block_size, samples):
            point = ConvergencePoint(
                samples=done,
                n_max_classes=int((state.max_hits > 0).sum()),
                n_min_classes=int((state.min_hits > 0).sum()),
            )
            state.convergence.append(point)
            if checkpoint_path:
                _write_checkpoint(checkpoint_path, _checkpoint_payload(state, params))

    todo = range(state.blocks_done, n_blocks)
    threads = min(workers, _usable_cpus())
    budget = _blas_budget(threads) if threads > 1 else contextlib.nullcontext()
    # One thread runs the blocks here; a pool creates its threads on demand,
    # and they are done before the budget ends.
    with budget, ThreadPoolExecutor(max_workers=threads) as pool:
        if threads == 1:
            results = map(run_block, todo)
        else:
            results = _in_order(pool, run_block, todo, threads)
        for b, result in zip(todo, results):
            accumulate(b, result)

    return CensusReport(
        m=m,
        n=n,
        samples=samples,
        samples_done=min(state.blocks_done * block_size, samples),
        seed=seed,
        block_size=block_size,
        workers=workers,
        max_hits=tuple(state.max_hits.tolist()),
        min_hits=tuple(state.min_hits.tolist()),
        tie_events_max=state.tie_events_max,
        tie_events_min=state.tie_events_min,
        convergence=tuple(state.convergence),
        max_classes=tuple((np.flatnonzero(state.max_hits) + 1).tolist()),
        min_classes=tuple((np.flatnonzero(state.min_hits) + 1).tolist()),
    )

