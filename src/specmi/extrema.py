"""Extremal arrangements of a spectrum: exact sweeps and randomized censuses.

The mutual information of every class of one shape is evaluated together
through a term decomposition: the distinct row/column symbol subsets that
occur across all canonical representatives become columns of a 0/1 matrix
``A`` (symbols x terms), and a count matrix ``G`` (terms x classes) says how
often each term appears among a class's marginals.  For a block of spectra
``S`` (samples x symbols, descending rows = symbol values),

    marginal entropy totals = (-(S @ A) * log(S @ A)) @ G

and the mutual information of class c is that total minus the spectrum
entropy.  The subtraction is constant across classes, so argmax/argmin and
tie detection work on the totals directly.  ``brute_force_extrema`` and
every census tile of 2x2 and 2x3 take this dense product.

Census tiles of larger shapes are evaluated grouped.  A class's total is
the sum over its row part (the terms of its m rows) plus the sum over its
column part, so one small product gives every distinct part sum (2x5: 126
row parts and 945 column parts against 15120 classes).  The classes sharing
a row part form a group; gathering each group's column sums and reducing
over the members gives the group's largest and smallest total, because
``fl(a + x)`` is monotone in ``x``.  Each tile row then counts the classes
within ``EPSILON + _SLACK`` of its extremes, across groups and then inside
the winning group.  A row with exactly one class in that band credits that
class; a tile with any other row is tallied by the dense product instead.
Two summation orders of at most m + n terms, each at most 1/e, differ by
less than 4e-15, far below ``_SLACK = 1e-13``: a class alone in the band is
alone within ``EPSILON`` in the dense product too, so the tallies and tie
counts equal the dense kernel's whatever order BLAS sums in.

Censuses draw each block of spectra from its own child of the seed
(``SeedSequence(seed, spawn_key=(block,))``), so results are invariant
under the worker count, and blocks are accumulated in block order.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .classes import class_table, cross_pairs, honeycomb, maxima_chain_steps
from .core import EPSILON, Spectrum, sample_spectra, write_text_atomic
from .orders import SYMBOL_LETTERS, RelationKind, RelationVerdict

__all__ = [
    "ExtremaReport",
    "brute_force_extrema",
    "ConvergencePoint",
    "CensusReport",
    "CheckpointMismatchError",
    "census",
    "verify_theorem_chain",
]

#: Largest samples-x-classes tile evaluated in one allocation; a block of
#: samples is reduced tile by tile, so its memory stays bounded whatever the
#: block size or the number of classes.
_ELEMENT_BUDGET = 4_000_000

#: Shapes with at least this many classes go through the grouped kernel
#: first; no shape has between 60 and 840.  On a 2-vCPU VM with OpenBLAS, a
#: 2500-sample 2x3 block (60 classes) took 1.6 ms either way (quartiles
#: 1.57-1.87 ms dense, 1.53-2.06 ms grouped; 2.1 against 2.2 ms with one
#: BLAS thread), so 2x3 stays dense; 2x4 (840) took 22 ms dense, 10 ms grouped.
_GROUPED_MIN_CLASSES = 840

#: Round-off allowance of the grouped kernel's band around each extreme,
#: far above the 4e-15 by which two summation orders can differ (see above).
_SLACK = 1e-13

_CHECKPOINT_SCHEMA = 1

#: A census records a convergence row, and rewrites its checkpoint, each time
#: the samples done reach a multiple of this; the row at the last sample is
#: recorded too.
_RECORD_EVERY = 10_000


@dataclasses.dataclass(frozen=True)
class _TermDecomposition:
    symbols_by_term: np.ndarray  # (mn, T) 0/1
    term_counts: np.ndarray  # (T, C)
    parts_by_term: np.ndarray  # (T, R + K) 0/1: R row parts, then K column parts
    group_parts: np.ndarray  # (R, size) part-sum row (R + k) of each member's column part
    group_classes: np.ndarray  # (R, size) class of each member; -1 pads
    live_groups: np.ndarray  # (size,) groups with more than j members


@functools.lru_cache(maxsize=None)
def _decomposition(m: int, n: int) -> _TermDecomposition:
    table = class_table(m, n)
    n_classes = len(table)
    letters = np.frombuffer(SYMBOL_LETTERS.encode("ascii"), dtype=np.uint8)
    symbol_of = np.zeros(256, dtype=np.int64)
    symbol_of[letters] = np.arange(len(letters))
    words = "".join(cls.word for cls in table.classes).encode("ascii")
    grids = symbol_of[np.frombuffer(words, dtype=np.uint8)].reshape(n_classes, m, n)
    bits = np.left_shift(1, grids)
    # One symbol bitmask per marginal, in class order, rows before columns;
    # terms are numbered by first appearance in that sequence.
    masks = np.concatenate([bits.sum(axis=2), bits.sum(axis=1)], axis=1)
    codes, first, inverse = np.unique(masks.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    terms = rank[inverse].reshape(masks.shape)
    A = ((codes[order][None, :] >> np.arange(m * n)[:, None]) & 1).astype(np.float64)
    G = np.zeros((len(codes), n_classes), dtype=np.float64)
    np.add.at(G, (terms, np.arange(n_classes)[:, None]), 1.0)

    # A class's total is the sum over its row part (its m row terms) plus
    # the sum over its column part.  Classes are grouped by row part, the
    # largest groups first, so the groups with a j-th member are the first
    # live_groups[j].
    row_parts, group = np.unique(np.sort(terms[:, :m], axis=1), axis=0, return_inverse=True)
    col_parts, col_part = np.unique(np.sort(terms[:, m:], axis=1), axis=0, return_inverse=True)
    group, col_part = group.ravel(), col_part.ravel()
    by_size = np.argsort(-np.bincount(group), kind="stable")
    row_parts, group = row_parts[by_size], np.argsort(by_size)[group]
    sizes = np.bincount(group)
    n_groups = len(sizes)
    U = np.zeros((len(codes), n_groups + len(col_parts)), dtype=np.float64)
    U[row_parts, np.arange(n_groups)[:, None]] = 1.0
    U[col_parts, n_groups + np.arange(len(col_parts))[:, None]] = 1.0
    members = np.argsort(group, kind="stable")
    slot = np.arange(n_classes) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    classes = np.full((n_groups, sizes[0]), -1, dtype=np.int64)
    classes[group[members], slot] = members
    # Pads repeat the group's first member; only group_classes marks them.
    padded = np.where(classes >= 0, classes, classes[:, :1])
    return _TermDecomposition(
        symbols_by_term=A,
        term_counts=G,
        parts_by_term=U,
        group_parts=n_groups + col_part[padded],
        group_classes=classes,
        live_groups=(sizes[:, None] > np.arange(sizes[0])).sum(axis=0),
    )


def _marginal_entropy_terms(spectra: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``-s log s`` of every marginal sum ``s = spectra @ A``, with 0 log 0 = 0."""
    sums = spectra @ A
    terms = np.log(sums, out=np.zeros_like(sums), where=sums > 0)
    terms *= sums
    return np.negative(terms, out=terms)


def _dense_tally(
    hterms: np.ndarray, G: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Argmax/argmin hit counts and tie events of every class over one tile."""
    vals = hterms @ G
    mask_max = vals >= (vals.max(axis=1) - EPSILON)[:, None]
    mask_min = vals <= (vals.min(axis=1) + EPSILON)[:, None]
    return (
        mask_max.sum(axis=0),
        mask_min.sum(axis=0),
        int((mask_max.sum(axis=1) >= 2).sum()),
        int((mask_min.sum(axis=1) >= 2).sum()),
    )


def _sole_extrema(
    hterms: np.ndarray, dec: _TermDecomposition
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per row, the one class within ``EPSILON + _SLACK`` of the max, then the min.

    Returns ``(sole, cls)`` per side: ``cls[i]`` is the class of row i if
    ``sole[i]``; rows with more than one class in that band are not resolved.
    """
    sums = dec.parts_by_term.T @ hterms.T  # (R + K, rows)
    parts = dec.group_parts
    row_sums = sums[: parts.shape[0]]
    hi = sums[parts[:, 0]]
    lo = hi.copy()
    for j in range(1, parts.shape[1]):
        live = dec.live_groups[j]
        col_sums = sums[parts[:live, j]]
        np.maximum(hi[:live], col_sums, out=hi[:live])
        np.minimum(lo[:live], col_sums, out=lo[:live])
    rows = np.arange(hterms.shape[0])
    out = []
    # fl(a + x) is monotone in x, so a group's extreme total is its row sum
    # plus its extreme column sum; negation turns the min side into a max.
    for sign, best in ((1.0, row_sums + hi), (-1.0, -(row_sums + lo))):
        threshold = best.max(axis=0) - (EPSILON + _SLACK)
        win = best.argmax(axis=0)
        totals = sign * (row_sums[win, rows][:, None] + sums[parts[win], rows[:, None]])
        in_band = (totals >= threshold[:, None]) & (dec.group_classes[win] >= 0)
        sole = ((best >= threshold).sum(axis=0) == 1) & (in_band.sum(axis=1) == 1)
        out.append((sole, dec.group_classes[win, in_band.argmax(axis=1)]))
    return out


def _block_extrema(
    hterms: np.ndarray, dec: _TermDecomposition
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Per-class argmax/argmin hit counts and tie-event counts for one block.

    Tile by tile: a tile whose every row has one class alone within
    ``EPSILON + _SLACK`` of each extreme credits those classes; any other
    tile, and every tile of a shape under ``_GROUPED_MIN_CLASSES``, is
    tallied by the dense product.
    """
    G = dec.term_counts
    n_classes = G.shape[1]
    step = max(1, _ELEMENT_BUDGET // n_classes)
    max_hits = np.zeros(n_classes, dtype=np.int64)
    min_hits = np.zeros(n_classes, dtype=np.int64)
    ties_max = ties_min = 0
    for r0 in range(0, hterms.shape[0], step):
        tile = hterms[r0 : r0 + step]
        if n_classes >= _GROUPED_MIN_CLASSES:
            (sole_max, top), (sole_min, bottom) = _sole_extrema(tile, dec)
            if sole_max.all() and sole_min.all():
                max_hits += np.bincount(top, minlength=n_classes)
                min_hits += np.bincount(bottom, minlength=n_classes)
                continue
        tile_max, tile_min, tile_ties_max, tile_ties_min = _dense_tally(tile, G)
        max_hits += tile_max
        min_hits += tile_min
        ties_max += tile_ties_max
        ties_min += tile_ties_min
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
    dec = _decomposition(m, n)
    row = s.as_array()[None, :]
    totals = (_marginal_entropy_terms(row, dec.symbols_by_term) @ dec.term_counts)[0]
    values = totals - s.entropy()
    vmax = float(values.max())
    vmin = float(values.min())
    maxima = tuple(int(i) + 1 for i in np.flatnonzero(values >= vmax - EPSILON))
    minima = tuple(int(i) + 1 for i in np.flatnonzero(values <= vmin + EPSILON))
    return ExtremaReport(
        m=m,
        n=n,
        spectrum=s,
        values=tuple(float(v) for v in values),
        maxima=maxima,
        minima=minima,
        max_value=vmax,
        min_value=vmin,
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
    class and are also tallied as tie events).
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

    @property
    def max_classes(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, h in enumerate(self.max_hits) if h > 0)

    @property
    def min_classes(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, h in enumerate(self.min_hits) if h > 0)


@dataclasses.dataclass
class _CensusState:
    blocks_done: int
    max_hits: np.ndarray
    min_hits: np.ndarray
    tie_events_max: int
    tie_events_min: int
    convergence: list[ConvergencePoint]


def _checkpoint_payload(state: _CensusState, m, n, samples, seed, block_size) -> dict:
    return {
        "schema_version": _CHECKPOINT_SCHEMA,
        "m": m,
        "n": n,
        "samples": samples,
        "seed": seed,
        "block_size": block_size,
        "blocks_done": state.blocks_done,
        "max_hits": {str(i + 1): int(h) for i, h in enumerate(state.max_hits) if h},
        "min_hits": {str(i + 1): int(h) for i, h in enumerate(state.min_hits) if h},
        "tie_events_max": state.tie_events_max,
        "tie_events_min": state.tie_events_min,
        "convergence": [
            [p.samples, p.n_max_classes, p.n_min_classes] for p in state.convergence
        ],
    }


def _write_checkpoint(path: str, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_checkpoint(path: str, m, n, samples, seed, block_size, n_classes) -> _CensusState:
    """Read a checkpoint and check it against the census it should resume.

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
    expected = {
        "schema_version": _CHECKPOINT_SCHEMA,
        "m": m,
        "n": n,
        "samples": samples,
        "seed": seed,
        "block_size": block_size,
    }
    for key, want in expected.items():
        got = payload.get(key)
        if type(got) is not int or got != want:
            raise fail(f"has {key}={got!r}, expected {want!r}")
    for key in ("blocks_done", "tie_events_max", "tie_events_min"):
        if not is_count(payload.get(key)):
            raise fail(f"has {key}={payload.get(key)!r}; it must be a non-negative integer")
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
    recorded = [done for done in dones if done % _RECORD_EVERY == 0 or done == samples]
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
    _max_blocks: int | None = None,
) -> CensusReport:
    """Randomized census of argmax/argmin classes over uniform spectra.

    Draws ``samples`` spectra uniformly from the simplex (each block of
    ``block_size`` from its own deterministic child of ``seed``), evaluates
    every class, and tallies which classes attain the extremes.  The result
    is independent of ``workers``, of which at most as many as the process
    has CPUs in its affinity mask run as threads at once.  With
    ``resume=True`` and an existing checkpoint written by the same
    parameters, continues where it left off;
    a checkpoint for different parameters raises CheckpointMismatchError.
    ``_max_blocks`` stops early after that many new blocks (for testing).
    """
    for name, value in (
        ("samples", samples),
        ("workers", workers),
        ("block_size", block_size),
    ):
        if value < 1:
            raise ValueError(f"census needs {name} >= 1")
    dec = _decomposition(m, n)
    n_classes = dec.term_counts.shape[1]
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
    if resume and checkpoint_path and os.path.exists(checkpoint_path):
        state = _load_checkpoint(
            checkpoint_path, m, n, samples, seed, block_size, n_classes
        )

    def run_block(b: int) -> tuple[np.ndarray, np.ndarray, int, int]:
        size = min(block_size, samples - b * block_size)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        )
        spectra = sample_spectra(mn, size, rng)
        hterms = _marginal_entropy_terms(spectra, dec.symbols_by_term)
        return _block_extrema(hterms, dec)

    todo = list(range(state.blocks_done, n_blocks))
    if _max_blocks is not None:
        todo = todo[:_max_blocks]

    def accumulate(b: int, result: tuple[np.ndarray, np.ndarray, int, int]) -> None:
        max_hits, min_hits, ties_max, ties_min = result
        state.max_hits += max_hits
        state.min_hits += min_hits
        state.tie_events_max += ties_max
        state.tie_events_min += ties_min
        state.blocks_done = b + 1
        done = min(state.blocks_done * block_size, samples)
        if done % _RECORD_EVERY == 0 or done == samples:
            point = ConvergencePoint(
                samples=done,
                n_max_classes=int((state.max_hits > 0).sum()),
                n_min_classes=int((state.min_hits > 0).sum()),
            )
            state.convergence.append(point)
        if checkpoint_path and done % _RECORD_EVERY == 0:
            _write_checkpoint(
                checkpoint_path,
                _checkpoint_payload(state, m, n, samples, seed, block_size),
            )

    if todo:
        threads = min(workers, _usable_cpus())
        if threads == 1:
            for b in todo:
                accumulate(b, run_block(b))
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for b, result in zip(todo, pool.map(run_block, todo)):
                    accumulate(b, result)
        if checkpoint_path:
            _write_checkpoint(
                checkpoint_path,
                _checkpoint_payload(state, m, n, samples, seed, block_size),
            )

    return CensusReport(
        m=m,
        n=n,
        samples=samples,
        samples_done=min(state.blocks_done * block_size, samples),
        seed=seed,
        block_size=block_size,
        workers=workers,
        max_hits=tuple(int(h) for h in state.max_hits),
        min_hits=tuple(int(h) for h in state.min_hits),
        tie_events_max=state.tie_events_max,
        tie_events_min=state.tie_events_min,
        convergence=tuple(state.convergence),
    )


def verify_theorem_chain() -> list[RelationVerdict]:
    """Render every certificate behind the 2x3 extremal classification.

    Returns one ProvenForward verdict per certified step of the cached
    :func:`~specmi.classes.honeycomb`: the four titration-certified
    transpositions walking the maximal-side candidates up to class 48, then
    the fifteen cross-hexagon majorisations that eliminate the remaining
    candidates.  The honeycomb derives each certificate and raises
    RuntimeError if one is not derivable.
    """
    hc = honeycomb()
    majorisations = {(e.src, e.dst): e for e in hc.edges_of_kind("majorisation")}
    out: list[RelationVerdict] = []
    for (src, pos_a, pos_b, dst), edge in zip(maxima_chain_steps(), hc.edges_of_kind("entropic")):
        header = (
            f"chain step: class {src} -> class {dst} "
            f"(swap positions {pos_a} and {pos_b})"
        )
        out.append(RelationVerdict(RelationKind.PROVEN_FORWARD, (header,) + edge.certificate))
    for src, dst in cross_pairs():
        header = f"cross edge: class {src} majorises class {dst}"
        edge = majorisations[(src, dst)]
        out.append(RelationVerdict(RelationKind.PROVEN_FORWARD, (header,) + edge.certificate))
    return out
