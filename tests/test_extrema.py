"""Brute-force extremes, the randomized census, and the ordering theorem."""
import json
import os
import threading
import time
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
from specmi import extrema

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


def test_brute_force_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="needs"):
        brute_force_extrema(Spectrum((0.6, 0.4)), 2, 3)


def test_brute_force_uniform_spectrum_ties_every_class():
    s = Spectrum((1.0 / 6.0,) * 6)
    report = brute_force_extrema(s, 2, 3)
    assert report.maxima == tuple(range(1, 61))
    assert report.minima == tuple(range(1, 61))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [(0.5, 0.5, 0, 0, 0, 0), (0.4, 0.3, 0.3, 0, 0, 0)])
def test_brute_force_spectra_with_zero_entries_match_scalar_cmi(values):
    s = Spectrum(values)
    report = brute_force_extrema(s, 2, 3)
    scalar = [cmi(cls.instantiate(s)) for cls in r23_table().classes]
    assert report.values == pytest.approx(scalar, abs=1e-12)
    assert report.max_value == pytest.approx(max(scalar), abs=1e-12)


def test_brute_force_other_shape():
    rng = np.random.default_rng(11)
    s = sample_spectrum(8, rng)
    report = brute_force_extrema(s, 2, 4)
    assert len(report.values) == 840
    k = int(np.argmax(report.values))
    assert report.maxima[0] == k + 1 or (k + 1) in report.maxima


# ------------------------------------------------------------ the block kernel

def test_block_extrema_tiles_agree_with_one_pass_and_brute_force(monkeypatch):
    dec = extrema._decomposition(2, 3)
    spectra = sample_spectra(6, 40, np.random.default_rng(8))
    spectra[[0, 17, 39]] = 1.0 / 6.0  # the uniform spectrum: every class ties
    hterms = extrema._marginal_entropy_terms(spectra, dec.symbols_by_term)

    def block_tally(rows_per_tile):
        monkeypatch.setattr(extrema, "_ELEMENT_BUDGET", 60 * rows_per_tile)
        max_hits, min_hits, ties_max, ties_min = extrema._block_extrema(hterms, dec)
        return max_hits.tolist(), min_hits.tolist(), ties_max, ties_min

    one_pass = block_tally(len(spectra))
    assert block_tally(7) == one_pass  # five full tiles and one of five rows

    max_hits, min_hits = [0] * 60, [0] * 60
    ties_max = ties_min = 0
    for row in spectra:
        report = brute_force_extrema(Spectrum(tuple(row)), 2, 3)
        for k in report.maxima:
            max_hits[k - 1] += 1
        for k in report.minima:
            min_hits[k - 1] += 1
        ties_max += len(report.maxima) >= 2
        ties_min += len(report.minima) >= 2
    assert one_pass == (max_hits, min_hits, ties_max, ties_min)
    assert ties_max == ties_min == 3


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


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_decomposition_matches_the_loop_reference(m, n):
    dec = extrema._decomposition(m, n)
    A, G = _loop_decomposition(m, n)
    assert np.array_equal(dec.symbols_by_term, A)
    assert np.array_equal(dec.term_counts, G)
    # every class sits in one group, and its row part plus its column part
    # are its terms
    groups, slots = np.nonzero(dec.group_classes >= 0)
    classes = dec.group_classes[groups, slots]
    assert sorted(classes) == list(range(G.shape[1]))
    U = dec.parts_by_term
    assert np.array_equal(U[:, groups] + U[:, dec.group_parts[groups, slots]], G[:, classes])
    sizes = (dec.group_classes >= 0).sum(axis=1)
    assert list(dec.live_groups) == [int((sizes > j).sum()) for j in range(sizes[0])]


def _tallies(hterms, dec):
    return tuple(np.asarray(x).tolist() for x in extrema._block_extrema(hterms, dec))


def _dense_reference(monkeypatch, hterms, dec):
    with monkeypatch.context() as patch:
        patch.setattr(extrema, "_GROUPED_MIN_CLASSES", dec.term_counts.shape[1] + 1)
        return _tallies(hterms, dec)


def _recording_dense_tally(monkeypatch):
    tiles = []
    dense_tally = extrema._dense_tally

    def recording(hterms, G):
        tiles.append(hterms.copy())
        return dense_tally(hterms, G)

    monkeypatch.setattr(extrema, "_dense_tally", recording)
    return tiles


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m,n,rows", [(2, 4, 2500), (3, 3, 1700), (2, 5, 600)])
def test_grouped_block_tallies_equal_the_dense_reference(monkeypatch, m, n, rows, seed):
    dec = extrema._decomposition(m, n)
    spectra = sample_spectra(m * n, rows, np.random.default_rng(seed))
    hterms = extrema._marginal_entropy_terms(spectra, dec.symbols_by_term)
    reference = _dense_reference(monkeypatch, hterms, dec)
    tiles = _recording_dense_tally(monkeypatch)
    assert _tallies(hterms, dec) == reference
    assert tiles == []  # random rows resolve in the grouped kernel


def _max_gap(spectrum, dec):
    """Dense gap between the largest class total and the next one below it."""
    hterms = extrema._marginal_entropy_terms(spectrum[None, :], dec.symbols_by_term)
    top = np.sort((hterms @ dec.term_counts)[0])
    return top[-1], top[-2]


def _near_tie_rows(mn, dec):
    """Spectra with two equal entries, then nudged to either side of EPSILON.

    Returns the row with the exact tie, then, after bisection, the last
    nudge whose runner-up the dense mask still credits and the first one it
    does not.
    """
    base = sample_spectra(mn, 1, np.random.default_rng(4))[0]

    def tied(s):
        top, second = _max_gap(s, dec)
        return second >= top - EPSILON

    rows = []
    for i in range(mn - 1):
        s = base.copy()
        s[i] = s[i + 1] = (s[i] + s[i + 1]) / 2
        if np.subtract(*_max_gap(s, dec)) != 0.0:
            continue  # swapping these two entries maps the argmax class to itself
        nudge = np.zeros(mn)
        nudge[i], nudge[i + 1] = 1.0, -1.0
        lo, hi = 0.0, 1e-9
        assert not tied(s + hi * nudge)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if tied(s + mid * nudge) else (lo, mid)
        assert abs(np.subtract(*_max_gap(s + hi * nudge, dec)) - EPSILON) < 1e-14
        rows += [s, s + lo * nudge, s + hi * nudge]
    assert rows
    return rows


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (2, 5)])
def test_grouped_kernel_finds_each_class_alone_at_an_extreme(m, n):
    # the terms of class c alone, as entropy terms, make c the one class with
    # the largest total (m + n) and, negated, the one with the smallest
    dec = extrema._decomposition(m, n)
    n_classes = dec.term_counts.shape[1]
    for c0 in range(0, n_classes, 2520):
        classes = np.arange(c0, min(c0 + 2520, n_classes))
        for sign, side in ((1.0, 0), (-1.0, 1)):
            sole, cls = extrema._sole_extrema(sign * dec.term_counts[:, classes].T, dec)[side]
            assert sole.all() and np.array_equal(cls, classes)


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (2, 5)])
def test_grouped_kernel_hands_ties_and_near_ties_to_the_dense_product(monkeypatch, m, n):
    mn = m * n
    dec = extrema._decomposition(m, n)
    constructed = np.array([np.full(mn, 1.0 / mn)] + _near_tie_rows(mn, dec))
    step = max(1, extrema._ELEMENT_BUDGET // dec.term_counts.shape[1])
    spectra = sample_spectra(mn, 3 * step, np.random.default_rng(5))
    spread = step // len(constructed)
    spectra[step : 2 * step : spread][: len(constructed)] = constructed  # the middle tile
    hterms = extrema._marginal_entropy_terms(spectra, dec.symbols_by_term)
    reference = _dense_reference(monkeypatch, hterms, dec)
    tiles = _recording_dense_tally(monkeypatch)
    assert _tallies(hterms, dec) == reference
    assert reference[2] >= 1 and reference[3] >= 1  # the uniform row ties both sides
    assert len(tiles) == 1 and np.array_equal(tiles[0], hterms[step : 2 * step])
    # every constructed row, not only the tile, is outside the grouped kernel
    (sole_max, _), _ = extrema._sole_extrema(hterms[step : 2 * step : spread], dec)
    assert not sole_max[: len(constructed)].any()


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


def test_census_worker_count_does_not_change_the_tallies():
    a = census(2, 3, 10_000, 42, workers=1, block_size=1000)
    b = census(2, 3, 10_000, 42, workers=4, block_size=1000)
    assert a.max_hits == b.max_hits
    assert a.min_hits == b.min_hits
    assert a.tie_events_max == b.tie_events_max
    assert a.tie_events_min == b.tie_events_min


def test_census_seed_changes_the_tallies():
    a = census(2, 3, 2000, 1, block_size=500)
    b = census(2, 3, 2000, 2, block_size=500)
    assert a.max_hits != b.max_hits or a.min_hits != b.min_hits


def test_census_checkpoint_resume_matches_direct_run(tmp_path):
    ck = str(tmp_path / "census.json")
    partial = census(
        2, 3, 20_000, 7, block_size=1000, checkpoint_path=ck, _max_blocks=8,
    )
    assert partial.samples_done == 8000
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


def test_census_checkpoint_mismatch_raises(tmp_path):
    ck = str(tmp_path / "census.json")
    census(2, 3, 2000, 7, block_size=500, checkpoint_path=ck)
    with pytest.raises(CheckpointMismatchError, match="seed"):
        census(2, 3, 2000, 8, block_size=500, checkpoint_path=ck, resume=True)


def test_census_resume_without_checkpoint_starts_fresh(tmp_path):
    ck = str(tmp_path / "missing.json")
    rep = census(2, 3, 2000, 7, block_size=500, checkpoint_path=ck, resume=True)
    assert rep.samples_done == 2000


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
    census(2, 3, 20_000, 7, checkpoint_path=str(ck), _max_blocks=8)
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


def test_census_validates_arguments():
    with pytest.raises(ValueError, match="samples"):
        census(2, 3, 0, 7)
    with pytest.raises(ValueError, match="workers"):
        census(2, 3, 100, 7, workers=0)
    with pytest.raises(ValueError, match="block_size"):
        census(2, 3, 100, 7, block_size=0)


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
