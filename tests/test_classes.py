"""Arrangement classes: canonical forms, the 2x3 table, the relation graph and the honeycomb."""
import csv
import functools
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmi import (
    ProbMatrix,
    Spectrum,
    arrange,
    canonical_form,
    RelationKind,
    RelationVerdict,
    census,
    class_table,
    cmi,
    derive_relation,
    enumerate_classes,
    honeycomb,
    honeycomb_dot,
    involution_xi,
    majorisation_certificate,
    r23_table,
    sample_spectrum,
    standard_form_sets,
    symbolic_transposition_context,
    titrate_check,
    varpi,
    xi_pairs,
)
from specmi import classes, extrema, orders
from specmi.classes import (
    _classes_of,
    cycle_label_of_word,
    grid_display,
    grid_word,
    maxima_chain_steps,
    word_to_grid,
)

DATA = Path(__file__).parent / "data"


# ------------------------------------------------------------ words and grids

def test_word_grid_roundtrip():
    for word, m, n in (("abcdef", 2, 3), ("adefcb", 2, 3), ("abcd", 2, 2)):
        assert grid_word(word_to_grid(word, m, n)) == word


@pytest.mark.parametrize("word", ["abcdeg", "aaaaaa", "abcdez"])
def test_word_to_grid_rejects_a_word_that_is_not_an_arrangement(word):
    # a symbol outside the grid, a repeated symbol, a letter outside the alphabet
    with pytest.raises(ValueError, match=f"word '{word}' is not an arrangement of the first 6"):
        word_to_grid(word, 2, 3)


def test_cycle_labels_pinned():
    assert cycle_label_of_word("abcdef") == "()"
    assert cycle_label_of_word("adefcb") == "(264)(35)"
    assert cycle_label_of_word("adfecb") == "(26354)"
    assert cycle_label_of_word("aefdcb") == "(2635)"


def test_cycle_label_uses_commas_beyond_nine_cells():
    label = cycle_label_of_word("abcdefghijlk")
    assert label == "(11,12)"


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_table_cycle_labels_are_each_words_label(m, n):
    # one batch over the word array against the per-word loop
    table = classes.ClassTable(m, n, class_table(m, n).letters)  # a fresh table
    labels = table._cycle_labels
    assert "classes" not in vars(table)  # no MatrixClass was built
    assert labels == tuple(cycle_label_of_word(cls.word) for cls in table.classes)
    assert labels[0] == "()" and labels.count("()") == 1


# ----------------------------------------------------------------- the table

def _golden_2x3_entries():
    """(index, word, cycle label) of the 60 classes, from the extrema CSV golden."""
    with open(DATA / "extrema_2x3.csv", newline="") as fh:
        return [(int(r["class"]), r["word"], r["cycle_label"]) for r in csv.DictReader(fh)]


def test_embedded_table_matches_enumeration():
    # index and word; the labels are checked below
    entries = _golden_2x3_entries()
    assert [(c.index, c.word) for c in enumerate_classes(2, 3).classes] == [e[:2] for e in entries]


def test_embedded_labels_match_the_derived_cycle_labels():
    """The golden labels tell a label bug apart from a transcription bug."""
    table = r23_table()
    for index, word, label in _golden_2x3_entries():
        assert table.get(index).word == word
        assert table.get(index).cycle_label == label == cycle_label_of_word(word)


#: SHA-256 of the newline-joined class words, recorded from the enumerator
#: that canonicalised all (mn-1)! grids.
TABLE_DIGESTS = {
    (2, 2): (3, "8ad04d5aa18910ffac718a1c6284e721b12aa258638b41a1db4aad627d3a4bb9"),
    (2, 3): (60, "d2f30e6723e7b40206884f30f7d380722f8a6424a81d2c1f9850d3cd2b708d60"),
    (2, 4): (840, "baecd9dda107eaef16ce2610d29d385194f27fb0e72ac676f86f54af1f4d09d9"),
    (3, 3): (5040, "5884cc563dd1cd4c37da7925b099c0bc41dccc549a3162b29966af989c7fc273"),
    (2, 5): (15120, "24db663ec2451c93ad7372c7998ac2bfc4f2783a99fa4cc77dca1e79b72e68f8"),
}


@pytest.mark.parametrize("shape", sorted(TABLE_DIGESTS), ids=lambda s: f"{s[0]}x{s[1]}")
def test_generated_tables_are_pinned(shape):
    table = enumerate_classes(*shape)
    words = [c.word for c in table.classes]
    count, digest = TABLE_DIGESTS[shape]
    assert len(words) == count
    assert hashlib.sha256("\n".join(words).encode()).hexdigest() == digest
    assert [c.index for c in table.classes] == list(range(1, count + 1))


def test_generating_the_2x5_table_stays_small_in_memory():
    """Generation never holds the 362,880 grids of a 2x5 shape (over 100 MB)."""
    tracemalloc.start()
    try:
        enumerate_classes(2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_table_get_and_bounds():
    table = r23_table()
    assert table.get(48).word == "adefcb"
    assert table.get(48).cycle_label == "(264)(35)"
    assert table.get(1).word == "abcdef"
    with pytest.raises(ValueError, match="index"):
        table.get(0)
    with pytest.raises(ValueError, match="index"):
        table.get(61)


@pytest.mark.parametrize(
    "m,n,count",
    [(2, 2, 3), (2, 3, 60), (2, 4, 840), (2, 5, 15120), (3, 3, 5040)],
)
def test_class_counts(m, n, count):
    assert len(class_table(m, n).classes) == count


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_cached_grid_display_and_fill_match_the_word(m, n):
    """Each class's cached grid, display and row fill agree with its word, bit for bit."""
    spectra = [sample_spectrum(m * n, np.random.default_rng(seed)) for seed in range(20)]
    members = class_table(m, n).classes
    grids = []
    for cls in members:
        grid = word_to_grid(cls.word, m, n)
        assert cls.canonical == grid
        assert cls.display == grid_display(grid)
        grids.append(grid)
    grids = np.array(grids)
    for s in spectra:
        fills = np.array(s.values)[grids]
        entries = np.array([cls.instantiate(s).entries for cls in members])
        # compared as bits, every entry of every class at once
        wrong = (entries.view(np.int64) != fills.view(np.int64)).any(axis=(1, 2))
        assert not wrong.any(), f"misfilled classes {(np.flatnonzero(wrong) + 1).tolist()[:10]}"


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_display_is_read_from_the_word_without_building_the_grid(m, n):
    members = enumerate_classes(m, n).classes
    displays = [cls.display for cls in members]
    assert not any("canonical" in vars(cls) for cls in members)
    assert displays == [grid_display(cls.canonical) for cls in members]


def test_a_fresh_table_answers_size_grids_and_terms_without_building_classes(monkeypatch):
    table = enumerate_classes(2, 5)
    assert len(table) == 15120
    assert table._grids.shape == (15120, 2, 5)
    monkeypatch.setattr(extrema, "class_table", lambda m, n: table)
    terms = extrema._decomposition.__wrapped__(2, 5).terms_by_class
    assert np.array_equal(terms, extrema._decomposition(2, 5).terms_by_class)
    assert "classes" not in table.__dict__
    assert table.get(7) is table.classes[6]
    assert table.classes[6].word == table.letters[60:70]
    assert table.index_of(table.classes[6].word) == 7
    assert _classes_of([table.classes[6].canonical], table)[0] is table.classes[6]


def test_one_cell_rows_fill_as_tuples():
    matrix = classes.MatrixClass(index=1, m=2, n=1, word="ba").instantiate(Spectrum((0.6, 0.4)))
    assert matrix.entries == ((0.4,), (0.6,))


@pytest.mark.parametrize("m, n", [(3, 4), (2, 6)])
def test_twelve_cell_shapes_are_rejected_before_enumerating(monkeypatch, m, n):
    def no_work(*args, **kwargs):
        raise AssertionError("a 12-cell class table was enumerated")

    monkeypatch.setattr(classes, "enumerate_classes", no_work)
    grid = tuple(tuple(range(i * n, (i + 1) * n)) for i in range(m))
    for call in (lambda: class_table(m, n), lambda: canonical_form(grid), lambda: census(m, n, 10, 1)):
        with pytest.raises(ValueError, match="the cap is 10"):
            call()


def test_class_table_rejects_oversized_shapes():
    with pytest.raises(ValueError, match="cells"):
        class_table(3, 5)
    with pytest.raises(ValueError, match="2 <= m"):
        class_table(1, 4)
    with pytest.raises(ValueError, match="m <= n"):
        class_table(3, 2)


# ------------------------------------------------------------- canonical form

def test_canonical_form_idempotent():
    table = r23_table()
    for cls in table.classes:
        again = canonical_form(word_to_grid(cls.word, 2, 3))
        assert again.index == cls.index


def test_canonical_form_reads_a_numpy_grid_and_rejects_a_ragged_one():
    grid = word_to_grid("adefcb", 2, 3)
    assert canonical_form(np.array(grid)) == canonical_form(grid)
    with pytest.raises(ValueError, match="arrangement must be rectangular and non-empty"):
        canonical_form([[0, 1, 2], [3, 4]])


def test_index_of_a_word_outside_the_table_raises():
    table = class_table(2, 3)
    assert table.index_of(table.get(48).word) == 48
    with pytest.raises(ValueError, match="'bacdef' is not a canonical word of this table"):
        table.index_of("bacdef")


def test_canonical_form_constant_on_orbits_2x3():
    """Relabelling rows/columns never changes the class."""
    rng = np.random.default_rng(41)
    table = r23_table()
    for _ in range(300):
        cls = table.classes[int(rng.integers(60))]
        g = np.array(word_to_grid(cls.word, 2, 3))
        g = g[rng.permutation(2)][:, rng.permutation(3)]
        assert canonical_form(tuple(map(tuple, g))).index == cls.index


def test_canonical_form_constant_on_orbits_exhaustive_2x2():
    for perm in itertools.permutations(range(4)):
        g = (perm[:2], perm[2:])
        cls = canonical_form(g)
        variants = [g, (g[1], g[0])]
        variants += [tuple(row[::-1] for row in v) for v in list(variants)]
        variants += [tuple(zip(*v)) for v in list(variants)]
        for v in variants:
            assert canonical_form(v).index == cls.index


def test_canonical_form_includes_transpose_for_square_shapes():
    rng = np.random.default_rng(4)
    for _ in range(50):
        perm = rng.permutation(9)
        g = tuple(tuple(int(x) for x in perm[k : k + 3]) for k in (0, 3, 6))
        gt = tuple(zip(*g))
        assert canonical_form(g).index == canonical_form(gt).index


def _smallest_word(grid):
    """Reference canonical word: the smallest word over every row order, column
    order and, for square shapes, the transpose."""
    m, n = len(grid), len(grid[0])
    variants = [grid, tuple(zip(*grid))] if m == n else [grid]
    return min(
        grid_word(tuple(tuple(g[r][c] for c in cols) for r in rows))
        for g in variants
        for rows in itertools.permutations(range(m))
        for cols in itertools.permutations(range(n))
    )


def test_canonical_form_matches_the_smallest_word():
    grids = [(perm[:2], perm[2:]) for perm in itertools.permutations(range(4))]
    rng = np.random.default_rng(29)
    for m, n in ((2, 3), (3, 3), (2, 4), (2, 5)):
        grids += _random_grids(rng, m, n, 150)
    for grid in grids:
        assert canonical_form(grid).word == _smallest_word(grid), grid


def _random_grids(rng, m, n, count):
    perms = [[int(s) for s in rng.permutation(m * n)] for _ in range(count)]
    return [tuple(tuple(p[r * n : (r + 1) * n]) for r in range(m)) for p in perms]


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (2, 5)])
def test_batch_canonicaliser_matches_the_smallest_word(m, n):
    """The batch path that titrated swaps use, on 1500 random grids."""
    grids = _random_grids(np.random.default_rng(1000 * m + n), m, n, 1500)
    found = _classes_of(grids, class_table(m, n))
    assert [c.word for c in found] == [_smallest_word(g) for g in grids]


def test_canonical_form_accepts_numeric_matrices():
    s = Spectrum((0.3, 0.25, 0.2, 0.15, 0.07, 0.03))
    for cls in (r23_table().get(k) for k in (1, 42, 48, 60)):
        P = cls.instantiate(s)
        assert canonical_form(P).index == cls.index


def test_canonical_form_rejects_tied_numeric_entries():
    P = ProbMatrix(((0.25, 0.25, 0.2), (0.15, 0.1, 0.05)))
    with pytest.raises(ValueError, match="tied"):
        canonical_form(P)


@pytest.mark.parametrize("first", [math.nan, math.inf, -math.inf])
def test_canonical_form_rejects_non_finite_entries(first):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_form([[first, first, 0.1], [0.2, 0.15, 0.05]])
    with pytest.raises(ValueError, match="non-finite"):
        canonical_form([[0.5, first, 0.1], [0.2, 0.15, 0.05]])


def test_canonical_form_rejects_bad_integer_grids():
    with pytest.raises(ValueError, match="0.."):
        canonical_form(((0, 1, 2), (3, 4, 6)))


# ------------------------------------------------------------------ varpi, xi

def test_varpi_is_an_involution_on_class_indices():
    table = r23_table()
    for cls in table.classes:
        image = varpi(word_to_grid(cls.word, 2, 3))
        back = varpi(image)
        assert canonical_form(back).index == cls.index


def test_varpi_pinned_images():
    table = r23_table()
    sets = standard_form_sets()
    images = sorted(
        canonical_form(varpi(word_to_grid(table.get(k).word, 2, 3))).index
        for k in sets.minzoneup
    )
    assert tuple(images) == sets.maxima_candidates


def test_varpi_accepts_prob_matrices():
    s = Spectrum((0.3, 0.25, 0.2, 0.15, 0.07, 0.03))
    P = r23_table().get(19).instantiate(s)
    Q = varpi(P)
    assert isinstance(Q, ProbMatrix)
    assert canonical_form(Q).index == 24


def test_varpi_requires_2x3():
    with pytest.raises(ValueError, match="2x3"):
        varpi(((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="varpi acts on 2x3 arrangements"):
        varpi(ProbMatrix(((0.4, 0.3), (0.2, 0.1))))


def test_xi_is_an_involution():
    table = r23_table()
    for cls in table.classes:
        image = involution_xi(cls)
        assert involution_xi(image).index == cls.index


def test_xi_pinned_values():
    table = r23_table()
    assert involution_xi(table.get(1)).index == 1
    assert involution_xi(table.get(2)).index == 3
    assert involution_xi(table.get(48)).index == 48
    assert involution_xi(table.get(60)).index == 24


def test_xi_fixed_point_and_pair_counts():
    fixed, pairs = xi_pairs()
    assert len(fixed) == 16
    assert len(pairs) == 22
    assert all(a < b for a, b in pairs)


def test_xi_matches_label_conjugation():
    """xi acts on position words as conjugation by the order-reversal."""
    table = r23_table()
    omega = {k: 7 - k for k in range(1, 7)}

    def conjugate(word: str) -> str:
        sigma = {k + 1: word.index(ch) + 1 for k, ch in enumerate("abcdef")}
        tau = {k: omega[sigma[omega[k]]] for k in range(1, 7)}
        out = [""] * 6
        for k in range(1, 7):
            out[tau[k] - 1] = "abcdef"[k - 1]
        return "".join(out)

    for cls in table.classes:
        image = involution_xi(cls)
        expected = canonical_form(word_to_grid(conjugate(cls.word), 2, 3))
        assert image.index == expected.index


# ------------------------------------------------------------ standard sets

def test_standard_form_sets_exact():
    sets = standard_form_sets()
    assert sets.heads == (1, 7, 13, 19, 25, 31, 37, 43, 49, 55)
    assert sets.minz == (1, 7, 13, 25, 31)
    assert sets.minzoneup == (19, 37, 43, 49, 55)
    assert sets.maxima_candidates == (24, 42, 48, 54, 60)


def test_minz_and_minzoneup_partition_the_heads():
    sets = standard_form_sets()
    assert sorted(sets.minz + sets.minzoneup) == list(sets.heads)


# -------------------------------------------------------------------- honeycomb

def test_honeycomb_hexagons_are_consecutive_blocks():
    hc = honeycomb()
    assert len(hc.hexagons) == 10
    for b, hexagon in enumerate(hc.hexagons):
        assert hexagon == tuple(range(6 * b + 1, 6 * b + 7))


def test_honeycomb_edge_counts_by_kind():
    hc = honeycomb()
    assert len(hc.edges_of_kind("majorisation")) == 95
    assert len(hc.edges_of_kind("entropic")) == 4
    assert len(hc.edges_of_kind("xi")) == 22
    within = [
        e
        for e in hc.edges_of_kind("majorisation")
        if (e.src - 1) // 6 == (e.dst - 1) // 6
    ]
    assert len(within) == 80


def test_honeycomb_no_edges_between_vertical_partners():
    hc = honeycomb()
    for e in hc.edges_of_kind("majorisation"):
        if (e.src - 1) // 6 != (e.dst - 1) // 6:
            continue
        a, b = sorted(((e.src - 1) % 6, (e.dst - 1) % 6))
        assert (a, b) not in {(1, 2), (3, 4)}


def test_honeycomb_top_class_is_a_sink():
    hc = honeycomb()
    for kind in ("majorisation", "entropic"):
        assert all(e.src != 48 for e in hc.edges_of_kind(kind))


def test_honeycomb_minima_candidates_are_never_targets():
    hc = honeycomb()
    minz = set(standard_form_sets().minz)
    for kind in ("majorisation", "entropic"):
        assert all(e.dst not in minz for e in hc.edges_of_kind(kind))


def test_honeycomb_entropic_edges_follow_the_chain():
    hc = honeycomb()
    chain = [(src, dst) for src, _, _, dst in maxima_chain_steps()]
    assert [(e.src, e.dst) for e in hc.edges_of_kind("entropic")] == chain


def test_xi_maps_hexagon_edges_onto_hexagon_edges():
    hc = honeycomb()
    xi_of = {}
    fixed, pairs = xi_pairs()
    for k in fixed:
        xi_of[k] = k
    for a, b in pairs:
        xi_of[a], xi_of[b] = b, a
    flea = {
        (e.src, e.dst)
        for e in hc.edges_of_kind("majorisation")
        if (e.src - 1) // 6 == (e.dst - 1) // 6
    }
    assert {(xi_of[a], xi_of[b]) for a, b in flea} == flea


def test_honeycomb_certificates_are_nonempty():
    hc = honeycomb()
    for kind in ("majorisation", "entropic"):
        for e in hc.edges_of_kind(kind):
            assert e.certificate


def test_honeycomb_majorisation_edges_are_numerically_sound():
    table = r23_table()
    hc = honeycomb()
    rng = np.random.default_rng(97)
    for _ in range(25):
        s = sample_spectrum(6, rng)
        values = {c.index: cmi(c.instantiate(s)) for c in table.classes}
        for e in hc.edges_of_kind("majorisation"):
            assert values[e.src] <= values[e.dst] + 1e-12
        for e in hc.edges_of_kind("entropic"):
            assert values[e.src] <= values[e.dst] + 1e-12


# ------------------------------------------------------------------ DOT output

def test_honeycomb_dot_is_deterministic():
    assert honeycomb_dot() == honeycomb_dot()


def _count_text_provers(monkeypatch):
    """Count the calls the classes module makes to the two text provers."""
    calls = {"majorisation_certificate": 0, "titrate_check": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(classes, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(classes, name, counted)
    return calls


def test_cold_honeycomb_derives_only_its_own_edges(monkeypatch, fresh_relation_caches):
    classes.honeycomb.cache_clear()
    calls = _count_text_provers(monkeypatch)
    hc = honeycomb()
    assert honeycomb_dot().encode() == (DATA / "honeycomb.dot").read_bytes()
    assert classes.honeycomb.__wrapped__() == hc
    assert calls == {"majorisation_certificate": 0, "titrate_check": 0}
    assert classes._relation_row.cache_info().currsize == 0
    certificates = [e.certificate for e in hc.edges]
    assert calls == {"majorisation_certificate": 95, "titrate_check": 4}
    assert [e.certificate for e in hc.edges] == certificates
    assert calls == {"majorisation_certificate": 95, "titrate_check": 4}


def test_cold_honeycomb_decides_each_rule_in_one_batch(monkeypatch):
    batches = []
    for name, size in (("_decide_line_majorisation", lambda lines_a, lines_b: len(lines_b[0])),
                       ("_decide_swaps", lambda rows, cols, grid, cells, symbols: len(grid))):
        def counted(*args, name=name, size=size, original=getattr(classes, name)):
            batches.append((name, size(*args)))
            return original(*args)

        monkeypatch.setattr(classes, name, counted)
    classes.honeycomb.__wrapped__()
    assert batches == [("_decide_line_majorisation", 95), ("_decide_swaps", 4)]


def test_honeycomb_certificates_are_what_the_text_provers_return():
    table = r23_table()
    hc = honeycomb()
    majorisations = hc.edges_of_kind("majorisation")
    assert len(majorisations) == 95
    for e in majorisations:
        expected = majorisation_certificate(table.get(e.src).canonical, table.get(e.dst).canonical)
        assert e.certificate == expected
    steps = maxima_chain_steps()
    assert len(hc.edges_of_kind("entropic")) == len(steps) == 4
    for e, (src, pos_a, pos_b, dst) in zip(hc.edges_of_kind("entropic"), steps):
        verdict = titrate_check(symbolic_transposition_context(table.get(src).canonical, pos_a, pos_b))
        assert (e.src, e.dst) == (src, dst) and verdict.kind is RelationKind.PROVEN_FORWARD
        assert e.certificate == verdict.certificate
    pairs = xi_pairs()[1]
    assert [(e.src, e.dst, e.certificate) for e in hc.edges_of_kind("xi")] == [
        (lo, hi, (f"mirror involution pairs class {lo} with class {hi}",)) for lo, hi in pairs
    ]
    assert len(pairs) == 22


def test_honeycomb_pair_the_batch_rejects_raises_when_built(monkeypatch):
    monkeypatch.setattr(classes, "_CROSS_PAIRS", classes._CROSS_PAIRS + ((48, 13),))
    with pytest.raises(RuntimeError, match="majorisation certificate for 48 -> 13"):
        classes.honeycomb.__wrapped__()


def test_reading_a_honeycomb_certificate_the_text_prover_rejects_raises(monkeypatch):
    hc = classes.honeycomb.__wrapped__()
    edge = hc.edges_of_kind("majorisation")[0]
    with monkeypatch.context() as patch:
        patch.setattr(classes, "majorisation_certificate", lambda *args: None)
        with pytest.raises(RuntimeError, match=f"majorisation certificate for {edge.src} -> {edge.dst}"):
            edge.certificate
    assert edge.certificate[0].startswith("rule majorisation: ")
    step = hc.edges_of_kind("entropic")[0]
    inconclusive = RelationVerdict(RelationKind.INCONCLUSIVE, ("no derivation",))
    with monkeypatch.context() as patch:
        patch.setattr(classes, "titrate_check", lambda ctx: inconclusive)
        with pytest.raises(RuntimeError, match=f"ProvenForward titration for {step.src} -> {step.dst}"):
            step.certificate
    assert step.certificate


# -------------------------------------------------------------- relation graph

def _text_relation_graph(m, n):
    """The relation graph derived by the text provers alone, attempt by attempt.

    Every ordered class pair goes through ``majorisation_certificate``, then
    every cell swap of every class through ``titrate_check``; an edge keeps
    the text of its first proof.
    """
    table = class_table(m, n)
    grids = {c.index: c.canonical for c in table.classes}
    edges = {i: {} for i in grids}
    for i, gi in grids.items():
        for j, gj in grids.items():
            cert = None if i == j else majorisation_certificate(gi, gj)
            if cert is not None:
                edges[i][j] = cert
    for i, gi in grids.items():
        for a, b in itertools.combinations(range(m * n), 2):
            pa, pb = divmod(a, n), divmod(b, n)
            verdict = titrate_check(symbolic_transposition_context(gi, pa, pb))
            if verdict.is_inconclusive:
                continue
            rows = [list(row) for row in gi]
            rows[pa[0]][pa[1]], rows[pb[0]][pb[1]] = rows[pb[0]][pb[1]], rows[pa[0]][pa[1]]
            j = canonical_form(rows).index
            if j == i:
                continue
            word = grid_word(gi)
            lines = (
                f"rule transposition: swap {word[a]},{word[b]} in {grid_display(gi)} gives "
                f"{grid_display(rows)} (class {j})",
            ) + verdict.certificate
            edges[i if verdict.is_forward else j].setdefault(j if verdict.is_forward else i, lines)
    return edges


def _relation_graph(m, n):
    """The whole m x n relation, read row by row."""
    return {i: classes._relation_row(m, n, i) for i in range(1, len(class_table(m, n)) + 1)}


@pytest.fixture
def fresh_relation_caches(monkeypatch):
    """New, empty memos of the relation rows, search trees and edge texts for one test."""
    for name in ("_relation_row", "_search_tree", "_edge_lines"):
        fresh = functools.lru_cache(maxsize=None)(getattr(classes, name).__wrapped__)
        monkeypatch.setattr(classes, name, fresh)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3)])
def test_relation_graph_renders_what_the_text_provers_derive(m, n):
    graph = _relation_graph(m, n)
    rendered = {i: [(j, classes._edge_lines(m, n, i, j)) for j in out] for i, out in graph.items()}
    expected = {i: list(out.items()) for i, out in _text_relation_graph(m, n).items()}
    assert sum(map(len, expected.values())) == {(2, 2): 3, (2, 3): 498}[m, n]
    assert rendered == expected


def test_cold_relation_renders_only_the_edges_of_its_chain(monkeypatch, fresh_relation_caches):
    calls = _count_text_provers(monkeypatch)

    def no_sums(self):
        raise AssertionError("a SymbolicSum was built while deciding edges")

    with monkeypatch.context() as patch:
        patch.setattr(orders.SymbolicSum, "__post_init__", no_sums)
        _relation_graph(2, 3)
    assert calls == {"majorisation_certificate": 0, "titrate_check": 0}
    verdict = derive_relation(42, 48)
    hops = sum(line.startswith("step ") for line in verdict.certificate)
    assert verdict.kind is RelationKind.PROVEN_FORWARD and hops >= 1
    assert sum(calls.values()) <= hops


def test_search_trees_are_built_once_per_source(fresh_relation_caches):
    pairs = list(itertools.permutations(range(1, 61), 2))
    texts = [derive_relation(a, b).render() for a, b in pairs]
    built = classes._search_tree.cache_info()
    assert built.misses == built.currsize <= 60
    assert [derive_relation(a, b).render() for a, b in pairs] == texts
    assert classes._search_tree.cache_info().misses == built.misses
    assert all(len(classes._search_tree(2, 3, a)) <= 60 for a in range(1, 61))


@pytest.mark.parametrize("a, b, trees", [(42, 48, 1), (48, 42, 2), (44, 45, 2)])
def test_cold_relation_builds_only_the_trees_it_reads(fresh_relation_caches, a, b, trees):
    derive_relation(a, b)
    assert classes._search_tree.cache_info().currsize == trees


def test_cold_queries_decide_only_the_rows_they_search(fresh_relation_caches):
    def decided(query):
        classes._relation_row.cache_clear()
        classes._search_tree.cache_clear()
        query()
        return classes._relation_row.cache_info().currsize

    classes.honeycomb.cache_clear()
    assert decided(honeycomb) == 0
    pairs = [(42, 48), (48, 42), (37, 52), (44, 45)]
    assert [decided(lambda: derive_relation(a, b)) for a, b in pairs] == [2, 2, 29, 28]


def test_rendering_an_edge_the_text_prover_rejects_raises(monkeypatch, fresh_relation_caches):
    graph = _relation_graph(2, 3)
    i, j = next((i, j) for i, out in graph.items() for j, proof in out.items() if proof is None)
    monkeypatch.setattr(classes, "majorisation_certificate", lambda *args: None)
    with pytest.raises(RuntimeError, match=f"majorisation certificate for {i} -> {j}"):
        classes._edge_lines(2, 3, i, j)
    assert graph[42][48] is not None
    inconclusive = RelationVerdict(RelationKind.INCONCLUSIVE, ("no derivation",))
    monkeypatch.setattr(classes, "titrate_check", lambda ctx: inconclusive)
    with pytest.raises(RuntimeError, match="ProvenForward titration for 42 -> 48"):
        classes._edge_lines(2, 3, 42, 48)


def test_honeycomb_dot_structure():
    text = honeycomb_dot()
    assert text.startswith("// honeycomb of 2x3 arrangement classes")
    assert "digraph honeycomb {" in text
    assert text.count("subgraph cluster_hex_") == 10
    assert 'n48 [label="ade|fcb"]' in text
    assert "kind=entropic" in text
    assert "kind=xi" in text
    assert text.endswith("}\n")


# ------------------------------------------------------------- random classes

@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_canonical_form_of_random_numeric_matrix_matches_word_ranking(seed):
    rng = np.random.default_rng(seed)
    s = sample_spectrum(6, rng)
    perm = tuple(int(k) for k in rng.permutation(6))
    P = arrange(s, perm, 2, 3)
    cls = canonical_form(P)
    ranks = np.argsort(np.argsort(-np.array(P.entries).ravel())).reshape(2, 3)
    expected = canonical_form(tuple(tuple(int(x) for x in row) for row in ranks))
    assert cls.index == expected.index
