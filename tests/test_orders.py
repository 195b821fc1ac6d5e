"""Symbolic comparison, majorisation, the identric mean, and swap analysis."""
import hashlib
import math
import pickle
import re
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmi import (
    ProbMatrix,
    RelationKind,
    RelationVerdict,
    Spectrum,
    SymbolicSum,
    arrange,
    brute_force_extrema,
    cmi,
    cmi_diff_transposition,
    derive_relation,
    identric_mean,
    majorisation_certificate,
    matrix_majorises,
    r23_table,
    sample_spectra,
    sample_spectrum,
    symbolic_sum_compare,
    symbolic_transposition_context,
    titrate_check,
    transposition_context,
    vector_majorisation_certificate,
    vector_majorises,
)
from specmi import classes, orders
from specmi.classes import class_table, maxima_chain_steps, word_to_grid
from specmi.orders import (
    _SEARCH_DEPTH,
    SYMBOL_LETTERS,
    _decide_majorisation,
    _decide_titration,
    _leq,
    _prove_leq,
    _set_order,
)


# ---------------------------------------------------------------- SymbolicSum

def test_symbolic_sum_render_with_multiplicity():
    s = SymbolicSum.of(2, 2, 3, 1)
    assert s.render() == "b+2c+d"


def test_symbolic_sum_add_and_cancel():
    s = SymbolicSum.of(0, 1) + SymbolicSum.of(1)
    t = SymbolicSum.of(1, 2)
    s_res, t_res, common = s.cancel(t)
    assert common.render() == "b"
    assert s_res.render() == "a+b"
    assert t_res.render() == "c"


def test_symbolic_compare_worked_example():
    """2b+d+e+f against 2b+c+e+f: cancel the common part, then d < c."""
    s = SymbolicSum.of(1, 1, 3, 4, 5)
    t = SymbolicSum.of(1, 1, 2, 4, 5)
    verdict = symbolic_sum_compare(s, t)
    assert verdict.kind is RelationKind.PROVEN_FORWARD
    body = "\n".join(verdict.certificate)
    assert "cancel 2b+e+f" in body
    assert "match d<c" in body


def test_symbolic_compare_equal_multisets_is_forward():
    verdict = symbolic_sum_compare(SymbolicSum.of(0, 2), SymbolicSum.of(2, 0))
    assert verdict.kind is RelationKind.PROVEN_FORWARD
    assert "equal multisets" in "\n".join(verdict.certificate)


def test_symbolic_compare_reverse():
    verdict = symbolic_sum_compare(SymbolicSum.of(0), SymbolicSum.of(1))
    assert verdict.kind is RelationKind.PROVEN_REVERSE


def test_symbolic_compare_inconclusive():
    # a+d vs b+c: neither side dominates for every descending valuation.
    verdict = symbolic_sum_compare(SymbolicSum.of(0, 3), SymbolicSum.of(1, 2))
    assert verdict.kind is RelationKind.INCONCLUSIVE


@settings(max_examples=300)
@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_symbolic_compare_sound_for_random_valuations(left, right, seed):
    """A proof must hold for every strictly descending positive valuation."""
    s = SymbolicSum.of(*left)
    t = SymbolicSum.of(*right)
    verdict = symbolic_sum_compare(s, t)
    if verdict.kind is RelationKind.INCONCLUSIVE:
        return
    rng = np.random.default_rng(seed)
    for _ in range(25):
        vals = np.sort(rng.random(6))[::-1]
        lhs = sum(vals[i] for i in s.symbols)
        rhs = sum(vals[i] for i in t.symbols)
        if verdict.kind is RelationKind.PROVEN_FORWARD:
            assert lhs <= rhs + 1e-12
        else:
            assert rhs <= lhs + 1e-12


# ------------------------------------------- the <= rule against a reference

def _reference_render(counter):
    return "+".join(
        SYMBOL_LETTERS[sym] if count == 1 else f"{count}{SYMBOL_LETTERS[sym]}"
        for sym, count in sorted(counter.items())
    ) or "0"


def _reference_prove_leq(S, T):
    """Multiset cancellation and greedy dominance matching on Counters.

    The prover's original implementation, kept as an independent oracle for
    the count rule ``orders._leq`` and the reasons ``_prove_leq`` renders.
    """
    mine, theirs = Counter(S.symbols), Counter(T.symbols)
    common = mine & theirs
    left, right = sorted((mine - common).elements()), sorted((theirs - common).elements())
    parts = [f"cancel {_reference_render(common)}"] if common else []
    if not left:
        residue = f"positive residue {_reference_render(Counter(right))}"
        parts.append(residue if right else "equal multisets")
        return True, "; ".join(parts)
    pairs = []
    for s in left:
        # match each left symbol to the next unused, strictly larger right symbol
        if len(pairs) < len(right) and right[len(pairs)] < s:
            pairs.append((s, right[len(pairs)]))
        else:
            return False, ""
    matches = (f"{SYMBOL_LETTERS[s]}<{SYMBOL_LETTERS[t]}" for s, t in pairs)
    parts.append("match " + ", ".join(matches))
    leftover = Counter(right) - Counter(t for _, t in pairs)
    if leftover:
        parts.append(f"positive residue {_reference_render(leftover)}")
    return True, "; ".join(parts)


def _count_pairs(size, most=2):
    # by default each symbol at most twice, as in the titration sum comparison
    counts = st.lists(st.integers(min_value=0, max_value=most), min_size=size, max_size=size)
    return st.tuples(counts, counts)


def _check_against_the_reference(pair):
    low, high = (np.array(c) for c in pair)
    S, T = (SymbolicSum(tuple(np.repeat(np.arange(len(c)), c).tolist())) for c in (low, high))
    expected = _reference_prove_leq(S, T)
    assert bool(_leq(low, high)) == expected[0]
    assert _prove_leq(S, T) == expected


@settings(max_examples=600, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(_count_pairs))
def test_count_rule_matches_the_greedy_reference(pair):
    _check_against_the_reference(pair)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(lambda size: _count_pairs(size, 300)))
def test_count_rule_matches_the_greedy_reference_on_large_counts(pair):
    _check_against_the_reference(pair)


@pytest.mark.parametrize(
    "low, high",
    [
        ((128, 0, 0), (0, 1, 0)),  # 128a <= b is false
        ((0, 127, 10), (127, 0, 0)),  # 127b+10c <= 127a is false: 137 symbols against 127
        ((256, 0, 0), (0, 1, 0)),
        ((0, 130, 0), (0, 0, 129)),
        ((130, 0, 0), (200, 0, 0)),
    ],
)
def test_counts_of_128_copies_and_more_do_not_wrap(low, high):
    """Counts of a public SymbolicSum are not bounded by the batched deciders' int8."""
    _check_against_the_reference((low, high))
    _check_against_the_reference((high, low))


def test_majorisation_certificate_of_many_copies_is_sound():
    many = SymbolicSum((0,) * 128)
    assert symbolic_sum_compare(many, SymbolicSum.of(1)).kind is RelationKind.PROVEN_REVERSE
    # (128a + b, c) is not majorised by (b, c): its first line exceeds both of theirs
    u = (SymbolicSum.of(1), SymbolicSum.of(2))
    v = (many + SymbolicSum.of(1), SymbolicSum.of(2))
    assert vector_majorisation_certificate(u, v) is None
    assert vector_majorisation_certificate(u[:1], v[:1]) is None


# ----------------------------------------------------------- numeric majorise

def test_vector_majorises_basic():
    assert vector_majorises((0.7, 0.2, 0.1), (0.5, 0.3, 0.2))
    assert not vector_majorises((0.5, 0.3, 0.2), (0.7, 0.2, 0.1))
    assert vector_majorises((0.5, 0.5), (0.5, 0.5))


def test_vector_majorises_validation():
    with pytest.raises(ValueError, match="length"):
        vector_majorises((0.5, 0.5), (0.4, 0.3, 0.3))
    with pytest.raises(ValueError, match="sum"):
        vector_majorises((0.7, 0.2), (0.5, 0.3))


def test_matrix_majorises_requires_same_entry_multiset():
    a = ProbMatrix(((0.4, 0.3), (0.2, 0.1)))
    b = ProbMatrix(((0.4, 0.25), (0.25, 0.1)))
    with pytest.raises(ValueError, match="multiset"):
        matrix_majorises(a, b)


def test_matrix_majorises_on_rearrangements():
    s = (0.4, 0.3, 0.15, 0.1, 0.03, 0.02)
    hi = ProbMatrix(((s[0], s[3], s[4]), (s[5], s[2], s[1])))
    lo = ProbMatrix(((s[0], s[1], s[2]), (s[3], s[4], s[5])))
    assert matrix_majorises(lo, hi)
    assert not matrix_majorises(hi, lo)


# ------------------------------------------------------- symbolic certificates

def test_vector_majorisation_certificate_roundtrip():
    u = (SymbolicSum.of(0), SymbolicSum.of(1))
    v = (SymbolicSum.of(0, 1), SymbolicSum.of())
    assert vector_majorisation_certificate(u, v) is None
    lines = vector_majorisation_certificate(v, u)
    assert lines is not None
    assert any("totals equal" in ln for ln in lines)


def test_majorisation_certificate_example_pair():
    table = r23_table()
    top = word_to_grid(table.get(48).word, 2, 3)
    # 42 -> 48 needs the swap argument, not plain majorisation
    assert majorisation_certificate(word_to_grid(table.get(42).word, 2, 3), top) is None
    cert = majorisation_certificate(word_to_grid(table.get(1).word, 2, 3), top)
    assert cert is not None
    assert cert[0].startswith("rule majorisation")


def test_certified_majorisation_is_numerically_sound():
    """Every certified pair must satisfy the numeric comparison on samples."""
    table = r23_table()
    grids = {c.index: word_to_grid(c.word, 2, 3) for c in table.classes}
    pairs = [
        (i, j)
        for i, j in combinations(range(1, 61), 2)
        if majorisation_certificate(grids[i], grids[j]) is not None
    ]
    assert pairs
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = sample_spectrum(6, rng)
        values = {c.index: cmi(c.instantiate(s)) for c in table.classes}
        for i, j in pairs:
            # the majorising arrangement carries the smaller mutual information
            assert values[i] <= values[j] + 1e-12


def test_certified_pairs_respect_the_table_order():
    table = r23_table()
    grids = {c.index: word_to_grid(c.word, 2, 3) for c in table.classes}
    forward = 0
    for i in range(1, 61):
        for j in range(1, 61):
            if i == j:
                continue
            if majorisation_certificate(grids[i], grids[j]) is not None:
                assert i < j, f"certificate against the listing order: {i} over {j}"
                forward += 1
    assert forward == 423


_KIND_CODE = {
    RelationKind.PROVEN_FORWARD: 1,
    RelationKind.PROVEN_REVERSE: -1,
    RelationKind.INCONCLUSIVE: 0,
}


def _text_majorisations(grids_a, grids_b):
    return [
        majorisation_certificate(a.tolist(), b.tolist()) is not None
        for a, b in zip(grids_a, grids_b)
    ]


def _text_titrations(grids, cells):
    n = grids.shape[2]
    contexts = (
        symbolic_transposition_context(g.tolist(), divmod(a, n), divmod(b, n))
        for g, (a, b) in zip(grids, cells.tolist())
    )
    return [_KIND_CODE[titrate_check(ctx).kind] for ctx in contexts]


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3)])
def test_batched_majorisation_matches_the_text_prover_on_every_pair(m, n):
    grids = class_table(m, n)._grids
    pairs = np.argwhere(~np.eye(len(grids), dtype=bool))
    a, b = grids[pairs[:, 0]], grids[pairs[:, 1]]
    assert _decide_majorisation(a, b).tolist() == _text_majorisations(a, b)


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (2, 5)])
def test_batched_majorisation_matches_the_text_prover_at_random(m, n):
    """1500 seeded random class pairs, and 1500 the batched decision certifies."""
    grids = class_table(m, n)._grids
    pairs = np.random.default_rng(m * n).integers(len(grids), size=(100_000, 2))
    certified = _decide_majorisation(grids[pairs[:, 0]], grids[pairs[:, 1]])
    assert certified.sum() >= 1500
    pairs = np.concatenate([pairs[:1500], pairs[certified][:1500]])
    a, b = grids[pairs[:, 0]], grids[pairs[:, 1]]
    assert _decide_majorisation(a, b).tolist() == _text_majorisations(a, b)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3)])
def test_batched_titration_matches_the_text_prover_on_every_swap(m, n):
    table = class_table(m, n)
    cells = np.tile(list(permutations(range(m * n), 2)), (len(table), 1))
    grids = np.repeat(table._grids, len(cells) // len(table), axis=0)
    assert _decide_titration(grids, cells).tolist() == _text_titrations(grids, cells)


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (2, 5)])
def test_batched_titration_matches_the_text_prover_at_random(m, n):
    """17,000 seeded random swaps per shape, of random grids, in random cell order."""
    rng = np.random.default_rng([m, n])
    count, mn = 17_000, m * n
    grids = np.argsort(rng.random((count, mn)), axis=1).reshape(count, m, n)
    first = rng.integers(mn, size=count)
    cells = np.stack([first, (first + rng.integers(1, mn, size=count)) % mn], axis=1)
    kinds = _decide_titration(grids, cells)
    assert set(kinds.tolist()) == {-1, 0, 1}
    assert kinds.tolist() == _text_titrations(grids, cells)


def test_majorisation_rows_and_the_set_order_table_are_pinned():
    """The majorisations of every 2x4 row and of 40 seeded 3x3 and 2x5 rows.

    The digests were taken from the one-hot symbol-count decision that the
    set-order table replaced.  The table is checked against ``_leq`` on
    every pair of symbol sets at 2x2 and 2x3.
    """
    digests = {
        (2, 4): "16e5ae2df3503b20f4a2e59a4d1c77047dc06beeb4b746057d50c51dac4d0f13",
        (3, 3): "424bda10b096af979e566c1ffa44194d0c5c5a8abbc8fdcb943933eb3a047e50",
        (2, 5): "595ae8bf65e9450d4480e92a48971f635442aa721bcab736aa6faf2a88bd9bce",
    }
    for (m, n), digest in digests.items():
        rows = range(1, len(class_table(m, n)) + 1)
        if (m, n) != (2, 4):
            rows = (np.random.default_rng(m * n).choice(len(rows), 40, replace=False) + 1).tolist()
        text = "\n".join(
            f"{i}:" + ",".join(str(j) for j, proof in classes._relation_row(m, n, i).items()
                               if proof is None)
            for i in rows
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (m, n)
    for m, n in [(2, 2), (2, 3)]:
        counts = (np.arange(1 << m * n)[:, None] >> np.arange(m * n) & 1).astype(np.int8)
        sizes = counts.sum(axis=1)
        filled = (sizes[:, None] == sizes) | np.isin(sizes, (m, n))[:, None] & np.isin(sizes, (m, n))
        expected = _leq(counts[:, None], counts[None, :]) & filled
        assert np.array_equal(_set_order(m, n), expected)


# -------------------------------------------------------------- identric mean

def test_identric_mean_reference_value():
    assert identric_mean(0.25, 0.75) == pytest.approx(0.47788941237673797, abs=1e-15)
    assert identric_mean(0.3, 0.7) == pytest.approx(0.48616775067084336, abs=1e-15)


def test_identric_mean_symmetry_and_diagonal():
    assert identric_mean(0.2, 0.9) == identric_mean(0.9, 0.2)
    assert identric_mean(0.4, 0.4) == 0.4


def test_identric_mean_domain():
    with pytest.raises(ValueError, match="positive"):
        identric_mean(0.0, 0.5)
    with pytest.raises(ValueError, match="lie in"):
        identric_mean(0.5, 1.5)


def test_identric_mean_between_arguments():
    rng = np.random.default_rng(17)
    for _ in range(5000):
        x, y = np.sort(rng.uniform(1e-6, 1.0, size=2))
        if y - x < 1e-9:
            continue
        ratio = (identric_mean(x, y) - x) / (y - x)
        assert 1.0 / math.e < ratio < 0.5


def test_identric_mean_monotone_and_concave_in_second_argument():
    xs = np.linspace(0.05, 0.95, 61)
    for x0 in (0.1, 0.37, 0.62):
        vals = [identric_mean(x0, float(x)) for x in xs]
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(diffs) < 1e-12)


def test_identric_mean_nested_pair_comparison():
    """For 0 < u <= v <= w <= z with v + w >= u + z, the inner pair's
    identric mean dominates the outer pair's."""
    rng = np.random.default_rng(23)
    draws = rng.uniform(1e-4, 1.0, size=(100_000, 4))
    draws.sort(axis=1)
    u, v, w, z = draws.T
    mask = (v + w >= u + z) & (z - w > 1e-9) & (w - v > 1e-9) & (v - u > 1e-9)
    u, v, w, z = u[mask], v[mask], w[mask], z[mask]
    assert len(u) > 1000
    step = max(1, len(u) // 2000)
    for k in range(0, len(u), step):
        inner = identric_mean(float(v[k]), float(w[k]))
        outer = identric_mean(float(u[k]), float(z[k]))
        assert outer <= inner + 1e-12


def test_identric_mean_shifted_gap_is_monotone():
    """mu(x, x+t) - x increases in x for fixed t > 0."""
    for t in (0.05, 0.2, 0.5):
        xs = np.linspace(0.01, 1.0 - t, 41)
        vals = [identric_mean(float(x), float(x) + t) - float(x) for x in xs]
        assert np.all(np.diff(vals) > 0.0)


# ------------------------------------------------------- transposition context

PINNED = Spectrum((0.3, 0.25, 0.2, 0.15, 0.07, 0.03))


def _pinned_matrix() -> ProbMatrix:
    return arrange(PINNED, (0, 1, 2, 3, 4, 5), 2, 3)


def test_transposition_context_numeric_invariants():
    ctx = transposition_context(_pinned_matrix(), (0, 0), (1, 2))
    assert not ctx.symbolic
    assert ctx.alpha > ctx.beta
    assert ctx.r_alpha > ctx.r_alpha_tau
    assert ctx.r_beta_tau > ctx.r_beta
    assert ctx.c_alpha > ctx.c_alpha_tau
    assert ctx.c_beta_tau > ctx.c_beta


def test_transposition_context_same_row_suppresses_row_terms():
    ctx = transposition_context(_pinned_matrix(), (0, 0), (0, 2))
    assert ctx.same_row
    assert ctx.r_alpha is None and ctx.r_beta is None
    assert ctx.c_alpha is not None


def test_transposition_context_rejects_bad_positions():
    P = _pinned_matrix()
    with pytest.raises(ValueError, match="position"):
        transposition_context(P, (0, 0), (2, 1))
    with pytest.raises(ValueError, match="distinct"):
        transposition_context(P, (1, 1), (1, 1))


def test_cmi_diff_matches_direct_recomputation():
    """The closed form for the swap increment agrees with recomputing both sides."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(2000):
        s = sample_spectrum(6, rng)
        perm = tuple(int(k) for k in rng.permutation(6))
        P = arrange(s, perm, 2, 3)
        i1, j1 = int(rng.integers(2)), int(rng.integers(3))
        while True:
            i2, j2 = int(rng.integers(2)), int(rng.integers(3))
            if (i1, j1) != (i2, j2):
                break
        a = P.as_array().copy()
        a[i1, j1], a[i2, j2] = a[i2, j2], a[i1, j1]
        direct = cmi(ProbMatrix.from_array(a)) - cmi(P)
        ctx = transposition_context(P, (i1, j1), (i2, j2))
        worst = max(worst, abs(cmi_diff_transposition(ctx) - direct))
    assert worst < 1e-10


def test_titrate_check_requires_symbolic_context():
    ctx = transposition_context(_pinned_matrix(), (0, 0), (1, 2))
    with pytest.raises(ValueError, match="symbolic"):
        titrate_check(ctx)


def test_titrate_check_equal_symbols_inconclusive():
    grid = word_to_grid("abcdef", 2, 3)
    base = symbolic_transposition_context(grid, (0, 0), (1, 2))
    tied = replace(base, beta=base.alpha)
    assert titrate_check(tied).kind is RelationKind.INCONCLUSIVE


def test_titrate_check_same_row_forward():
    grid = word_to_grid("abcdef", 2, 3)
    ctx = symbolic_transposition_context(grid, (0, 0), (0, 1))
    verdict = titrate_check(ctx)
    assert verdict.kind is RelationKind.PROVEN_FORWARD
    assert any("base-comparison" in ln for ln in verdict.certificate)


def test_titrate_check_certifies_the_maxima_chain():
    table = r23_table()
    for src, pos_a, pos_b, dst in maxima_chain_steps():
        grid = word_to_grid(table.get(src).word, 2, 3)
        verdict = titrate_check(symbolic_transposition_context(grid, pos_a, pos_b))
        assert verdict.kind is RelationKind.PROVEN_FORWARD, (src, dst)
        assert verdict.certificate[-1].startswith("verdict: ProvenForward")


def test_titrate_certified_swaps_are_numerically_sound():
    """Every certified swap direction holds at sampled spectra."""
    table = r23_table()
    positions = [(i, j) for i in range(2) for j in range(3)]
    certified = []
    for cls in table.classes:
        grid = word_to_grid(cls.word, 2, 3)
        for a in range(6):
            for b in range(a + 1, 6):
                ctx = symbolic_transposition_context(grid, positions[a], positions[b])
                kind = titrate_check(ctx).kind
                if kind is not RelationKind.INCONCLUSIVE:
                    certified.append((cls.index, positions[a], positions[b], kind))
    # one directed edge per proven swap, counted over both orientations
    assert len(certified) == 660
    assert sum(1 for *_, k in certified if k is RelationKind.PROVEN_FORWARD) == 330
    rng = np.random.default_rng(13)
    sampled = certified[:: max(1, len(certified) // 200)]
    for _ in range(40):
        s = sample_spectrum(6, rng)
        for index, pos_a, pos_b, kind in sampled:
            P = table.get(index).instantiate(s)
            diff = cmi_diff_transposition(transposition_context(P, pos_a, pos_b))
            if kind is RelationKind.PROVEN_FORWARD:
                assert diff >= -1e-10
            else:
                assert diff <= 1e-10


# ------------------------------------------------------------- derive_relation

def test_derive_relation_direct_edge():
    verdict = derive_relation(42, 48)
    assert verdict.kind is RelationKind.PROVEN_FORWARD
    assert verdict.certificate[0] == "derive: class 42 vs class 48"
    assert verdict.certificate[-1].startswith("verdict: ProvenForward")


def test_derive_relation_reverse_orientation():
    assert derive_relation(48, 42).kind is RelationKind.PROVEN_REVERSE


def _chain(verdict):
    """The classes of a verdict's chain, read from its ``step k:`` lines."""
    steps = [line.split() for line in verdict.certificate if line.startswith("step ")]
    assert [step[1] for step in steps] == [f"{k}:" for k in range(1, len(steps) + 1)]
    return [int(steps[0][3])] + [int(step[6]) for step in steps] if steps else []


def test_derive_relation_multi_hop_mentions_transitivity():
    # 37 -> 52 is the longest 2x3 chain
    for a, b, hops in ((13, 27, 2), (37, 52, 3)):
        verdict = derive_relation(a, b)
        assert verdict.kind is RelationKind.PROVEN_FORWARD
        assert len(_chain(verdict)) - 1 == hops
        assert f"rule transitivity: compose the {hops} steps above" in verdict.certificate


def test_derive_relation_inconclusive_pair():
    assert derive_relation(44, 45).kind is RelationKind.INCONCLUSIVE


def test_derive_relation_identity():
    assert derive_relation(7, 7).kind is RelationKind.PROVEN_FORWARD


def test_derive_relation_rejects_a_class_of_another_shape():
    small, large = class_table(2, 2).get(1), class_table(2, 3).get(2)
    with pytest.raises(ValueError, match="class 2 is 2x3, but the table is 2x2"):
        derive_relation(small, large)
    with pytest.raises(ValueError, match="class 1 is 2x2, but the table is 2x3"):
        derive_relation(small, 2, table=r23_table())
    with pytest.raises(ValueError, match="class 2 is 2x3, but the table is 2x2"):
        derive_relation(1, large, table=class_table(2, 2))


def test_derive_relation_validates_indices():
    # in-range Python ints take a fast path; every other index takes
    # _class_index, and both must reject the same values with the same text
    for m, n in ((2, 2), (2, 3)):
        table = class_table(m, n)
        count = len(table)
        for bad in (0, -1, count + 1):
            message = re.escape(f"class index {bad} outside 1..{count}")
            for a, b in ((bad, 1), (1, bad)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    derive_relation(a, b, table=table)
    with pytest.raises(ValueError, match=r"^class index 0 outside 1\.\.60$"):
        derive_relation(0, 48)
    with pytest.raises(ValueError, match=r"^class index 61 outside 1\.\.60$"):
        derive_relation(1, 61)


class _Index(int):
    """An int subclass, so its type is not int and it skips the fast path."""


@pytest.mark.parametrize("kind", [_Index, np.int64, np.uint8], ids=["int-subclass", "int64", "uint8"])
def test_derive_relation_takes_other_integers_like_ints_at_the_bounds(kind):
    for m, n in ((2, 2), (2, 3)):
        table = class_table(m, n)
        count = len(table)
        for good in (1, count):
            other = 2 if good == 1 else 1
            for a, b in ((good, other), (other, good)):
                expected = derive_relation(a, b, table=table)
                assert derive_relation(kind(a), kind(b), table=table) == expected
                assert derive_relation(kind(a), b, table=table) == expected
                assert derive_relation(a, kind(b), table=table) == expected
        for bad in (0, count + 1):
            message = re.escape(f"class index {bad} outside 1..{count}")
            for a, b in ((kind(bad), 1), (1, kind(bad))):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    derive_relation(a, b, table=table)


def _verdicts_of_every_kind():
    """Derived verdicts: identical classes, forward, reverse, multi-hop and inconclusive."""
    pairs = ((7, 7), (42, 48), (48, 42), (37, 52), (44, 45))
    verdicts = [derive_relation(a, b) for a, b in pairs]
    assert [v.kind.value for v in verdicts] == [
        "ProvenForward", "ProvenForward", "ProvenReverse", "ProvenForward", "Inconclusive",
    ]
    return verdicts


def test_derived_verdicts_match_the_dataclass_constructor():
    for verdict in _verdicts_of_every_kind():
        built = RelationVerdict(verdict.kind, verdict.certificate)
        assert type(verdict) is RelationVerdict
        assert verdict == built and not verdict != built
        assert hash(verdict) == hash(built)
        assert repr(verdict) == repr(built)
        assert verdict.render() == built.render()
        assert (verdict.is_forward, verdict.is_reverse, verdict.is_inconclusive) == (
            built.is_forward, built.is_reverse, built.is_inconclusive)
        assert replace(verdict) == verdict
        assert {verdict: 1}[built] == 1


def test_derived_verdicts_pickle_and_stay_frozen():
    for verdict in _verdicts_of_every_kind():
        copy = pickle.loads(pickle.dumps(verdict))
        assert copy == verdict and hash(copy) == hash(verdict) and copy is not verdict
        for name, value in (("kind", RelationKind.INCONCLUSIVE), ("certificate", ())):
            with pytest.raises(FrozenInstanceError):
                setattr(verdict, name, value)
            with pytest.raises(FrozenInstanceError):
                setattr(copy, name, value)
        assert copy == verdict


@pytest.mark.parametrize(
    "bad", [42.9, 42.0, np.float64(42), True, np.bool_(True), "42", None],
    ids=["float", "whole-float", "numpy-float", "bool", "numpy-bool", "str", "none"],
)
def test_derive_relation_rejects_indices_that_are_not_integers(bad):
    # int() would truncate 42.9 to class 42 and read True as class 1
    for a, b in ((bad, 48), (2, bad)):
        with pytest.raises(ValueError, match=re.escape(f"class index {bad!r} is not an integer")):
            derive_relation(a, b)


def test_derive_relation_accepts_numpy_integers():
    assert derive_relation(np.int64(42), np.int16(48)) == derive_relation(42, 48)
    assert derive_relation(np.int64(42), 48).certificate[0] == "derive: class 42 vs class 48"
    with pytest.raises(ValueError, match="class index 61 outside 1..60"):
        derive_relation(np.uint8(61), 1)


def test_orders_binds_the_classes_module_once():
    assert orders._classes is classes


def _relation_graph(m, n):
    """The whole m x n relation, read row by row."""
    return {i: classes._relation_row(m, n, i) for i in range(1, len(class_table(m, n)) + 1)}


def _reference_bfs_path(edges, src, dst):
    """The early-exit search ``derive_relation`` ran before it kept search trees."""
    frontier = [src]
    parent: dict[int, int] = {src: src}
    depth = 0
    while frontier and depth < _SEARCH_DEPTH:
        depth += 1
        nxt: list[int] = []
        for node in frontier:
            for j in sorted(edges[node]):
                if j in parent:
                    continue
                parent[j] = node
                if j == dst:
                    path = [j]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(j)
        frontier = nxt
    return None


def _hop_distances(edges, count):
    """Unbounded hop counts of every ordered pair, 0-based, inf where no chain runs.

    The k-th power of the edge matrix marks the pairs joined by a k-hop walk.
    """
    step = np.zeros((count, count), np.float32)
    for i, out in edges.items():
        step[i - 1, [j - 1 for j in out]] = 1
    dist = np.full((count, count), np.inf)
    np.fill_diagonal(dist, 0)
    walks, hops = np.eye(count, dtype=np.float32), 0
    while walks.any():
        hops += 1
        walks = (walks @ step > 0).astype(np.float32)
        dist[(walks > 0) & np.isinf(dist)] = hops
    return dist


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (2, 4)])
def test_derive_relation_chains_are_the_early_exit_shortest_paths(m, n):
    table = class_table(m, n)
    edges = _relation_graph(m, n)
    count = len(table)
    dist = _hop_distances(edges, count)
    if (m, n) == (2, 4):
        # every pair whose shortest chain is past the search depth, 198 -> 765
        # among them, and a seeded sample: all 705k ordered pairs take minutes
        beyond = (np.argwhere(np.isfinite(dist) & (dist > _SEARCH_DEPTH)) + 1).tolist()
        assert len(beyond) == 101 and dist[197, 764] == dist[np.isfinite(dist)].max() == 5
        sample = np.random.default_rng(24).integers(1, count + 1, (400, 2)).tolist()
        pairs = [(a, b) for a, b in sample + beyond if a != b]
    else:
        pairs = list(permutations(range(1, count + 1), 2))
    hops = Counter()
    for a, b in pairs:
        verdict = derive_relation(a, b, table=table)
        chain = _chain(verdict)
        forward = _reference_bfs_path(edges, a, b)
        reverse = None if forward else _reference_bfs_path(edges, b, a)
        assert chain == (forward or reverse or [])
        if chain:
            assert len(chain) - 1 == dist[chain[0] - 1, chain[-1] - 1] <= _SEARCH_DEPTH
            assert all(y in edges[x] for x, y in zip(chain, chain[1:]))
        else:
            assert min(dist[a - 1, b - 1], dist[b - 1, a - 1]) > _SEARCH_DEPTH
        kind = (RelationKind.PROVEN_FORWARD if forward else
                RelationKind.PROVEN_REVERSE if reverse else RelationKind.INCONCLUSIVE)
        assert verdict.kind is kind
        hops[kind, max(len(chain) - 1, 0)] += 1
    if (m, n) == (2, 3):
        assert hops == {
            (RelationKind.PROVEN_FORWARD, 1): 498,
            (RelationKind.PROVEN_FORWARD, 2): 242,
            (RelationKind.PROVEN_FORWARD, 3): 11,
            (RelationKind.PROVEN_REVERSE, 1): 498,
            (RelationKind.PROVEN_REVERSE, 2): 242,
            (RelationKind.PROVEN_REVERSE, 3): 11,
            (RelationKind.INCONCLUSIVE, 0): 2038,
        }


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (2, 5)])
def test_chains_beyond_2x3_are_the_text_provers_and_hold_at_random_spectra(m, n):
    table = class_table(m, n)
    rng = np.random.default_rng(m * n)
    sources = rng.integers(1, len(table) + 1, 2).tolist()
    pairs = [tuple(sources), tuple(sources[::-1])]
    for a in sources:  # chains up to the search depth, read both ways
        targets = rng.choice(sorted(classes._search_tree(m, n, a)), 12).tolist()
        pairs += [(a, b) for b in targets] + [(b, a) for b in targets]
    spectra = sample_spectra(m * n, 32, rng)
    values = np.array([brute_force_extrema(Spectrum(s), m, n).values for s in map(tuple, spectra.tolist())])
    kinds = Counter()
    for a, b in pairs:
        verdict = derive_relation(a, b, table=table)
        kinds[verdict.kind] += 1
        chain = _chain(verdict)
        text = verdict.render()
        for x, y in zip(chain, chain[1:]):
            edge = classes._edge_lines.__wrapped__(m, n, x, y)  # the text provers, uncached
            assert "\n".join((f"class {x} -> class {y}", *edge)) in text
            assert (values[:, x - 1] <= values[:, y - 1] + 1e-13).all()
    assert kinds[RelationKind.PROVEN_FORWARD] and kinds[RelationKind.PROVEN_REVERSE]


def test_derive_relation_on_the_2x2_table():
    table = class_table(2, 2)
    assert len(table.classes) == 3
    identity = table.index_of("abcd")
    for other in table.classes:
        if other.index == identity:
            continue
        verdict = derive_relation(identity, other.index, table=table)
        assert verdict.kind is RelationKind.PROVEN_FORWARD


def _sha256(texts):
    return hashlib.sha256("\n\n".join(texts).encode()).hexdigest()


def test_prover_text_is_pinned():
    """Digests of every rendered 2x2/2x3 relation and titrated ordered 2x3 swap.

    The digests were taken from the prover before its verdict code was
    folded into one loop per decision; any change to a trace changes them.
    The 3540 2x3 relations between distinct classes, a-major, have the
    digest that the benchmark checks.
    """
    relations = []
    for m, n in ((2, 2), (2, 3)):
        table = class_table(m, n)
        indices = range(1, len(table) + 1)
        relations += [derive_relation(a, b, table=table).render() for a in indices for b in indices]
    assert _sha256(relations) == (
        "9ab98f844f4ef3633bfc655dbab3ddf10d4741ca8e115d067f6f541fb9009f22"
    )
    distinct = [text for k, text in enumerate(relations[9:]) if k // 60 != k % 60]
    assert len(distinct) == 3540
    assert _sha256(distinct) == "670822d3a926d1cadf5ce9f6f5d5b17b1d90f6842275278f1cbb01ca2c2fb28f"
    cells = [(i, j) for i in range(2) for j in range(3)]
    swaps = []
    for cls in r23_table().classes:
        for pos_a, pos_b in permutations(cells, 2):
            verdict = titrate_check(symbolic_transposition_context(cls.canonical, pos_a, pos_b))
            swaps.append(f"{verdict.kind.value}\n{verdict.render()}")
    assert _sha256(swaps) == "737b99b9cd2a23566f28240cca328a676a30232f5f144d4d88f86afe494928fe"
