"""Entropy primitives, spectra, arrangements, and simplex sampling."""
import errno
import hashlib
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmi import (
    EPSILON,
    ProbMatrix,
    Spectrum,
    arrange,
    binary_entropy,
    class_table,
    cmi,
    entropy_term,
    marginals,
    r23_table,
    sample_spectra,
    sample_spectrum,
    varpi,
)
from specmi.core import SUM_TOLERANCE, TIE_REDRAW_GAP
from specmi import core, qubit2


def test_entropy_term_zero_and_one_branch():
    assert entropy_term(0.0) == 0.0
    assert entropy_term(1.0) == 0.0


def test_entropy_term_tiny_argument():
    h = entropy_term(1e-300)
    assert 0.0 < h < 1e-290


def test_entropy_term_rejects_out_of_domain():
    with pytest.raises(ValueError, match="outside"):
        entropy_term(-0.01)
    with pytest.raises(ValueError, match="outside"):
        entropy_term(1.01)


def test_entropy_term_rejects_nan():
    with pytest.raises(ValueError, match=r"entropy_term: argument nan outside \[0, 1\]"):
        entropy_term(math.nan)


def test_entropy_term_clamps_round_off():
    assert entropy_term(-1e-15) == 0.0
    assert entropy_term(1.0 + 1e-15) == 0.0


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_entropy_term_bounded_by_inverse_e(x):
    assert 0.0 <= entropy_term(x) <= 1.0 / math.e + EPSILON


def test_entropy_terms_match_the_masked_product_in_place_and_fresh():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.random(1000), [0.0, 1.0, -1e-17, 1e-300, 0.5]]).reshape(5, -1)
    pos = x > 0.0
    want = np.zeros_like(x)
    want[pos] = -x[pos] * np.log(x[pos])
    out = np.full_like(x, np.nan)
    assert core.entropy_terms(x, out=out) is out
    fresh, reversed_ = core.entropy_terms(x), core.entropy_terms(x[:, ::-1])
    for got, ref in ((out, want), (fresh, want), (reversed_, want[:, ::-1])):
        assert np.array_equal(got, ref)  # zeros are equal whatever their sign
        assert got.tobytes() == np.where(ref == 0.0, got, ref).tobytes()
    assert np.signbit(out[(x == 0.0) | (x == 1.0)]).all()


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert binary_entropy(0.75) == pytest.approx(0.5623351446188084, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_rejects_nan():
    with pytest.raises(ValueError, match=r"binary_entropy: argument nan outside \[0, 1\]"):
        binary_entropy(math.nan)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetric(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_in_the_unit_interval_is_the_sum_of_two_terms(x):
    assert binary_entropy(x) == entropy_term(x) + entropy_term(1.0 - x)


def test_binary_entropy_takes_a_sum_of_entries_of_any_accepted_spectrum():
    slack = SUM_TOLERANCE + 4 * EPSILON
    assert binary_entropy(1.0 + slack) == binary_entropy(1.0) == 0.0
    assert binary_entropy(-slack) == binary_entropy(0.0) == 0.0
    for x in (1.0 + 1.01 * slack, -1.01 * slack, 1.5, -0.5):
        with pytest.raises(ValueError, match="outside"):
            binary_entropy(x)
    # Entries as far out as Spectrum accepts: the total 1 + SUM_TOLERANCE,
    # the smallest entries at -EPSILON.
    top = (1.0 + 0.999 * SUM_TOLERANCE) / 2 + EPSILON  # a + b > 1 + SUM_TOLERANCE
    for values in [
        (0.5 + 4e-10, 0.5, 0.0, 0.0),
        (top, top, -EPSILON, -EPSILON),
        (1.0 + 3 * EPSILON, -EPSILON, -EPSILON, -EPSILON),
        (0.5 - 5e-10, 0.5 - 5e-10, 0.0, 0.0),
    ]:
        s = Spectrum(values)
        clean = [max(v, 0.0) for v in values]
        normalised = Spectrum(tuple(v / math.fsum(clean) for v in clean))
        for f in (qubit2.i_min, qubit2.i_max_class, qubit2.gamma_max, qubit2.gamma_min):
            # h moves by about d log(1/d), about 2e-8, when its argument moves by d = 1e-9
            assert f(s) == pytest.approx(f(normalised), abs=1e-7), (f.__name__, values)
        info = qubit2.qubit2_informations(s)
        assert info.gamma_max == qubit2.gamma_max(s)


def test_spectrum_validates_sum():
    with pytest.raises(ValueError, match="sums to"):
        Spectrum((0.5, 0.4, 0.2))


def test_spectrum_validates_order():
    with pytest.raises(ValueError, match="non-increasing"):
        Spectrum((0.2, 0.5, 0.3))


def test_spectrum_validates_sign_and_length():
    with pytest.raises(ValueError, match="negative"):
        Spectrum((1.2, -0.2))
    with pytest.raises(ValueError, match="at least 2"):
        Spectrum((1.0,))
    with pytest.raises(ValueError, match="non-finite"):
        Spectrum((math.nan,) * 4)


def test_spectrum_entropy_uniform():
    s = Spectrum((0.25,) * 4)
    assert s.entropy() == pytest.approx(math.log(4.0), abs=1e-15)


def test_prob_matrix_validates():
    with pytest.raises(ValueError, match="unequal"):
        ProbMatrix(((0.5, 0.25), (0.25,)))
    with pytest.raises(ValueError, match="sum to"):
        ProbMatrix(((0.5, 0.25), (0.5, 0.25)))
    with pytest.raises(ValueError, match="negative"):
        ProbMatrix(((0.75, 0.5), (-0.25, 0.0)))
    with pytest.raises(ValueError, match="non-finite"):
        ProbMatrix(((math.nan, 0.5), (0.25, 0.25)))


def test_prob_matrix_rejects_no_rows_and_a_one_dimensional_array():
    with pytest.raises(ValueError, match="ProbMatrix must be non-empty"):
        ProbMatrix(())
    with pytest.raises(ValueError, match="ProbMatrix.from_array expects a 2-d array"):
        ProbMatrix.from_array(np.array([0.5, 0.5]))


def test_prob_matrix_from_array_roundtrip():
    a = np.array([[0.4, 0.1], [0.3, 0.2]])
    P = ProbMatrix.from_array(a)
    assert P.m == 2 and P.n == 2
    assert np.array_equal(P.as_array(), a)


def test_arrange_places_values_zero_based():
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    P = arrange(s, (0, 3, 2, 1), 2, 2)
    assert P.entries == ((0.4, 0.1), (0.2, 0.3))


def test_arrange_rejects_non_permutation():
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    with pytest.raises(ValueError, match="not a permutation"):
        arrange(s, (0, 0, 2, 1), 2, 2)
    with pytest.raises(ValueError, match="dim"):
        arrange(Spectrum((0.6, 0.4)), (0, 1), 2, 2)


def test_marginals_sums():
    P = ProbMatrix(((0.4, 0.1), (0.3, 0.2)))
    mg = marginals(P)
    assert mg.rows == pytest.approx((0.5, 0.5))
    assert mg.cols == pytest.approx((0.7, 0.3))


def test_cmi_uniform_spectrum_is_zero_for_every_arrangement():
    s = Spectrum((1.0 / 6.0,) * 6)
    for cls in r23_table().classes:
        assert abs(cmi(cls.instantiate(s))) < 1e-12


def test_cmi_product_matrix_is_zero():
    r = np.array([0.7, 0.3])
    c = np.array([0.5, 0.3, 0.2])
    P = ProbMatrix.from_array(np.outer(r, c))
    assert abs(cmi(P)) < 1e-12


def test_cmi_invariant_under_row_col_permutations_and_transpose():
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        s = sample_spectrum(6, rng)
        perm = rng.permutation(6)
        P = arrange(s, tuple(int(k) for k in perm), 2, 3)
        a = P.as_array()
        base = cmi(P)
        rows = rng.permutation(2)
        cols = rng.permutation(3)
        q = a[np.ix_(rows, cols)]
        assert abs(cmi(ProbMatrix.from_array(q)) - base) < 1e-12
        assert abs(cmi(ProbMatrix.from_array(q.T)) - base) < 1e-12


def test_cmi_bounds():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        s = sample_spectrum(6, rng)
        perm = tuple(int(k) for k in rng.permutation(6))
        P = arrange(s, perm, 2, 3)
        value = cmi(P)
        mg = marginals(P)
        h_rows = sum(entropy_term(r) for r in mg.rows)
        h_cols = sum(entropy_term(c) for c in mg.cols)
        assert -1e-12 <= value
        assert value <= min(h_rows, h_cols) + 1e-12
        assert value <= min(math.log(2.0), math.log(3.0)) + 1e-12


# ------------------------------- plain-float scalars against NumPy references

def _reference_cmi(P: ProbMatrix) -> float:
    """The NumPy ``cmi`` that the plain-float one replaced."""

    def xlogx_sum(values):
        v = np.asarray(values, dtype=float)
        pos = v > 0.0
        out = np.zeros_like(v)
        out[pos] = -v[pos] * np.log(v[pos])
        return float(out.sum())

    a = P.as_array()
    return xlogx_sum(a.sum(axis=1)) + xlogx_sum(a.sum(axis=0)) - xlogx_sum(a.ravel())


def _edge_spectra(dim: int, count: int, seed: int) -> list[Spectrum]:
    """Seeded descending spectra; a third end in 0, a third in 0 and then a
    value in [-EPSILON, 0)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        tail = k % 3
        w = np.sort(rng.standard_exponential(dim - tail))[::-1]
        values = list(w / w.sum()) + [0.0, -EPSILON * (1.0 - rng.random())][:tail]
        out.append(Spectrum(tuple(values)))
    return out


SHAPES = [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5)]


@pytest.mark.parametrize("m,n", SHAPES, ids=[f"{m}x{n}" for m, n in SHAPES])
def test_plain_cmi_matches_the_numpy_reference(m, n):
    rng = np.random.default_rng(1000 * m + n)
    spectra = _edge_spectra(m * n, 300, seed=m * n)
    assert {s.values[-1] for s in spectra[1::3]} == {0.0}
    assert all(-EPSILON <= s.values[-1] < 0.0 for s in spectra[2::3])
    for s in spectra:
        P = ProbMatrix.from_array(np.array(s.values)[rng.permutation(m * n)].reshape(m, n))
        assert abs(cmi(P) - _reference_cmi(P)) <= 1e-12


def test_qubit2_scalars_match_their_scan_counterparts():
    for s in _edge_spectra(4, 300, seed=4):
        row = np.array([s.values])
        for name, scan in qubit2.SCAN_FUNCTIONS.items():
            scalar = getattr(qubit2, name)
            assert abs(scalar(s) - float(scan(row)[0])) <= 1e-12, (name, s)


def test_total_order_informations_are_cmi_of_the_three_arrangements():
    for s in _edge_spectra(4, 300, seed=44):
        a, b, c, d = s.values
        order = qubit2.verify_total_order_2x2(s)
        assert order.i_identity == cmi(ProbMatrix(((a, b), (c, d))))
        assert order.i_bottom_swap == cmi(ProbMatrix(((a, b), (d, c))))
        assert order.i_antidiagonal == cmi(ProbMatrix(((a, d), (c, b))))


def test_sample_spectrum_is_descending_unit_sum_and_seeded():
    rng = np.random.default_rng(3)
    s = sample_spectrum(5, rng)
    assert abs(math.fsum(s.values) - 1.0) < 1e-12
    gaps = [a - b for a, b in zip(s.values, s.values[1:])]
    assert min(gaps) >= TIE_REDRAW_GAP
    again = sample_spectrum(5, np.random.default_rng(3))
    assert again.values == s.values


def test_sample_spectra_matches_scalar_shape_contract():
    rng = np.random.default_rng(11)
    batch = sample_spectra(6, 1000, rng)
    assert batch.shape == (1000, 6)
    assert np.allclose(batch.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(batch[:, :-1] - batch[:, 1:] >= TIE_REDRAW_GAP)


def _per_row_min_sample_spectra(dim, count, rng):
    """``sample_spectra`` with its redraw check as one gap minimum per row.

    Returns the spectra and the number of redraw rounds.
    """
    e = rng.standard_exponential((count, dim))
    s = e / e.sum(axis=1, keepdims=True)
    s.sort(axis=1)
    s = s[:, ::-1]
    rounds = 0
    while True:
        gaps = s[:, :-1] - s[:, 1:]
        bad = np.flatnonzero(gaps.min(axis=1) < core.TIE_REDRAW_GAP) if count else np.array([], int)
        if bad.size == 0:
            return np.ascontiguousarray(s), rounds
        rounds += 1
        e = rng.standard_exponential((bad.size, dim))
        t = e / e.sum(axis=1, keepdims=True)
        t.sort(axis=1)
        s[bad] = t[:, ::-1]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim,forced_gap", [(2, 0.05), (4, 5e-3), (6, 2e-3), (10, 1e-3)])
def test_sample_spectra_redraws_the_rows_of_the_per_row_check(monkeypatch, dim, seed, forced_gap):
    # at the forced gap about a third of the rows redraw, over several rounds
    for gap in (TIE_REDRAW_GAP, forced_gap):
        monkeypatch.setattr(core, "TIE_REDRAW_GAP", gap)
        for count in (0, 1, 400):
            got = sample_spectra(dim, count, np.random.default_rng(seed))
            expected, rounds = _per_row_min_sample_spectra(dim, count, np.random.default_rng(seed))
            assert got.shape == expected.shape and got.flags.c_contiguous
            assert (got.view(np.int64) == expected.view(np.int64)).all()
        assert rounds >= 2 or gap == TIE_REDRAW_GAP


def test_sample_spectra_rejects_a_dim_below_two_and_a_negative_count():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="sample_spectra needs dim >= 2"):
        sample_spectra(1, 3, rng)
    with pytest.raises(ValueError, match="sample_spectra needs count >= 0"):
        sample_spectra(4, -1, rng)


def test_sample_spectra_zero_count():
    rng = np.random.default_rng(1)
    assert sample_spectra(4, 0, rng).shape == (0, 4)


def test_sample_mean_of_maximum_dim4():
    """Uniform on the 4-simplex, the expected maximum coordinate is 25/48."""
    rng = np.random.default_rng(2024)
    batch = sample_spectra(4, 200_000, rng)
    assert batch[:, 0].mean() == pytest.approx(25.0 / 48.0, abs=2e-3)


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_sample_spectrum_valid_for_any_seed(dim, seed):
    s = sample_spectrum(dim, np.random.default_rng(seed))
    assert s.dim == dim
    assert all(a > b for a, b in zip(s.values, s.values[1:]))


def test_atomic_write_through_a_looping_link_raises_eloop_and_keeps_the_link(tmp_path):
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    with pytest.raises(OSError) as info:
        core.write_text_atomic(str(loop), "text\n")
    assert info.value.errno == errno.ELOOP
    assert loop.is_symlink() and os.readlink(loop) == str(loop)
    assert [p.name for p in tmp_path.iterdir()] == ["loop"]


def test_atomic_write_into_a_missing_directory_names_the_target(tmp_path):
    # not the temporary file that could not be created beside it
    target = tmp_path / "no_such_dir" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        core.write_text_atomic(str(target), "text\n")
    assert info.value.errno == errno.ENOENT and info.value.filename == str(target)
    assert ".tmp" not in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_through_a_dangling_link_creates_its_target(tmp_path):
    target = tmp_path / "sub" / "out.txt"
    target.parent.mkdir()
    link = tmp_path / "link"
    link.symlink_to(target)
    core.write_text_atomic(str(link), "text\n")
    assert link.is_symlink() and target.read_text() == "text\n"


# ------------------------------------------------------------- the JSON writer

_JSON_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-7, math.inf, -math.inf, math.nan]
)
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(10**60), 10**60) | _JSON_FLOATS | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(_JSON_FLOATS, max_size=8)
        | st.dictionaries(st.text(), inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
@example({"": [], "\"\\/\b\f\n\r\t\x00\x1f\x7f": {}, "é☃😀\u2028": [[], {}, [{}], "tab\t\"é😀"]})
@example([0.3, -0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, math.inf, -math.inf, math.nan])
@example({"big": [10**60, -(10**60), 0, True, False, None], "f": 1e16, "g": [1e-7]})
def test_the_json_writer_writes_what_json_writes_with_an_indent_of_two(value):
    assert core._json_text(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [(1.0, 2.0), np.float64(0.5), [0.5, np.float64(0.5)], {1.0}, {1: 2}, {"a": [{"b": (1,)}]},
     [np.int64(3)]],
    ids=["tuple", "np.float64", "np.float64-among-floats", "set", "int-key", "nested-tuple",
         "np.int64"],
)
def test_the_json_writer_raises_type_error_for_other_types(value):
    with pytest.raises(TypeError):
        core._json_text(value)


# ------------------------------------------- the scalar path, pinned bit for bit

#: SHA-256 of the little-endian doubles that ``_pinned_cmi_values`` returns,
#: taken when every arrangement was still re-validated by ``ProbMatrix`` and
#: ``cmi`` made three generator passes.
PINNED_CMI_SHA256 = "d084d2345fb7207e1c2190dbc809f885ca71ca9c9b5d8f35a24b43f90d804f84"


def _pinned_cmi_values() -> list[float]:
    """``cmi`` of every class at seeded spectra, of seeded ``arrange`` and
    ``varpi`` results, and of seeded ``ProbMatrix.from_array`` 3x4 matrices.

    A quarter of the spectra end in a zero.  Every arrangement drawn is
    checked to be one that the validating constructor also builds.
    """
    rng = np.random.default_rng(24)
    out = []

    def pinned(P: ProbMatrix) -> float:
        assert ProbMatrix(P.entries) == P
        assert all(type(row) is tuple for row in P.entries)
        assert all(type(v) is float for row in P.entries for v in row)
        return cmi(P)

    for (m, n), count in (((2, 2), 40), ((2, 3), 24), ((2, 4), 8), ((3, 3), 2), ((2, 5), 2)):
        table = class_table(m, n)
        for k in range(count):
            zero = k % 4 == 3
            w = np.sort(rng.standard_exponential(m * n - zero))[::-1]
            s = Spectrum(tuple(w / w.sum()) + (0.0,) * zero)
            for cls in table.classes:
                out.append(pinned(cls.instantiate(s)))
                if (m, n) == (2, 3):
                    out.append(pinned(varpi(cls.instantiate(s))))
            for _ in range(5):
                out.append(pinned(arrange(s, rng.permutation(m * n), m, n)))
    for _ in range(2000):
        a = rng.random((3, 4))
        out.append(cmi(ProbMatrix.from_array(a / a.sum())))
    return out


def test_cmi_of_instantiate_arrange_varpi_and_from_array_is_pinned_bit_for_bit():
    values = _pinned_cmi_values()
    digest = hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
    assert digest == PINNED_CMI_SHA256


def test_instantiate_rejects_a_spectrum_of_the_wrong_length():
    with pytest.raises(ValueError, match="class needs 6"):
        class_table(2, 3).get(1).instantiate(Spectrum((0.4, 0.3, 0.2, 0.1)))
