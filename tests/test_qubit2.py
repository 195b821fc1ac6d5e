"""T-states of two qubits: information gaps, separability, the 2x2 order."""
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmi import (
    DOMAIN_VERTICES,
    Spectrum,
    TVector,
    absolutely_separable,
    bloch_classical,
    gamma_max,
    gamma_min,
    i_max_class,
    i_max_qmi,
    i_min,
    mems_concurrence,
    octahedron_scan,
    qubit2_informations,
    separable_tstate,
    spectrum_from_tvector,
    tvector_from_spectrum,
    verify_total_order_2x2,
)
from specmi import qubit2
from specmi.qubit2 import MAX_SCAN_GRID, SCAN_FUNCTIONS

LN2 = math.log(2.0)
V1, V2, V3, V4, V5 = DOMAIN_VERTICES


# ------------------------------------------------------------- T-vector maps

def simplex4():
    return (
        st.tuples(
            st.floats(0.01, 1.0),
            st.floats(0.01, 1.0),
            st.floats(0.01, 1.0),
            st.floats(0.01, 1.0),
        )
        .map(lambda w: tuple(sorted((x / sum(w) for x in w), reverse=True)))
        .map(Spectrum)
    )


@settings(max_examples=200)
@given(simplex4())
def test_tvector_roundtrip(s):
    t = tvector_from_spectrum(s)
    raw, valid = spectrum_from_tvector(t)
    assert valid
    assert sorted(raw, reverse=True) == pytest.approx(list(s.values), abs=1e-12)


def test_tvector_of_the_mixed_vertices():
    assert tvector_from_spectrum(V4).as_tuple() == pytest.approx((0.5, 0.0, 0.5))
    assert tvector_from_spectrum(V2).as_tuple() == pytest.approx((0.0, 0.0, 0.0))
    assert tvector_from_spectrum(V1).norm1() == pytest.approx(1.0)


def test_tvector_requires_dim_4():
    with pytest.raises(ValueError, match="4 eigenvalues"):
        tvector_from_spectrum(Spectrum((0.6, 0.4)))


def test_octahedron_membership_matches_separability():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        w = np.sort(rng.random(4))[::-1]
        s = Spectrum(tuple(w / w.sum()))
        assert tvector_from_spectrum(s).in_octahedron() == separable_tstate(s)


# ------------------------------------------------------------ the gap goldens

def test_gamma_max_golden_at_v4():
    assert gamma_max(V4) == pytest.approx(0.75 * math.log(3.0) - LN2, abs=1e-12)
    assert gamma_max(V4) == pytest.approx(0.130812035941137, abs=1e-12)


def test_gamma_min_goldens():
    assert gamma_min(V1) == pytest.approx(LN2, abs=1e-12)
    assert gamma_min(V2) == pytest.approx(0.0, abs=1e-12)


def test_six_octahedron_vertices_share_the_extreme_spectrum():
    for axis in range(3):
        for sign in (1.0, -1.0):
            t = [0.0, 0.0, 0.0]
            t[axis] = sign
            raw, valid = spectrum_from_tvector(TVector(*t))
            assert valid
            s = Spectrum(tuple(sorted((max(x, 0.0) for x in raw), reverse=True)))
            assert s.values == pytest.approx((0.5, 0.5, 0.0, 0.0), abs=1e-12)
            assert gamma_min(s) == pytest.approx(LN2, abs=1e-12)


def test_gamma_max_vanishes_exactly_on_the_balanced_slice():
    """On the integer lattice, gamma_max = 0 iff a = b and a + c = 1/2."""
    N = 40
    for i in range(N, -1, -1):
        for j in range(min(i, N - i), -1, -1):
            for k in range(min(j, N - i - j), -1, -1):
                l = N - i - j - k
                if l < 0 or l > k:
                    continue
                s = Spectrum((i / N, j / N, k / N, l / N))
                vanishes = gamma_max(s) < 1e-10
                expected = i == j and i + k == N // 2
                assert vanishes == expected, (i, j, k, l)


def test_information_chain_order():
    rng = np.random.default_rng(29)
    for _ in range(3000):
        w = np.sort(rng.random(4))[::-1]
        s = Spectrum(tuple(w / w.sum()))
        hi = i_max_qmi(s)
        mid = i_max_class(s)
        lo = i_min(s)
        assert lo <= mid + 1e-12
        assert mid <= hi + 1e-12
        assert gamma_max(s) <= gamma_min(s) + 1e-12
        assert gamma_max(s) >= -1e-12


def test_balanced_slice_is_midpoint_closed():
    rng = np.random.default_rng(37)
    for _ in range(500):
        c1, c2 = rng.uniform(0.0, 0.25, size=2)
        s1 = Spectrum(tuple(sorted((0.5 - c1, 0.5 - c1, c1, c1), reverse=True)))
        s2 = Spectrum(tuple(sorted((0.5 - c2, 0.5 - c2, c2, c2), reverse=True)))
        assert gamma_max(s1) < 1e-10 and gamma_max(s2) < 1e-10
        mid = tuple((x + y) / 2.0 for x, y in zip(s1.values, s2.values))
        assert gamma_max(Spectrum(mid)) < 1e-10


def test_qubit2_informations_is_consistent():
    info = qubit2_informations(V4)
    assert info.i_max_qmi == pytest.approx(i_max_qmi(V4), abs=1e-15)
    assert info.gamma_max == pytest.approx(info.i_max_qmi - info.i_max_class, abs=1e-15)
    assert info.gamma_min == pytest.approx(info.i_max_qmi - info.i_min, abs=1e-15)
    assert info.separable == separable_tstate(V4)


# -------------------------------------------------------------- Bloch vectors

def test_bloch_classical_identity_permutation():
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    bl = bloch_classical(s)
    assert bl.r_a_z == pytest.approx((0.4 + 0.3 - 0.2 - 0.1) / 4.0, abs=1e-15)
    assert bl.r_b_z == pytest.approx((0.4 - 0.3 + 0.2 - 0.1) / 4.0, abs=1e-15)
    assert bl.t_z == pytest.approx((0.4 - 0.3 - 0.2 + 0.1) / 4.0, abs=1e-15)


def test_bloch_classical_tau_reorders_eigenvalues():
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    bl = bloch_classical(s, tau=(2, 1, 3, 4))
    assert bl.r_a_z == pytest.approx((0.3 + 0.4 - 0.2 - 0.1) / 4.0, abs=1e-15)
    assert bl.r_b_z == pytest.approx((0.3 - 0.4 + 0.2 - 0.1) / 4.0, abs=1e-15)


def test_bloch_classical_conventional_scale():
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    plain = bloch_classical(s)
    conv = bloch_classical(s, conventional=True)
    assert conv.r_a_z == pytest.approx(4.0 * plain.r_a_z, abs=1e-15)
    assert conv.t_z == pytest.approx(4.0 * plain.t_z, abs=1e-15)


def test_bloch_classical_rejects_bad_tau():
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    with pytest.raises(ValueError, match="permutation"):
        bloch_classical(s, tau=(1, 1, 3, 4))


# ------------------------------------------------------------- the 2x2 order

def test_total_order_at_the_pinned_spectrum():
    order = verify_total_order_2x2(Spectrum((0.4, 0.3, 0.2, 0.1)))
    assert order.i_identity == pytest.approx(0.004021743230482544, abs=1e-15)
    assert order.i_bottom_swap == pytest.approx(0.0241572567811712, abs=1e-15)
    assert order.i_antidiagonal == pytest.approx(0.08630462173553388, abs=1e-15)
    assert order.smd_identity == pytest.approx(0.0, abs=1e-12)
    assert order.smd_bottom_swap == pytest.approx(0.1, abs=1e-12)
    assert order.smd_antidiagonal == pytest.approx(0.2, abs=1e-12)
    assert order.i_identity < order.i_bottom_swap < order.i_antidiagonal


def test_total_order_endpoints_match_the_information_extremes():
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    order = verify_total_order_2x2(s)
    assert order.i_identity == pytest.approx(i_min(s), abs=1e-12)
    assert order.i_antidiagonal == pytest.approx(i_max_class(s), abs=1e-12)


def test_per_spectrum_results_have_slots_and_survive_pickle_and_replace():
    s = Spectrum((0.4, 0.3, 0.2, 0.1))
    for result in (verify_total_order_2x2(s), qubit2_informations(s)):
        assert not hasattr(result, "__dict__")
        assert pickle.loads(pickle.dumps(result)) == result
        assert dataclasses.replace(result) == result
        name = dataclasses.fields(result)[0].name
        changed = dataclasses.replace(result, **{name: -1.0})
        assert getattr(changed, name) == -1.0 and changed != result


def test_total_order_rejects_ties():
    with pytest.raises(ValueError, match="strictly descending"):
        verify_total_order_2x2(Spectrum((0.4, 0.3, 0.15, 0.15)))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_total_order_holds_at_random_strict_spectra(seed):
    rng = np.random.default_rng(seed)
    w = np.sort(rng.random(4))[::-1]
    if np.min(np.abs(np.diff(w))) < 1e-9:
        return
    order = verify_total_order_2x2(Spectrum(tuple(w / w.sum())))
    assert order.i_identity < order.i_bottom_swap < order.i_antidiagonal
    assert order.smd_identity < order.smd_bottom_swap < order.smd_antidiagonal


# -------------------------------------------------------------- separability

def test_absolute_separability_implies_separability():
    rng = np.random.default_rng(43)
    seen = 0
    for _ in range(5000):
        w = np.sort(rng.random(4))[::-1]
        s = Spectrum(tuple(w / w.sum()))
        if absolutely_separable(s):
            seen += 1
            assert separable_tstate(s)
    assert seen > 0


def test_separable_vertex_with_positive_concurrence_witness():
    assert separable_tstate(V1)
    assert mems_concurrence(V1) == pytest.approx(0.5, abs=1e-12)


def test_mems_concurrence_clips_at_zero():
    assert mems_concurrence(V2) == 0.0


# ------------------------------------------------------------------- the scan

def test_octahedron_scan_grid5_layout():
    pts, vals = octahedron_scan("gamma_max", 5)
    assert pts.shape == (25, 3)
    assert vals.shape == (25,)
    assert np.all(np.abs(pts).sum(axis=1) <= 1.0 + 1e-9)
    assert np.all(vals >= -1e-12)
    # row-major ordering over the t11, t22, t33 grid
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    assert np.array_equal(order, np.arange(len(pts)))


def test_octahedron_scan_gamma_max_peak_on_the_grid():
    pts, vals = octahedron_scan("gamma_max", 41)
    assert vals.max() == pytest.approx(gamma_max(V4), abs=1e-12)
    k = int(np.argmax(vals))
    assert np.abs(pts[k]).sum() == pytest.approx(1.0, abs=1e-12)


def test_octahedron_scan_gamma_min_peak_is_ln2():
    pts, vals = octahedron_scan("gamma_min", 41)
    assert vals.max() == pytest.approx(LN2, abs=1e-12)


def test_octahedron_scan_matches_scalar_functions():
    pts, vals = octahedron_scan("i_max_qmi", 9)
    for k in range(0, len(pts), 3):
        raw, valid = spectrum_from_tvector(TVector(*pts[k]))
        assert valid
        s = Spectrum(tuple(sorted((max(x, 0.0) for x in raw), reverse=True)))
        assert vals[k] == pytest.approx(i_max_qmi(s), abs=1e-12)


def _meshgrid_scan_spectra(resolution):
    """The scan's points and descending spectra as built from three meshgrid
    cubes, kept as the reference for the mask built from the 1-d axis."""
    axis = np.linspace(-1.0, 1.0, resolution)
    grids = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    points = points[np.abs(points).sum(axis=1) <= 1.0 + 1e-12]
    u, v, w = points[:, 0], points[:, 1], points[:, 2]
    spectra = np.stack(
        [
            (1.0 + u - v + w) / 4.0,
            (1.0 - u + v + w) / 4.0,
            (1.0 + u + v - w) / 4.0,
            (1.0 - u - v - w) / 4.0,
        ],
        axis=1,
    )
    np.clip(spectra, 0.0, None, out=spectra)
    return points, np.sort(spectra, axis=1)[:, ::-1]


def _reference_entropy_rows(spectra):
    pos = spectra > 0.0
    terms = np.zeros_like(spectra)
    terms[pos] = -spectra[pos] * np.log(spectra[pos])
    return terms.sum(axis=1)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


@pytest.mark.parametrize("resolution", [*range(2, 41), 101])
def test_octahedron_scan_matches_the_meshgrid_construction_bit_for_bit(resolution):
    points, spectra = _meshgrid_scan_spectra(resolution)
    assert _same_bits(qubit2._entropy_rows(spectra), _reference_entropy_rows(spectra))
    for name, function in SCAN_FUNCTIONS.items():
        got_points, got_values = octahedron_scan(name, resolution)
        assert _same_bits(got_points, points), name
        assert _same_bits(got_values, function(spectra)), name


def test_octahedron_scan_keeps_every_lattice_point_of_the_octahedron_at_grid_201():
    # Axis point k of 201 is -1 + k / 100, so the kept points are the
    # integer triples with |i| + |j| + |k| <= 100.
    r = np.abs(np.arange(-100, 101, dtype=np.int16))
    lattice = int(np.count_nonzero(r[:, None, None] + r[None, :, None] + r[None, None, :] <= 100))
    points, values = octahedron_scan("gamma_max", 201)
    assert len(points) == len(values) == lattice == 1_353_601


def test_octahedron_scan_peaks_below_four_grid_cubes():
    tracemalloc.start()
    try:
        octahedron_scan("gamma_max", 101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 101**3 * 8  # the meshgrid construction peaked at 10


@pytest.mark.parametrize("resolution", [2, 3, 4, 5, 21, 101, 201])
def test_scan_chunks_are_runs_of_whole_consecutive_slabs_within_the_row_budget(resolution):
    budget = qubit2._SCAN_CHUNK_ROWS
    axis, chunks = qubit2._scan_grid("gamma_max", resolution)
    sizes, previous = [], None
    for i, j, k, values in chunks:
        assert len(i) == len(j) == len(k) == len(values) > 0
        assert np.all(np.diff(i) >= 0)
        slabs = np.unique(i)
        assert np.array_equal(slabs, np.arange(slabs[0], slabs[-1] + 1))
        assert previous is None or slabs[0] > previous
        previous = slabs[-1]
        sizes.append(np.bincount(i - slabs[0]))
        # Row-major within each slab.
        within = np.flatnonzero(np.diff(i) == 0)
        later_j, same_j = j[within + 1] > j[within], j[within + 1] == j[within]
        assert np.all(later_j | (same_j & (k[within + 1] > k[within])))
    for here, after in zip(sizes, sizes[1:] + [None]):
        assert here.sum() <= budget or len(here) == 1
        # A chunk closes only when its next slab would overrun the budget.
        assert after is None or here.sum() + after[0] > budget
    if resolution == 201:  # the middle slab alone outgrows the budget
        assert max(s.sum() for s in sizes) == 20_201 > budget
    if resolution <= 101:
        axis, chunks = qubit2._scan_grid("gamma_max", resolution)
        points, values = octahedron_scan("gamma_max", resolution)
        start = 0
        for i, j, k, chunk_values in chunks:
            rows = slice(start, start + len(i))
            assert _same_bits(np.stack((axis[i], axis[j], axis[k]), axis=1), points[rows])
            assert _same_bits(chunk_values, values[rows])
            start += len(i)
        assert start == len(values)


def test_octahedron_scan_validates_arguments():
    with pytest.raises(ValueError, match="function"):
        octahedron_scan("nonsense", 5)
    with pytest.raises(ValueError, match="resolution"):
        octahedron_scan("gamma_max", 1)
    with pytest.raises(ValueError, match="resolution"):
        octahedron_scan("gamma_max", MAX_SCAN_GRID + 1)
