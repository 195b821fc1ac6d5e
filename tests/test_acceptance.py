"""Acceptance checks: every deliverable behaviour, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  The census criteria draw a million samples each and take a
few minutes in total on one core.
"""
import json
import math
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from specmi import (
    DOMAIN_VERTICES,
    ProbMatrix,
    RelationKind,
    Spectrum,
    TVector,
    arrange,
    brute_force_extrema,
    census,
    cmi,
    cmi_diff_transposition,
    enumerate_classes,
    gamma_max,
    gamma_min,
    honeycomb,
    i_max_class,
    i_min,
    identric_mean,
    majorisation_certificate,
    matrix_majorises,
    octahedron_scan,
    r23_table,
    sample_spectra,
    sample_spectrum,
    spectrum_from_tvector,
    standard_form_sets,
    symbolic_transposition_context,
    titrate_check,
    transposition_context,
    verify_theorem_chain,
    verify_total_order_2x2,
    xi_pairs,
)
from specmi.classes import canonical_form, class_table, word_to_grid
from specmi.cli import main

DATA = Path(__file__).parent / "data"
LN2 = math.log(2.0)
MINZ = {1, 7, 13, 25, 31}


@pytest.fixture(scope="module")
def census_23():
    t0 = time.perf_counter()
    report = census(2, 3, 1_000_000, 7, workers=8)
    return report, time.perf_counter() - t0


def test_criterion_01_million_sample_maximum_is_unique(census_23):
    report, elapsed = census_23
    assert report.samples_done == 1_000_000
    assert report.max_classes == (48,)
    assert elapsed < 120.0
    print(f"PASS criterion 1: 10^6-sample maximum is class 48 alone ({elapsed:.1f}s)")


def test_criterion_02_million_sample_minima(census_23):
    report, _ = census_23
    assert set(report.min_classes) == MINZ
    first = next(p for p in report.convergence if p.samples == 100_000)
    assert first.n_min_classes == 5
    assert first.n_max_classes == 1
    print("PASS criterion 2: minima are exactly the five candidates, all seen by 10^5")


@pytest.mark.parametrize(
    "m,n,n_max,n_min",
    [(2, 4, 2, 14), (2, 5, 6, 42), (3, 3, 18, 18)],
    ids=["2x4", "2x5", "3x3"],
)
def test_criterion_03_other_shape_censuses(m, n, n_max, n_min):
    t0 = time.perf_counter()
    report = census(m, n, 1_000_000, 7, workers=8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    assert len(report.max_classes) == n_max
    assert len(report.min_classes) == n_min
    half = next(p for p in report.convergence if p.samples == 500_000)
    final = report.convergence[-1]
    assert (half.n_max_classes, half.n_min_classes) == (n_max, n_min)
    assert (final.n_max_classes, final.n_min_classes) == (n_max, n_min)
    print(
        f"PASS criterion 3 ({m}x{n}): {n_max}/{n_min} extremal classes, "
        f"stable from half budget ({elapsed:.1f}s)"
    )


def test_criterion_04_two_qubit_gap_extremes():
    v1, v2, _, v4, _ = DOMAIN_VERTICES
    golden = 0.75 * math.log(3.0) - LN2
    assert gamma_max(v4) == pytest.approx(golden, abs=1e-12)
    assert gamma_min(v1) == pytest.approx(LN2, abs=1e-12)
    assert gamma_min(v2) == pytest.approx(0.0, abs=1e-12)

    _, values = octahedron_scan("gamma_max", 201)
    assert values.max() == pytest.approx(golden, abs=1e-12)

    for axis in range(3):
        for sign in (1.0, -1.0):
            t = [0.0, 0.0, 0.0]
            t[axis] = sign
            raw, valid = spectrum_from_tvector(TVector(*t))
            assert valid
            s = Spectrum(tuple(sorted((max(x, 0.0) for x in raw), reverse=True)))
            assert gamma_min(s) == pytest.approx(LN2, abs=1e-12)

    N = 40
    checked = 0
    for i in range(N, -1, -1):
        for j in range(min(i, N - i), -1, -1):
            for k in range(min(j, N - i - j), -1, -1):
                l = N - i - j - k
                if l < 0 or l > k:
                    continue
                s = Spectrum((i / N, j / N, k / N, l / N))
                vanishes = gamma_max(s) < 1e-10
                assert vanishes == (i == j and i + k == N // 2), (i, j, k, l)
                checked += 1
    assert checked > 100
    print(f"PASS criterion 4: gap extremes and the vanishing slice ({checked} lattice points)")


def test_criterion_05_theorem_chain_proofs():
    t0 = time.perf_counter()
    verdicts = verify_theorem_chain()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert len(verdicts) == 19
    assert all(v.kind is RelationKind.PROVEN_FORWARD for v in verdicts)
    rendered = "\n\n".join(v.render() for v in verdicts) + "\n"
    assert rendered == (DATA / "chain_traces.txt").read_text()
    print(f"PASS criterion 5: all 19 ordering proofs hold and match the trace ({elapsed:.3f}s)")


def test_criterion_06_identric_mean_suite():
    rng = np.random.default_rng(607)
    pairs = rng.uniform(1e-6, 1.0, size=(100_000, 2))
    pairs.sort(axis=1)
    kept = 0
    for x, y in pairs:
        if y - x < 1e-9:
            continue
        ratio = (identric_mean(float(x), float(y)) - x) / (y - x)
        assert 1.0 / math.e < ratio < 0.5
        kept += 1
    assert kept > 99_000

    xs = np.linspace(0.02, 0.98, 193)
    for x0 in np.linspace(0.05, 0.9, 12):
        vals = np.array([identric_mean(float(x0), float(x)) for x in xs])
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0)
        assert np.all(np.diff(diffs) < 1e-12)

    table = r23_table()
    worst = 0.0
    for _ in range(10_000):
        s = sample_spectrum(6, rng)
        cls = table.classes[int(rng.integers(60))]
        P = cls.instantiate(s)
        i1, j1 = int(rng.integers(2)), int(rng.integers(3))
        while True:
            i2, j2 = int(rng.integers(2)), int(rng.integers(3))
            if (i1, j1) != (i2, j2):
                break
        a = np.array(P.entries)
        a[i1, j1], a[i2, j2] = a[i2, j2], a[i1, j1]
        direct = cmi(ProbMatrix.from_array(a)) - cmi(P)
        ctx = transposition_context(P, (i1, j1), (i2, j2))
        worst = max(worst, abs(cmi_diff_transposition(ctx) - direct))
    assert worst <= 1e-10
    print(f"PASS criterion 6: identric-mean suite and swap identity (worst {worst:.2e})")


def test_criterion_07_majorisation_vs_information():
    table = r23_table()
    grids = [np.array(word_to_grid(c.word, 2, 3)) for c in table.classes]
    spectra = sample_spectra(6, 1000, np.random.default_rng(707))

    # per-class sorted row/column prefix sums for every spectrum at once
    placed = spectra[:, np.stack(grids)]          # (1000, 60, 2, 3)
    rows = placed.sum(axis=3)                     # (1000, 60, 2)
    cols = placed.sum(axis=2)                     # (1000, 60, 3)
    rows = -np.sort(-rows, axis=2)
    cols = -np.sort(-cols, axis=2)
    row_pref = np.cumsum(rows, axis=2)[..., :1]   # only the top row sum matters
    col_pref = np.cumsum(cols, axis=2)[..., :2]

    values = np.empty((1000, 60))
    for k in range(1000):
        values[k] = brute_force_extrema(Spectrum(tuple(spectra[k])), 2, 3).values

    eps = 1e-12
    checked = 0
    for i, j in combinations(range(60), 2):
        for a, b in ((i, j), (j, i)):
            dom = np.all(row_pref[:, a] >= row_pref[:, b] - eps, axis=1) & np.all(
                col_pref[:, a] >= col_pref[:, b] - eps, axis=1
            )
            bad = dom & (values[:, a] > values[:, b] + 1e-12)
            assert not bad.any(), (a + 1, b + 1)
            checked += int(dom.sum())
    assert checked > 0

    # the certified swap edges agree with the evaluated information
    positions = [(r, c) for r in range(2) for c in range(3)]
    edges = []
    for cls in table.classes:
        grid = word_to_grid(cls.word, 2, 3)
        for a in range(6):
            for b in range(a + 1, 6):
                ctx = symbolic_transposition_context(grid, positions[a], positions[b])
                kind = titrate_check(ctx).kind
                if kind is RelationKind.INCONCLUSIVE:
                    continue
                g = [list(row) for row in grid]
                (r1, c1), (r2, c2) = positions[a], positions[b]
                g[r1][c1], g[r2][c2] = g[r2][c2], g[r1][c1]
                image = canonical_form(tuple(tuple(row) for row in g)).index
                if kind is RelationKind.PROVEN_FORWARD:
                    edges.append((cls.index - 1, image - 1))
                else:
                    edges.append((image - 1, cls.index - 1))
    assert len(edges) == 660
    for src, dst in edges:
        assert np.all(values[:, src] <= values[:, dst] + 1e-12), (src + 1, dst + 1)

    # certified majorisation never points against the listing order
    sym_grids = {c.index: word_to_grid(c.word, 2, 3) for c in table.classes}
    certified = 0
    for i in range(1, 61):
        for j in range(1, 61):
            if i != j and majorisation_certificate(sym_grids[i], sym_grids[j]) is not None:
                assert i < j
                certified += 1
    assert certified == 423

    # the pairwise numeric comparator agrees with the vectorized dominance test
    s0 = Spectrum(tuple(spectra[0]))
    mats = [c.instantiate(s0) for c in table.classes]
    for i, j in combinations(range(60), 2):
        direct = matrix_majorises(mats[i], mats[j])
        vect = bool(
            np.all(row_pref[0, i] >= row_pref[0, j] - eps)
            and np.all(col_pref[0, i] >= col_pref[0, j] - eps)
        )
        assert direct == vect, (i + 1, j + 1)
    print(
        f"PASS criterion 7: dominance implies ordering at 1000 spectra "
        f"({checked} dominated pairs, 660 swap edges, 423 certificates)"
    )


def test_criterion_08_class_tables_and_honeycomb():
    assert enumerate_classes(2, 3).classes == r23_table().classes
    for (m, n), count in {(2, 2): 3, (2, 3): 60, (2, 4): 840, (2, 5): 15120, (3, 3): 5040}.items():
        assert len(class_table(m, n).classes) == count
    fixed, pairs = xi_pairs()
    assert len(fixed) == 16 and len(pairs) == 22
    hc = honeycomb()
    assert len(hc.hexagons) == 10
    assert all(len(h) == 6 for h in hc.hexagons)
    flea = [
        e for e in hc.edges_of_kind("majorisation")
        if (e.src - 1) // 6 == (e.dst - 1) // 6
    ]
    assert len(flea) == 80
    per_hexagon = {b: 0 for b in range(10)}
    for e in flea:
        per_hexagon[(e.src - 1) // 6] += 1
    assert all(v == 8 for v in per_hexagon.values())
    sets = standard_form_sets()
    assert set(sets.minz) == MINZ
    print("PASS criterion 8: class tables, involution, and honeycomb structure")


def test_criterion_09_total_order_of_two_bit_arrangements():
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    done = 0
    while done < 100_000:
        w = np.sort(rng.random(4))[::-1]
        if np.min(w[:-1] - w[1:]) < 1e-9:
            continue
        s = Spectrum(tuple(w / w.sum()))
        order = verify_total_order_2x2(s)
        assert abs(order.i_identity - i_min(s)) <= 1e-12
        assert abs(order.i_antidiagonal - i_max_class(s)) <= 1e-12
        done += 1
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 9: strict total order at {done} spectra ({elapsed:.1f}s)")


def test_criterion_10_reproducible_command_line_runs(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        target = tmp_path / f"census_{name}.json"
        assert main([
            "census", "--m", "2", "--n", "3", "--samples", "20000",
            "--seed", "7", "--output", str(target),
        ]) == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["max_classes"] == [48]

    scans = []
    for name in ("a", "b"):
        target = tmp_path / f"scan_{name}.csv"
        assert main([
            "qubit2-scan", "--function", "gamma-max", "--grid", "41",
            "--output", str(target),
        ]) == 0
        scans.append(target.read_bytes())
    assert scans[0] == scans[1]
    capsys.readouterr()
    print("PASS criterion 10: byte-identical reruns of census and scan")
