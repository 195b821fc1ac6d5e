"""Output checks behind the benchmark's fail count.

Every check compares a program output with a reference the benchmark
derives on its own: a stored digest for the default seed, an independent
recount through the brute-force path, a golden under ``tests/data/``, or
the scalar ``cmi`` and ``qubit2`` functions.  The checks run after the
timed phases, with tracing off.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

#: Absolute tolerance between vectorised and scalar information values (nats).
VALUE_TOL = 1e-12


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checks:
    """Counts checks attempted and keeps a description of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def census_output(checks: Checks, text: str, m: int, n: int, samples: int, n_classes: int) -> dict:
    """Structural checks of one census JSON; returns the parsed payload."""
    payload = json.loads(text)
    checks.check(
        payload["samples_done"] == samples and payload["n_classes"] == n_classes
        and (payload["m"], payload["n"]) == (m, n),
        f"census {m}x{n}: header {payload['samples_done']}/{payload['n_classes']}",
    )
    for side in ("max", "min"):
        hits = sum(payload[f"{side}_hits"].values())
        ties = payload[f"tie_events_{side}"]
        checks.check(
            samples <= hits and (hits == samples) == (ties == 0),
            f"census {m}x{n}: {side} hits {hits} against {samples} samples and {ties} ties",
        )
    checks.check(
        payload["convergence"][-1]["samples"] == samples,
        f"census {m}x{n}: convergence ends at {payload['convergence'][-1]['samples']}",
    )
    return payload


def census_files(checks: Checks, payload: dict, checkpoint_path: str, csv_path: str) -> None:
    """The checkpoint and the convergence CSV agree with the census JSON."""
    with open(checkpoint_path, encoding="utf-8") as fh:
        ckpt = json.load(fh)
    keys = ("max_hits", "min_hits", "tie_events_max", "tie_events_min", "seed", "samples")
    checks.check(
        all(ckpt[k] == payload[k] for k in keys),
        f"census checkpoint disagrees with the JSON for seed {payload['seed']}",
    )
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = [
        {k: str(v) for k, v in point.items()} for point in payload["convergence"]
    ]
    checks.check(rows == want, f"convergence CSV disagrees with the JSON for seed {payload['seed']}")


def census_recount(checks: Checks, specmi, payload: dict, m: int, n: int) -> None:
    """Recount the census's first block with sample_spectra + brute_force_extrema.

    Follows the seeding protocol of ``specmi.extrema``: block b draws from
    ``SeedSequence(entropy=seed, spawn_key=(b,))``.  ``payload`` must be a
    one-block census.
    """
    seed, size = payload["seed"], payload["block_size"]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    spectra = specmi.sample_spectra(m * n, size, rng)
    max_hits: dict[str, int] = {}
    min_hits: dict[str, int] = {}
    ties = [0, 0]
    for row in spectra:
        report = specmi.brute_force_extrema(specmi.Spectrum(tuple(row)), m, n)
        for side, classes, hits in ((0, report.maxima, max_hits), (1, report.minima, min_hits)):
            ties[side] += len(classes) > 1
            for c in classes:
                hits[str(c)] = hits.get(str(c), 0) + 1
    checks.check(
        (max_hits, min_hits, ties) == (
            payload["max_hits"], payload["min_hits"],
            [payload["tie_events_max"], payload["tie_events_min"]],
        ),
        f"census {m}x{n} seed {seed}: first-block tallies differ from the brute-force recount",
    )


def digest(checks: Checks, text: str, reference: str | None, what: str) -> None:
    """Compare with the stored digest; without a reference nothing is checked."""
    if reference is not None:
        got = sha256(text)
        checks.check(got == reference, f"{what}: digest {got} differs from reference {reference}")


def golden(checks: Checks, text: str, path: str, what: str) -> None:
    with open(path, encoding="utf-8") as fh:
        want = fh.read()
    checks.check(text == want, f"{what} differs from {path}")


def verdicts_numeric(checks: Checks, specmi, verdicts: dict, spectra: np.ndarray) -> None:
    """Every proven verdict holds for the scalar cmi at each given spectrum."""
    table = specmi.r23_table()
    values = np.array([
        [specmi.cmi(c.instantiate(specmi.Spectrum(tuple(row)))) for c in table.classes]
        for row in spectra
    ])
    for (a, b), kind in verdicts.items():
        if kind == "ProvenForward":
            lo, hi = a, b
        elif kind == "ProvenReverse":
            lo, hi = b, a
        else:
            continue
        checks.check(
            bool(np.all(values[:, lo - 1] <= values[:, hi - 1] + VALUE_TOL)),
            f"verdict {kind} for classes {a}, {b} fails numerically",
        )


def extrema_output(checks: Checks, text: str, scalar: list[float]) -> None:
    """Maxima, minima and extreme values agree with the scalar cmi per class."""
    payload = json.loads(text)
    vmax, vmin = max(scalar), min(scalar)
    maxima = [i + 1 for i, v in enumerate(scalar) if v >= vmax - 1e-12]
    minima = [i + 1 for i, v in enumerate(scalar) if v <= vmin + 1e-12]
    checks.check(
        [d["index"] for d in payload["maxima"]] == maxima
        and [d["index"] for d in payload["minima"]] == minima
        and abs(payload["max_value"] - vmax) <= VALUE_TOL
        and abs(payload["min_value"] - vmin) <= VALUE_TOL,
        f"extrema at spectrum {payload['spectrum']} disagrees with the scalar cmi",
    )


def qubit2_output(checks: Checks, info, order) -> None:
    """The gaps are the differences of the informations they are built from."""
    checks.check(
        abs(info.gamma_max - (info.i_max_qmi - info.i_max_class)) <= VALUE_TOL
        and abs(info.gamma_min - (info.i_max_qmi - info.i_min)) <= VALUE_TOL
        and abs(order.i_antidiagonal - info.i_max_class) <= VALUE_TOL
        and abs(order.i_identity - info.i_min) <= VALUE_TOL,
        "qubit2 informations disagree with the 2x2 total order",
    )


def octahedron_points(grid: int) -> int:
    """Grid points with |t11| + |t22| + |t33| <= 1, counted in integers."""
    half = grid - 1
    a = np.abs(2 * np.arange(grid, dtype=np.int32) - half)
    return int((a[:, None, None] + a[None, :, None] + a[None, None, :] <= half).sum())


def scan_output(checks: Checks, specmi, path: str, points: int, rng: np.random.Generator,
                rows: int) -> None:
    """Row count, then sampled rows against the scalar ``gamma_max``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    checks.check(
        lines[0] == "t11,t22,t33,value" and len(lines) == points + 1,
        f"scan has {len(lines) - 1} rows, expected {points}",
    )
    for r in rng.integers(1, len(lines), size=rows):
        t11, t22, t33, value = (float(x) for x in lines[r].split(","))
        raw, _ = specmi.spectrum_from_tvector(specmi.TVector(t11, t22, t33))
        s = specmi.Spectrum(tuple(sorted((max(x, 0.0) for x in raw), reverse=True)))
        want = specmi.gamma_max(s)
        checks.check(
            math.isclose(value, want, rel_tol=0.0, abs_tol=VALUE_TOL),
            f"scan row {r} ({t11}, {t22}, {t33}) has {value}, scalar gamma_max gives {want}",
        )
