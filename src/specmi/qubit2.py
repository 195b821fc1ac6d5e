"""Two-qubit states with maximally mixed marginals (T-states).

Such a state is fixed, up to local unitaries, by the diagonal of its
correlation matrix, ``t = (t11, t22, t33)``; valid t-vectors form the
tetrahedron with vertices (1,1,-1), (1,-1,1), (-1,1,1), (-1,-1,-1), and the
state's eigenvalues are an affine image of t.  The separable T-states are
exactly the octahedron |t11| + |t22| + |t33| <= 1 (the intersection of the
tetrahedron with its mirror image), and on the spectrum side separability
reads: largest eigenvalue at most 1/2.

For a spectrum a >= b >= c >= d the information quantities compare the
quantum mutual information ceiling with what any classical arrangement of
the same eigenvalues can reach (natural log throughout):

    i_max_qmi   = 2 log 2 - H(a,b,c,d)
    i_min       = h(a+b) + h(a+c) - H(a,b,c,d)
    i_max_class = h(a+c) + h(b+c) - H(a,b,c,d)
    gamma_max   = i_max_qmi - i_max_class
    gamma_min   = i_max_qmi - i_min

``gamma_max`` is the irreducible gap between quantum and best-classical
mutual information; ``gamma_min`` the gap to the worst classical
arrangement.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator

import numpy as np

from .core import EPSILON, Spectrum, _plain_xlogx_sum, binary_entropy, entropy_terms

__all__ = [
    "LN2",
    "TVector",
    "tvector_from_spectrum",
    "spectrum_from_tvector",
    "DOMAIN_VERTICES",
    "Qubit2Informations",
    "qubit2_informations",
    "i_max_qmi",
    "i_min",
    "i_max_class",
    "gamma_max",
    "gamma_min",
    "separable_tstate",
    "absolutely_separable",
    "mems_concurrence",
    "BlochClassical",
    "bloch_classical",
    "TotalOrder2x2",
    "verify_total_order_2x2",
    "MAX_SCAN_GRID",
    "SCAN_FUNCTIONS",
    "scan_axis",
    "octahedron_scan",
]

LN2 = math.log(2.0)


def _require_dim4(s: Spectrum) -> None:
    if s.dim != 4:
        raise ValueError(f"two-qubit spectrum needs 4 eigenvalues, got {s.dim}")


@dataclasses.dataclass(frozen=True)
class TVector:
    """Diagonal of the correlation matrix of a T-state."""

    t11: float
    t22: float
    t33: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t11, self.t22, self.t33)

    def norm1(self) -> float:
        return abs(self.t11) + abs(self.t22) + abs(self.t33)

    def in_octahedron(self) -> bool:
        """Whether the T-state with this correlation diagonal is separable."""
        return self.norm1() <= 1.0 + EPSILON


def tvector_from_spectrum(s: Spectrum) -> TVector:
    """Correlation diagonal of the T-state with eigenvalues a >= b >= c >= d."""
    _require_dim4(s)
    a, b, c, d = s.values
    return TVector(t11=a - b + c - d, t22=-a + b + c - d, t33=a + b - c - d)


def _tstate_eigenvalues(u, v, w):
    """The four eigenvalues of the T-state with correlation diagonal (u, v, w).

    The same expressions serve floats and equally shaped arrays.
    """
    return (
        (1.0 + u - v + w) / 4.0,
        (1.0 - u + v + w) / 4.0,
        (1.0 + u + v - w) / 4.0,
        (1.0 - u - v - w) / 4.0,
    )


def spectrum_from_tvector(t: TVector) -> tuple[tuple[float, float, float, float], bool]:
    """Eigenvalue 4-tuple of the T-state with correlation diagonal t.

    Returns the raw (unsorted) tuple and whether all four are nonnegative,
    i.e. whether t lies in the tetrahedron of valid states.
    """
    values = _tstate_eigenvalues(t.t11, t.t22, t.t33)
    return values, all(x >= -EPSILON for x in values)


#: Corners of the descending-spectrum domain used throughout: the pure-ish
#: boundary spectra at which the information gaps attain their extremes.
DOMAIN_VERTICES: tuple[Spectrum, ...] = (
    Spectrum((0.5, 0.5, 0.0, 0.0)),
    Spectrum((0.25, 0.25, 0.25, 0.25)),
    Spectrum((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0)),
    Spectrum((0.5, 0.25, 0.25, 0.0)),
    Spectrum((0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0)),
)


def i_max_qmi(s: Spectrum) -> float:
    """Quantum mutual information of the T-state (marginals maximally mixed)."""
    _require_dim4(s)
    return 2.0 * LN2 - _plain_xlogx_sum(s.values)


def i_min(s: Spectrum) -> float:
    """Classical mutual information of the least informative 2x2 arrangement."""
    _require_dim4(s)
    a, b, c, _ = s.values
    return binary_entropy(a + b) + binary_entropy(a + c) - _plain_xlogx_sum(s.values)


def i_max_class(s: Spectrum) -> float:
    """Classical mutual information of the most informative 2x2 arrangement."""
    _require_dim4(s)
    a, b, c, _ = s.values
    return binary_entropy(a + c) + binary_entropy(b + c) - _plain_xlogx_sum(s.values)


def gamma_max(s: Spectrum) -> float:
    """Gap between the quantum mutual information and the best classical one."""
    _require_dim4(s)
    a, b, c, _ = s.values
    return 2.0 * LN2 - binary_entropy(a + c) - binary_entropy(b + c)


def gamma_min(s: Spectrum) -> float:
    """Gap between the quantum mutual information and the worst classical one."""
    _require_dim4(s)
    a, b, c, _ = s.values
    return 2.0 * LN2 - binary_entropy(a + b) - binary_entropy(a + c)


def separable_tstate(s: Spectrum) -> bool:
    """Separability of the T-state: largest eigenvalue at most 1/2."""
    _require_dim4(s)
    return s.values[0] <= 0.5 + EPSILON


def absolutely_separable(s: Spectrum) -> bool:
    """Separability after every global unitary: a <= c + 2 sqrt(b d)."""
    _require_dim4(s)
    a, b, c, d = s.values
    return a <= c + 2.0 * math.sqrt(max(b * d, 0.0)) + EPSILON


def mems_concurrence(s: Spectrum) -> float:
    """Concurrence of the maximally entangled mixed state with this spectrum."""
    _require_dim4(s)
    a, b, c, d = s.values
    return max(0.0, a - c - 2.0 * math.sqrt(max(b * d, 0.0)))


@dataclasses.dataclass(frozen=True, slots=True)
class Qubit2Informations:
    """The five information quantities of one T-state spectrum."""

    i_max_qmi: float
    i_min: float
    i_max_class: float
    gamma_max: float
    gamma_min: float
    separable: bool


def qubit2_informations(s: Spectrum) -> Qubit2Informations:
    return Qubit2Informations(
        i_max_qmi=i_max_qmi(s),
        i_min=i_min(s),
        i_max_class=i_max_class(s),
        gamma_max=gamma_max(s),
        gamma_min=gamma_min(s),
        separable=separable_tstate(s),
    )


@dataclasses.dataclass(frozen=True)
class BlochClassical:
    """z-components of the local Bloch vectors and correlation after a
    classical relabelling of the eigenvalues."""

    r_a_z: float
    r_b_z: float
    t_z: float


def bloch_classical(
    s: Spectrum, tau: tuple[int, int, int, int] = (1, 2, 3, 4), conventional: bool = False
) -> BlochClassical:
    """Bloch data of the classical (diagonal) state with permuted eigenvalues.

    ``tau`` gives 1-based positions: the i-th slot reads eigenvalue number
    ``tau[i-1]``.  The plain convention keeps the 1/4 normalisation of the
    eigenprojector expansion; ``conventional=True`` rescales by 4 to the
    usual Bloch normalisation.
    """
    _require_dim4(s)
    if sorted(tau) != [1, 2, 3, 4]:
        raise ValueError(f"tau {tau!r} is not a permutation of (1, 2, 3, 4)")
    p1, p2, p3, p4 = (s.values[t - 1] for t in tau)
    scale = 4.0 if conventional else 1.0
    return BlochClassical(
        r_a_z=scale * (p1 + p2 - p3 - p4) / 4.0,
        r_b_z=scale * (p1 - p2 + p3 - p4) / 4.0,
        t_z=scale * (p1 - p2 - p3 + p4) / 4.0,
    )


@dataclasses.dataclass(frozen=True, slots=True)
class TotalOrder2x2:
    """The strict information order of the three 2x2 arrangement classes.

    For a strictly descending spectrum the identity arrangement, the
    bottom-row swap, and the anti-diagonal swap are totally ordered, both
    by mutual information and by how far the split marginals sit from 1/2.
    """

    i_identity: float
    i_bottom_swap: float
    i_antidiagonal: float
    smd_identity: float
    smd_bottom_swap: float
    smd_antidiagonal: float


def verify_total_order_2x2(s: Spectrum) -> TotalOrder2x2:
    """Check the strict 2x2 ordering at one strictly descending spectrum.

    Raises ValueError when the spectrum has tied eigenvalues (the order
    degenerates) and RuntimeError if the strict chain fails numerically.
    The informations equal :func:`~specmi.core.cmi` of the three
    arrangements to the last bit: each ``-x log x`` below is added in the
    order ``cmi`` adds it, but from the already validated eigenvalues, so
    no ``ProbMatrix`` is built.
    """
    _require_dim4(s)
    a, b, c, d = s.values
    for i, (x, y) in enumerate(zip(s.values, s.values[1:])):
        if x - y <= 0.0:
            raise ValueError(
                f"total order needs strictly descending eigenvalues; "
                f"entries {i} and {i + 1} are {x!r} and {y!r}"
            )
    log = math.log
    ha, hb, hc, hd, hab, hcd, hac, hbd, had, hbc = (
        -x * log(x) if x > 0.0 else 0.0
        for x in (a, b, c, d, a + b, c + d, a + c, b + d, a + d, b + c)
    )
    out = TotalOrder2x2(
        i_identity=(hab + hcd) + (hac + hbd) - (ha + hb + hc + hd),
        i_bottom_swap=(hab + hcd) + (had + hbc) - (ha + hb + hd + hc),
        i_antidiagonal=(had + hbc) + (hac + hbd) - (ha + hd + hc + hb),
        smd_identity=abs(a + d - 0.5),
        smd_bottom_swap=abs(a + c - 0.5),
        smd_antidiagonal=abs(a + b - 0.5),
    )
    if not (out.i_identity < out.i_bottom_swap < out.i_antidiagonal):
        raise RuntimeError(f"information chain failed at spectrum {s.values!r}")
    if not (out.smd_identity < out.smd_bottom_swap < out.smd_antidiagonal):
        raise RuntimeError(f"marginal-deviation chain failed at spectrum {s.values!r}")
    return out


# ---------------------------------------------------------------------------
# Vectorized octahedron scans
# ---------------------------------------------------------------------------

def _h_rows(x: np.ndarray) -> np.ndarray:
    """Binary entropy of an array, elementwise, 0-safe at the endpoints."""
    x = np.clip(x, 0.0, 1.0)
    return entropy_terms(x) + entropy_terms(1.0 - x)


def _entropy_rows(spectra: np.ndarray) -> np.ndarray:
    return entropy_terms(spectra).sum(axis=1)


def _scan_i_max_qmi(sp: np.ndarray) -> np.ndarray:
    return 2.0 * LN2 - _entropy_rows(sp)


def _scan_i_min(sp: np.ndarray) -> np.ndarray:
    a, b, c = sp[:, 0], sp[:, 1], sp[:, 2]
    return _h_rows(a + b) + _h_rows(a + c) - _entropy_rows(sp)


def _scan_i_max_class(sp: np.ndarray) -> np.ndarray:
    a, b, c = sp[:, 0], sp[:, 1], sp[:, 2]
    return _h_rows(a + c) + _h_rows(b + c) - _entropy_rows(sp)


def _scan_gamma_max(sp: np.ndarray) -> np.ndarray:
    a, b, c = sp[:, 0], sp[:, 1], sp[:, 2]
    return 2.0 * LN2 - _h_rows(a + c) - _h_rows(b + c)


def _scan_gamma_min(sp: np.ndarray) -> np.ndarray:
    a, b, c = sp[:, 0], sp[:, 1], sp[:, 2]
    return 2.0 * LN2 - _h_rows(a + b) - _h_rows(a + c)


#: Largest ``resolution`` of :func:`octahedron_scan`.  A scan is computed a
#: few t11 slabs at a time and never holds a grid cube: written to a file,
#: ``qubit2-scan`` peaks at 5.5-6.3 MB (tracemalloc, all five functions) and
#: its process at about 40 MB RSS at grid 201, 31 MB of which is the import.
MAX_SCAN_GRID = 201

#: Row budget of one chunk of :func:`_scan_grid`: a chunk is a run of whole
#: consecutive t11 slabs with at most this many rows, or one larger slab.
_SCAN_CHUNK_ROWS = 8192

SCAN_FUNCTIONS = {
    "gamma_max": _scan_gamma_max,
    "gamma_min": _scan_gamma_min,
    "i_max_qmi": _scan_i_max_qmi,
    "i_min": _scan_i_min,
    "i_max_class": _scan_i_max_class,
}


def scan_axis(resolution: int) -> np.ndarray:
    """The ``resolution`` values of each correlation axis of :func:`octahedron_scan`."""
    return np.linspace(-1.0, 1.0, resolution)


#: One chunk of a scan: the axis indices (i, j, k) of its points and their values.
_ScanChunk = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _scan_grid(function: str, resolution: int) -> tuple[np.ndarray, Iterator[_ScanChunk]]:
    """:func:`octahedron_scan` as (axis, chunks), its arguments checked before any chunk.

    Each chunk is (i, j, k, values): the kept points ``axis[i], axis[j],
    axis[k]`` of a run of whole consecutive t11 slabs, in row-major order,
    and ``function`` at each.  A chunk holds at most ``_SCAN_CHUNK_ROWS``
    rows unless it is a single slab.
    """
    if function not in SCAN_FUNCTIONS:
        raise ValueError(
            f"unknown scan function {function!r}; choose one of "
            f"{sorted(SCAN_FUNCTIONS)}"
        )
    if not 2 <= resolution <= MAX_SCAN_GRID:
        raise ValueError(
            f"octahedron_scan needs 2 <= resolution <= {MAX_SCAN_GRID}, got {resolution}"
        )
    axis = scan_axis(resolution)
    return axis, _scan_chunks(SCAN_FUNCTIONS[function], axis)


def _scan_chunks(
    function: Callable[[np.ndarray], np.ndarray], axis: np.ndarray
) -> Iterator[_ScanChunk]:
    # Slab i's mask adds |t11| + |t22| + |t33| in that order, as a row sum
    # would; np.nonzero lists its kept (j, k) in row-major order.
    size = np.abs(axis)
    slabs: list[tuple[int, np.ndarray, np.ndarray]] = []
    rows = 0
    for i in range(len(axis)):
        j, k = np.nonzero((size[i] + size)[:, None] + size <= 1.0 + EPSILON)
        if not len(j):
            continue
        if slabs and rows + len(j) > _SCAN_CHUNK_ROWS:
            yield _scan_slabs(function, axis, slabs)
            slabs, rows = [], 0
        slabs.append((i, j, k))
        rows += len(j)
    if slabs:
        yield _scan_slabs(function, axis, slabs)


def _scan_slabs(
    function: Callable[[np.ndarray], np.ndarray],
    axis: np.ndarray,
    slabs: list[tuple[int, np.ndarray, np.ndarray]],
) -> _ScanChunk:
    """One chunk of :func:`_scan_chunks` from its slabs' (i, j, k)."""
    i = np.repeat([s[0] for s in slabs], [len(s[1]) for s in slabs])
    j = np.concatenate([s[1] for s in slabs])
    k = np.concatenate([s[2] for s in slabs])
    raw = np.stack(_tstate_eigenvalues(axis[i], axis[j], axis[k]))
    np.clip(raw, 0.0, None, out=raw)
    # A five-comparator network sorts each column of ``raw`` descending into
    # a row of ``spectra``.  Each comparator returns one of its inputs, and
    # the clipped eigenvalues hold no NaN and no -0.0 (each sum starts from
    # 1.0), so this is exactly what a sort gives.  ``spectra`` is C-ordered,
    # as the sorted array was, so ``_entropy_rows`` adds each row in the
    # same order.
    spectra = np.empty((len(i), 4))
    hi01, lo01 = np.maximum(raw[0], raw[1]), np.minimum(raw[0], raw[1])
    hi23, lo23 = np.maximum(raw[2], raw[3]), np.minimum(raw[2], raw[3])
    np.maximum(hi01, hi23, out=spectra[:, 0])
    np.minimum(lo01, lo23, out=spectra[:, 3])
    upper, lower = np.minimum(hi01, hi23), np.maximum(lo01, lo23)
    np.maximum(upper, lower, out=spectra[:, 1])
    np.minimum(upper, lower, out=spectra[:, 2])
    return i, j, k, function(spectra)


def octahedron_scan(function: str, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one information quantity over a grid of separable T-states.

    Grids each correlation axis with ``resolution`` points on [-1, 1],
    keeps the points of the separability octahedron (row-major grid
    order), folds each to its descending spectrum, and evaluates
    ``function`` (a key of SCAN_FUNCTIONS).  Returns (points, values):
    an (Nx3) array of t-vectors and the matching value array, in nats.
    """
    axis, chunks = _scan_grid(function, resolution)
    points, values = [np.empty((0, 3))], [np.empty(0)]
    for i, j, k, chunk_values in chunks:
        points.append(np.stack((axis[i], axis[j], axis[k]), axis=1))
        values.append(chunk_values)
    return np.concatenate(points), np.concatenate(values)
