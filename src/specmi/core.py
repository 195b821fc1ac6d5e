"""Entropy and classical mutual information over arrangements of a fixed spectrum.

Conventions
-----------
* All logarithms are natural.  Base-2 reporting is a presentation concern
  and is handled by the command line layer (values rescale by 1/ln 2).
* ``H(x) = -x log x`` with ``H(0) = 0`` by an explicit branch, never by
  relying on floating point ``0 * (-inf)``.
* A *spectrum* is a descending, unit-sum probability vector of length
  ``m * n``; an *arrangement* places those values in an ``m x n`` grid.
  The classical mutual information of an arrangement ``P`` is

      I(P) = sum_i H(r_i) + sum_j H(c_j) - sum_k H(lambda_k)

  where ``r_i``/``c_j`` are the row/column sums and ``lambda_k`` the
  entries themselves.  ``I`` depends only on the arrangement's row/column
  permutation class, not on the labelling of rows and columns.
* Values are validated where they enter the API, in the :class:`Spectrum`
  and :class:`ProbMatrix` constructors, and nowhere after: an arrangement
  that only rearranges validated values (:func:`arrange`,
  ``MatrixClass.instantiate``, ``varpi``) is built unchecked by
  ``ProbMatrix._of``.  The scalar
  functions (:func:`cmi` and the two-qubit quantities of ``qubit2``) then
  compute in plain Python floats with ``math.log``; NumPy is kept for
  arrays of spectra.  ``Spectrum.entropy`` stays NumPy: it is the sum
  ``entropy_terms(values).sum()`` that the extrema sweep subtracts, whose
  figures are pinned to the last bit.
"""
from __future__ import annotations

import dataclasses
import errno
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EPSILON",
    "SUM_TOLERANCE",
    "TIE_REDRAW_GAP",
    "Spectrum",
    "ProbMatrix",
    "Marginals",
    "entropy_term",
    "entropy_terms",
    "binary_entropy",
    "arrange",
    "marginals",
    "cmi",
    "sample_spectrum",
    "sample_spectra",
    "write_text_atomic",
]

#: Comparison tolerance for equality/ordering assertions on information values.
EPSILON = 1e-12

#: How far from 1 the entries of a Spectrum or ProbMatrix may sum.
SUM_TOLERANCE = 1e-9

#: Sampled spectrum entries closer than this are considered tied and redrawn.
TIE_REDRAW_GAP = 1e-15


def entropy_term(x: float) -> float:
    """Single entropy term ``-x log x`` (natural log), with ``H(0) = 0``.

    Raises ``ValueError`` if ``x`` lies outside ``[0, 1]`` beyond EPSILON;
    round-off underflow/overshoot within tolerance is clamped.
    """
    if not -EPSILON <= x <= 1.0 + EPSILON:
        raise ValueError(f"entropy_term: argument {x!r} outside [0, 1]")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 0.0
    return -x * math.log(x)


def binary_entropy(x: float) -> float:
    """Binary entropy ``h(x) = H(x) + H(1 - x)`` in nats.

    An ``x`` up to SUM_TOLERANCE + 4 * EPSILON outside ``[0, 1]`` is
    clamped: a sum of entries of an accepted four-entry Spectrum (total
    within SUM_TOLERANCE of 1, entries at least -EPSILON) lies that close.
    One further out raises ``ValueError``.
    """
    slack = SUM_TOLERANCE + 4.0 * EPSILON
    if not -slack <= x <= 1.0 + slack:
        raise ValueError(f"binary_entropy: argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return entropy_term(x) + entropy_term(1.0 - x)


def _plain_xlogx_sum(values: Iterable[float]) -> float:
    """Sum of -v log v over plain floats, treating v <= 0 as contributing 0."""
    log = math.log
    total = 0.0
    for v in values:
        if v > 0.0:
            total -= v * log(v)
    return total


def entropy_terms(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``-v log v`` of every entry ``v`` of the float array ``x``, 0 where ``v <= 0``.

    The package's one NumPy ``log``: :func:`entropy_term` over an array,
    without its range check, written into ``out`` (``x``'s shape) or a new
    array laid out as ``x``.  An entry where ``v`` is 0 or 1 is ``-0.0``.
    Where every entry is positive, one plain ``log`` gives the same bits
    without a mask.
    """
    out = np.empty_like(x) if out is None else out
    if x.size and x.min() > 0.0:
        np.log(x, out=out)
    else:
        out.fill(0.0)
        np.log(x, out=out, where=x > 0.0)
    out *= x
    return np.negative(out, out=out)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of the integer array ``values``, ascending, flattened.

    ``np.unique(values)`` without its ``numpy.ma`` import: NumPy 2.4's
    ``np.unique`` asks ``np.ma.is_masked`` whenever it is asked for no
    indices and no counts, and importing ``numpy.ma`` costs 12-23 ms and
    1.25 MB RSS, most of a cold ``class_table``.  Every such call in the
    package goes through here, since one left behind would move that import
    into the first command that reaches it.
    """
    ordered = np.sort(values, axis=None)
    first = np.empty(ordered.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """A descending, unit-sum probability vector (the fixed eigenvalues)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(map(float, self.values))
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("Spectrum needs at least 2 entries")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"Spectrum has a non-finite entry: {vals!r}")
        lowest = min(vals)
        if lowest < -EPSILON:
            raise ValueError(f"Spectrum has a negative entry: {lowest!r}")
        total = math.fsum(vals)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"Spectrum sums to {total!r}, not 1")
        for i, (x, y) in enumerate(zip(vals, vals[1:])):
            if x < y - EPSILON:
                raise ValueError(
                    "Spectrum values must be sorted in non-increasing order; "
                    f"entries {i} and {i + 1} are {x!r} < {y!r}"
                )

    @property
    def dim(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def entropy(self) -> float:
        """Shannon entropy of the spectrum itself, sum_k H(lambda_k)."""
        return float(entropy_terms(self.as_array()).sum())


@dataclasses.dataclass(frozen=True)
class ProbMatrix:
    """An m x n arrangement of a spectrum (a joint probability matrix).

    The constructor and :meth:`from_array` check their input: rows of equal
    length, finite entries of at least -EPSILON, total within SUM_TOLERANCE
    of 1.  Arrangements of values that were checked already are built by
    :meth:`_of`, which checks nothing.
    """

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple([tuple(map(float, row)) for row in self.entries])
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise ValueError("ProbMatrix must be non-empty")
        n = len(rows[0])
        flat: list[float] = []
        for row in rows:
            if len(row) != n:
                raise ValueError("ProbMatrix rows have unequal lengths")
            flat += row
        if not all(map(math.isfinite, flat)):
            raise ValueError(f"ProbMatrix has a non-finite entry: {rows!r}")
        lowest = min(flat)
        if lowest < -EPSILON:
            raise ValueError(f"ProbMatrix has a negative entry: {lowest!r}")
        total = math.fsum(flat)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"ProbMatrix entries sum to {total!r}, not 1")

    @classmethod
    def _of(cls, rows: tuple[tuple[float, ...], ...]) -> "ProbMatrix":
        """The arrangement with these rows, stored without any check.

        Only for rows, a tuple of equally long tuples of floats, that hold
        each value of an already validated :class:`Spectrum` or
        :class:`ProbMatrix` exactly once: such rows pass every check of the
        constructor, so it would only repeat them.
        """
        P = object.__new__(cls)
        object.__setattr__(P, "entries", rows)
        return P

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    @classmethod
    def from_array(cls, arr: np.ndarray | Sequence[Sequence[float]]) -> "ProbMatrix":
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2:
            raise ValueError("ProbMatrix.from_array expects a 2-d array")
        return cls(tuple(tuple(float(v) for v in row) for row in a))


@dataclasses.dataclass(frozen=True)
class Marginals:
    """Row and column sums of an arrangement."""

    rows: tuple[float, ...]
    cols: tuple[float, ...]


def arrange(s: Spectrum, perm: Sequence[int], m: int, n: int) -> ProbMatrix:
    """Arrange spectrum ``s`` into an ``m x n`` matrix along ``perm``.

    ``perm`` is a zero-based permutation of ``range(m * n)``: the entry at
    flat (row-major) position ``k`` is ``s.values[perm[k]]``.  Only the
    shape and ``perm`` are checked here; the values were checked when ``s``
    was built, so the matrix is built by ``ProbMatrix._of``.
    """
    if s.dim != m * n:
        raise ValueError(f"spectrum dim {s.dim} != m*n = {m * n}")
    p = tuple(int(k) for k in perm)
    if sorted(p) != list(range(m * n)):
        raise ValueError(f"perm {perm!r} is not a permutation of range({m * n})")
    flat = tuple(s.values[k] for k in p)
    return ProbMatrix._of(tuple(flat[i * n : (i + 1) * n] for i in range(m)))


def marginals(P: ProbMatrix) -> Marginals:
    """Row sums ``r_i`` and column sums ``c_j`` of the arrangement."""
    a = P.as_array()
    return Marginals(
        rows=tuple(float(v) for v in a.sum(axis=1)),
        cols=tuple(float(v) for v in a.sum(axis=0)),
    )


def cmi(P: ProbMatrix) -> float:
    """Classical mutual information of the arrangement, in nats.

    ``I(P) = sum_i H(r_i) + sum_j H(c_j) - sum_k H(lambda_k)``.  Each row
    and column sum is added left to right from 0.0, as ``sum`` does before
    Python 3.12, and the row, column and entry terms each go into their own
    total, the entries in row-major order.
    """
    log = math.log
    h_rows = h_cols = h_entries = 0.0
    for row in P.entries:
        r = 0.0
        for v in row:
            r += v
            if v > 0.0:
                h_entries -= v * log(v)
        if r > 0.0:
            h_rows -= r * log(r)
    for col in zip(*P.entries):
        c = 0.0
        for v in col:
            c += v
        if c > 0.0:
            h_cols -= c * log(c)
    return h_rows + h_cols - h_entries


def sample_spectrum(dim: int, rng: np.random.Generator) -> Spectrum:
    """One point uniform on the probability simplex: a row of :func:`sample_spectra`."""
    return Spectrum(tuple(float(x) for x in sample_spectra(dim, 1, rng)[0]))


def sample_spectra(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` points uniform on the probability simplex, sorted descending.

    Uses normalized unit-rate exponential spacings (uniform on the simplex).
    Returns a ``(count, dim)`` array whose rows are descending unit-sum
    spectra; rows containing near-ties (gap < ``TIE_REDRAW_GAP``) are redrawn
    so downstream strict-ordering assumptions hold.
    """
    if dim < 2:
        raise ValueError("sample_spectra needs dim >= 2")
    if count < 0:
        raise ValueError("sample_spectra needs count >= 0")
    e = rng.standard_exponential((count, dim))
    s = e / e.sum(axis=1, keepdims=True)
    s.sort(axis=1)
    s = s[:, ::-1]
    while True:
        near = s[:, :-1] - s[:, 1:] < TIE_REDRAW_GAP
        if not np.count_nonzero(near):  # one pass over the array, no per-row reduction
            return np.ascontiguousarray(s)
        bad = np.flatnonzero(near.any(axis=1))
        e = rng.standard_exponential((bad.size, dim))
        t = e / e.sum(axis=1, keepdims=True)
        t.sort(axis=1)
        s[bad] = t[:, ::-1]


#: ``json``'s tokens for the reprs of the floats that JSON has no number for.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


#: The text of each JSON scalar, by its exact type.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_parts(value: object, newline: str, out: list[str]) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` is a newline and its indent."""
    kind = type(value)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        out.append(scalar(value))
        return
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        out.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif set(map(type, value)) == {float}:  # one join; of float reprs only nan and inf hold "n"
        text = ("," + inner).join(map(float.__repr__, value))
        if "n" in text:
            text = ("," + inner).join(map(_float_text, value))
        out.append(f"[{inner}{text}{newline}]")
    else:
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")


def _json_text(value: object) -> str:
    """The text ``json`` writes for ``value`` with ``indent=2``, and a newline.

    With ``indent`` set, ``json`` takes its pure-Python encoder; this builds
    the same text directly, a list of floats as one join of their reprs.
    Dicts keep their key order.  Only ``dict`` (``str`` keys), ``list``,
    ``str``, ``float``, ``int``, ``bool`` and ``None`` are written, each of
    exactly that type: any other value, a tuple or a NumPy scalar included,
    raises TypeError.
    """
    out: list[str] = []
    _json_parts(value, "\n", out)
    out.append("\n")
    return "".join(out)


def write_text_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    ``text`` is one string or an iterable of strings, written in order.  It
    goes to a uniquely named temporary file in the target's directory, which
    then replaces the target, so concurrent writers never share a temporary
    file and readers never see a partial file.  On any failure, an iterable
    that raises included, the temporary file is removed and the target is
    left as it was.
    The new file gets the permissions a plain ``open`` would have given it.
    A symbolic link stays, and the file it names is replaced, or created if
    the link dangles; a link that loops raises OSError (``ELOOP``), as a
    plain ``open`` would.  A path that exists and is not a regular file (a
    FIFO, a device) is written directly.  When the temporary file cannot be
    created, as in a missing directory, the OSError names ``path``, not the
    temporary file.
    """
    if os.path.exists(path) and not os.path.isfile(path):  # nothing to replace
        fd, tmp = os.open(path, os.O_WRONLY), None
    else:
        given = path
        if os.path.islink(path):  # the temporary file goes beside the linked file
            path = os.path.realpath(path)
            if os.path.islink(path):  # resolution stopped in a loop
                raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, given) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        if tmp is not None:
            umask = os.umask(0)  # the only way to read the umask is to set it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise
