"""Order relations between arrangements: majorisation, a-priori certificates,
and the identric-mean transposition calculus.

Symbolic side
-------------
Arrangement entries are unknowns from an ordered alphabet
``s_0 > s_1 > ... > s_{mn-1} > 0`` (rendered ``a > b > ...``), summing to 1.
:func:`symbolic_sum_compare` proves inequalities between sums of symbols
using exactly two sound rules:

* cancellation of the common multiset, and
* greedy injective dominance matching (every residual left symbol is paired
  with a strictly larger unused right symbol; unmatched right residue is
  fine because all symbols are positive).

Both rules are decided on integer symbol counts, one count per symbol of
the alphabet.  Cancellation is the count difference ``d = high - low``; the
greedy matching of the left residue ``max(-d, 0)`` into the right residue
``max(d, 0)`` exists iff, for every symbol t, the left residue holds no
more symbols up to t than the right residue holds strictly before t (a
prefix-count test).  :func:`_leq` applies that one rule to count arrays of
any leading shape.  A grid holds each symbol once, so every sum that a
batched decision compares (a line, a union of lines, a side total) is a
symbol set, and both batched deciders, :func:`_decide_majorisation` and
:func:`_decide_titration`, read the rule from one table per shape over
symbol-set bitmasks (:func:`_set_order`).  The text provers call it on
counts and render their reason lines (common part, matched pairs,
leftover) from the same counts, so a certificate is only ever the trace of
a decision made by this rule.

The prover is deliberately incomplete: a verdict of ``Inconclusive`` means
"not derivable by these rules", not "false".  Verdicts state non-strict
conclusions (``<=``) so they remain sound on degenerate spectra; equal
multisets therefore compare as ``ProvenForward``.

Numeric side
------------
The change of mutual information under a transposition of two entries
``alpha > beta`` factors through identric means of the affected row and
column sums:

    I(P^tau) - I(P) = (alpha - beta) * log[ mu(r_a^t, r_a) mu(c_a^t, c_a)
                                          / (mu(r_b, r_b^t) mu(c_b, c_b^t)) ]

with the row (column) factors dropped when the two entries share a row
(column).  :func:`titrate_check` decides the sign of that expression from
the symbol ordering alone whenever the minimum of the four base sums is
provably on the beta side and the base-sum comparison goes the right way,
or when both beta sums are dominated outright.  It makes one :func:`_leq`
call per swap and renders reason lines only for the rule it returns.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .core import EPSILON, ProbMatrix, _distinct

__all__ = [
    "SYMBOL_LETTERS",
    "SymbolicSum",
    "RelationKind",
    "RelationVerdict",
    "symbolic_sum_compare",
    "vector_majorises",
    "matrix_majorises",
    "vector_majorisation_certificate",
    "majorisation_certificate",
    "identric_mean",
    "TranspositionContext",
    "transposition_context",
    "symbolic_transposition_context",
    "cmi_diff_transposition",
    "titrate_check",
    "derive_relation",
]

#: Letters for the ordered alphabet; index 0 ('a') is the largest value.
SYMBOL_LETTERS = "abcdefghijkl"


def grid_display(grid: Sequence[Sequence[int]]) -> str:
    """Word with a row separator, e.g. 'ade|fcb'."""
    return "|".join("".join(SYMBOL_LETTERS[s] for s in row) for row in grid)


def _letter(sym: int) -> str:
    return SYMBOL_LETTERS[sym]


def _leq(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Decide ``low <= high`` for symbol-count arrays (last axis: symbols).

    True where, after cancelling the common counts, every left symbol can be
    matched to a strictly larger unused right symbol: the left residue holds
    no more symbols up to each t than the right residue holds before t.
    Broadcasts over the leading axes, and counts in the inputs' integer type:
    the batched deciders pass int8 counts of at most 12 symbols, while the
    counts of a :class:`SymbolicSum` are platform integers of any size.
    """
    # symbols first: NumPy runs a cumulative sum or a reduction over a short
    # last axis several times slower
    d = np.ascontiguousarray(np.moveaxis(np.subtract(high, low), -1, 0))
    left = np.cumsum(np.maximum(-d, 0), axis=0, dtype=d.dtype)
    right = np.cumsum(np.maximum(d, 0), axis=0, dtype=d.dtype)
    return (left[0] == 0) & (left[1:] <= right[:-1]).all(axis=0)


def _render_counts(counts: np.ndarray) -> str:
    """Render a symbol-count vector, e.g. counts (0, 1, 2, 1) -> 'b+2c+d'."""
    parts = [
        _letter(sym) if count == 1 else f"{count}{_letter(sym)}"
        for sym, count in enumerate(counts.tolist())
        if count
    ]
    return "+".join(parts) or "0"


@dataclasses.dataclass(frozen=True)
class SymbolicSum:
    """A formal sum of alphabet symbols (a multiset of symbol indices)."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        syms = tuple(sorted(int(s) for s in self.symbols))
        if any(s < 0 or s >= len(SYMBOL_LETTERS) for s in syms):
            raise ValueError(f"unknown symbol in {self.symbols!r}")
        object.__setattr__(self, "symbols", syms)

    @classmethod
    def of(cls, *symbols: int) -> "SymbolicSum":
        return cls(tuple(symbols))

    def __add__(self, other: "SymbolicSum") -> "SymbolicSum":
        return SymbolicSum(self.symbols + other.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """How often each symbol of the alphabet occurs, in alphabet order (read-only)."""
        counts = np.bincount(np.array(self.symbols, dtype=np.intp), minlength=len(SYMBOL_LETTERS))
        counts.flags.writeable = False
        return counts

    def cancel(self, other: "SymbolicSum") -> tuple["SymbolicSum", "SymbolicSum", "SymbolicSum"]:
        """Remove the common multiset; returns (self residue, other residue, common)."""
        mine, theirs = self.counts, other.counts
        common = np.minimum(mine, theirs)
        return tuple(
            SymbolicSum(tuple(np.repeat(np.arange(len(c)), c).tolist()))
            for c in (mine - common, theirs - common, common)
        )

    def render(self) -> str:
        return _render_counts(self.counts)


class RelationKind(enum.Enum):
    PROVEN_FORWARD = "ProvenForward"
    PROVEN_REVERSE = "ProvenReverse"
    INCONCLUSIVE = "Inconclusive"


@dataclasses.dataclass(frozen=True)
class RelationVerdict:
    """Outcome of an a-priori comparison, with its derivation trace."""

    kind: RelationKind
    certificate: tuple[str, ...]

    @property
    def is_forward(self) -> bool:
        return self.kind is RelationKind.PROVEN_FORWARD

    @property
    def is_reverse(self) -> bool:
        return self.kind is RelationKind.PROVEN_REVERSE

    @property
    def is_inconclusive(self) -> bool:
        return self.kind is RelationKind.INCONCLUSIVE

    def render(self) -> str:
        return "\n".join(self.certificate)


_new_object = object.__new__


def _verdict(kind: RelationKind, certificate: tuple[str, ...]) -> RelationVerdict:
    """``RelationVerdict(kind, certificate)``, built without the frozen ``__init__``.

    The frozen ``__init__`` sets each field through ``object.__setattr__``;
    writing the instance dict directly gives the same object (equality,
    hash, repr and pickling read the same fields) at about half the cost.
    """
    verdict = _new_object(RelationVerdict)
    fields = verdict.__dict__
    fields["kind"] = kind
    fields["certificate"] = certificate
    return verdict


def _leq_reason(low: np.ndarray, high: np.ndarray) -> str:
    """The one-line reason for ``low <= high``, which :func:`_leq` decided."""
    common = np.minimum(low, high)
    left, right = low - common, high - common
    parts: list[str] = []
    if common.any():
        parts.append(f"cancel {_render_counts(common)}")
    if not left.any():
        residue = f"positive residue {_render_counts(right)}"
        parts.append(residue if right.any() else "equal multisets")
        return "; ".join(parts)
    symbols = np.arange(len(low))
    lefts, rights = np.repeat(symbols, left), np.repeat(symbols, right)
    parts.append("match " + ", ".join(f"{_letter(s)}<{_letter(t)}" for s, t in zip(lefts, rights)))
    if len(rights) > len(lefts):
        leftover = np.bincount(rights[len(lefts):], minlength=len(low))
        parts.append(f"positive residue {_render_counts(leftover)}")
    return "; ".join(parts)


def _prove_leq(S: SymbolicSum, T: SymbolicSum) -> tuple[bool, str]:
    """Try to prove S <= T a priori; returns (ok, one-line reason)."""
    low, high = S.counts, T.counts
    if not _leq(low, high):
        return False, ""
    return True, _leq_reason(low, high)


def symbolic_sum_compare(S: SymbolicSum, T: SymbolicSum) -> RelationVerdict:
    """Compare two symbol sums a priori.

    ``ProvenForward`` means S <= T for every admissible valuation of the
    alphabet, ``ProvenReverse`` means T <= S.  Equal multisets report
    ``ProvenForward`` (the conclusion is non-strict).  Sound, incomplete.
    """
    header = f"compare {S.render()} vs {T.render()}"
    for kind, low, high in (
        (RelationKind.PROVEN_FORWARD, S, T),
        (RelationKind.PROVEN_REVERSE, T, S),
    ):
        ok, reason = _prove_leq(low, high)
        if ok:
            return RelationVerdict(
                kind, (header, f"  {low.render()} <= {high.render()}  [{reason}]")
            )
    return RelationVerdict(
        RelationKind.INCONCLUSIVE,
        (header, "  no dominance matching in either direction"),
    )


# ---------------------------------------------------------------------------
# Majorisation
# ---------------------------------------------------------------------------

def vector_majorises(u: Sequence[float], v: Sequence[float]) -> bool:
    """True iff u majorises v: u's descending prefix sums dominate v's within EPSILON.

    Requires equal lengths and equal totals (within 1e-9); raises otherwise.
    """
    uu = np.sort(np.asarray(u, dtype=float))[::-1]
    vv = np.sort(np.asarray(v, dtype=float))[::-1]
    if uu.shape != vv.shape:
        raise ValueError(f"length mismatch: {len(uu)} vs {len(vv)}")
    if abs(float(uu.sum() - vv.sum())) > 1e-9:
        raise ValueError(f"sum mismatch: {float(uu.sum())!r} vs {float(vv.sum())!r}")
    cu = np.cumsum(uu)
    cv = np.cumsum(vv)
    return bool(np.all(cu >= cv - EPSILON))


def matrix_majorises(M1: ProbMatrix, M2: ProbMatrix) -> bool:
    """Row-and-column majorisation of arrangements with the same entries.

    True iff the row-sum vector of M1 majorises that of M2 and likewise for
    the column sums.  The majoriser is the more ordered arrangement and has
    the lower mutual information.
    """
    if (M1.m, M1.n) != (M2.m, M2.n):
        raise ValueError(f"shape mismatch: {(M1.m, M1.n)} vs {(M2.m, M2.n)}")
    a = sorted(v for row in M1.entries for v in row)
    b = sorted(v for row in M2.entries for v in row)
    if any(abs(x - y) > 1e-9 for x, y in zip(a, b)):
        raise ValueError("arrangements do not share an entry multiset")
    r1 = [math.fsum(row) for row in M1.entries]
    r2 = [math.fsum(row) for row in M2.entries]
    c1 = [math.fsum(col) for col in zip(*M1.entries)]
    c2 = [math.fsum(col) for col in zip(*M2.entries)]
    return vector_majorises(r1, r2) and vector_majorises(c1, c2)


def vector_majorisation_certificate(
    u: Sequence[SymbolicSum], v: Sequence[SymbolicSum]
) -> tuple[str, ...] | None:
    """A-priori certificate that the sums u majorise the sums v.

    Uses the subset rule: the j-th descending prefix sum of u dominates
    v's iff every j-subset of v is provably <= some j-subset of u; the
    full-length sums must be provably equal.  Returns the trace lines, or
    None when some required inequality is not derivable.
    """
    if len(u) != len(v):
        raise ValueError("length mismatch")
    u_counts = np.array([term.counts for term in u])
    v_counts = np.array([term.counts for term in v])
    lines: list[str] = []
    for j in range(1, len(u)):
        subsets = np.array(list(itertools.combinations(range(len(u)), j)))
        sums_v, sums_u = v_counts[subsets].sum(axis=1), u_counts[subsets].sum(axis=1)
        proven = _leq(sums_v[:, None], sums_u[None, :])  # subset t of v <= subset s of u
        if not proven.any(axis=1).all():
            return None
        # the first j-subset of u, in combination order, that dominates each of v's
        for t, s in enumerate(proven.argmax(axis=1).tolist()):
            t_txt = "+".join(f"({v[x].render()})" for x in subsets[t])
            s_txt = "+".join(f"({u[x].render()})" for x in subsets[s])
            lines.append(f"  prefix {j}: {t_txt} <= {s_txt}  [{_leq_reason(sums_v[t], sums_u[s])}]")
    u_total, v_total = u_counts.sum(axis=0), v_counts.sum(axis=0)
    if not (_leq(v_total, u_total) and _leq(u_total, v_total)):
        return None
    lines.append(f"  totals equal: {_render_counts(u_total)}")
    return tuple(lines)


def _grid_row_sums(grid: Sequence[Sequence[int]]) -> list[SymbolicSum]:
    return [SymbolicSum(tuple(row)) for row in grid]


def _grid_col_sums(grid: Sequence[Sequence[int]]) -> list[SymbolicSum]:
    return [SymbolicSum(tuple(col)) for col in zip(*grid)]


def majorisation_certificate(
    grid_a: Sequence[Sequence[int]], grid_b: Sequence[Sequence[int]]
) -> tuple[str, ...] | None:
    """A-priori certificate that symbolic arrangement A majorises B.

    A and B are grids of symbol indices over the same alphabet.  Returns
    trace lines covering the row-sum and column-sum subset rules, or None
    if the majorisation is not derivable from the symbol ordering.
    """
    rows = vector_majorisation_certificate(_grid_row_sums(grid_a), _grid_row_sums(grid_b))
    if rows is None:
        return None
    cols = vector_majorisation_certificate(_grid_col_sums(grid_a), _grid_col_sums(grid_b))
    if cols is None:
        return None
    head = f"rule majorisation: {grid_display(grid_a)} majorises {grid_display(grid_b)}"
    return (head, "row sums:") + rows + ("column sums:",) + cols


# ---------------------------------------------------------------------------
# Identric mean and the transposition calculus
# ---------------------------------------------------------------------------

def identric_mean(x: float, y: float) -> float:
    """Identric (Lagrangian) mean of x and y for the entropy integrand.

    mu(x, y) = e^{-1} (y^y / x^x)^{1/(y-x)} for x != y, and x at x == y.
    Evaluated as ``x * exp((1 + 1/r) * log1p(r) - 1)`` with ``r = (y-x)/x``,
    which stays accurate down to |y - x| ~ 0 (no cancellation in the
    exponent), and lies strictly between min(x, y) and max(x, y).
    """
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"identric_mean needs positive arguments, got ({x!r}, {y!r})")
    if x > 1.0 + EPSILON or y > 1.0 + EPSILON:
        raise ValueError(f"identric_mean arguments must lie in (0, 1], got ({x!r}, {y!r})")
    if y < x:
        x, y = y, x
    t = y - x
    if t == 0.0:
        return float(x)
    r = t / x
    return x * math.exp((1.0 + 1.0 / r) * math.log1p(r) - 1.0)


@dataclasses.dataclass(frozen=True)
class TranspositionContext:
    """The quantities entering the transposition formula for I(P^tau) - I(P).

    ``alpha``/``beta`` are the two swapped entries with alpha the larger
    (numeric contexts carry values, symbolic contexts carry alphabet
    indices).  ``r_*``/``c_*`` are the row/column sums of the two entries
    before the swap and their tau-images after it; when the entries share
    a row (column) the row (column) fields are suppressed to None and the
    corresponding factor of the formula is 1.
    """

    alpha: float | int
    beta: float | int
    r_alpha: float | SymbolicSum | None
    r_beta: float | SymbolicSum | None
    c_alpha: float | SymbolicSum | None
    c_beta: float | SymbolicSum | None
    r_alpha_tau: float | SymbolicSum | None
    r_beta_tau: float | SymbolicSum | None
    c_alpha_tau: float | SymbolicSum | None
    c_beta_tau: float | SymbolicSum | None
    same_row: bool
    same_col: bool
    symbolic: bool


def _check_positions(m: int, n: int, pos_a: tuple[int, int], pos_b: tuple[int, int]) -> None:
    for (i, j) in (pos_a, pos_b):
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"position {(i, j)!r} outside a {m}x{n} grid")
    if pos_a == pos_b:
        raise ValueError("transposition needs two distinct positions")


def transposition_context(
    P: ProbMatrix, pos_a: tuple[int, int], pos_b: tuple[int, int]
) -> TranspositionContext:
    """Numeric context for swapping the entries at two (row, col) positions."""
    _check_positions(P.m, P.n, pos_a, pos_b)
    if P.entries[pos_a[0]][pos_a[1]] < P.entries[pos_b[0]][pos_b[1]]:
        pos_a, pos_b = pos_b, pos_a
    (ia, ja), (ib, jb) = pos_a, pos_b
    alpha = P.entries[ia][ja]
    beta = P.entries[ib][jb]
    rows = [math.fsum(row) for row in P.entries]
    cols = [math.fsum(col) for col in zip(*P.entries)]
    same_row = ia == ib
    same_col = ja == jb
    d = alpha - beta
    return TranspositionContext(
        alpha=alpha,
        beta=beta,
        r_alpha=None if same_row else rows[ia],
        r_beta=None if same_row else rows[ib],
        c_alpha=None if same_col else cols[ja],
        c_beta=None if same_col else cols[jb],
        r_alpha_tau=None if same_row else rows[ia] - d,
        r_beta_tau=None if same_row else rows[ib] + d,
        c_alpha_tau=None if same_col else cols[ja] - d,
        c_beta_tau=None if same_col else cols[jb] + d,
        same_row=same_row,
        same_col=same_col,
        symbolic=False,
    )


def symbolic_transposition_context(
    grid: Sequence[Sequence[int]], pos_a: tuple[int, int], pos_b: tuple[int, int]
) -> TranspositionContext:
    """Symbolic context for swapping two entries of a symbol grid."""
    g = tuple(tuple(int(s) for s in row) for row in grid)
    m, n = len(g), len(g[0])
    _check_positions(m, n, pos_a, pos_b)
    if g[pos_a[0]][pos_a[1]] > g[pos_b[0]][pos_b[1]]:
        # larger alphabet index = smaller value; alpha must be the larger value
        pos_a, pos_b = pos_b, pos_a
    (ia, ja), (ib, jb) = pos_a, pos_b
    alpha = g[ia][ja]
    beta = g[ib][jb]
    rows = _grid_row_sums(g)
    cols = _grid_col_sums(g)
    same_row = ia == ib
    same_col = ja == jb

    def swap_in(s: SymbolicSum, out: int, into: int) -> SymbolicSum:
        syms = list(s.symbols)
        syms.remove(out)
        return SymbolicSum(tuple(syms + [into]))

    return TranspositionContext(
        alpha=alpha,
        beta=beta,
        r_alpha=None if same_row else rows[ia],
        r_beta=None if same_row else rows[ib],
        c_alpha=None if same_col else cols[ja],
        c_beta=None if same_col else cols[jb],
        r_alpha_tau=None if same_row else swap_in(rows[ia], alpha, beta),
        r_beta_tau=None if same_row else swap_in(rows[ib], beta, alpha),
        c_alpha_tau=None if same_col else swap_in(cols[ja], alpha, beta),
        c_beta_tau=None if same_col else swap_in(cols[jb], beta, alpha),
        same_row=same_row,
        same_col=same_col,
        symbolic=True,
    )


def cmi_diff_transposition(ctx: TranspositionContext) -> float:
    """I(P^tau) - I(P) through the identric-mean product formula."""
    if ctx.symbolic:
        raise ValueError("cmi_diff_transposition needs a numeric context")
    if ctx.alpha == ctx.beta:
        return 0.0
    log_ratio = 0.0
    if not ctx.same_row:
        log_ratio += math.log(identric_mean(ctx.r_alpha_tau, ctx.r_alpha))
        log_ratio -= math.log(identric_mean(ctx.r_beta, ctx.r_beta_tau))
    if not ctx.same_col:
        log_ratio += math.log(identric_mean(ctx.c_alpha_tau, ctx.c_alpha))
        log_ratio -= math.log(identric_mean(ctx.c_beta, ctx.c_beta_tau))
    return (ctx.alpha - ctx.beta) * log_ratio


def titrate_check(ctx: TranspositionContext) -> RelationVerdict:
    """Decide the sign of I(P^tau) - I(P) from the symbol ordering alone.

    ``ProvenForward`` certifies I(P) <= I(P^tau) (the swap cannot decrease
    mutual information); ``ProvenReverse`` the opposite.  Rules, tried in
    order for each direction:

    * monotonicity shortcut - both beta-side base sums are injectively
      dominated by the alpha-tau-side base sums;
    * titration - the minimum of {r_alpha_tau, c_alpha_tau, r_beta, c_beta}
      is provably a beta-side sum AND r_beta + c_beta <= r_alpha_tau +
      c_alpha_tau is provable.

    When the entries share a row (column) the test degenerates to the
    single base comparison c_beta vs c_alpha_tau (r_beta vs r_alpha_tau).
    A swap of equal symbols is Inconclusive (nothing to be done; also no
    numeric change).

    One :func:`_leq` call on the stacked counts of the base sums and the two
    side totals decides every order between them; the rules are walked on
    that matrix, and only the rule returned renders its reason lines.
    """
    if not ctx.symbolic:
        raise ValueError("titrate_check needs a symbolic context")
    if ctx.alpha == ctx.beta:
        return RelationVerdict(
            RelationKind.INCONCLUSIVE,
            ("context: alpha = beta; the transposition is trivial",),
        )
    # the base sums in the order of _decide_titration; a shared row (column)
    # leaves only the column (row) base sum on each side
    names = [name for name in ("r_beta", "c_beta", "r_alpha_tau", "c_alpha_tau")
             if getattr(ctx, name) is not None]
    counts = [getattr(ctx, name).counts for name in names]
    beta_side, alpha_side = (0,), (1,)
    if len(names) == 4:
        beta_side, alpha_side = (0, 1), (2, 3)
        names += ["r_beta + c_beta", "r_alpha_tau + c_alpha_tau"]
        counts += [counts[0] + counts[1], counts[2] + counts[3]]
    counts = np.array(counts)
    leq = _leq(counts[:, None], counts[None, :]).tolist()
    header = (
        f"context: alpha = {_letter(ctx.alpha)}, beta = {_letter(ctx.beta)}",
        *(f"  {names[x]} = {_render_counts(counts[x])}" for x in alpha_side + beta_side),
    )

    def sums(x: int, y: int) -> str:
        reason = _leq_reason(counts[x], counts[y])
        return f"{_render_counts(counts[x])} <= {_render_counts(counts[y])}  [{reason}]"

    def named(x: int, y: int) -> str:
        return f"  {names[x]} <= {names[y]}: {sums(x, y)}"

    def attempt(low: tuple[int, ...], high: tuple[int, ...]) -> tuple[str, ...] | None:
        """Prove that the 'low' side loses to the 'high' side."""
        if len(low) == 1:
            if not leq[low[0]][high[0]]:
                return None
            shared = "row" if ctx.same_row else "column"
            rule = f"rule base-comparison (entries share a {shared}; {shared} factors cancel):"
            return (rule, named(low[0], high[0]))
        (l0, l1), (h0, h1) = low, high
        # monotonicity shortcut: injective pairwise domination
        for (i0, i1) in ((h0, h1), (h1, h0)):
            if leq[l0][i0] and leq[l1][i1]:
                return ("rule monotonicity: both base sums dominated pairwise",
                        named(l0, i0), named(l1, i1))
        # titration: minimum provably on the low side + base-sum comparison
        for cand in low:
            others = [x for x in low + high if x != cand]
            if all(leq[cand][x] for x in others):
                break
        else:
            return None
        low_total, high_total = (4, 5) if low == (0, 1) else (5, 4)
        if not leq[low_total][high_total]:
            return None
        return (
            f"rule titration: minimum of the four base sums is {names[cand]}",
            *(named(cand, x) for x in others),
            f"rule sum-comparison: {names[low_total]} <= {names[high_total]}",
            f"  {sums(low_total, high_total)}",
        )

    for kind, low, high, effect in (
        (RelationKind.PROVEN_FORWARD, beta_side, alpha_side, "decrease"),
        (RelationKind.PROVEN_REVERSE, alpha_side, beta_side, "increase"),
    ):
        lines = attempt(low, high)
        if lines is not None:
            verdict = f"verdict: {kind.value} (the swap cannot {effect} mutual information)"
            return RelationVerdict(kind, header + lines + (verdict,))
    if len(beta_side) == 1:
        failure = "the single base comparison is not derivable"
    else:
        failure = "neither direction is derivable by these rules"
    return RelationVerdict(RelationKind.INCONCLUSIVE, header + (failure,))


def _line_masks(grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symbol bitmasks (bit s: symbol s) of the rows and of the columns of grids.

    ``grids`` is a (count, m, n) batch of symbol grids that each hold every
    symbol once; returns (count, m) and (count, n) int16 arrays.  Each line
    is ORed one position at a time, because a NumPy reduction over a short
    axis is several times slower.
    """
    bits = np.left_shift(1, grids, dtype=np.int16)
    rows, cols = bits[:, :, 0].copy(), bits[:, 0, :].copy()
    for j in range(1, bits.shape[2]):
        rows |= bits[:, :, j]
    for i in range(1, bits.shape[1]):
        cols |= bits[:, i, :]
    return rows, cols


@functools.cache
def _set_order(m: int, n: int) -> np.ndarray:
    """The :func:`_leq` order of the symbol sets that m x n decisions compare.

    ``leq[x, y]`` is ``_leq`` of the sets with bitmasks x and y (bit s:
    symbol s of the mn) where the two sets are the same size or both lines
    (m or n symbols), and False elsewhere.  Those are the only comparisons
    made: a majorisation compares sums of j lines of one length, and a
    titration compares lines with lines and side totals of m + n - 1
    symbols with each other.  A lookup table of ``_leq``, not a second rule.
    """
    masks = np.arange(1 << (m * n))
    counts = (masks[:, None] >> np.arange(m * n) & 1).astype(np.int8)
    sizes = counts.sum(axis=1)
    groups = np.where(sizes == n, m, sizes)  # rows and columns compare as one group
    leq = np.zeros((len(masks),) * 2, dtype=bool)
    for group in _distinct(groups):
        sets = np.flatnonzero(groups == group)
        leq[np.ix_(sets, sets)] = _leq(counts[sets, None], counts[None, sets])
    leq.flags.writeable = False  # shared by every caller
    return leq


def _set_leq(m: int, n: int, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``_set_order(m, n)[low, high]`` for int16 set bitmasks, read as one flat table.

    A flat ``take`` at int32 positions is about 2.5 times faster than
    indexing the table by two arrays, which NumPy widens to intp first.
    """
    return _set_order(m, n).ravel().take(np.left_shift(low, m * n, dtype=np.int32) | high)


def _decide_majorisation(grids_a: np.ndarray, grids_b: np.ndarray) -> np.ndarray:
    """Batched decision of :func:`majorisation_certificate`: is a certificate found?

    ``grids_a`` and ``grids_b`` are (count, m, n) arrays of symbol grids that
    each hold every symbol 0..mn-1 once, so their totals are equal.  Pair k
    is certified when, for rows and for columns and every j, each j-subset
    of B_k's line sums is <= some j-subset of A_k's.  The lines of a grid
    are disjoint symbol sets, so the sum of j lines is the union of their
    bitmasks, and every comparison is read from the shape's :func:`_set_order`.
    """
    _, m, n = grids_a.shape
    return _decide_line_majorisation(m, n, _line_masks(grids_a), _line_masks(grids_b))


def _decide_line_majorisation(
    m: int, n: int, lines_a: Sequence[np.ndarray], lines_b: Sequence[np.ndarray]
) -> np.ndarray:
    """:func:`_decide_majorisation` of m x n grids given by their :func:`_line_masks`.

    ``lines_a`` holds the row and column masks of as many grids as
    ``lines_b``, or of one grid, which is then decided against each of them:
    per j, the sets that some j lines of that grid dominate are read once.
    """
    leq = _set_order(m, n)
    certified = np.ones(len(lines_b[0]), dtype=bool)
    for masks_a, masks_b in zip(lines_a, lines_b):
        k = masks_a.shape[1]
        for j in range(1, k):
            live = np.flatnonzero(certified)  # each j only tests the pairs still certified
            subsets = np.array(list(itertools.combinations(range(k), j)))
            sums_b = np.bitwise_or.reduce(masks_b[live][:, subsets], axis=2)
            if len(masks_a) == 1:
                sums_a = np.bitwise_or.reduce(masks_a[:, subsets], axis=2)
                certified[live] = leq[:, sums_a[0]].any(axis=1)[sums_b].all(axis=1)
            else:
                sums_a = np.bitwise_or.reduce(masks_a[live][:, subsets], axis=2)
                # (A's j-sums, B's j-sums, pairs), reduced along the leading
                # axes: a NumPy reduction over a short last axis is slow
                found = _set_leq(m, n, sums_b.T[None, :, :], sums_a.T[:, None, :])
                certified[live] = found.any(axis=0).all(axis=0)
    return certified


def _decide_titration(grids: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Batched decision of :func:`titrate_check` for swaps of two cells.

    ``grids`` is a (count, m, n) array of symbol grids that each hold every
    symbol 0..mn-1 once; ``cells`` a (count, 2) array of two distinct
    row-major cells per grid.  Returns an int8 verdict per swap: 1 for
    ``ProvenForward``, -1 for ``ProvenReverse``, 0 for ``Inconclusive``, by
    the rules of :func:`titrate_check`, forward first.

    Every comparison the rules make is between two symbol sets.  A grid
    holds each symbol once, so a base sum (a row or a column, before or
    after the swap) is a set of n or m symbols.  The two side totals, r_beta
    + c_beta and r_alpha_tau + c_alpha_tau, each hold beta twice, since the
    row and the column of a cell share only that cell; ``_leq`` cancels the
    common beta, so the totals compare as the unions, sets of m + n - 1
    symbols.  A line that holds both cells keeps its set under the swap, and
    only the other line's base sums are compared.  So :func:`_decide_swaps`
    reads every comparison from the shape's :func:`_set_order`.
    """
    count, m, n = grids.shape
    symbols = np.take_along_axis(grids.reshape(count, m * n), cells, axis=1)
    lines = _swap_lines(*_line_masks(grids), np.arange(count), cells, symbols)
    return _verdicts(*_decide_swaps(m, n, *lines))


def _swap_lines(
    rows: np.ndarray, cols: np.ndarray, grid: np.ndarray, cells: np.ndarray, symbols: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The arguments of :func:`_decide_swaps` after ``m, n``, for swaps of two cells.

    ``rows`` and ``cols`` are the :func:`_line_masks` of a batch of grids.
    Swap i exchanges the row-major cells ``cells[i]`` of grid ``grid[i]``,
    which hold the symbols ``symbols[i]``; both are (count, 2) arrays.
    """
    m, n = rows.shape[1], cols.shape[1]
    # alpha is the larger value, i.e. the smaller symbol index
    first = symbols[:, 0] < symbols[:, 1]
    alpha = np.where(first, cells[:, 0], cells[:, 1])
    beta = np.where(first, cells[:, 1], cells[:, 0])
    (ia, ja), (ib, jb) = divmod(alpha, n), divmod(beta, n)
    grid = grid.astype(np.intp)
    at_row, at_col = grid * m, grid * n
    rows, cols = rows.ravel(), cols.ravel()
    bits = np.left_shift(1, symbols, dtype=np.int16)
    return (
        rows.take(at_row + ib), cols.take(at_col + jb), rows.take(at_row + ia),
        cols.take(at_col + ja), bits[:, 0] | bits[:, 1],
    )


def _decide_swaps(
    m: int, n: int, r_beta: np.ndarray, c_beta: np.ndarray, r_alpha: np.ndarray,
    c_alpha: np.ndarray, flip: np.ndarray | int,
) -> tuple[np.ndarray, np.ndarray]:
    """The directions that :func:`titrate_check` proves, for swaps given by their lines.

    The first four arguments are the symbol bitmasks of the row and the
    column through beta's cell, then through alpha's, in m x n grids that
    each hold every symbol once; ``flip`` holds the bits of alpha and beta.
    Returns ``(forward, reverse)``: per swap, whether the rules prove that
    it cannot decrease, and that it cannot increase, mutual information.
    """
    same_row, same_col = r_alpha == r_beta, c_alpha == c_beta
    r_alpha_tau = np.where(same_row, r_alpha, r_alpha ^ flip)
    c_alpha_tau = np.where(same_col, c_alpha, c_alpha ^ flip)
    # a shared row (column) leaves only the column (row) base comparison
    beta = np.where(same_row, c_beta, r_beta)
    alpha_tau = np.where(same_row, c_alpha_tau, r_alpha_tau)
    forward, reverse = _set_leq(m, n, beta, alpha_tau), _set_leq(m, n, alpha_tau, beta)
    apart = np.flatnonzero(~(same_row | same_col))
    r_beta, c_beta, r_alpha_tau, c_alpha_tau = (
        v[apart] for v in (r_beta, c_beta, r_alpha_tau, c_alpha_tau)
    )
    sets = r_beta, c_beta, r_alpha_tau, c_alpha_tau, r_beta | c_beta, r_alpha_tau | c_alpha_tau

    @functools.cache
    def le(x: int, y: int) -> np.ndarray:
        return _set_leq(m, n, sets[x], sets[y])

    def proven(l0: int, l1: int, h0: int, h1: int, totals: np.ndarray) -> np.ndarray:
        monotone = le(l0, h0) & le(l1, h1) | le(l0, h1) & le(l1, h0)
        minimum = (le(l0, l1) & le(l0, h0) & le(l0, h1)) | (le(l1, l0) & le(l1, h0) & le(l1, h1))
        return monotone | minimum & totals

    forward[apart], reverse[apart] = proven(0, 1, 2, 3, le(4, 5)), proven(2, 3, 0, 1, le(5, 4))
    return forward, reverse


def _verdicts(forward: np.ndarray, reverse: np.ndarray) -> np.ndarray:
    """int8 verdicts: 1 where ``forward``, else -1 where ``reverse``, else 0."""
    return np.where(forward, 1, np.where(reverse, -1, 0)).astype(np.int8)


# ---------------------------------------------------------------------------
# Relation derivation over a class table
# ---------------------------------------------------------------------------

#: Most certified hops composed into one derived chain.
_SEARCH_DEPTH = 4

_FORWARD = RelationKind.PROVEN_FORWARD
_REVERSE = RelationKind.PROVEN_REVERSE
_INCONCLUSIVE = RelationKind.INCONCLUSIVE

#: The fixed lines of a derived verdict; each head is completed by
#: ``f"{head}{src}) <= I(class {dst}) ..."``.
_IDENTICAL_LINES = ("identical classes; empty chain", f"verdict: {_FORWARD.value}")
_NO_CHAIN_LINE = f"no certified chain found in either direction (search depth {_SEARCH_DEPTH})"
_FORWARD_HEAD = f"verdict: {_FORWARD.value} (I(class "
_REVERSE_HEAD = f"verdict: {_REVERSE.value} (I(class "


def _class_index(c, table, count: int) -> int:
    """The 1-based index in ``table``, of ``count`` classes, of a MatrixClass or an index.

    An index is a Python or NumPy integer, never a bool; anything else,
    a class of another shape, or an index outside the table raises
    ValueError.
    """
    if isinstance(c, _classes.MatrixClass):
        if (c.m, c.n) != (table.m, table.n):
            raise ValueError(f"class {c.index} is {c.m}x{c.n}, but the table is {table.m}x{table.n}")
        index = c.index
    elif isinstance(c, (int, np.integer)) and not isinstance(c, bool):
        index = int(c)
    else:
        raise ValueError(f"class index {c!r} is not an integer")
    if not 1 <= index <= count:
        raise ValueError(f"class index {index} outside 1..{count}")
    return index


def derive_relation(a, b, table=None) -> RelationVerdict:
    """Search for an a-priori chain proving I(a) <= I(b) or the reverse.

    ``a``/``b`` are MatrixClass values or 1-based class indices, Python or
    NumPy integers but not bools (indices resolve against ``table``,
    defaulting to the table of ``a``'s shape when ``a`` is a MatrixClass
    and to the 2x3 table otherwise); any other index, or a MatrixClass of
    another shape than the table, raises ValueError.  The
    search is breadth-first over certified majorisation edges and
    titrate-certified single transpositions, transitively composed up to
    four hops; only the edges of the chain found are rendered as text.
    Chains are read from a per-source breadth-first tree
    (``classes._search_tree``), built on the first query from that class
    and kept; it reads the relation rows (``classes._relation_row``) of the
    classes it expands.
    """
    if table is None:
        if isinstance(a, _classes.MatrixClass):
            table = _classes.class_table(a.m, a.n)
        else:
            table = _classes.r23_table()
    count = table._count
    # a Python int in range needs no other check; anything else, a bool
    # included (its type is bool), takes _class_index's rules and messages
    ia = a if type(a) is int and 0 < a <= count else _class_index(a, table, count)
    ib = b if type(b) is int and 0 < b <= count else _class_index(b, table, count)
    header = f"derive: class {ia} vs class {ib}"
    m, n = table.m, table.n
    if ia == ib:
        return _verdict(_FORWARD, (header, *_IDENTICAL_LINES))
    search_tree = _classes._search_tree
    tree = search_tree(m, n, ia)
    if ib in tree:
        kind, src, dst, verdict_head = _FORWARD, ia, ib, _FORWARD_HEAD
    else:
        tree = search_tree(m, n, ib)
        if ia not in tree:
            return _verdict(_INCONCLUSIVE, (header, _NO_CHAIN_LINE))
        kind, src, dst, verdict_head = _REVERSE, ib, ia, _REVERSE_HEAD
    path = [dst]  # read back from dst, so hop k runs from path[-k] to path[-k - 1]
    node = dst
    while node != src:
        node = tree[node]
        path.append(node)
    hops = len(path) - 1
    edge_lines = _classes._edge_lines
    lines = [header]
    for hop in range(1, hops + 1):
        x, y = path[-hop], path[-hop - 1]
        lines.append(f"step {hop}: class {x} -> class {y}")
        lines += edge_lines(m, n, x, y)
    if hops > 1:
        lines.append(f"rule transitivity: compose the {hops} steps above")
    lines.append(f"{verdict_head}{src}) <= I(class {dst}) for every admissible spectrum)")
    return _verdict(kind, tuple(lines))


# classes imports this module at its top, so it is bound here, once every
# name it imports from this module is defined
from . import classes as _classes  # noqa: E402
