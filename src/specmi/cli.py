"""Command line interface.

Subcommands
-----------
* ``extrema``      exact sweep of every arrangement class at one spectrum
* ``census``       randomized census of extremal classes over random spectra
* ``relation``     a-priori order between two 2x2 or 2x3 classes, with certificate
* ``honeycomb``    the certified 2x3 class diagram as Graphviz DOT
* ``qubit2-scan``  two-qubit information quantities over the separability
                   octahedron

All output is deterministic for fixed arguments: no timestamps, floats
rendered with repr (JSON) or %.17g (CSV).  Information values are in nats
unless ``--log-base 2`` is given (extrema and qubit2-scan only).

Exit codes: 0 success; 1 relation left inconclusive; 2 invalid arguments;
3 malformed or mismatched checkpoint on resume; 4 input/output failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import operator
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classes import check_relation_shape, class_table, honeycomb_dot
from .core import SUM_TOLERANCE, Spectrum, _json_text, write_text_atomic
from .extrema import CensusReport, CheckpointMismatchError, brute_force_extrema, census
from .orders import derive_relation
from .qubit2 import LN2, MAX_SCAN_GRID, SCAN_FUNCTIONS, _scan_grid

__all__ = ["build_parser", "main"]

_SCHEMA_VERSION = 1


def _parse_spectrum(text: str) -> Spectrum:
    """Parse comma-separated values summing to 1; Spectrum checks the rest."""
    values: list[float] = []
    for part in (p.strip() for p in text.split(",")):
        try:
            value = float(part)
        except ValueError:
            raise ValueError(f"--spectrum: {part!r} is not a number") from None
        if not math.isfinite(value):
            raise ValueError(f"--spectrum: {part!r} is non-finite")
        values.append(value)
    try:
        total = math.fsum(values)
    except OverflowError:  # finite entries whose sum is beyond the float range
        raise ValueError("--spectrum entries have no finite sum; they must sum to 1") from None
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"--spectrum entries sum to {total!r}; they must sum to 1")
    return Spectrum(tuple(v / total for v in values))


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _rescale(value: float, log_base: str) -> float:
    return value / LN2 if log_base == "2" else value


def _write_text(path: str | None, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or its chunks in order, to ``path`` or stdout."""
    if path is not None:
        write_text_atomic(path, text)
    elif isinstance(text, str):
        sys.stdout.write(text)
    else:
        sys.stdout.writelines(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _run_extrema(args: argparse.Namespace) -> int:
    spectrum = _parse_spectrum(args.spectrum)
    report = brute_force_extrema(spectrum, args.m, args.n)
    table = class_table(args.m, args.n)
    values = list(report.values) if args.log_base == "e" else [v / LN2 for v in report.values]
    if args.format == "csv":
        mn, words = args.m * args.n, table.letters
        lines = ["class,word,cycle_label,value"]
        for i, (label, value) in enumerate(zip(table._cycle_labels, values)):
            if "," in label:  # a 10-cell label such as (9,10); quoted as csv.writer would
                label = f'"{label}"'
            lines.append(f"{i + 1},{words[i * mn : (i + 1) * mn]},{label},{value:.17g}")
        _write_text(args.output, "\n".join(lines) + "\n")
        return 0

    def describe(indices: tuple[int, ...]) -> list[dict]:
        return [
            {
                "index": i,
                "display": table.get(i).display,
                "cycle_label": table.get(i).cycle_label,
            }
            for i in indices
        ]

    payload = {
        "schema_version": _SCHEMA_VERSION,
        "command": "extrema",
        "m": args.m,
        "n": args.n,
        "log_base": args.log_base,
        "spectrum": list(spectrum.values),
        "max_value": _rescale(report.max_value, args.log_base),
        "min_value": _rescale(report.min_value, args.log_base),
        "maxima": describe(report.maxima),
        "minima": describe(report.minima),
        "values": values,
    }
    _write_text(args.output, _json_text(payload))
    return 0


def _census_payload(report: CensusReport) -> dict:
    max_classes, min_classes = report.max_classes, report.min_classes
    return {
        "schema_version": _SCHEMA_VERSION,
        "command": "census",
        "m": report.m,
        "n": report.n,
        "samples": report.samples,
        "samples_done": report.samples_done,
        "seed": report.seed,
        "block_size": report.block_size,
        "workers": report.workers,
        "n_classes": len(report.max_hits),
        "max_classes": list(max_classes),
        "min_classes": list(min_classes),
        "max_hits": {str(c): report.max_hits[c - 1] for c in max_classes},
        "min_hits": {str(c): report.min_hits[c - 1] for c in min_classes},
        "tie_events_max": report.tie_events_max,
        "tie_events_min": report.tie_events_min,
        "convergence": [
            {
                "samples": p.samples,
                "n_max_classes": p.n_max_classes,
                "n_min_classes": p.n_min_classes,
            }
            for p in report.convergence
        ],
    }


def _run_census(args: argparse.Namespace) -> int:
    report = census(
        args.m,
        args.n,
        args.samples,
        args.seed,
        workers=args.workers,
        block_size=args.block_size,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    _write_text(args.output, _json_text(_census_payload(report)))
    if args.convergence_csv is not None:
        lines = ["samples,n_max_classes,n_min_classes"]
        for p in report.convergence:
            lines.append(f"{p.samples},{p.n_max_classes},{p.n_min_classes}")
        _write_text(args.convergence_csv, "\n".join(lines) + "\n")
    return 0


def _run_relation(args: argparse.Namespace) -> int:
    check_relation_shape(args.m, args.n)
    table = class_table(args.m, args.n)
    verdict = derive_relation(args.a, args.b, table=table)
    _write_text(args.output, verdict.render() + "\n")
    return 1 if verdict.is_inconclusive else 0


def _run_honeycomb(args: argparse.Namespace) -> int:
    _write_text(args.output, honeycomb_dot())
    return 0


def _distinct_labels(a: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ``"%.17g\\n"`` text of each distinct value of the 1-d ``a``, and each entry's index.

    Values are told apart by their bits, so an entry's text is what
    formatting that entry alone gives, -0.0 included.
    """
    bits, where = np.unique(a.view(np.int64), return_inverse=True)
    return [f"{v:.17g}\n" for v in bits.view(np.float64).tolist()], where


def _gather(texts: list[str], at: np.ndarray) -> tuple[str, ...]:
    """``texts[a]`` for each entry ``a`` of the non-empty 1-d ``at``, read in C."""
    at = at.tolist()
    return operator.itemgetter(*at)(texts) if len(at) > 1 else (texts[at[0]],)


def _scan_csv_chunks(axis: np.ndarray, chunks: Iterable[tuple[np.ndarray, ...]]) -> Iterator[str]:
    """The scan CSV, one string per chunk of :func:`~specmi.qubit2._scan_grid`.

    A row is joined from three texts, each formatted once per chunk or
    scan and read by a C-level gather: its ``"t11,t22,"``, its ``"t33,"``
    and its ``"value\\n"``.  Chunks keep the whole text (13.6 MB at grid
    101) from being held at once.
    """
    coords = [_fmt(v) for v in axis.tolist()]
    t33 = [f"{c}," for c in coords]
    yield "t11,t22,t33,value\n"
    for i, j, k, values in chunks:
        first = int(i[0])
        pairs = [f"{a},{b}," for a in coords[first : int(i[-1]) + 1] for b in coords]
        labels, label_at = _distinct_labels(values)
        parts = [""] * (3 * len(values))
        parts[0::3] = _gather(pairs, (i - first) * len(coords) + j)
        parts[1::3] = _gather(t33, k)
        parts[2::3] = _gather(labels, label_at)
        yield "".join(parts)


def _run_qubit2_scan(args: argparse.Namespace) -> int:
    axis, chunks = _scan_grid(args.function.replace("-", "_"), args.grid)
    if args.log_base == "2":
        chunks = ((i, j, k, values / LN2) for i, j, k, values in chunks)
    _write_text(args.output, _scan_csv_chunks(axis, chunks))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _formatter(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=96)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmi",
        description="Mutual-information extrema over arrangements of a fixed spectrum.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "extrema",
        help="evaluate every arrangement class at one spectrum",
        formatter_class=_formatter,
    )
    p.add_argument("--m", type=int, required=True, help="number of rows")
    p.add_argument("--n", type=int, required=True, help="number of columns")
    p.add_argument(
        "--spectrum",
        required=True,
        help="comma-separated probabilities, sorted non-increasing, summing to 1",
    )
    p.add_argument("--log-base", choices=["e", "2"], default="e", help="unit of reported values")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None, help="write to this file instead of stdout")

    p = sub.add_parser(
        "census",
        help="randomized census of extremal classes over uniform spectra",
        formatter_class=_formatter,
    )
    p.add_argument("--m", type=int, required=True, help="number of rows")
    p.add_argument("--n", type=int, required=True, help="number of columns")
    p.add_argument("--samples", type=int, required=True, help="number of random spectra")
    p.add_argument("--seed", type=int, required=True, help="random seed (reruns are identical)")
    p.add_argument("--workers", type=int, default=1, help="worker threads (result-invariant)")
    p.add_argument("--block-size", type=int, default=2500, help="samples per block")
    p.add_argument("--checkpoint", default=None, help="checkpoint JSON path")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoint if it exists (parameters must match)",
    )
    p.add_argument("--convergence-csv", default=None, help="also write the convergence table")
    p.add_argument("--output", default=None, help="write to this file instead of stdout")

    p = sub.add_parser(
        "relation",
        help="derive the a-priori information order between two classes",
        formatter_class=_formatter,
    )
    p.add_argument("--a", type=int, required=True, help="first class index (1-based)")
    p.add_argument("--b", type=int, required=True, help="second class index (1-based)")
    p.add_argument("--m", type=int, default=2, help="number of rows (default 2)")
    p.add_argument("--n", type=int, default=3, help="number of columns (default 3)")
    p.add_argument("--output", default=None, help="write to this file instead of stdout")

    p = sub.add_parser(
        "honeycomb",
        help="emit the certified 2x3 class diagram as Graphviz DOT",
        formatter_class=_formatter,
    )
    p.add_argument("--output", default=None, help="write to this file instead of stdout")

    p = sub.add_parser(
        "qubit2-scan",
        help="scan a two-qubit information quantity over the separability octahedron",
        formatter_class=_formatter,
    )
    p.add_argument(
        "--function",
        required=True,
        choices=[name.replace("_", "-") for name in SCAN_FUNCTIONS],
        help="quantity to evaluate",
    )
    p.add_argument(
        "--grid",
        type=int,
        default=101,
        help=f"grid points per correlation axis, 2 to {MAX_SCAN_GRID}",
    )
    p.add_argument("--log-base", choices=["e", "2"], default="e", help="unit of reported values")
    p.add_argument("--output", default=None, help="write to this file instead of stdout")

    return parser


_HANDLERS = {
    "extrema": _run_extrema,
    "census": _run_census,
    "relation": _run_relation,
    "honeycomb": _run_honeycomb,
    "qubit2-scan": _run_qubit2_scan,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built on its first call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except CheckpointMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
