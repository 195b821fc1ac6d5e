"""In-memory span tracer for the specmi benchmark.

The tracer wraps public specmi functions at every place a caller looks them
up: each loaded ``specmi`` module whose attribute is the original function
gets the traced wrapper instead.  No file under ``src/`` is edited, so each
layer is measured from outside.  Spans stay in memory until the run ends.

A span records its name, an optional tag (the CLI command, or the
arguments of ``class_table``), start and end (``time.perf_counter``), its
parent span and, for certificate searches, whether the attempt found one.
A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as parent, so the sampling done by
census worker threads is a child of the census call.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import sys
import threading
import time


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "hit")


def _hit_certificate(result) -> bool:
    return result is not None


def _hit_verdict(result) -> bool:
    return not result.is_inconclusive


def _tag_argv(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _tag_args(args, kwargs):
    return "x".join(str(a) for a in args)


#: Traced layers: (module, function, hit test, tag function).  The module
#: name is the layer; the span is named "<module>.<function>".
LAYERS = (
    ("core", "sample_spectra", None, None),
    ("core", "cmi", None, None),
    ("classes", "class_table", None, _tag_args),
    ("classes", "canonical_form", None, None),
    ("classes", "honeycomb", None, None),
    ("orders", "majorisation_certificate", _hit_certificate, None),
    ("orders", "titrate_check", _hit_verdict, None),
    ("orders", "derive_relation", None, None),
    ("extrema", "census", None, None),
    ("extrema", "brute_force_extrema", None, None),
    ("qubit2", "octahedron_scan", None, None),
    ("qubit2", "verify_total_order_2x2", None, None),
    ("qubit2", "qubit2_informations", None, None),
    ("cli", "main", None, _tag_argv),
)

CLI_COMMANDS = ("extrema", "census", "relation", "honeycomb", "qubit2-scan")


class Tracer:
    """Records spans around wrapped functions and benchmark phases."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag=None) -> Span:
        stack = self._stack()
        span = Span()
        span.name, span.tag, span.hit, span.end = name, tag, None, None
        if stack:
            span.parent = stack[-1]
        elif self._main_stack:
            span.parent = self._main_stack[-1]
        else:
            span.parent = None
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, name: str, original, hit, tag):
        def traced(*args, **kwargs):
            span = self.open(name, tag(args, kwargs) if tag else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if hit is not None:
                span.hit = hit(result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        """Wrap every LAYERS function at each specmi module that exposes it."""
        modules = [m for n, m in sys.modules.items() if n == "specmi" or n.startswith("specmi.")]
        for layer, func, hit, tag in LAYERS:
            original = getattr(sys.modules[f"specmi.{layer}"], func)
            traced = self._wrap(f"{layer}.{func}", original, hit, tag)
            for module in modules:
                if getattr(module, func, None) is original:
                    setattr(module, func, traced)
                    self._patches.append((module, func, original))

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patches):
            setattr(module, func, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON line, parents before children."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id,
                    "id": i,
                    "parent": None if s.parent is None else ids[id(s.parent)],
                    "name": s.name,
                    "tag": s.tag,
                    "start": s.start,
                    "end": s.end,
                    "hit": s.hit,
                }) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(id(s), ())
            if min(hi, s.end) > max(lo, s.start)
        ]
        out[id(s)] = (s.end - s.start) - _union_length(covered)
    return out


def _under(span: Span, phase: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == phase:
            return True
        p = p.parent
    return False


def summarize(spans: list[Span]) -> dict:
    """Per-name aggregates of one traced child, merged later by ``layer_metrics``.

    Returns counts, hits, self and inclusive seconds per span name (and per
    CLI command for ``cli.main``), the first-call duration of ``class_table``
    per shape, the durations of ``derive_relation`` calls made by the warm
    loop, the wall time of the benchmark phases and the sum of all self times.
    """
    selfs = self_times(spans)
    agg: dict[str, dict] = {}
    cold: dict[str, float] = {}
    warm_relation_us: list[float] = []
    wall = 0.0
    for s in spans:
        key = f"cli.main.{s.tag}" if s.name == "cli.main" else s.name
        a = agg.setdefault(key, {"calls": 0, "hits": 0, "self_s": 0.0, "incl_s": 0.0})
        a["calls"] += 1
        a["hits"] += bool(s.hit)
        a["self_s"] += selfs[id(s)]
        a["incl_s"] += s.end - s.start
        if s.name == "classes.class_table" and s.tag not in cold:
            cold[s.tag] = s.end - s.start
        if s.name == "orders.derive_relation" and _under(s, "bench.warm"):
            warm_relation_us.append((s.end - s.start) * 1e6)
        if s.parent is None:
            wall += s.end - s.start
    return {
        "agg": agg,
        "class_table_cold_s": sum(cold.values()),
        "warm_relation_us": warm_relation_us,
        "wall_s": wall,
        "self_sum_s": sum(selfs.values()),
    }


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(summaries: list[dict], untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the summaries of a workload's traced children.

    A layer the workload does not reach reports 0 calls and 0 seconds.
    """
    agg: dict[str, dict] = {}
    for summ in summaries:
        for key, a in summ["agg"].items():
            b = agg.setdefault(key, {"calls": 0, "hits": 0, "self_s": 0.0, "incl_s": 0.0})
            for field in b:
                b[field] += a[field]
    empty = {"calls": 0, "hits": 0, "self_s": 0.0, "incl_s": 0.0}

    def get(key):
        return agg.get(key, empty)

    def per_call_us(key):
        a = get(key)
        return a["incl_s"] / a["calls"] * 1e6 if a["calls"] else 0.0

    def ratio(key):
        a = get(key)
        return a["hits"] / a["calls"] if a["calls"] else 0.0

    warm = [us for summ in summaries for us in summ["warm_relation_us"]]
    wall = sum(summ["wall_s"] for summ in summaries)
    out = {
        "core.sample_spectra.calls": (get("core.sample_spectra")["calls"], "count"),
        "core.sample_spectra.self_s": (get("core.sample_spectra")["self_s"], "s"),
        "core.cmi.calls": (get("core.cmi")["calls"], "count"),
        "core.cmi.us_per_call": (per_call_us("core.cmi"), "us"),
        "classes.class_table.cold_s": (
            max(summ["class_table_cold_s"] for summ in summaries), "s"),
        "classes.canonical_form.calls": (get("classes.canonical_form")["calls"], "count"),
        "classes.canonical_form.self_s": (get("classes.canonical_form")["self_s"], "s"),
        "classes.honeycomb.self_s": (get("classes.honeycomb")["self_s"], "s"),
    }
    for name in ("majorisation_certificate", "titrate_check"):
        a = get(f"orders.{name}")
        out[f"orders.{name}.calls"] = (a["calls"], "count")
        out[f"orders.{name}.hits"] = (a["hits"], "count")
        out[f"orders.{name}.self_s"] = (a["self_s"], "s")
        out[f"orders.{name}.hit_ratio"] = (ratio(f"orders.{name}"), "ratio")
    out.update({
        "orders.derive_relation.warm_calls": (len(warm), "count"),
        "orders.derive_relation.p50_us": (_quantile(warm, 50), "us"),
        "orders.derive_relation.p99_us": (_quantile(warm, 99), "us"),
        "extrema.census.calls": (get("extrema.census")["calls"], "count"),
        "extrema.census.self_s": (get("extrema.census")["self_s"], "s"),
        "extrema.brute_force_extrema.calls": (get("extrema.brute_force_extrema")["calls"], "count"),
        "extrema.brute_force_extrema.us_per_call": (per_call_us("extrema.brute_force_extrema"), "us"),
        "qubit2.octahedron_scan.self_s": (get("qubit2.octahedron_scan")["self_s"], "s"),
        "qubit2.verify_total_order_2x2.calls": (get("qubit2.verify_total_order_2x2")["calls"], "count"),
        "qubit2.verify_total_order_2x2.us_per_call": (
            per_call_us("qubit2.verify_total_order_2x2"), "us"),
    })
    for command in CLI_COMMANDS:
        out[f"cli.main.{command}.self_s"] = (get(f"cli.main.{command}")["self_s"], "s")
    out.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.overhead_s": (wall - untraced_wall_s, "s"),
        "trace.self_sum_s": (sum(summ["self_sum_s"] for summ in summaries), "s"),
    })
    return out
