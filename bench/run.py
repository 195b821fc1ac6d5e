"""specmi benchmark: four workloads, end-to-end metrics and a traced per-layer run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload census-wide --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Each workload runs in fresh child processes (``bench/child.py``), one at a
time, with the checkout's ``src/`` first on ``PYTHONPATH``.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
runs a fixed amount of the workload's work twice, untraced and traced, and
prints the per-layer metrics and the tracing overhead.  Every output is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("census-wide", "census-narrow", "certify", "pointwise")

#: Children of an end-to-end run: (role, warm).  Every child times its own
#: set-up, so set-up is sampled several times per run; certify starts the
#: cold relation and the cold honeycomb in separate processes so that
#: neither can reuse what the other built.
PLANS = {
    "census-wide": [("setup", False), ("setup", False), ("census", True)],
    "census-narrow": [("setup", False), ("setup", False), ("census", True)],
    "certify": [("relation", True)] + [("relation", False)] * 4 + [("honeycomb", False)] * 3,
    "pointwise": [("setup", False), ("setup", False), ("pointwise", True)],
}

#: Children of a traced run; each runs once untraced and once traced.
TRACE_PLANS = {
    "census-wide": [("census", True)],
    "census-narrow": [("census", True)],
    "certify": [("relation", True), ("honeycomb", False)],
    "pointwise": [("pointwise", True)],
}

#: A run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_child(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {spec['role']} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {spec['role']} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_plan(workload: str, seed: int, seconds: float | None, trace: bool,
             plan: list[tuple[str, bool]], deadline: float) -> list[dict]:
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    results = []
    for i, (role, warm) in enumerate(plan):
        run_id = f"{workload}-s{seed}-{'traced' if trace else 'plain'}-{i}-{role}"
        workdir = OUT / "work" / run_id
        workdir.mkdir(parents=True, exist_ok=True)
        spec = {
            "workload": workload, "role": role, "warm": warm, "seed": seed,
            "seconds": seconds, "trace": trace, "root": str(ROOT),
            "workdir": str(workdir), "run_id": run_id,
            "trace_path": str(OUT / "traces" / f"{run_id}.jsonl"),
        }
        try:
            results.append(run_child(spec, deadline))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return results


def _merged_samples(results: list[dict]) -> dict[str, list]:
    out: dict[str, list] = {}
    for r in results:
        for name, samples in r["samples"].items():
            out.setdefault(name, []).extend(samples)
    return out


def _median_time(samples: list) -> tuple[float, float]:
    """Median seconds per sample: (nominal, raw)."""
    return (statistics.median(s[1] for s in samples), statistics.median(s[0] for s in samples))


def _median_rate(samples: list) -> tuple[float, float]:
    """Median work per second over samples: (nominal, raw)."""
    return (statistics.median(s[2] / s[1] for s in samples),
            statistics.median(s[2] / s[0] for s in samples))


def end_to_end(workload: str, results: list[dict]) -> tuple[dict, dict]:
    """Named metrics of the workload, and the four metrics every workload reports.

    Each named metric is (nominal value, raw value, unit); nominal values
    are scaled by the machine-speed probes (probe.py).  ``command_s`` is the
    wall time of the workload's headline command and ``throughput_per_s``
    the rate of its repeated operation; README.md lists what each means
    per workload.
    """
    s = _merged_samples(results)
    named = {
        "setup_s": (*_median_time(s["setup"]), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results),) * 2 + ("MB",),
    }
    if workload.startswith("census"):
        named["census_samples_per_s"] = (*_median_rate(s["census_call"]), "samples/s")
        command, throughput = _median_time(s["census_call"]), named["census_samples_per_s"]
    elif workload == "certify":
        cold, honey = _median_time(s["relation_cold"]), _median_time(s["honeycomb"])
        named["relation_cold_s"] = (*cold, "s")
        named["relations_per_s"] = (*_median_rate(s["relation_pass"]), "queries/s")
        named["honeycomb_s"] = (*honey, "s")
        command, throughput = (cold[0] + honey[0], cold[1] + honey[1]), named["relations_per_s"]
    else:
        named["extrema_calls_per_s"] = (*_median_rate(s["extrema"]), "calls/s")
        named["scalar_spectra_per_s"] = (*_median_rate(s["scalar"]), "spectra/s")
        named["scan_points_per_s"] = (*_median_rate(s["scan"]), "points/s")
        command, throughput = _median_time(s["scan"]), _median_rate(s["round"])
    metrics = {
        "setup_s": (named["setup_s"][0], "s"),
        "peak_rss_mb": (named["peak_rss_mb"][0], "MB"),
        "command_s": (command[0], "s"),
        "throughput_per_s": (throughput[0], "1/s"),
    }
    return named, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    if trace:
        plan = TRACE_PLANS[workload]
        plain = run_plan(workload, seed, None, False, plan, deadline)
        traced = run_plan(workload, seed, None, True, plan, deadline)
        results = plain + traced
        metrics = layer_metrics([r["trace"] for r in traced], sum(r["phase_wall_s"] for r in plain))
        named = {}
    else:
        results = run_plan(workload, seed, seconds, False, PLANS[workload], deadline)
        named, metrics = end_to_end(workload, results)
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    named["fail_ratio"] = (len(failures) / attempted, None, f"of {attempted} checks")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": results[-1]["env"], "named": named, "metrics": metrics,
        "attempted": attempted, "failures": failures,
        "counts_by_child": [
            {"role": r["role"], "calls": {k: [a["calls"], a["hits"]] for k, a in r["trace"]["agg"].items()}}
            for r in results if "trace" in r
        ],
    }


def report(result: dict) -> None:
    print(f"# workload {result['workload']}, seed {result['seed']}, "
          f"trace {int(result['trace'])}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for name, (value, raw, unit) in result["named"].items():
        raw_text = "" if raw is None or raw == value else f"  (raw {raw:.6g})"
        print(f"{name:<28} {value:>16.6g}  {unit}{raw_text}")
    if result["trace"]:
        for child in result["counts_by_child"]:
            counts = ", ".join(f"{k} {c}/{h}" for k, (c, h) in sorted(child["calls"].items())
                               if k.startswith(("orders.", "classes.canonical")))
            if counts:
                print(f"# {child['role']} child calls/hits: {counts}")
        for name, (value, unit) in result["metrics"].items():
            print(f"{name:<44} {value:>16.6g}  {unit}")
    for failure in result["failures"][:20]:
        print(f"# FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of each workload's warm phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specmi" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a specmi checkout (no src/specmi)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        deadline += DEADLINE_S * (len(WORKLOADS) - 1)
    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
            report(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    for result in results:
        name = f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        (OUT / "results" / name).write_text(json.dumps(result, indent=2) + "\n")
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(not r["failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
