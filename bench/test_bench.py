"""Self-tests of the benchmark: its checks fail on wrong references, and
traced self times are sound.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks as chk  # noqa: E402
import specmi  # noqa: E402
import specmi.cli  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402


def _child(bench_dir: Path, role: str, tmp_path: Path) -> dict:
    spec = {
        "workload": "certify", "role": role, "warm": False, "seed": 1, "seconds": None,
        "trace": False, "root": str(ROOT), "workdir": str(tmp_path), "run_id": "selftest",
        "trace_path": str(tmp_path / "trace.jsonl"),
    }
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "child.py"), json.dumps(spec)],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_wrong_reference_digest_gives_a_nonzero_fail_ratio(tmp_path):
    copy = tmp_path / "bench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__"))
    reference = json.loads((copy / "reference.json").read_text())
    assert _child(copy, "relation", tmp_path)["failures"] == []
    reference["certify"]["relation_42_48_sha256"] = "0" * 64
    (copy / "reference.json").write_text(json.dumps(reference))
    result = _child(copy, "relation", tmp_path)
    assert result["attempted"] > 0
    assert len(result["failures"]) / result["attempted"] > 0


def test_wrong_golden_and_tampered_census_are_reported(tmp_path):
    checks = chk.Checks()
    wrong = tmp_path / "honeycomb.dot"
    wrong.write_text("digraph {}\n")
    chk.golden(checks, specmi.honeycomb_dot(), str(wrong), "honeycomb")
    payload = json.loads(_cli(["census", "--m", "2", "--n", "3", "--samples", "500",
                               "--block-size", "500", "--seed", "5"]))
    chk.census_recount(checks, specmi, payload, 2, 3)
    assert checks.attempted == 2 and len(checks.failures) == 1
    first = next(iter(payload["max_hits"]))
    payload["max_hits"][first] += 1
    chk.census_recount(checks, specmi, payload, 2, 3)
    assert len(checks.failures) == 2


def test_extrema_check_rejects_a_wrong_scalar_reference():
    checks = chk.Checks()
    spectrum = "0.3,0.25,0.2,0.15,0.07,0.03"
    out = _cli(["extrema", "--m", "2", "--n", "3", "--spectrum", spectrum])
    s = specmi.Spectrum(tuple(float(x) for x in spectrum.split(",")))
    scalar = [specmi.cmi(c.instantiate(s)) for c in specmi.r23_table().classes]
    chk.extrema_output(checks, out, scalar)
    assert checks.failures == []
    scalar[0] += 1.0
    chk.extrema_output(checks, out, scalar)
    assert len(checks.failures) == 1


def _cli(argv: list[str]) -> str:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert specmi.cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture
def traced_run():
    """Trace a small real run: CLI commands, a two-worker census, warm queries."""
    tracer = Tracer("selftest")
    tracer.install()
    try:
        with tracer.phase("bench.setup"):
            specmi.class_table(2, 3)
        with tracer.phase("bench.command"):
            _cli(["census", "--m", "2", "--n", "3", "--samples", "20000", "--workers", "2",
                  "--seed", "3"])
            _cli(["extrema", "--m", "2", "--n", "3", "--spectrum", "0.3,0.25,0.2,0.15,0.07,0.03"])
        with tracer.phase("bench.warm"):
            for b in range(1, 31):
                specmi.orders.derive_relation(1, b)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_self_times_are_nonnegative(traced_run):
    selfs = self_times(traced_run.spans)
    assert len(selfs) == len(traced_run.spans) > 100
    assert min(selfs.values()) >= 0.0


def test_self_times_sum_to_traced_wall_time(traced_run):
    summary = summarize(traced_run.spans)
    assert summary["agg"]["core.sample_spectra"]["calls"] == 8
    assert summary["agg"]["cli.main.census"]["calls"] == 1
    assert summary["self_sum_s"] == pytest.approx(summary["wall_s"], rel=0.02)


def test_self_time_excludes_overlapping_children_once():
    tracer = Tracer("synthetic")
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait()
        span = tracer.open("child")
        time.sleep(0.05)
        tracer.close(span)

    with tracer.phase("root") as root:
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        time.sleep(0.02)
    selfs = self_times(tracer.spans)
    children = [s for s in tracer.spans if s.name == "child"]
    assert all(c.parent is root for c in children)
    assert 0.0 <= selfs[id(root)] < (root.end - root.start) - 0.045
