"""One child process of the specmi benchmark.

``run.py`` starts each child as ``python3 bench/child.py '<json spec>'``
with ``src/`` of the checkout first on ``PYTHONPATH``.  The child times its
own set-up (``import specmi``, then ``class_table`` and one
``brute_force_extrema`` for the workload's shape), runs the timed phases of
its role, records its peak RSS, checks every output with tracing off and
prints one JSON result line.

Samples are recorded as (raw seconds, nominal seconds, units of work); the
machine-speed probes of ``probe.py`` turn raw seconds into nominal ones.

Spec keys: ``workload``, ``role`` (setup, census, relation, honeycomb,
pointwise), ``warm`` (also run the repeated warm phase), ``seed``,
``seconds`` (length of the warm phase; ``null`` runs a fixed amount of work,
as the traced runs do), ``trace``, ``root``, ``workdir``, ``trace_path``,
``run_id``.
"""
from __future__ import annotations

import json
import sys
import time

import probe

#: Ticks scale timed samples; runs of fixed work (the traced runs) skip them,
#: so that no tick lands inside a traced span.
TICKED = json.loads(sys.argv[1])["seconds"] is not None
SETUP_TICKS = probe.Ticks().start() if TICKED else None
T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import specmi  # noqa: E402  (timed as part of set-up)
import specmi.cli  # noqa: E402
import specmi.orders  # noqa: E402

import numpy as np  # noqa: E402

import checks as chk  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

SHAPES = {"census-wide": (2, 5), "census-narrow": (2, 3), "certify": (2, 3), "pointwise": (2, 3)}

#: Probe kind per workload: the narrow census kernel is NumPy-bound; the
#: certificate prover, the scalar path and the CSV rendering are
#: interpreter-bound.  The wide census keeps both cores busy, which a
#: one-core probe does not track, so its samples are not scaled.
PROBE_KIND = {"census-wide": None, "census-narrow": "numpy", "certify": "python",
              "pointwise": "python"}

#: Census arguments per workload.  The wide shape evaluates 15120 classes
#: per sample; the narrow one 60, with checkpoint and convergence files.
#: ``check_block`` is the one-block census recounted by brute force (a
#: smaller block for 2x5, where one brute-force sweep takes milliseconds).
CENSUS = {
    "census-wide": {"samples": 5_000, "workers": 2, "files": False, "check_block": 250},
    "census-narrow": {"samples": 200_000, "workers": 1, "files": True, "check_block": 2500},
}

RELATION_PAIR = ("42", "48")
#: A grid-101 scan (171,700 points) takes about a second, short enough to
#: repeat six times per run; one grid-201 scan takes about ten seconds.
SCAN_GRID = 101
SCAN_ARGS = ["--function", "gamma-max", "--grid", str(SCAN_GRID)]
SCAN_CHECK_ROWS = 200
SCAN_REPEATS = 6
POINTWISE_BATCH = 100
POINTWISE_CHUNK = 25
POINTWISE_FIXED_ROUNDS = 200
VERDICT_CHECK_SPECTRA = 16


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def census_workers(workload: str) -> int:
    return min(CENSUS[workload]["workers"], nproc())


def census_seed(seed: int, k: int) -> int:
    """The census ``--seed`` of the k-th census call of a run."""
    return seed * 1000 + k


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    pkg = Path(np.__file__).parent
    for libdir in (pkg.parent / "numpy.libs", pkg / ".libs"):
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                func = getattr(lib, sym, None)
                if func is not None:
                    func.restype = ctypes.c_int
                    func.argtypes = []
                    return int(func())
    return None


def environment(workload: str) -> dict:
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "census_workers": census_workers(workload) if workload in CENSUS else None,
    }


def descending_spectra(rng: np.random.Generator, count: int, dim: int) -> list[tuple[float, ...]]:
    """Uniform spectra, sorted descending, with every gap at least 1e-6."""
    out: list[tuple[float, ...]] = []
    while len(out) < count:
        e = rng.standard_exponential(dim)
        v = np.sort(e / e.sum())[::-1]
        if (v[:-1] - v[1:]).min() >= 1e-6:
            out.append(tuple(float(x) for x in v))
    return out


class Run:
    """State of one child: spec, tracer, checks, timings and work counters."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.workload = spec["workload"]
        self.seed = spec["seed"]
        self.seconds = spec["seconds"]
        self.root = Path(spec["root"])
        self.workdir = Path(spec["workdir"])
        self.tracer = Tracer(spec["run_id"]) if spec["trace"] else None
        self.checks = chk.Checks()
        self.phase_wall = 0.0
        self.kind = PROBE_KIND[self.workload]
        self.last_probe: float | None = None
        self.samples: dict[str, list[tuple[float, float, float]]] = {}
        self.rss_mb = 0.0
        with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)

    @contextlib.contextmanager
    def phase(self, name: str):
        span = self.tracer.open(name) if self.tracer else None
        t = time.perf_counter()
        try:
            yield
        finally:
            self.phase_wall += time.perf_counter() - t
            if span is not None:
                self.tracer.close(span)

    def cli(self, argv: list[str]) -> tuple[str, float]:
        """Run ``specmi.cli.main`` in-process; returns (stdout, seconds)."""
        buf = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = specmi.cli.main(argv)
        dt = time.perf_counter() - t
        self.checks.check(code == 0, f"specmi {' '.join(argv)} exited with {code}")
        return buf.getvalue(), dt

    @contextlib.contextmanager
    def sample(self, one_shot: bool = False):
        """Collects ``{name: (raw seconds, work)}`` and records them.

        A warm sample is scaled by the probes just before and after it (the
        one before is the one after the previous sample).  A one-shot sample
        is scaled by the ticks that ran during it, whose time is taken off it.
        """
        spent: dict[str, tuple[float, float]] = {}
        factor = 1.0
        if one_shot and TICKED:
            ticks = probe.Ticks().start()
            try:
                yield spent
            finally:
                ticks.stop()
            spent = {name: (raw - ticks.spent, work) for name, (raw, work) in spent.items()}
            factor = ticks.scale()
        elif one_shot or self.kind is None:
            yield spent
        else:
            before = self.last_probe or probe.measure(self.kind)
            yield spent
            self.last_probe = probe.measure(self.kind)
            factor = probe.scale(self.kind, before, self.last_probe)
        for name, (raw, work) in spent.items():
            self.samples.setdefault(name, []).append((raw, raw * factor, work))

    def warm_done(self, start: float, rounds: int, fixed_rounds: int) -> bool:
        if self.seconds is None:
            return rounds >= fixed_rounds
        return rounds >= 2 and time.perf_counter() - start >= self.seconds

    def end_timed(self) -> None:
        """Record peak RSS and stop tracing; only checks follow."""
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer:
            self.tracer.uninstall()


def setup_spectrum(dim: int) -> specmi.Spectrum:
    values = np.arange(dim, 0, -1, dtype=float)
    return specmi.Spectrum(tuple(values / values.sum()))


def role_setup(run: Run) -> None:
    run.end_timed()


def role_census(run: Run) -> None:
    m, n = SHAPES[run.workload]
    cfg = CENSUS[run.workload]
    workers = census_workers(run.workload)
    shape = ["--m", str(m), "--n", str(n)]
    ckpt, conv = run.workdir / "census.ckpt", run.workdir / "convergence.csv"
    files = ["--checkpoint", str(ckpt), "--convergence-csv", str(conv)] if cfg["files"] else []
    n_classes = len(specmi.class_table(m, n))
    outputs = []
    with run.phase("bench.warm"):
        start = time.perf_counter()
        while not run.warm_done(start, len(outputs), 1):
            argv = ["census", *shape, "--samples", str(cfg["samples"]), "--workers", str(workers),
                    "--seed", str(census_seed(run.seed, len(outputs))), *files]
            with run.sample() as spent:
                out, dt = run.cli(argv)
                spent["census_call"] = (dt, cfg["samples"])
            payload = chk.census_output(run.checks, out, m, n, cfg["samples"], n_classes)
            if cfg["files"]:
                chk.census_files(run.checks, payload, str(ckpt), str(conv))
            outputs.append(out)
    run.end_timed()

    if run.seed == run.reference["default_seed"]:
        ref = run.reference[run.workload]
        chk.digest(run.checks, outputs[0], ref["sha256_by_workers"].get(str(workers)),
                   f"census {m}x{n} seed {census_seed(run.seed, 0)}")
    size = str(cfg["check_block"])
    out, _ = run.cli(["census", *shape, "--samples", size, "--block-size", size,
                      "--seed", str(census_seed(run.seed, 0))])
    chk.census_recount(run.checks, specmi, json.loads(out), m, n)


def role_relation(run: Run) -> None:
    a, b = RELATION_PAIR
    with run.phase("bench.command"), run.sample(one_shot=True) as spent:
        cold, dt = run.cli(["relation", "--a", a, "--b", b])
        spent["relation_cold"] = (dt, 1)
    first: list[str] = []
    if run.spec["warm"]:
        pairs = [(i, j) for i in range(1, 61) for j in range(1, 61) if i != j]
        orders = specmi.orders
        passes = 0
        with run.phase("bench.warm"):
            start = time.perf_counter()
            while not run.warm_done(start, passes, 1):
                with run.sample() as spent:
                    t = time.perf_counter()
                    texts = [orders.derive_relation(i, j).render() for i, j in pairs]
                    spent["relation_pass"] = (time.perf_counter() - t, len(pairs))
                passes += 1
                if first:
                    run.checks.check(texts == first, "a warm relation pass differs from the first")
                else:
                    first = texts
    run.end_timed()

    chk.digest(run.checks, cold, run.reference["certify"]["relation_42_48_sha256"],
               f"specmi relation --a {a} --b {b}")
    if not first:
        return
    chk.digest(run.checks, "\n\n".join(first), run.reference["certify"]["relations_sha256"],
               "the 3540 rendered 2x3 relations")
    kinds = {pair: text.rsplit("verdict: ", 1)[1].split(" ", 1)[0]
             for pair, text in zip(pairs, first) if "verdict: " in text}
    rng = np.random.default_rng([run.seed, 1])
    spectra = np.array(descending_spectra(rng, VERDICT_CHECK_SPECTRA, 6))
    chk.verdicts_numeric(run.checks, specmi, kinds, spectra)
    chain = "\n\n".join(v.render() for v in specmi.verify_theorem_chain()) + "\n"
    chk.golden(run.checks, chain, str(run.root / "tests" / "data" / "chain_traces.txt"),
               "verify_theorem_chain traces")


def role_honeycomb(run: Run) -> None:
    with run.phase("bench.command"), run.sample(one_shot=True) as spent:
        out, dt = run.cli(["honeycomb"])
        spent["honeycomb"] = (dt, 1)
    run.end_timed()
    chk.golden(run.checks, out, str(run.root / "tests" / "data" / "honeycomb.dot"),
               "specmi honeycomb")


def role_pointwise(run: Run) -> None:
    scan_path = run.workdir / "scan.csv"
    points = chk.octahedron_points(SCAN_GRID)
    with run.phase("bench.command"):
        for _ in range(SCAN_REPEATS if run.seconds is not None else 1):
            with run.sample(one_shot=True) as spent:
                _, dt = run.cli(["qubit2-scan", *SCAN_ARGS, "--output", str(scan_path)])
                spent["scan"] = (dt, points)

    table = specmi.class_table(2, 3)
    core, qubit2 = specmi.core, specmi.qubit2
    outputs = []
    with run.phase("bench.warm"):
        start = time.perf_counter()
        while not run.warm_done(start, len(outputs), POINTWISE_FIXED_ROUNDS):
            rng = np.random.default_rng([run.seed, len(outputs) // POINTWISE_BATCH])
            six = descending_spectra(rng, POINTWISE_BATCH, 6)
            four = descending_spectra(rng, POINTWISE_BATCH, 4)
            texts = [",".join(repr(x) for x in s) for s in six]
            for c0 in range(0, POINTWISE_BATCH, POINTWISE_CHUNK):
                extrema_s = scalar_s = 0.0
                with run.sample() as spent:
                    for s6, s4, text in zip(six[c0:c0 + POINTWISE_CHUNK], four[c0:c0 + POINTWISE_CHUNK],
                                            texts[c0:c0 + POINTWISE_CHUNK]):
                        t0 = time.perf_counter()
                        out, _ = run.cli(["extrema", "--m", "2", "--n", "3", "--spectrum", text])
                        t1 = time.perf_counter()
                        spectrum = core.Spectrum(s6)
                        scalar = [core.cmi(c.instantiate(spectrum)) for c in table.classes]
                        try:
                            s = core.Spectrum(s4)
                            order = qubit2.verify_total_order_2x2(s)
                            info = qubit2.qubit2_informations(s)
                        except (ValueError, RuntimeError) as exc:
                            order = info = exc
                        t2 = time.perf_counter()
                        extrema_s += t1 - t0
                        scalar_s += t2 - t1
                        outputs.append((out, scalar, order, info))
                    spent["extrema"] = (extrema_s, POINTWISE_CHUNK)
                    spent["scalar"] = (scalar_s, POINTWISE_CHUNK)
                    spent["round"] = (extrema_s + scalar_s, POINTWISE_CHUNK)
    run.end_timed()

    rng = np.random.default_rng([run.seed, 2])
    chk.scan_output(run.checks, specmi, str(scan_path), points, rng, SCAN_CHECK_ROWS)
    scan_path.unlink()
    for out, scalar, order, info in outputs:
        chk.extrema_output(run.checks, out, scalar)
        if run.checks.check(not isinstance(order, Exception), f"2x2 total order raised: {order!r}"):
            chk.qubit2_output(run.checks, info, order)


ROLES = {
    "setup": role_setup,
    "census": role_census,
    "relation": role_relation,
    "honeycomb": role_honeycomb,
    "pointwise": role_pointwise,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = (Path(spec["root"]) / "src").resolve()
    if src not in Path(specmi.__file__).resolve().parents:
        print(f"error: specmi was imported from {specmi.__file__}, not from {src}", file=sys.stderr)
        return 2
    run = Run(spec)
    if run.tracer:
        run.tracer.install()
    m, n = SHAPES[run.workload]
    with run.phase("bench.setup"):
        specmi.class_table(m, n)
        specmi.brute_force_extrema(setup_spectrum(m * n), m, n)
    setup_s, factor = time.perf_counter() - T0, 1.0
    if SETUP_TICKS:
        SETUP_TICKS.stop()
        setup_s -= SETUP_TICKS.spent
        factor = SETUP_TICKS.scale()
    run.samples["setup"] = [(setup_s, setup_s * factor, 1)]
    ROLES[spec["role"]](run)
    result = {
        "role": spec["role"],
        "rss_mb": run.rss_mb,
        "phase_wall_s": run.phase_wall,
        "samples": run.samples,
        "attempted": run.checks.attempted,
        "failures": run.checks.failures,
        "env": environment(run.workload),
    }
    if run.tracer:
        result["trace"] = summarize(run.tracer.spans)
        run.tracer.write(spec["trace_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
