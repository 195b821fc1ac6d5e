"""The command line's golden cases: one list, read by the test suite and by CI.

Each case runs one ``specmi`` command and compares its exit code, stdout,
stderr and the files it writes with goldens under ``tests/data/``.
``tests/test_cli.py`` runs every case through ``specmi.cli.main`` in
process; ::

    python tests/cli_goldens.py

runs every case through the ``specmi`` command found on ``PATH``, prints
each failure and exits 1 if any case fails.  A new golden is one more case.
"""
from __future__ import annotations

import hashlib
import io
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

DATA = Path(__file__).parent / "data"


class Case(NamedTuple):
    """One ``specmi`` command and what it must print, write and exit with.

    A golden is a file name under ``tests/data/``, a SHA-256 hex digest of
    the expected bytes, or ``""`` for nothing: empty stdout, or no file.
    """

    command: str  # the arguments after ``specmi``, split at spaces; {tmp} is the run's own directory
    stdout: str = ""  # a golden
    code: int = 0
    stderr: str = ""  # exactly
    files: tuple[tuple[str, str], ...] = ()  # (name in {tmp}, golden) of each file it writes
    given: tuple[tuple[str, str], ...] = ()  # (golden, name in {tmp}) copied in before it runs


def is_digest(golden: str) -> bool:
    return re.fullmatch("[0-9a-f]{64}", golden) is not None


def _matches(fh, golden: str) -> bool:
    """Whether the bytes left in the binary file ``fh`` are ``golden``'s."""
    if not is_digest(golden):
        return fh.read() == ((DATA / golden).read_bytes() if golden else b"")
    digest = hashlib.sha256()
    for block in iter(lambda: fh.read(1 << 20), b""):
        digest.update(block)
    return digest.hexdigest() == golden


def check(case: Case, invoke) -> list[str]:
    """Run ``case`` through ``invoke(argv) -> (code, stdout, stderr)``; return its failures.

    Every command takes ``--output``: a case that does not pass it runs
    once to stdout and once to a file, which must hold what stdout held.
    """
    runs = [(case.command, case.stdout, case.files)]
    if not case.command.startswith("-") and "--output" not in case.command.split():
        runs.append((case.command + " --output {tmp}/output", "", (*case.files, ("output", case.stdout))))
    failures = []
    for command, stdout, files in runs:
        with tempfile.TemporaryDirectory() as tmp:
            for golden, name in case.given:
                shutil.copyfile(DATA / golden, Path(tmp, name))
            code, out, err = invoke([arg.replace("{tmp}", tmp) for arg in command.split()])
            if code != case.code:
                failures.append(f"specmi {command}: exit code {code}, expected {case.code}")
            if not _matches(io.BytesIO(out.encode()), stdout):
                failures.append(f"specmi {command}: stdout is not {stdout or 'empty'}")
            if err != case.stderr:
                failures.append(f"specmi {command}: stderr {err!r}, expected {case.stderr!r}")
            for name, golden in files:
                path = Path(tmp, name)
                if path.is_file() != bool(golden):
                    failures.append(f"specmi {command}: {name} {'is missing' if golden else 'was written'}")
                elif golden:
                    with open(path, "rb") as fh:
                        if not _matches(fh, golden):
                            failures.append(f"specmi {command}: {name} is not {golden}")
    return failures


_CENSUS = "census --m {} --n {} --samples 20000 --seed 7".format
_EXTREMA = "extrema --m {} --n {} --spectrum {}".format
_2X3 = _EXTREMA(2, 3, "0.3,0.25,0.2,0.12,0.08,0.05")
_2X4 = _EXTREMA(2, 4, "0.25,0.2,0.15,0.12,0.1,0.08,0.06,0.04")
_3X3 = _EXTREMA(3, 3, "0.2,0.17,0.14,0.12,0.1,0.09,0.08,0.06,0.04")
_2X5 = _EXTREMA(2, 5, "0.2,0.16,0.13,0.11,0.1,0.09,0.08,0.06,0.04,0.03")
_CHECKPOINT = (("census.ck", "census_23_s7_20k_checkpoint.json"),)
_NO_NUMBER = "error: --spectrum: '' is not a number\n"

CASES = {
    "help": Case("--help", "help.txt"),
    # the base-2 goldens were written when each value was rescaled by one division
    "extrema-2x3-json": Case(_2X3, "extrema_2x3.json"),
    "extrema-2x3-csv": Case(_2X3 + " --format csv", "extrema_2x3.csv"),
    "extrema-2x3-log2-json": Case(_2X3 + " --log-base 2", "extrema_2x3_log2.json"),
    "extrema-2x3-log2-csv": Case(_2X3 + " --log-base 2 --format csv", "extrema_2x3_log2.csv"),
    # Taken when each value was first summed in a fixed order, without BLAS; the CSV
    # ones when each cycle label was derived from its own word, and the 2x5 CSV again
    # when labels with a comma, such as (9,10), were first quoted.
    "extrema-2x4-json": Case(_2X4, "2b13d35ae3b6dab261c947fc8a1a5fa4f3fa25708e665f0d852e10dc200fce80"),
    "extrema-3x3-json": Case(_3X3, "ff1875677041698ac82602d22710ada10e9a45c367f55261797c46945c73c33f"),
    "extrema-2x5-json": Case(_2X5, "b25fd83db730d6097a458c780422b5f2680dc47ea1d1084bf3517b411b7da894"),
    "extrema-2x4-csv": Case(
        _2X4 + " --format csv", "c8f9d0f99314e558102fbf64c57fce78afe7671011d5721ec4119c9c58f7117a"
    ),
    "extrema-3x3-csv": Case(
        _3X3 + " --format csv", "3617af1fa01ad36834d43d0d950966f1f23b6647b5f7bf554ada64d424e84a37"
    ),
    "extrema-2x5-csv": Case(
        _2X5 + " --format csv", "31f93fb89632cc732df5ba051e020b3b1da83aece902cf1d6fb86a6f09a8dcc3"
    ),
    # every value is zero at a rank-one spectrum, and none may be written as -0.0
    "extrema-rank-one-json": Case(_EXTREMA(2, 3, "1,0,0,0,0,0"), "extrema_2x3_rank_one.json"),
    "extrema-rank-one-csv": Case(_EXTREMA(2, 3, "1,0,0,0,0,0") + " --format csv", "extrema_2x3_rank_one.csv"),
    "extrema-empty-field": Case(_EXTREMA(2, 2, "0.4,,0.3,0.2,0.1"), code=2, stderr=_NO_NUMBER),
    "extrema-trailing-comma": Case(_EXTREMA(2, 2, "0.4,0.3,0.2,0.1,"), code=2, stderr=_NO_NUMBER),
    "relation-37-52": Case("relation --a 37 --b 52", "relation_37_52.txt"),
    "relation-44-45": Case("relation --a 44 --b 45", "relation_44_45.txt", code=1),  # inconclusive
    "relation-48-42": Case("relation --a 48 --b 42", "relation_48_42.txt"),
    # the benchmark's cold query (certify); bench/reference.json holds its SHA-256
    "relation-42-48": Case("relation --a 42 --b 48", "relation_42_48.txt"),
    "relation-2x2-3-1": Case("relation --m 2 --n 2 --a 3 --b 1", "relation_2x2_3_1.txt"),
    "relation-2x4-1-696": Case("relation --m 2 --n 4 --a 1 --b 696", "relation_2x4_1_696.txt"),
    # the two classes the 2x4 census credits at the maximum
    "relation-2x4-696-768": Case("relation --m 2 --n 4 --a 696 --b 768", "relation_2x4_696_768.txt", code=1),
    # 198 -> 765 is a certified 5-hop chain, past the search depth of 4
    "relation-2x4-198-765": Case("relation --m 2 --n 4 --a 198 --b 765", "relation_2x4_198_765.txt", code=1),
    "relation-3x2": Case(
        "relation --m 3 --n 2 --a 1 --b 2", code=2, stderr="error: shape must satisfy 2 <= m <= n, got (3, 2)\n"
    ),
    "relation-index-0": Case("relation --a 0 --b 5", code=2, stderr="error: class index 0 outside 1..60\n"),
    "relation-index-61": Case("relation --a 61 --b 1", code=2, stderr="error: class index 61 outside 1..60\n"),
    "relation-2x2-index-4": Case(
        "relation --m 2 --n 2 --a 4 --b 1", code=2, stderr="error: class index 4 outside 1..3\n"
    ),
    "honeycomb": Case("honeycomb", "honeycomb.dot"),
    "census-2x2": Case(_CENSUS(2, 2), "census_22_s7_20k.json"),
    "census-2x3": Case(_CENSUS(2, 3), "census_23_s7_20k.json"),
    "census-2x3-checkpoint": Case(
        _CENSUS(2, 3) + " --checkpoint {tmp}/census.ck", "census_23_s7_20k.json", files=_CHECKPOINT
    ),
    "census-2x3-resume": Case(
        _CENSUS(2, 3) + " --checkpoint {tmp}/census.ck --resume", "census_23_s7_20k.json",
        files=_CHECKPOINT, given=(("census_23_s7_20k_checkpoint.json", "census.ck"),),
    ),
    "census-2x4": Case(_CENSUS(2, 4), "census_24_s7_20k.json"),
    "census-3x3": Case(_CENSUS(3, 3), "census_33_s7_20k.json"),
    "census-2x5-two-workers": Case(
        _CENSUS(2, 5) + " --workers 2 --checkpoint {tmp}/census.ck", "census_25_s7_20k.json",
        files=(("census.ck", "census_25_s7_20k_checkpoint.json"),),
    ),
    "census-negative-seed": Case(
        "census --m 2 --n 3 --samples 10 --seed -1", code=2, stderr="error: census needs seed >= 0\n"
    ),
    **{
        f"scan-{function}-grid5": Case(
            f"qubit2-scan --function {function} --grid 5",
            f"qubit2_scan_{function.replace('-', '_')}_grid5.csv",
        )
        for function in ("gamma-max", "gamma-min", "i-max-qmi", "i-min", "i-max-class")
    },
    # A grid-5 scan is one chunk; grid 101 (171,802 lines) streams 27 of them.
    "scan-grid101": Case(
        "qubit2-scan --function gamma-max --grid 101",
        "95a434c1b838ea23f3ddc77f30fbccf9f26f265f06063e2aec50ea72c2323edf",
    ),
    # 1,353,602 lines, 107.5 MB, written to a file alone: its middle t11 slab
    # (20,201 rows) outgrows a chunk's row budget.
    "scan-grid201": Case(
        "qubit2-scan --function gamma-max --grid 201 --output {tmp}/scan.csv",
        files=(("scan.csv", "fbca03e419617b652d13d76b71b8571f94a0c6aa3654d6063502d7b5cd6a6bc4"),),
    ),
}


def _installed(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(["specmi", *argv], capture_output=True)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


if __name__ == "__main__":
    failures = [f"{name}: {failure}" for name, case in CASES.items() for failure in check(case, _installed)]
    print(*failures, f"{len(CASES)} cases, {len(failures)} failures", sep="\n")
    sys.exit(1 if failures else 0)
