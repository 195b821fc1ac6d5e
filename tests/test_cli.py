"""End-to-end checks of the command line interface."""
import contextlib
import csv
import errno
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmi import class_table, cli
from specmi.cli import main
from specmi.core import write_text_atomic
from specmi import extrema, qubit2
from specmi.extrema import MAX_BLOCK_SIZE, census
from specmi.qubit2 import MAX_SCAN_GRID, SCAN_FUNCTIONS, octahedron_scan

DATA = Path(__file__).parent / "data"
SPECTRUM = "0.3,0.25,0.2,0.15,0.07,0.03"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ help text

def test_help_matches_golden(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out == (DATA / "help.txt").read_text()


def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage:" in err


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert "usage:" in err


def test_repeated_calls_share_no_parser_state(capsys):
    for _ in range(2):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out == (DATA / "help.txt").read_text()
    good = ("extrema", "--m", "2", "--n", "3", "--spectrum", SPECTRUM)
    code, alone, _ = run(capsys, *good)
    assert code == 0
    code, out, err = run(capsys, *good, "--log-base", "2", "--format", "xml")
    assert code == 2 and out == "" and "invalid choice" in err
    code, after, _ = run(capsys, *good)
    assert code == 0
    assert after == alone


# ------------------------------------------------------------------- extrema

def test_extrema_json_output(capsys):
    code, out, _ = run(capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", SPECTRUM)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "extrema"
    assert payload["log_base"] == "e"
    assert payload["maxima"] == [
        {"index": 48, "display": "ade|fcb", "cycle_label": "(264)(35)"}
    ]
    assert {entry["index"] for entry in payload["minima"]} <= {1, 7, 13, 25, 31}
    assert len(payload["values"]) == 60
    assert payload["max_value"] == pytest.approx(0.18469639607455747, abs=1e-12)


def test_extrema_log_base_two_rescales(capsys):
    _, out_e, _ = run(capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", SPECTRUM)
    _, out_2, _ = run(
        capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", SPECTRUM,
        "--log-base", "2",
    )
    p_e, p_2 = json.loads(out_e), json.loads(out_2)
    assert p_2["log_base"] == "2"
    for v_e, v_2 in zip(p_e["values"], p_2["values"]):
        assert v_2 == pytest.approx(v_e / math.log(2.0), abs=1e-12)


def test_extrema_csv_output(capsys, tmp_path):
    target = tmp_path / "values.csv"
    code, _, _ = run(
        capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", SPECTRUM,
        "--format", "csv", "--output", str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "class,word,cycle_label,value"
    assert len(lines) == 61
    assert lines[1].startswith("1,abcdef,(),")


@pytest.mark.parametrize("fmt, golden", [
    ("json", "extrema_2x3.json"), ("csv", "extrema_2x3.csv"),
    ("json", "extrema_2x3_log2.json"), ("csv", "extrema_2x3_log2.csv"),
])
def test_extrema_matches_golden_on_both_targets(capsys, tmp_path, fmt, golden):
    # the log2 goldens were written when each value was rescaled by one division
    expected = (DATA / golden).read_text()
    argv = ("extrema", "--m", "2", "--n", "3", "--spectrum", "0.3,0.25,0.2,0.12,0.08,0.05",
            "--format", fmt, "--log-base", "2" if "log2" in golden else "e")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected
    target = tmp_path / golden
    code, out, _ = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (0, "")
    assert target.read_bytes() == expected.encode()


#: SHA-256 of ``specmi extrema`` JSON at one spectrum per larger shape, taken
#: when each value was first summed in a fixed order, without BLAS.
EXTREMA_SHA256 = {
    (2, 4, "0.25,0.2,0.15,0.12,0.1,0.08,0.06,0.04"):
        "2b13d35ae3b6dab261c947fc8a1a5fa4f3fa25708e665f0d852e10dc200fce80",
    (3, 3, "0.2,0.17,0.14,0.12,0.1,0.09,0.08,0.06,0.04"):
        "ff1875677041698ac82602d22710ada10e9a45c367f55261797c46945c73c33f",
    (2, 5, "0.2,0.16,0.13,0.11,0.1,0.09,0.08,0.06,0.04,0.03"):
        "b25fd83db730d6097a458c780422b5f2680dc47ea1d1084bf3517b411b7da894",
}


@pytest.mark.parametrize("m,n,spectrum", list(EXTREMA_SHA256), ids=["2x4", "3x3", "2x5"])
def test_extrema_json_of_larger_shapes_is_pinned(capsys, m, n, spectrum):
    code, out, _ = run(capsys, "extrema", "--m", str(m), "--n", str(n), "--spectrum", spectrum)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXTREMA_SHA256[m, n, spectrum]


def test_the_2x5_extrema_digest_file_holds_the_pinned_digest():
    # CI pipes the installed command through ``sha256sum -c`` against this file
    line = (DATA / "extrema_2x5.sha256").read_text()
    assert line == EXTREMA_SHA256[2, 5, "0.2,0.16,0.13,0.11,0.1,0.09,0.08,0.06,0.04,0.03"] + "  -\n"


#: SHA-256 of ``specmi extrema --format csv`` at the same spectra, taken
#: when each cycle label was derived from its own word in Python: the labels
#: read from the whole word array must print the same bytes.  The 2x5 digest
#: was taken again when labels with a comma, such as (9,10), were first quoted.
EXTREMA_CSV_SHA256 = {
    (2, 4, "0.25,0.2,0.15,0.12,0.1,0.08,0.06,0.04"):
        "c8f9d0f99314e558102fbf64c57fce78afe7671011d5721ec4119c9c58f7117a",
    (3, 3, "0.2,0.17,0.14,0.12,0.1,0.09,0.08,0.06,0.04"):
        "3617af1fa01ad36834d43d0d950966f1f23b6647b5f7bf554ada64d424e84a37",
    (2, 5, "0.2,0.16,0.13,0.11,0.1,0.09,0.08,0.06,0.04,0.03"):
        "31f93fb89632cc732df5ba051e020b3b1da83aece902cf1d6fb86a6f09a8dcc3",
}


@pytest.mark.parametrize("m,n,spectrum", list(EXTREMA_CSV_SHA256), ids=["2x4", "3x3", "2x5"])
def test_extrema_csv_of_larger_shapes_is_pinned(capsys, m, n, spectrum):
    args = ("extrema", "--m", str(m), "--n", str(n), "--spectrum", spectrum, "--format", "csv")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXTREMA_CSV_SHA256[m, n, spectrum]


def test_extrema_csv_of_2x5_parses_into_four_fields_per_row(capsys):
    spectrum = "0.2,0.16,0.13,0.11,0.1,0.09,0.08,0.06,0.04,0.03"
    args = ("extrema", "--m", "2", "--n", "5", "--spectrum", spectrum, "--format", "csv")
    code, out, _ = run(capsys, *args)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    table = class_table(2, 5)
    assert rows[0] == ["class", "word", "cycle_label", "value"]
    assert len(rows) == len(table) + 1
    assert all(len(row) == 4 for row in rows)
    labels = [table.get(i).cycle_label for i in range(1, len(table) + 1)]
    assert [row[2] for row in rows[1:]] == labels
    # quoted as csv.writer's minimal quoting quotes: only the labels with a comma
    written = io.StringIO()
    csv.writer(written, lineterminator="\n").writerows(rows)
    assert written.getvalue() == out


def test_the_2x5_extrema_csv_digest_file_holds_the_pinned_digest():
    # CI pipes the installed command's CSV through ``sha256sum -c`` against this file
    line = (DATA / "extrema_2x5_csv.sha256").read_text()
    assert line == EXTREMA_CSV_SHA256[2, 5, "0.2,0.16,0.13,0.11,0.1,0.09,0.08,0.06,0.04,0.03"] + "  -\n"


#: Prints ``specmi extrema`` JSON at the 2x3 golden's spectrum, then the
#: SHA-256 of the 2x5 JSON at its pinned spectrum, from one process.
_EXTREMA_GOLDENS_SCRIPT = """
import contextlib, hashlib, io
from specmi.cli import main
assert main(["extrema", "--m", "2", "--n", "3", "--spectrum", "0.3,0.25,0.2,0.12,0.08,0.05"]) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["extrema", "--m", "2", "--n", "5", "--spectrum", "%s"]) == 0
print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86 kernels")
@pytest.mark.parametrize("kernel", ["Haswell", "Nehalem"])
def test_extrema_goldens_hold_under_other_openblas_kernels(kernel):
    # OpenBLAS picks its kernel when it loads, so each kernel runs in a fresh
    # process; the outputs must not depend on it
    spectrum = "0.2,0.16,0.13,0.11,0.1,0.09,0.08,0.06,0.04,0.03"
    proc = subprocess.run(
        [sys.executable, "-c", _EXTREMA_GOLDENS_SCRIPT % spectrum],
        env=_fresh_process_env(OPENBLAS_CORETYPE=kernel), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = (DATA / "extrema_2x3.json").read_text() + EXTREMA_SHA256[2, 5, spectrum] + "\n"
    assert proc.stdout == expected


@pytest.mark.filterwarnings("error")
def test_extrema_with_zero_entries_writes_finite_json(capsys):
    code, out, err = run(
        capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", "0.4,0.3,0.3,0,0,0"
    )
    assert (code, err) == (0, "")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(out, parse_constant=reject)
    assert payload["max_value"] == pytest.approx(0.6730116670092565, abs=1e-12)
    # at a rank-one spectrum every value is zero, and none is written as -0.0
    argv = ("extrema", "--m", "2", "--n", "3", "--spectrum", "1,0,0,0,0,0")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=reject)
    values = [payload["max_value"], payload["min_value"], *payload["values"]]
    assert len(values) == 62 and all(math.copysign(1.0, v) > 0 for v in values)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    values = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
    assert len(values) == 60 and all(math.copysign(1.0, v) > 0 for v in values)


def test_extrema_rejects_malformed_spectrum(capsys):
    code, _, err = run(capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", "0.5,oops,0.3")
    assert code == 2
    assert "'oops'" in err

    code, _, err = run(capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", "0.5,0.4,0.3")
    assert code == 2
    assert "sum to 1" in err

    code, _, err = run(
        capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", "0.3,0.4,0.15,0.1,0.03,0.02"
    )
    assert code == 2
    assert "non-increasing" in err or "order" in err

    code, out, err = run(
        capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", "nan,0.5,0.2,0.1,0.1,0.1"
    )
    assert (code, out) == (2, "")
    assert "non-finite" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_extrema_names_a_non_finite_spectrum_entry(capsys, bad):
    spectrum = f"--spectrum={bad},0.5,0.5,0,0,0"  # '=' keeps '-inf' from reading as an option
    code, out, err = run(capsys, "extrema", "--m", "2", "--n", "3", spectrum)
    assert (code, out) == (2, "")
    assert err == f"error: --spectrum: {bad!r} is non-finite\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--m", "3", "--n", "4", "--samples", "10", "--seed", "1"),
        ("extrema", "--m", "2", "--n", "6", "--spectrum", ",".join(["0.09375"] * 8 + ["0.0625"] * 4)),
    ],
    ids=["census-3x4", "extrema-2x6"],
)
def test_twelve_cell_shapes_exit_2_before_enumerating(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a 12-cell class table was enumerated")

    monkeypatch.setattr("specmi.classes.enumerate_classes", no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "the cap is 10" in err


def test_extrema_rejects_dim_mismatch(capsys):
    code, _, err = run(capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", "0.6,0.4")
    assert code == 2
    assert "error:" in err


def test_extrema_output_to_missing_directory_fails_cleanly(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "values.json"
    code, _, err = run(
        capsys, "extrema", "--m", "2", "--n", "3", "--spectrum", SPECTRUM,
        "--output", str(target),
    )
    assert code == 4
    assert "error:" in err


# -------------------------------------------------------------------- census

def test_census_matches_golden_and_reruns_identically(capsys, tmp_path):
    golden = (DATA / "census_23_s7_20k.json").read_bytes()
    first = tmp_path / "census_a.json"
    second = tmp_path / "census_b.json"
    for target in (first, second):
        code, _, _ = run(
            capsys, "census", "--m", "2", "--n", "3", "--samples", "20000",
            "--seed", "7", "--output", str(target),
        )
        assert code == 0
    assert first.read_bytes() == golden
    assert second.read_bytes() == golden


def test_census_checkpoint_matches_golden_and_resumes_to_the_census_golden(capsys, tmp_path):
    golden = (DATA / "census_23_s7_20k_checkpoint.json").read_bytes()
    written, resumed = tmp_path / "written.json", tmp_path / "resumed.json"
    argv = ("census", "--m", "2", "--n", "3", "--samples", "20000", "--seed", "7")
    code, _, _ = run(capsys, *argv, "--checkpoint", str(written))
    assert code == 0
    assert written.read_bytes() == golden
    resumed.write_bytes(golden)
    code, out, err = run(capsys, *argv, "--checkpoint", str(resumed), "--resume")
    assert (code, out, err) == (0, (DATA / "census_23_s7_20k.json").read_text(), "")
    assert resumed.read_bytes() == golden


def test_threaded_2x5_census_and_checkpoint_match_their_goldens(capsys, tmp_path, monkeypatch):
    # two block threads, so OpenBLAS runs capped, wherever this runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    written, checkpoint = tmp_path / "census.json", tmp_path / "census.ck"
    code, out, err = run(
        capsys, "census", "--m", "2", "--n", "5", "--samples", "20000", "--seed", "7",
        "--workers", "2", "--checkpoint", str(checkpoint), "--output", str(written),
    )
    assert (code, out, err) == (0, "", "")
    assert written.read_bytes() == (DATA / "census_25_s7_20k.json").read_bytes()
    assert checkpoint.read_bytes() == (DATA / "census_25_s7_20k_checkpoint.json").read_bytes()


#: Peak RSS, in MiB, of a fresh interpreter that runs the threaded 2x5
#: census below: 58.1 on a 2-vCPU VM, where it was 80.4 while each block
#: thread kept a 2500-row tile's 15.3 MB of work arrays.  The bound leaves
#: 17 MiB for other NumPy and BLAS builds.
CENSUS_25_RSS_BOUND_MIB = 75

# The interpreter reports the high-water mark of its own address space:
# its ``ru_maxrss`` would also hold the test process's peak, which Linux
# carries across the exec that starts it.
_CENSUS_25_SCRIPT = """
import sys
from specmi.cli import main
code = main(["census", "--m", "2", "--n", "5", "--samples", "20000", "--seed", "7", "--workers", "2"])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def _fresh_process_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's specmi."""
    env = dict(os.environ, **extra)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_a_fresh_threaded_2x5_census_matches_its_golden_within_its_memory_bound():
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc to read a process's peak RSS from")
    proc = subprocess.run(
        [sys.executable, "-c", _CENSUS_25_SCRIPT], env=_fresh_process_env(), capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "census_25_s7_20k.json").read_text()
    _, kib, unit = proc.stderr.split()[-3:]
    assert unit == "kB"
    assert int(kib) / 2**10 < CENSUS_25_RSS_BOUND_MIB


def test_3x3_census_matches_its_golden(capsys):
    code, out, err = run(capsys, "census", "--m", "3", "--n", "3", "--samples", "20000", "--seed", "7")
    assert (code, out, err) == (0, (DATA / "census_33_s7_20k.json").read_text(), "")


def test_2x4_census_matches_its_golden(capsys):
    code, out, err = run(capsys, "census", "--m", "2", "--n", "4", "--samples", "20000", "--seed", "7")
    assert (code, out, err) == (0, (DATA / "census_24_s7_20k.json").read_text(), "")


def test_2x2_census_matches_its_golden(capsys):
    code, out, err = run(capsys, "census", "--m", "2", "--n", "2", "--samples", "20000", "--seed", "7")
    assert (code, out, err) == (0, (DATA / "census_22_s7_20k.json").read_text(), "")


def test_census_worker_flag_keeps_output_identical(capsys, tmp_path):
    target = tmp_path / "census_w4.json"
    code, _, _ = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "20000",
        "--seed", "7", "--workers", "4", "--output", str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    golden = json.loads((DATA / "census_23_s7_20k.json").read_text())
    for key in ("max_hits", "min_hits", "max_classes", "min_classes"):
        assert payload[key] == golden[key]


def test_census_convergence_csv(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, _, _ = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "20000",
        "--seed", "7", "--convergence-csv", str(trace),
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "samples,n_max_classes,n_min_classes"
    assert lines[1] == "10000,1,5"
    assert lines[2] == "20000,1,5"


def test_census_checkpoint_mismatch_exit_code(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    code, _, _ = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "2000",
        "--seed", "7", "--checkpoint", str(ck),
    )
    assert code == 0
    code, _, err = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "2000",
        "--seed", "8", "--checkpoint", str(ck), "--resume",
    )
    assert code == 3
    assert "checkpoint" in err


def test_census_resume_without_a_checkpoint_is_a_bad_argument(capsys):
    code, out, err = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "2000", "--seed", "7", "--resume"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--checkpoint" in err


def _edit_payload(change):
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(_edit_payload(lambda p: p.pop("max_hits")), id="missing-max-hits"),
        pytest.param(_edit_payload(lambda p: p.update(max_hits={"999": 2000})), id="class-999"),
        pytest.param(_edit_payload(lambda p: p.update(max_hits={"0": 2000})), id="class-0"),
        pytest.param(_edit_payload(lambda p: p.update(blocks_done=99)), id="blocks-done-99"),
        pytest.param(lambda text: text[: len(text) // 2], id="invalid-json"),
        pytest.param(
            _edit_payload(lambda p: p.update(convergence=[[999999, 77, 88], [5, 1, 1]])),
            id="convergence-rows",
        ),
    ],
)
def test_census_rejects_bad_checkpoint(capsys, tmp_path, edit):
    ck = tmp_path / "ck.json"
    argv = ("census", "--m", "2", "--n", "3", "--samples", "2000", "--seed", "7",
            "--checkpoint", str(ck))
    assert run(capsys, *argv)[0] == 0
    ck.write_text(edit(ck.read_text()))
    code, out, err = run(capsys, *argv, "--resume")
    assert (code, out) == (3, "")
    assert err.startswith("error: checkpoint")
    assert "Traceback" not in err


def test_file_outputs_are_written_whole_and_leave_no_temp_files(capsys, tmp_path):
    outputs = {name: tmp_path / name for name in ("census.json", "trace.csv", "ck.json")}
    squatter = tmp_path / "ck.json.tmp"  # a name another writer could be using
    squatter.mkdir()
    code, _, _ = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "20000", "--seed", "7",
        "--output", str(outputs["census.json"]),
        "--convergence-csv", str(outputs["trace.csv"]),
        "--checkpoint", str(outputs["ck.json"]),
    )
    assert code == 0
    assert outputs["census.json"].read_bytes() == (DATA / "census_23_s7_20k.json").read_bytes()
    assert {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in outputs.items()} == {
        "census.json": "f38d6c705fb0202bfe9e24380f4adbdd90be0c513f040f7c5b141da3494feb37",
        "trace.csv": "af4975dd7c4954b9b6e1fef33fb99dce9f65cd31a210ff1a3d7bbf31f04301a1",
        "ck.json": "61d7d5eb1ea707255281723dec2f0290577557d45e1ffed8ab76b4b34a6f4918",
    }
    umask = os.umask(0)
    os.umask(umask)
    for path in outputs.values():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    blocked = tmp_path / "a_directory"
    blocked.mkdir()
    code, out, err = run(capsys, "honeycomb", "--output", str(blocked))
    assert (code, out) == (4, "")
    assert err.startswith("error:")
    names = [*outputs, squatter.name, blocked.name]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert list(squatter.iterdir()) == list(blocked.iterdir()) == []


def _exit_code(argv):
    """Run the CLI with its output discarded; any escaping exception fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)
CHECKPOINT_KEYS = (
    "schema_version", "m", "n", "samples", "seed", "block_size", "blocks_done",
    "max_hits", "min_hits", "tie_events_max", "tie_events_min", "convergence",
)
FUZZ_CENSUS = ("census", "--m", "2", "--n", "3", "--samples", "12000", "--seed", "7",
               "--block-size", "1000")


@pytest.fixture(scope="module")
def partial_checkpoint(tmp_path_factory):
    ck = tmp_path_factory.mktemp("fuzz") / "ck.json"
    block_extrema, calls = extrema._block_extrema, itertools.count()

    def interrupted(*args):  # the run stops when it reaches block 10
        if next(calls) == 10:
            raise RuntimeError("interrupted")
        return block_extrema(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extrema, "_block_extrema", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            census(2, 3, 12000, 7, block_size=1000, checkpoint_path=str(ck))
    payload = json.loads(ck.read_text())
    assert payload["blocks_done"] == 10
    assert sorted(payload) == sorted(CHECKPOINT_KEYS)
    return payload


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(CHECKPOINT_KEYS), value=JSON_VALUES)
def test_resuming_a_fuzzed_checkpoint_exits_cleanly(partial_checkpoint, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "ck.json"
        ck.write_text(json.dumps({**partial_checkpoint, key: value}))
        code = _exit_code([*FUZZ_CENSUS, "--checkpoint", str(ck), "--resume"])
    assert code in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(
    text=st.text(max_size=40)
    | st.lists(st.floats() | st.integers(), max_size=7).map(lambda xs: ",".join(map(str, xs)))
)
@example(text="1e308,1e308,0,0,0,0")  # finite entries whose sum overflows
def test_any_spectrum_text_exits_cleanly(text):
    assert _exit_code(["extrema", "--m", "2", "--n", "3", f"--spectrum={text}"]) in (0, 2, 3)


def test_census_block_size_over_the_cap_is_a_bad_argument(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a census over the block cap sampled spectra")

    monkeypatch.setattr(extrema, "sample_spectra", no_work)
    code, out, err = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "100000000", "--seed", "7",
        "--block-size", "100000000",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(MAX_BLOCK_SIZE) in err


def test_census_validates_samples(capsys):
    code, _, err = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "0", "--seed", "7"
    )
    assert code == 2
    assert "samples" in err


def test_census_rejects_a_negative_seed_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a census with a negative seed did work")

    monkeypatch.setattr(extrema, "_census_decomposition", no_work)
    monkeypatch.setattr(extrema, "sample_spectra", no_work)
    code, out, err = run(
        capsys, "census", "--m", "2", "--n", "5", "--samples", "10", "--seed", "-1"
    )
    assert (code, out, err) == (2, "", "error: census needs seed >= 0\n")


def test_census_checkpoint_in_a_missing_directory_names_the_given_path(capsys, tmp_path):
    ck = tmp_path / "no_such_dir" / "census.ck"
    code, out, err = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "100", "--seed", "7",
        "--checkpoint", str(ck),
    )
    assert (code, out) == (4, "")
    assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(ck)!r}\n"
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------- relation

def test_relation_provable_pair(capsys):
    code, out, _ = run(capsys, "relation", "--a", "42", "--b", "48")
    assert code == 0
    assert out.startswith("derive: class 42 vs class 48")
    assert "verdict: ProvenForward" in out


def test_relation_inconclusive_pair_exit_code(capsys):
    code, out, _ = run(capsys, "relation", "--a", "44", "--b", "45")
    assert code == 1
    assert "no certified chain" in out


@pytest.mark.parametrize(
    "name, args, code",
    [
        ("relation_37_52.txt", "--a 37 --b 52", 0),
        ("relation_44_45.txt", "--a 44 --b 45", 1),
        ("relation_48_42.txt", "--a 48 --b 42", 0),
        ("relation_42_48.txt", "--a 42 --b 48", 0),
        ("relation_2x2_3_1.txt", "--m 2 --n 2 --a 3 --b 1", 0),
    ],
    ids=["37-52-0", "44-45-1", "48-42-0", "42-48-0", "2x2-3-1-0"],
)
def test_relation_matches_golden(capsys, tmp_path, name, args, code):
    golden = (DATA / name).read_bytes()
    assert run(capsys, "relation", *args.split()) == (code, golden.decode(), "")
    target = tmp_path / "relation.txt"
    assert run(capsys, "relation", *args.split(), "--output", str(target)) == (code, "", "")
    assert target.read_bytes() == golden


@pytest.mark.parametrize("m, n", [("2", "4"), ("3", "3"), ("2", "5")])
def test_relation_rejects_unsupported_shapes_before_any_work(capsys, monkeypatch, m, n):
    def no_work(*args, **kwargs):
        raise AssertionError("relation built a class table or graph for an unsupported shape")

    monkeypatch.setattr(cli, "class_table", no_work)
    monkeypatch.setattr(cli, "derive_relation", no_work)
    code, out, err = run(capsys, "relation", "--m", m, "--n", n, "--a", "1", "--b", "2")
    assert (code, out) == (2, "")
    assert err == f"error: relation supports the shapes 2x2 and 2x3, got {m}x{n}\n"


def test_relation_bad_index(capsys):
    code, _, err = run(capsys, "relation", "--a", "0", "--b", "48")
    assert code == 2
    assert "index" in err


# ------------------------------------------------------------------ honeycomb

def test_honeycomb_matches_golden(capsys, tmp_path):
    target = tmp_path / "hc.dot"
    code, _, _ = run(capsys, "honeycomb", "--output", str(target))
    assert code == 0
    assert target.read_bytes() == (DATA / "honeycomb.dot").read_bytes()


def test_honeycomb_to_stdout(capsys):
    code, out, _ = run(capsys, "honeycomb")
    assert code == 0
    assert out == (DATA / "honeycomb.dot").read_text()


# ---------------------------------------------------------------- qubit2-scan

def _assert_same_text(got, want):
    """Assert ``got == want`` (both str or both bytes), naming the first differing line.

    Whole scan CSVs run to 13.6 MB, which pytest would otherwise diff in full.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for number, (got_line, want_line) in enumerate(zip(got_lines, want_lines), start=1):
        assert got_line == want_line, f"first difference at line {number}"
    assert len(got_lines) == len(want_lines), "one text is a prefix of the other"


@pytest.mark.parametrize("function", [name.replace("_", "-") for name in SCAN_FUNCTIONS])
def test_qubit2_scan_matches_golden_and_reruns_identically(capsys, tmp_path, function):
    golden = (DATA / f"qubit2_scan_{function.replace('-', '_')}_grid5.csv").read_bytes()
    for name in ("scan_a.csv", "scan_b.csv"):
        target = tmp_path / name
        code, _, _ = run(
            capsys, "qubit2-scan", "--function", function, "--grid", "5",
            "--output", str(target),
        )
        assert code == 0
        _assert_same_text(target.read_bytes(), golden)


def test_qubit2_scan_log_base_two(capsys):
    code, out_e, _ = run(capsys, "qubit2-scan", "--function", "gamma-min", "--grid", "5")
    assert code == 0
    code, out_2, _ = run(
        capsys, "qubit2-scan", "--function", "gamma-min", "--grid", "5", "--log-base", "2"
    )
    assert code == 0
    rows_e = [ln.split(",") for ln in out_e.splitlines()[1:]]
    rows_2 = [ln.split(",") for ln in out_2.splitlines()[1:]]
    for re_, r2 in zip(rows_e, rows_2):
        assert float(r2[3]) == pytest.approx(float(re_[3]) / math.log(2.0), abs=1e-12)


def _reference_scan_csv(function: str, grid: int, log_base: str) -> str:
    """The scan CSV rendered row by row from NumPy scalars with %.17g."""
    points, values = octahedron_scan(function.replace("-", "_"), grid)
    lines = ["t11,t22,t33,value"]
    for (t11, t22, t33), value in zip(points, values):
        value = float(value) / math.log(2.0) if log_base == "2" else float(value)
        lines.append(f"{t11:.17g},{t22:.17g},{t33:.17g},{value:.17g}")
    return "\n".join(lines) + "\n"


SCAN_CASES = [
    (name.replace("_", "-"), 21, log_base) for name in SCAN_FUNCTIONS for log_base in ("e", "2")
] + [("gamma-max", 101, "e")]


@pytest.mark.parametrize("function,grid,log_base", SCAN_CASES)
def test_qubit2_scan_matches_the_per_row_rendering(capsys, function, grid, log_base):
    code, out, _ = run(
        capsys, "qubit2-scan", "--function", function, "--grid", str(grid),
        "--log-base", log_base,
    )
    assert code == 0
    _assert_same_text(out, _reference_scan_csv(function, grid, log_base))


#: SHA-256 of ``qubit2-scan --function gamma-max --grid 101`` (171,802 lines),
#: in the ``sha256sum`` line that CI checks the installed command against.
SCAN_101_SHA256 = (DATA / "qubit2_scan_gamma_max_grid101.sha256").read_text().removesuffix("  -\n")
SCAN_101 = ("qubit2-scan", "--function", "gamma-max", "--grid", "101")


def test_qubit2_scan_at_grid_101_has_the_pinned_bytes_on_both_targets(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    code, out, _ = run(capsys, *SCAN_101, "--output", str(target))
    assert (code, out) == (0, "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SCAN_101_SHA256
    code, out, _ = run(capsys, *SCAN_101)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_101_SHA256


#: SHA-256 of ``qubit2-scan --function gamma-max --grid 201`` (1,353,602 lines,
#: 107.5 MB).  Its middle t11 slab alone (20,201 rows) outgrows a chunk's row budget.
SCAN_201_SHA256 = "fbca03e419617b652d13d76b71b8571f94a0c6aa3654d6063502d7b5cd6a6bc4"


def test_qubit2_scan_at_grid_201_has_the_pinned_bytes(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "qubit2-scan", "--function", "gamma-max", "--grid", "201",
                       "--output", str(target))
    assert (code, out) == (0, "")
    digest = hashlib.sha256()
    with open(target, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    target.unlink()  # not left behind in pytest's kept temporary directories
    assert digest.hexdigest() == SCAN_201_SHA256


def test_qubit2_scan_at_grid_2_prints_the_header_alone(capsys):
    code, out, _ = run(capsys, "qubit2-scan", "--function", "gamma-max", "--grid", "2")
    assert (code, out) == (0, "t11,t22,t33,value\n")


def test_qubit2_scan_at_grid_3_prints_its_seven_points(capsys):
    # The six vertices have spectrum (1/2, 1/2, 0, 0), the centre the uniform one.
    code, out, _ = run(capsys, "qubit2-scan", "--function", "i-max-qmi", "--grid", "3")
    assert code == 0
    ln2 = "0.69314718055994529"
    assert out == (
        "t11,t22,t33,value\n"
        f"-1,0,0,{ln2}\n0,-1,0,{ln2}\n0,0,-1,{ln2}\n0,0,0,0\n"
        f"0,0,1,{ln2}\n0,1,0,{ln2}\n1,0,0,{ln2}\n"
    )


@pytest.mark.parametrize("budget", [1, 7, 10**9])
def test_qubit2_scan_bytes_do_not_depend_on_the_chunk_budget(capsys, monkeypatch, budget):
    # A budget of 1 makes every slab its own chunk, the first one a single row.
    monkeypatch.setattr(qubit2, "_SCAN_CHUNK_ROWS", budget)
    for function in ("gamma-max", "i-min"):
        golden = (DATA / f"qubit2_scan_{function.replace('-', '_')}_grid5.csv").read_text()
        code, out, _ = run(capsys, "qubit2-scan", "--function", function, "--grid", "5")
        assert code == 0
        _assert_same_text(out, golden)


def test_qubit2_scan_to_a_file_peaks_below_4_mb(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    run(capsys, "--help")  # the parser is built once, outside the measurement
    tracemalloc.start()
    try:
        code = main([*SCAN_101, "--output", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # The 13.6 MB text is streamed a chunk at a time: the whole command
    # peaked at 2.4 MB (the grid cube alone is 8.2 MB of float64).
    assert target.stat().st_size > 13_000_000
    assert peak < 4_000_000


def test_atomic_write_of_chunks_that_raise_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def chunks():
        yield "a,b\n" * 10_000
        yield "c,d\n"
        raise OSError("disk gone")

    with pytest.raises(OSError, match="disk gone"):
        write_text_atomic(str(target), chunks())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    write_text_atomic(str(target), iter(["a,b\n", "", "c,d\n"]))
    assert target.read_text() == "a,b\nc,d\n"


def test_output_through_a_symlink_replaces_the_linked_file(capsys, tmp_path):
    real = tmp_path / "real" / "honeycomb.dot"
    real.parent.mkdir()
    link = tmp_path / "link.dot"
    link.symlink_to(real)  # dangling: the first write creates the linked file
    golden = (DATA / "honeycomb.dot").read_bytes()
    for old in (None, "old\n"):
        if old is not None:
            real.write_text(old)
        code, out, _ = run(capsys, "honeycomb", "--output", str(link))
        assert (code, out) == (0, "")
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == golden
        assert [p.name for p in real.parent.iterdir()] == ["honeycomb.dot"]


def test_output_through_a_looping_symlink_exits_4_and_keeps_the_link(capsys, tmp_path):
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    code, out, err = run(capsys, "honeycomb", "--output", str(loop))
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and os.strerror(errno.ELOOP) in err
    assert loop.is_symlink() and os.readlink(loop) == str(loop)
    assert [p.name for p in tmp_path.iterdir()] == ["loop"]


def test_output_to_a_fifo_writes_through_it(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    code, out, _ = run(capsys, "honeycomb", "--output", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive(), "the reader got no writer"
    assert (code, out) == (0, "")
    assert received == [(DATA / "honeycomb.dot").read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_qubit2_scan_rejects_a_grid_over_the_cap_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "qubit2-scan", "--function", "gamma-max", "--grid", str(MAX_SCAN_GRID + 1)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(MAX_SCAN_GRID) in err
    assert "Traceback" not in err
    assert peak < 1_000_000  # one float64 axis of the cube alone would be 66 MB


@pytest.mark.parametrize("grid", ["1", str(MAX_SCAN_GRID + 1)])
def test_qubit2_scan_rejects_a_grid_before_creating_its_output(capsys, tmp_path, grid):
    target = tmp_path / "scan.csv"
    code, out, err = run(
        capsys, "qubit2-scan", "--function", "gamma-max", "--grid", grid, "--output", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_qubit2_scan_rejects_unknown_function(capsys):
    code, _, err = run(capsys, "qubit2-scan", "--function", "nonsense", "--grid", "5")
    assert code == 2
    assert "invalid choice" in err


# --------------------------------------------------------- benchmark hooks

def test_the_cold_query_golden_is_the_benchmark_reference():
    reference = json.loads((Path(__file__).parents[1] / "bench" / "reference.json").read_text())
    digest = hashlib.sha256((DATA / "relation_42_48.txt").read_bytes()).hexdigest()
    assert digest == reference["certify"]["relation_42_48_sha256"]


def test_every_function_the_benchmark_tracer_wraps_still_resolves():
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("specmi_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, func, _, _ in tracer.LAYERS:
        module = importlib.import_module(f"specmi.{layer}")
        assert callable(getattr(module, func, None)), f"specmi.{layer}.{func}"
