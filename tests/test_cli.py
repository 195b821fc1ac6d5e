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

from cli_goldens import CASES, DATA, check, is_digest

SPECTRUM = "0.3,0.25,0.2,0.15,0.07,0.03"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -------------------------------------------------------------- golden cases

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_golden_case(capsys, case):
    assert check(case, lambda argv: run(capsys, *argv)) == []


def test_check_reports_a_changed_golden_a_wrong_exit_code_and_a_negative_zero(capsys, tmp_path):
    relation, rank_one = CASES["relation-37-52"], CASES["extrema-rank-one-json"]
    flipped = bytearray((DATA / relation.stdout).read_bytes())
    flipped[len(flipped) // 2] ^= 1
    (tmp_path / "relation.txt").write_bytes(flipped)
    text = (DATA / rank_one.stdout).read_text()
    assert text.count('"max_value": 0.0,') == 1
    (tmp_path / "rank_one.json").write_text(text.replace('"max_value": 0.0,', '"max_value": -0.0,'))
    for case in (  # an absolute path names a golden outside tests/data/
        relation._replace(stdout=str(tmp_path / "relation.txt")),
        relation._replace(code=1),
        rank_one._replace(stdout=str(tmp_path / "rank_one.json")),
        CASES["extrema-2x4-json"]._replace(stdout="0" * 64),
    ):
        # one failure on stdout, one on the --output file
        assert len(check(case, lambda argv: run(capsys, *argv))) == 2, case


def test_every_golden_is_named_and_every_named_golden_exists():
    named = {
        golden for case in CASES.values()
        for golden in (case.stdout, *(g for _, g in case.files), *(g for g, _ in case.given))
        if golden and not is_digest(golden)
    }
    assert sorted(name for name in named if not (DATA / name).is_file()) == []
    sources = "".join(path.read_text() for path in DATA.parent.glob("test_*.py"))
    assert sorted(p.name for p in DATA.iterdir() if p.name not in named and p.name not in sources) == []


# ------------------------------------------------------------------ help text

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


#: Prints the output of the first ``specmi extrema`` argv, then the SHA-256
#: of the second's, from one process.
_EXTREMA_GOLDENS_SCRIPT = """
import contextlib, hashlib, io
from specmi.cli import main
assert main(%r) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(%r) == 0
print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86 kernels")
@pytest.mark.parametrize("kernel", ["Haswell", "Nehalem"])
def test_extrema_goldens_hold_under_other_openblas_kernels(kernel):
    # OpenBLAS picks its kernel when it loads, so each kernel runs in a fresh
    # process; the outputs must not depend on it
    small, large = CASES["extrema-2x3-json"], CASES["extrema-2x5-json"]
    proc = subprocess.run(
        [sys.executable, "-c", _EXTREMA_GOLDENS_SCRIPT % (small.command.split(), large.command.split())],
        env=_fresh_process_env(OPENBLAS_CORETYPE=kernel), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = (DATA / small.stdout).read_text() + large.stdout + "\n"
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
        ("relation", "--m", "3", "--n", "4", "--a", "1", "--b", "2"),
    ],
    ids=["census-3x4", "extrema-2x6", "relation-3x4"],
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
_PEAK_SCRIPT = """
import sys
from specmi.cli import main
code = main(%r)
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


def _run_fresh(*argv):
    """``specmi argv`` in a fresh interpreter: its process, and its peak RSS in MiB."""
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc to read a process's peak RSS from")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT % (list(argv),)], env=_fresh_process_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    _, kib, unit = proc.stderr.split()[-3:]
    assert unit == "kB"
    return proc, int(kib) / 2**10


def test_a_fresh_threaded_2x5_census_matches_its_golden_within_its_memory_bound():
    proc, peak = _run_fresh(
        "census", "--m", "2", "--n", "5", "--samples", "20000", "--seed", "7", "--workers", "2"
    )
    assert proc.stdout == (DATA / "census_25_s7_20k.json").read_text()
    assert peak < CENSUS_25_RSS_BOUND_MIB


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

#: Peak RSS, in MiB, of a fresh interpreter that answers one cold 2x5
#: query below: 54 on a 2-vCPU VM, where the class table, the shape's
#: certified-swap store and the rows of the classes the search expands are
#: built.  The bound leaves 16 MiB for other NumPy and BLAS builds.
RELATION_25_RSS_BOUND_MIB = 70


def test_a_fresh_cold_2x5_relation_stays_within_its_memory_bound():
    proc, peak = _run_fresh("relation", "--m", "2", "--n", "5", "--a", "1", "--b", "15120")
    lines = proc.stdout.splitlines()
    assert lines[0] == "derive: class 1 vs class 15120"
    assert lines[-1].startswith("verdict: ProvenForward (I(class 1) <= I(class 15120)")
    assert peak < RELATION_25_RSS_BOUND_MIB


# After the benchmark's set-up of its two shapes, then after each command:
# the exit code, and whether numpy.ma has been imported.
_MASKED_IMPORT_SCRIPT = """
import contextlib, io, sys
import numpy as np
import specmi, specmi.cli, specmi.orders
seen = []
for m, n in ((2, 3), (2, 5)):
    values = np.arange(m * n, 0, -1, dtype=float)
    specmi.class_table(m, n)
    specmi.brute_force_extrema(specmi.Spectrum(tuple(values / values.sum())), m, n)
seen.append(("set-up", 0, "numpy.ma" in sys.modules))
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        code = specmi.cli.main(argv)
    seen.append((argv[0], code, "numpy.ma" in sys.modules))
print(seen)
"""


def test_no_command_imports_numpy_ma():
    # np.unique imports numpy.ma (12-23 ms) whenever it is asked for no
    # indices and no counts; no step of a command may reach such a call
    commands = [
        ["extrema", "--m", "2", "--n", "3", "--spectrum", "0.3,0.2,0.2,0.1,0.1,0.1"],
        ["census", "--m", "2", "--n", "3", "--samples", "2500", "--seed", "1"],
        ["census", "--m", "2", "--n", "5", "--samples", "250", "--seed", "1"],
        ["relation", "--a", "42", "--b", "48"],
        ["honeycomb"],
        ["qubit2-scan", "--function", "gamma-max", "--grid", "5"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _MASKED_IMPORT_SCRIPT % (commands,)], env=_fresh_process_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = eval(proc.stdout)
    assert [step for step, _, _ in seen] == ["set-up"] + [argv[0] for argv in commands]
    assert all(code == 0 and not imported for _, code, imported in seen), seen


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
        code = main([*CASES["scan-grid101"].command.split(), "--output", str(target)])
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
