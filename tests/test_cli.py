"""End-to-end checks of the command line interface."""
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmi import cli
from specmi.cli import main
from specmi.extrema import census

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
FUZZ_CENSUS = ("census", "--m", "2", "--n", "3", "--samples", "5000", "--seed", "7",
               "--block-size", "1000")


@pytest.fixture(scope="module")
def partial_checkpoint(tmp_path_factory):
    ck = tmp_path_factory.mktemp("fuzz") / "ck.json"
    census(2, 3, 5000, 7, block_size=1000, checkpoint_path=str(ck), _max_blocks=2)
    payload = json.loads(ck.read_text())
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


def test_census_validates_samples(capsys):
    code, _, err = run(
        capsys, "census", "--m", "2", "--n", "3", "--samples", "0", "--seed", "7"
    )
    assert code == 2
    assert "samples" in err


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

def test_qubit2_scan_matches_golden_and_reruns_identically(capsys, tmp_path):
    golden = (DATA / "qubit2_scan_gamma_max_grid5.csv").read_bytes()
    for name in ("scan_a.csv", "scan_b.csv"):
        target = tmp_path / name
        code, _, _ = run(
            capsys, "qubit2-scan", "--function", "gamma-max", "--grid", "5",
            "--output", str(target),
        )
        assert code == 0
        assert target.read_bytes() == golden


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


def test_qubit2_scan_rejects_unknown_function(capsys):
    code, _, err = run(capsys, "qubit2-scan", "--function", "nonsense", "--grid", "5")
    assert code == 2
    assert "invalid choice" in err


# --------------------------------------------------------- benchmark hooks

def test_every_function_the_benchmark_tracer_wraps_still_resolves():
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("specmi_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, func, _, _ in tracer.LAYERS:
        module = importlib.import_module(f"specmi.{layer}")
        assert callable(getattr(module, func, None)), f"specmi.{layer}.{func}"
