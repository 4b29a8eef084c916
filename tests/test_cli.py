"""End-to-end command line behavior: outputs, files, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postop.cli import main
from postop.dataset import class_counts, parse_arff

from conftest import COHORT_PATH, TESTS_DIR, time_limit

TINY_ARFF = """@relation tiny
@attribute x {A,B}
@attribute c {T,F}
@data
A,T
A,T
B,F
B,F
"""

# one numeric column at the edge of the float range, whose class variances
# overflow unless naive Bayes fits them in scaled units
HUGE_ARFF = """@relation huge
@attribute v numeric
@attribute c {T,F}
@data
""" + "1e308,T\n-1e308,T\n" * 2 + "1e308,F\n-1e308,F\n" * 2

MISSING_ARFF = """@relation holes
@attribute a {x,y}
@attribute b numeric
@attribute c {T,F}
@data
?,1.0,T
x,?,F
x,2.0,T
y,3.0,F
"""


# one missing cell, in a T row
ONE_HOLE_ARFF = """@relation hole
@attribute a {x,y}
@attribute c {T,F}
@data
?,T
x,T
x,F
y,F
"""


@pytest.fixture()
def tiny_path(tmp_path):
    p = tmp_path / "tiny.arff"
    p.write_text(TINY_ARFF)
    return p


def _bench_args(data_path, out_dir, *extra):
    return [
        "bench", "--data", str(data_path), "--seed", "5", "--out", str(out_dir),
        "--no-smote", "--folds", "2", "--classifiers", "nb", *extra,
    ]


# -- inspect -----------------------------------------------------------------


def test_inspect_summarizes_the_cohort(capsys):
    assert main(["inspect", "--data", str(COHORT_PATH)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"relation: synthetic-thoracic-cohort ({COHORT_PATH})"
    assert out[1] == "470 instances, 17 attributes (14 nominal, 3 numeric), class {T:70, F:400}"
    assert out[2] == "missing values: none"


def test_module_entry_point_runs_the_cli():
    # python -m postop.cli must run the command, not just import the module
    env = dict(os.environ, PYTHONPATH=str(TESTS_DIR.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "postop.cli", "inspect", "--data",
                           str(COHORT_PATH)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == f"relation: synthetic-thoracic-cohort ({COHORT_PATH})"


def test_inspect_counts_missing_cells(tmp_path, capsys):
    p = tmp_path / "holes.arff"
    p.write_text(MISSING_ARFF)
    assert main(["inspect", "--data", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "4 instances, 3 attributes (2 nominal, 1 numeric), class {T:2, F:2}"
    assert out[2] == "missing values: 2 cells (a: 1, b: 1)"


def test_data_dir_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("POSTOP_DATA_DIR", str(COHORT_PATH.parent))
    assert main(["inspect", "--data", COHORT_PATH.name]) == 0
    assert "470 instances" in capsys.readouterr().out


def test_missing_file_is_a_data_error(tmp_path, capsys):
    assert main(["inspect", "--data", str(tmp_path / "nope.arff")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "POSTOP_DATA_DIR" in err
    # a file that does not decode as text is a data error too, not a traceback
    binary = tmp_path / "binary.arff"
    binary.write_bytes(b"@relation r\n\xff\xfe\x00\x81\n")
    assert main(["inspect", "--data", str(binary)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


# -- resample -----------------------------------------------------------------


def test_resample_writes_dataset_and_record(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "resample", "--data", str(COHORT_PATH), "--seed", "3",
        "--smote-percent", "100", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "resampled {T:70, F:400} -> {T:140, F:400} (70 synthetic)" in stdout
    resampled = parse_arff((out / "resampled.arff").read_text())
    assert len(resampled) == 540
    record = json.loads((out / "resample_record.json").read_text())
    assert record["method"] == "smote"
    assert record["final_counts"] == {"T": 140, "F": 400}
    assert record["config"]["percent"] == 100


def test_resample_no_smote_copies_input(tiny_path, tmp_path):
    out = tmp_path / "copy"
    code = main(["resample", "--data", str(tiny_path), "--seed", "1",
                 "--no-smote", "--out", str(out)])
    assert code == 0
    written = parse_arff((out / "resampled.arff").read_text())
    assert written == parse_arff(tiny_path.read_text())
    record = json.loads((out / "resample_record.json").read_text())
    assert record["method"] == "none"
    assert record["synthetic_created"] == 0
    assert record["final_counts"] == class_counts(written) == {"T": 2, "F": 2}


def test_resample_no_smote_writes_the_imputed_table(tmp_path):
    p = tmp_path / "hole.arff"
    p.write_text(ONE_HOLE_ARFF)
    out = tmp_path / "out"
    assert main(["resample", "--data", str(p), "--seed", "1", "--no-smote",
                 "--impute", "drop-instance", "--out", str(out)]) == 0
    record = json.loads((out / "resample_record.json").read_text())
    assert record["original_counts"] == record["final_counts"] == {"T": 1, "F": 2}
    written = parse_arff((out / "resampled.arff").read_text())
    assert class_counts(written) == record["final_counts"]


def test_resample_requires_seed(tiny_path, capsys):
    assert main(["resample", "--data", str(tiny_path)]) == 2
    assert "--seed" in capsys.readouterr().err


# -- bench ----------------------------------------------------------------------


def test_bench_tiny_run_writes_all_formats(tiny_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_bench_args(tiny_path, out)) == 0
    captured = capsys.readouterr()
    for name in ("report.json", "manifest.json", "report.md", "report.csv"):
        assert (out / name).is_file()
    doc = json.loads((out / "report.json").read_text())
    assert doc["class_counts"] == {"T": 2, "F": 2}
    assert doc["resampling"] == {"method": "none"}
    (nb_report,) = doc["reports"]
    assert nb_report["classifier"] == "nb"
    assert nb_report["cva"] == 100.0
    assert nb_report["metrics"]["correctly_classified"] == 100.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timings_seconds" in manifest
    assert set(manifest["timings_seconds"]) >= {"load", "folds", "cv-nb", "total"}
    # markdown is echoed by default; the status line goes to stderr
    assert captured.out.startswith("# Benchmark report")
    assert "| Performance metric | Naive Bayes |" in captured.out
    assert "wrote report.md" in captured.err


def test_bench_report_json_is_reproducible(tiny_path, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    extra = ["--classifiers", "nb,j48,mlp", "--mlp-epochs", "4", "--mlp-hidden", "2"]
    assert main(_bench_args(tiny_path, a, *extra)) == 0
    assert main(_bench_args(tiny_path, b, *extra)) == 0
    capsys.readouterr()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    doc = json.loads((a / "report.json").read_text())
    assert [r["classifier"] for r in doc["reports"]] == ["nb", "j48", "mlp"]


def test_bench_format_selects_stdout_echo(tiny_path, tmp_path, capsys):
    assert main(_bench_args(tiny_path, tmp_path / "c", "--format", "csv")) == 0
    out = capsys.readouterr().out
    assert out.startswith("metric,Naive Bayes")
    assert main(_bench_args(tiny_path, tmp_path / "j", "--format", "json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["classifier"] == "nb"


def test_bench_usage_and_data_errors(tiny_path, tmp_path, capsys):
    # argparse problems exit 2
    assert main(["bench", "--data", str(tiny_path)]) == 2
    assert main(["bench", "--data", str(tiny_path), "--seed", "1", "--bogus"]) == 2
    # so are the removed CSV and repeated-SMOTE flags and the plotdata command
    for removed in (["--smote-repeat", "2"], ["--schema", "x.arff"], ["--data-format", "csv"]):
        assert main(["bench", "--data", str(tiny_path), "--seed", "1", *removed]) == 2
    assert main(["plotdata", "m.json"]) == 2
    # domain problems exit 1
    base = ["bench", "--data", str(tiny_path), "--seed", "1",
            "--no-smote", "--folds", "2", "--out", str(tmp_path / "e")]
    assert main(base + ["--classifiers", ""]) == 1
    assert main(base + ["--classifiers", "svm"]) == 1
    assert main(base + ["--positive-class", "Q"]) == 1
    assert main(base + ["--mlp-hidden", "x"]) == 1
    capsys.readouterr()


def test_bench_records_every_flag_in_config(tiny_path, tmp_path, capsys):
    out = tmp_path / "all"
    code = main([
        "bench", "--data", str(tiny_path), "--class-attribute", "c", "--positive-class", "F", "--impute", "drop-instance",
        "--folds", "2", "--seed", "5", "--no-smote", "--smote-percent", "200",
        "--smote-k", "3", "--smote-within-folds",
        "--classifiers", "nb,j48,mlp", "--mlp-epochs", "2", "--mlp-learning-rate", "0.5",
        "--mlp-momentum", "0.1", "--mlp-hidden", "3,2", "--tree-min-leaf", "1",
        "--tree-confidence", "0.1", "--tree-no-pruning", "--out", str(out),
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert json.loads(capsys.readouterr().out) == doc
    assert doc["config"] == {
        "data": str(tiny_path),
        "class_attribute": "c",
        "positive_class": "F",
        "impute": "drop-instance",
        "folds": 2,
        "seed": 5,
        "smote": False,
        "smote_percent": 200,
        "smote_k": 3,
        "smote_within_folds": True,
        "classifiers": ["nb", "j48", "mlp"],
        "mlp_epochs": 2,
        "mlp_learning_rate": 0.5,
        "mlp_momentum": 0.1,
        "mlp_hidden": [3, 2],
        "tree_min_leaf": 1,
        "tree_confidence": 0.1,
        "tree_pruning": False,
    }
    # each classifier setting reaches its classifier
    assert [r["config"] for r in doc["reports"]] == [
        {},
        {"min_leaf_instances": 1, "pruning_confidence": 0.1, "pruning": False},
        {"hidden_sizes": [3, 2], "learning_rate": 0.5, "momentum": 0.1, "epochs": 2,
         "weight_init_range": 0.05, "seed_policy": "derived per fold from the fold seed"},
    ]
    assert doc["resampling"] == {"method": "none"}


def test_bench_exits_on_non_finite_probabilities(tiny_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("postop.evaluation.nb_predict",
                        lambda model, d: np.full((len(d), 2), np.nan))
    assert main(_bench_args(tiny_path, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: nb gave non-finite class probabilities in fold 1 of 2"]
    assert "Traceback" not in err


def test_bench_nb_at_the_edge_of_the_float_range(tmp_path, capsys):
    data, out = tmp_path / "huge.arff", tmp_path / "out"
    data.write_text(HUGE_ARFF)
    # a time limit, so that a sweep that never ends fails the test
    with time_limit(60):
        assert main(_bench_args(data, out)) == 0
    (report,) = json.loads((out / "report.json").read_text())["reports"]
    assert report["metrics"]["correctly_classified"] == 50.0
    assert _finite_or_none(report)


# magnitudes across the float range, and adjacent doubles near 1
EXTREMES = [s * m for s in (1.0, -1.0) for m in (1e-300, 1.0, 1e154, 1e308, 1.7e308)]
EXTREMES += [1.0 + 2.0**-52, 1.0 + 2.0**-51]


@st.composite
def adversarial_benches(draw):
    """(ARFF text, bench flags): 4-40 rows of extreme numerics under one bench setup.

    Each column takes its cells from 1-3 values, so constant columns and
    splits between two extreme values are common.
    """
    n = draw(st.integers(4, 40))
    value = st.sampled_from(EXTREMES) | st.floats(-1.7e308, 1.7e308, allow_subnormal=False)
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.lists(value, min_size=1, max_size=3))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    labels = draw(st.lists(st.sampled_from("TF"), min_size=n, max_size=n))
    header = [f"@attribute v{j} numeric" for j in range(len(columns))]
    rows = [",".join([*(repr(c[i]) for c in columns), labels[i]]) for i in range(n)]
    text = "\n".join(["@relation edge", *header, "@attribute c {T,F}", "@data", *rows]) + "\n"
    smote = draw(st.sampled_from([
        ["--no-smote"],
        ["--smote-percent", "100", "--smote-k", "1"],
        ["--smote-within-folds", "--smote-percent", "100", "--smote-k", "1"],
    ]))
    classifiers = draw(st.sampled_from(["mlp", "j48", "nb", "mlp,j48", "mlp,j48,nb"]))
    epochs = str(draw(st.integers(1, 2)))
    return text, [*smote, "--classifiers", classifiers, "--mlp-epochs", epochs]


def _finite_or_none(doc) -> bool:
    if isinstance(doc, dict):
        return all(map(_finite_or_none, doc.values()))
    if isinstance(doc, list):
        return all(map(_finite_or_none, doc))
    return not isinstance(doc, float) or math.isfinite(doc)


@settings(max_examples=150, deadline=None)
@given(adversarial_benches())
def test_bench_on_adversarial_tables_ends_with_a_report_or_one_error(case):
    text, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp, "edge.arff"), Path(tmp, "out")
        data.write_text(text)
        err = io.StringIO()
        with time_limit(10), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["bench", "--data", str(data), "--seed", "1", "--out", str(out),
                         "--folds", "2", *flags])
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert _finite_or_none(json.loads((out / "report.json").read_text()))
        else:
            assert code == 1
            assert [line for line in err.getvalue().splitlines()
                    if line.startswith("error:")] != []


def test_bench_smote_within_folds(tmp_path, capsys):
    out = tmp_path / "wf"
    code = main([
        "bench", "--data", str(COHORT_PATH), "--seed", "1", "--out", str(out),
        "--folds", "5", "--classifiers", "nb", "--smote-within-folds",
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text())
    assert doc["resampling"] == {"method": "within-folds"}
    # scoring still runs on the original, unresampled table
    assert doc["class_counts"] == {"T": 70, "F": 400}
    assert doc["reports"][0]["n_instances"] == 470


def test_bench_upfront_smote_balances_the_table(tmp_path, capsys):
    out = tmp_path / "sm"
    code = main([
        "bench", "--data", str(COHORT_PATH), "--seed", "1", "--out", str(out),
        "--folds", "10", "--classifiers", "nb",
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads((out / "report.json").read_text())
    assert doc["class_counts"] == {"T": 560, "F": 400}
    assert doc["resampling"]["method"] == "smote"
    assert doc["reports"][0]["n_instances"] == 960


# -- misc ------------------------------------------------------------------------


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "postop 0.1.0"
