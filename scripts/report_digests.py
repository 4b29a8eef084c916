"""Print the sha256 of every report that a fixed set of bench runs writes.

    PYTHONPATH=src python scripts/report_digests.py

Each run calls postop.cli.main in-process: one `bench` or `resample` on
the synthetic cohort (tests/data/synthetic_cohort.arff) or on a copy made
from its text. The runs work in a temporary directory and name their data
files relatively, so report.json does not depend on where the checkout
lives. Each output line gives the run, the file (report.json, report.md,
report.csv of a bench; resampled.arff, resample_record.json of a resample)
and its digest.

To show that a change keeps every report byte-identical, run this script
once with each commit's src/ on PYTHONPATH and diff the two outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

from postop.cli import main

COHORT = Path(__file__).resolve().parent.parent / "tests" / "data" / "synthetic_cohort.arff"
FILES = ("report.json", "report.md", "report.csv")
RESAMPLE_FILES = ("resampled.arff", "resample_record.json")

# (run name, data file, bench flags beyond --data, --seed, --out and --mlp-epochs)
RUNS = (
    ("default", "cohort.arff", []),
    ("smote-within-folds", "cohort.arff", ["--smote-within-folds", "--smote-k", "3"]),
    # k = 1 takes no neighbour draws, so SMOTE's lambdas are one plain block
    ("smote-within-folds-k1", "cohort.arff", ["--smote-within-folds", "--smote-k", "1"]),
    ("impute-drop-instance", "holes.arff", ["--impute", "drop-instance"]),
    ("impute-mean-or-mode", "holes.arff", ["--impute", "mean-or-mode"]),
    ("mlp-hidden", "cohort.arff", ["--mlp-hidden", "5,3"]),
    ("mlp-uneven-folds", "cohort.arff", ["--folds", "7"]),
    ("tree-no-pruning", "cohort.arff", ["--tree-no-pruning"]),
    ("tree-min-leaf", "cohort.arff", ["--tree-min-leaf", "1"]),
    ("tree-confidence", "cohort.arff", ["--tree-confidence", "0.1"]),
    ("constant-in-training", "flat.arff", ["--smote-within-folds"]),
    ("edge-of-float-range", "edge.arff", []),
    ("wide-domain", "wide.arff", ["--classifiers", "j48,nb"]),
    ("duplicated-16x", "dup.arff", ["--classifiers", "nb"]),
    # every numeric value occurs 16 times, so most adjacent values in a sorted
    # column are equal and the tree scan masks their positions
    ("tree-duplicated-16x", "dup.arff", ["--classifiers", "j48", "--no-smote"]),
    # SMOTE at 0% synthesizes nothing: the table stays unshuffled beside its record
    ("smote-percent-0", "cohort.arff", ["--smote-percent", "0", "--classifiers", "nb"]),
    # at 3 epochs the MLP answers F for every row: T's precision and F-measure are
    # flagged, report.md has its Notes, and the confusion is that of the second class
    ("positive-second-class", "cohort.arff", ["--positive-class", "F", "--no-smote"]),
)

# (run name, resample flags beyond --data holes.arff, --seed and --out)
RESAMPLE_RUNS = (
    ("resample", ["--impute", "drop-instance"]),
    ("resample-no-smote", ["--impute", "drop-instance", "--no-smote"]),
    ("resample-percent-0", ["--impute", "drop-instance", "--smote-percent", "0"]),
)

# values added to DGN's domain in wide.arff, so it has 10; numpy sums 8 or more
# terms pairwise, so this puts the tree's wide-domain scoring under the check
WIDE_DGN = ("DGN7", "DGN9", "DGN10")

# copies of each row in dup.arff: its 1,120 minority rows fill two of SMOTE's
# neighbour-table blocks, and each has DUP_COPIES - 1 neighbours at distance 0
DUP_COPIES = 16

# rows whose PRE5 keeps its value in flat.arff; at --seed 1 all three fall in
# test fold 1 of 10, so that fold trains on a constant PRE5 column
FLAT_KEPT = (6, 27, 99)


def write_inputs(text: str) -> None:
    """cohort.arff, holes.arff (3% of predictor cells missing), flat/edge/wide/dup.arff.

    flat.arff sets PRE5 to 2.5 in every row but those of FLAT_KEPT. edge.arff
    sets AGE to one of 1e308, -1e308 and 1.5e308 in each row, and leaves it
    missing in every 50th row. wide.arff declares WIDE_DGN in DGN's domain
    and sets DGN to one of them in every 6th row. dup.arff repeats the
    cohort's rows DUP_COPIES times.
    """
    header, data = text.split("@data\n")
    rows = [line for line in data.splitlines() if line.strip()]
    names = [line.split()[1] for line in header.splitlines() if line.startswith("@attribute")]
    rng = random.Random(3)
    holes = []
    for row in rows:
        cells = row.split(",")
        for i in range(len(cells) - 1):  # the class cell stays
            if rng.random() < 0.03:
                cells[i] = "?"
        holes.append(",".join(cells))
    Path("cohort.arff").write_text(text)
    Path("holes.arff").write_text(header + "@data\n" + "\n".join(holes) + "\n")
    flat = [row.split(",") for row in rows]
    for i, cells in enumerate(flat):
        if i not in FLAT_KEPT:
            cells[names.index("PRE5")] = "2.5"
    Path("flat.arff").write_text(header + "@data\n" + "\n".join(map(",".join, flat)) + "\n")
    edge = [row.split(",") for row in rows]
    for i, cells in enumerate(edge):
        cells[names.index("AGE")] = "?" if i % 50 == 0 else rng.choice(("1e308", "-1e308", "1.5e308"))
    Path("edge.arff").write_text(header + "@data\n" + "\n".join(map(",".join, edge)) + "\n")
    wide = [row.split(",") for row in rows]
    for i, cells in enumerate(wide):
        if i % 6 == 0:
            cells[names.index("DGN")] = rng.choice(WIDE_DGN)
    wide_header = header.replace("DGN1}", "DGN1," + ",".join(WIDE_DGN) + "}", 1)
    Path("wide.arff").write_text(wide_header + "@data\n" + "\n".join(map(",".join, wide)) + "\n")
    Path("dup.arff").write_text(header + "@data\n" + "\n".join(rows * DUP_COPIES) + "\n")


def run(name: str, argv: list[str], files: tuple[str, ...]) -> list[str]:
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        code = main([*argv, "--seed", "1", "--out", name])
    if code != 0:
        sys.exit(f"run {name} exited {code}:\n{quiet.getvalue()}")
    return [f"{name} {f} {hashlib.sha256(Path(name, f).read_bytes()).hexdigest()}"
            for f in files]


def digest_lines() -> list[str]:
    text = COHORT.read_text()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs(text)
            lines = [line for name, data, flags in RUNS for line in run(
                name, ["bench", "--data", data, "--mlp-epochs", "3", *flags], FILES)]
            return lines + [line for name, flags in RESAMPLE_RUNS for line in run(
                name, ["resample", "--data", "holes.arff", *flags], RESAMPLE_FILES)]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    print("\n".join(digest_lines()))
