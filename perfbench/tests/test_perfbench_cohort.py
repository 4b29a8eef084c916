"""The benchmark's cohort generator against the checked-in cohort script."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from cohort import cohort_arff, load_sampler  # noqa: E402


def _class_column(text):
    data = text.split("@data\n", 1)[1].splitlines()
    return [row.rsplit(",", 1)[1] for row in data]


def test_scale_1_reproduces_the_checked_in_cohort():
    text = cohort_arff(load_sampler(ROOT), 1, 20240816)
    assert text.encode() == (ROOT / "tests" / "data" / "synthetic_cohort.arff").read_bytes()


def test_scale_s_gives_70s_minority_and_400s_majority_rows():
    labels = _class_column(cohort_arff(load_sampler(ROOT), 3, 5))
    assert (labels.count("T"), labels.count("F")) == (210, 1200)
