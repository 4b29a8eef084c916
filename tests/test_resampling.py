"""Synthetic oversampling and random resampling behavior."""

from collections import Counter

import numpy as np
import pytest

from postop.dataset import class_counts, to_arff
from postop.resampling import (
    ResampleError,
    SmoteConfig,
    random_oversample,
    random_undersample,
    smote,
    smote_repeated,
)


def _numeric_positions(d):
    return [i for i in d.numeric_predictor_indices]


def test_config_validation():
    with pytest.raises(ResampleError, match="multiple of 100"):
        SmoteConfig(seed=1, percent=150)
    with pytest.raises(ResampleError, match="multiple of 100"):
        SmoteConfig(seed=1, percent=-100)
    with pytest.raises(ResampleError, match="k_neighbors"):
        SmoteConfig(seed=1, k_neighbors=0)


def test_percent_zero_returns_input_unchanged(cohort):
    out, record = smote(cohort, "T", SmoteConfig(seed=9, percent=0))
    assert out is cohort
    assert record.synthetic_created == 0
    assert record.final_counts == class_counts(cohort)


def test_smote_counts_and_originals(cohort):
    out, record = smote(cohort, "T", SmoteConfig(seed=42, percent=700, k_neighbors=5))
    assert class_counts(out) == {"T": 560, "F": 400}
    assert record.synthetic_created == 490
    assert record.original_counts == {"T": 70, "F": 400}
    # all originals survive verbatim: output rows are a multiset superset
    out_counter = Counter(out.rows())
    in_counter = Counter(cohort.rows())
    for values, n in in_counter.items():
        assert out_counter[values] >= n


def test_smote_provenance_and_parent_intervals(cohort):
    out, record = smote(cohort, "T", SmoteConfig(seed=7, percent=300, k_neighbors=5))
    numeric = _numeric_positions(cohort)
    nominal = [i for i in cohort.nominal_predictor_indices]
    n_synth = 0
    originals = cohort.rows()
    for row, source in zip(out.rows(), record.provenance):
        if source[0] == "original":
            assert row == originals[source[1]]
            continue
        n_synth += 1
        _, xi, xj = source
        parent_a = originals[xi]
        parent_b = originals[xj]
        for a in numeric:
            lo = min(parent_a[a], parent_b[a])
            hi = max(parent_a[a], parent_b[a])
            assert lo - 1e-9 <= row[a] <= hi + 1e-9
        for a in nominal:
            # two-parent majority vote with ties toward the original
            assert row[a] == parent_a[a]
        assert row[cohort.class_index] == cohort.class_labels.index("T")
    assert n_synth == record.synthetic_created == 210


def test_smote_shares_one_lambda_across_numeric_fields(cohort):
    out, record = smote(cohort, "T", SmoteConfig(seed=3, percent=100, k_neighbors=5))
    numeric = _numeric_positions(cohort)
    checked = 0
    originals = cohort.rows()
    for row, source in zip(out.rows(), record.provenance):
        if source[0] != "synthetic":
            continue
        _, xi, xj = source
        a_vals = originals[xi]
        b_vals = originals[xj]
        lams = []
        for a in numeric:
            span = b_vals[a] - a_vals[a]
            if abs(span) > 1e-9:
                lams.append((row[a] - a_vals[a]) / span)
        if len(lams) >= 2:
            checked += 1
            assert max(lams) - min(lams) < 1e-9
        for lam in lams:
            assert -1e-9 <= lam <= 1.0 + 1e-9
    assert checked > 10  # the property was actually exercised


def test_smote_determinism(cohort):
    a, _ = smote(cohort, "T", SmoteConfig(seed=11, percent=200))
    b, _ = smote(cohort, "T", SmoteConfig(seed=11, percent=200))
    c, _ = smote(cohort, "T", SmoteConfig(seed=12, percent=200))
    assert to_arff(a) == to_arff(b)
    assert to_arff(a) != to_arff(c)


def test_smote_errors(cohort):
    with pytest.raises(ResampleError, match="not a value"):
        smote(cohort, "X", SmoteConfig(seed=1))
    with pytest.raises(ResampleError, match="minority instances"):
        smote(cohort, "T", SmoteConfig(seed=1, k_neighbors=70))
    tiny = cohort.subset(np.flatnonzero(cohort.class_codes() == 1)[:10])
    # tiny is all-F: the minority class T has no instances
    with pytest.raises(ResampleError, match="no instances"):
        smote(tiny, "T", SmoteConfig(seed=1))


def test_smote_repeated_doubles_each_round(cohort):
    out, record = smote_repeated(cohort, "T", 3, SmoteConfig(seed=5, k_neighbors=5))
    assert class_counts(out) == {"T": 560, "F": 400}
    assert record.synthetic_created == 490  # 70 + 140 + 280
    assert record.method == "smote-repeat"
    assert record.config["times"] == 3


def test_smote_repeated_determinism(cohort):
    a, _ = smote_repeated(cohort, "T", 2, SmoteConfig(seed=5))
    b, _ = smote_repeated(cohort, "T", 2, SmoteConfig(seed=5))
    assert to_arff(a) == to_arff(b)


def test_random_oversample(cohort):
    out = random_oversample(cohort, "T", 200, seed=4)
    assert class_counts(out) == {"T": 200, "F": 400}
    # first 470 rows are the untouched originals, extras are appended copies
    rows = out.rows()
    assert rows[: len(cohort)] == cohort.rows()
    assert set(rows[len(cohort):]) <= set(cohort.rows())
    assert random_oversample(cohort, "T", 70, seed=4) is cohort
    with pytest.raises(ResampleError, match="below the current"):
        random_oversample(cohort, "T", 69, seed=4)


def test_random_oversample_determinism(cohort):
    a = random_oversample(cohort, "T", 150, seed=8)
    b = random_oversample(cohort, "T", 150, seed=8)
    assert a == b


def test_random_undersample(cohort):
    out = random_undersample(cohort, "F", 100, seed=4)
    assert class_counts(out) == {"T": 70, "F": 100}
    # retained rows keep their original relative order
    positions = {row: i for i, row in enumerate(cohort.rows())}
    kept = [positions[row] for row in out.rows()]
    assert kept == sorted(kept)
    same = random_undersample(cohort, "F", 400, seed=4)
    assert same == cohort
    with pytest.raises(ResampleError, match="exceeds the current"):
        random_undersample(cohort, "F", 401, seed=4)
