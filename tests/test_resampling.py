"""Synthetic oversampling behavior."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postop.dataset import AttributeSchema, Dataset, class_counts, to_arff
from postop.resampling import (
    ResampleError,
    SmoteConfig,
    _neighbor_table,
    smote,
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


def test_a_missing_majority_cell_is_refused():
    schema = [AttributeSchema("x", "numeric"),
              AttributeSchema("cls", "nominal", ("T", "F"), role="class")]
    d = Dataset.from_rows(schema, [(1.0, 0), (2.0, 0), (3.0, 0), (None, 1), (5.0, 1)])
    with pytest.raises(ResampleError, match="impute it first"):
        smote(d, "T", SmoteConfig(seed=1, k_neighbors=1, percent=100))


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


def test_neighbor_table_on_extreme_magnitudes():
    # scaled, the column is 0, 1, 0.5, 0.75: neighbours follow those distances,
    # ties toward the earlier row, where an overflowed span gave NaN distances
    schema = [
        AttributeSchema("v", "numeric"),
        AttributeSchema("cls", "nominal", ("T", "F"), role="class"),
    ]
    d = Dataset.from_rows(schema, [(-1e308, 0), (1e308, 0), (0.0, 0), (5e307, 0), (1.0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = _neighbor_table(d, np.arange(4), 3)
    assert table.tolist() == [[2, 3, 1], [3, 2, 0], [3, 0, 1], [1, 2, 0]]


# -- properties ------------------------------------------------------------------


@st.composite
def smote_cases(draw):
    """A table whose oversampled class is complete, and a config it admits."""
    n_nominal = draw(st.integers(0, 2))
    n_numeric = draw(st.integers(1, 3))
    schema = [AttributeSchema(f"n{a}", "nominal",
                              tuple(f"v{i}" for i in range(draw(st.integers(1, 3)))))
              for a in range(n_nominal)]
    schema += [AttributeSchema(f"x{a}", "numeric") for a in range(n_numeric)]
    schema.append(AttributeSchema("cls", "nominal", ("T", "F"), role="class"))
    number = st.floats(allow_nan=False, allow_infinity=False)

    def rows(label, count, cell):
        row = st.tuples(*(st.integers(0, len(a.values) - 1) if a.kind == "nominal"
                          else cell for a in schema[:-1]))
        return [r + (label,) for r in draw(st.lists(row, min_size=count, max_size=count))]

    minority = draw(st.integers(0, 1))
    m = draw(st.integers(2, 10))
    table = rows(minority, m, number)
    table += rows(1 - minority, draw(st.integers(0, 10)), number)
    d = Dataset.from_rows(schema, draw(st.permutations(table)))
    cfg = SmoteConfig(seed=draw(st.integers(0, 2**32 - 1)),
                      k_neighbors=draw(st.integers(1, m - 1)),
                      percent=100 * draw(st.integers(0, 4)))
    return d, ("T", "F")[minority], cfg


# minority values at both ends of the float range, whose differences overflow
EDGE_CASE = (
    Dataset.from_rows(
        [AttributeSchema("x0", "numeric"),
         AttributeSchema("cls", "nominal", ("T", "F"), role="class")],
        [(1e308, 0), (-1e308, 0), (1.5e308, 0), (0.0, 1), (1.0, 1), (2.0, 1)]),
    "T",
    SmoteConfig(seed=1, k_neighbors=2, percent=200),
)


@settings(max_examples=150, deadline=None)
@given(smote_cases())
@example(EDGE_CASE)
def test_smote_synthetics_stay_in_their_parent_box(case):
    d, minority, cfg = case
    out, record = smote(d, minority, cfg)
    originals = d.rows()
    n_synth = 0
    for row, source in zip(out.rows(), record.provenance):
        if source[0] == "original":
            assert row == originals[source[1]]
            continue
        n_synth += 1
        parent, partner = originals[source[1]], originals[source[2]]
        for a in d.numeric_predictor_indices:
            lo, hi = sorted((parent[a], partner[a]))
            slack = 1e-9 * max(1.0, abs(lo), abs(hi))
            assert lo - slack <= row[a] <= hi + slack
        for a in d.nominal_predictor_indices:
            assert row[a] == parent[a]
        assert d.class_labels[row[d.class_index]] == minority
    assert n_synth == record.synthetic_created


@settings(max_examples=150, deadline=None)
@given(smote_cases())
def test_smote_final_counts_add_percent_of_the_minority(case):
    d, minority, cfg = case
    out, record = smote(d, minority, cfg)
    before = class_counts(d)
    grown = cfg.percent // 100 * before[minority]
    expected = {c: n + (grown if c == minority else 0) for c, n in before.items()}
    assert record.original_counts == before
    assert record.final_counts == expected == class_counts(out)
    assert len(out) == len(d) + grown
