"""Synthetic oversampling behavior."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_DIR, from_rows, synthetic_cohort_text, table_rows
from oracles import nearest_neighbors, smote_draws_by_loop
from postop import resampling
from postop.dataset import (AttributeSchema, class_counts, minmax_scale,
                            observed_range, parse_arff, to_arff)
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
    d = from_rows(schema, [(1.0, 0), (2.0, 0), (3.0, 0), (None, 1), (5.0, 1)])
    with pytest.raises(ResampleError, match="impute it first"):
        smote(d, "T", SmoteConfig(seed=1, k_neighbors=1, percent=100))


def test_percent_zero_returns_input_unchanged(cohort):
    out, record = smote(cohort, "T", SmoteConfig(seed=9, percent=0))
    assert out is cohort
    assert record.to_json_dict() == {
        "method": "smote", "minority_class": "T", "original_counts": {"T": 70, "F": 400},
        "final_counts": {"T": 70, "F": 400}, "synthetic_created": 0,
        "config": {"seed": 9, "k_neighbors": 5, "percent": 0},
    }
    # every row is its own original, in input order
    assert record.provenance.tolist() == [[i, -1] for i in range(len(cohort))]


def test_smote_counts_and_originals(cohort):
    out, record = smote(cohort, "T", SmoteConfig(seed=42, percent=700, k_neighbors=5))
    assert class_counts(out) == {"T": 560, "F": 400}
    assert record.synthetic_created == 490
    assert record.original_counts == {"T": 70, "F": 400}
    assert record.to_json_dict() == {
        "method": "smote", "minority_class": "T", "original_counts": {"T": 70, "F": 400},
        "final_counts": {"T": 560, "F": 400}, "synthetic_created": 490,
        "config": {"seed": 42, "k_neighbors": 5, "percent": 700},
    }
    # all originals survive verbatim: output rows are a multiset superset
    out_counter = Counter(table_rows(out))
    in_counter = Counter(table_rows(cohort))
    for values, n in in_counter.items():
        assert out_counter[values] >= n


def test_smote_provenance_and_parent_intervals(cohort):
    out, record = smote(cohort, "T", SmoteConfig(seed=7, percent=300, k_neighbors=5))
    numeric = _numeric_positions(cohort)
    nominal = [i for i in cohort.nominal_predictor_indices]
    n_synth = 0
    originals = table_rows(cohort)
    for row, (xi, xj) in zip(table_rows(out), record.provenance.tolist()):
        if xj == -1:
            assert row == originals[xi]
            continue
        n_synth += 1
        parent_a = originals[xi]
        parent_b = originals[xj]
        for a in numeric:
            lo = min(parent_a[a], parent_b[a])
            hi = max(parent_a[a], parent_b[a])
            assert lo - 1e-9 <= row[a] <= hi + 1e-9
        for a in nominal:
            # two-parent majority vote with ties toward the original
            assert row[a] == parent_a[a]
        assert row[cohort.schema.index(cohort.class_attribute)] == cohort.class_labels.index("T")
    assert n_synth == record.synthetic_created == 210


def test_smote_shares_one_lambda_across_numeric_fields(cohort):
    out, record = smote(cohort, "T", SmoteConfig(seed=3, percent=100, k_neighbors=5))
    numeric = _numeric_positions(cohort)
    checked = 0
    originals = table_rows(cohort)
    for row, (xi, xj) in zip(table_rows(out), record.provenance.tolist()):
        if xj == -1:
            continue
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


@pytest.mark.parametrize("total", [1, 2, 7, 490, 4411])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_block_draws_match_the_scalar_loop(k, total):
    for seed in range(5):
        block, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        choice, lam = resampling._draws(block, k, total)
        expected_choice, expected_lam = smote_draws_by_loop(loop, k, total)
        assert choice.dtype == np.int64 and choice.tolist() == expected_choice.tolist()
        assert lam.dtype == np.float64 and lam.tobytes() == expected_lam.tobytes()
        # the shuffle after the draws starts from the 32-bit half an odd total leaves cached
        assert block.permutation(total + 470).tolist() == loop.permutation(total + 470).tolist()


class _LowHalfZeroFirst(np.random.PCG64):
    """PCG64 whose raw blocks start with a word whose low half is 0.

    For k = 3, Lemire's multiply gives 0 * 3 there, below its threshold
    (2**32 - 3) % 3 = 1, so numpy would reject that half and draw again.
    The generator's own calls (integers, random) still see the true stream.
    """

    def random_raw(self, size=None, output=True):
        words = super().random_raw(size, output)
        words[0] &= np.uint64(0xFFFFFFFF00000000)
        return words


@pytest.mark.parametrize("seed", [1, 6])
def test_a_rejected_lemire_draw_falls_back_to_the_scalar_loop(seed):
    block, loop = np.random.Generator(_LowHalfZeroFirst(seed)), np.random.default_rng(seed)
    choice, lam = resampling._draws(block, 3, 7)
    expected_choice, expected_lam = smote_draws_by_loop(loop, 3, 7)
    assert expected_choice[0] != 0  # so the stubbed block, taken as it is, would differ
    assert choice.tolist() == expected_choice.tolist()
    assert lam.tobytes() == expected_lam.tobytes()
    assert block.permutation(40).tolist() == loop.permutation(40).tolist()


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("drop_one", [False, True], ids=["490-synthetics", "483-synthetics"])
def test_smote_equals_a_run_on_the_scalar_draw_loop(cohort, k, drop_one):
    # dropping one of the 70 minority rows makes the synthetic count odd
    first_minority = np.flatnonzero(cohort.class_codes() == 0)[0]
    d = cohort.subset(np.delete(np.arange(len(cohort)), first_minority)) if drop_one else cohort
    cfg = SmoteConfig(seed=13, k_neighbors=k, percent=700)
    with mock.patch.object(resampling, "_draws", smote_draws_by_loop):
        expected, expected_record = smote(d, "T", cfg)
    out, record = smote(d, "T", cfg)
    assert out.numeric_matrix().tobytes() == expected.numeric_matrix().tobytes()
    assert np.array_equal(out.codes_matrix(), expected.codes_matrix())
    assert np.array_equal(out.class_codes(), expected.class_codes())
    assert np.array_equal(record.provenance, expected_record.provenance)


def test_smote_errors(cohort):
    with pytest.raises(ResampleError, match="not a value"):
        smote(cohort, "X", SmoteConfig(seed=1))
    with pytest.raises(ResampleError, match="minority instances"):
        smote(cohort, "T", SmoteConfig(seed=1, k_neighbors=70))
    tiny = cohort.subset(np.flatnonzero(cohort.class_codes() == 1)[:10])
    # tiny is all-F: the minority class T has no instances
    with pytest.raises(ResampleError, match="no instances"):
        smote(tiny, "T", SmoteConfig(seed=1))


# Sizes numpy refuses before a page is touched: 7.46 PiB of raw words, and a
# length past the largest array dimension. A smaller size could be granted.
@pytest.mark.parametrize("percent", [10**15, 10**20])
@pytest.mark.parametrize("k", [1, 5])  # k = 1 draws its lambdas without raw words
def test_smote_refuses_a_size_it_cannot_allocate(cohort, percent, k):
    total = 70 * (percent // 100)
    with pytest.raises(ResampleError, match=f"^cannot allocate {total} synthetic rows "
                                            f"\\({percent // 100} per minority row\\): "):
        smote(cohort, "T", SmoteConfig(seed=1, k_neighbors=k, percent=percent))


def test_neighbor_table_on_extreme_magnitudes():
    # scaled, the column is 0, 1, 0.5, 0.75: neighbours follow those distances,
    # ties toward the earlier row, where an overflowed span gave NaN distances
    schema = [
        AttributeSchema("v", "numeric"),
        AttributeSchema("cls", "nominal", ("T", "F"), role="class"),
    ]
    d = from_rows(schema, [(-1e308, 0), (1e308, 0), (0.0, 0), (5e307, 0), (1.0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = _neighbor_table(d, np.arange(4), 3)
    assert table.tolist() == [[2, 3, 1], [3, 2, 0], [3, 0, 1], [1, 2, 0]]


# Runs in a fresh interpreter, and reads its peak from VmHWM, the high-water
# mark of this process's own memory: ru_maxrss would also count the peak of
# the pytest process that forked it. Parsing the cohort already raised that
# mark, so growth is taken from the current RSS at the start of smote: an
# upper bound.
HUNDREDFOLD_SMOTE = """
import importlib.util, resource, sys, time
import numpy as np
from postop.dataset import parse_arff
from postop.resampling import SmoteConfig, smote

spec = importlib.util.spec_from_file_location("make_synthetic_cohort", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
rng = np.random.default_rng(7)
lines = ["@relation cohort-100x"]
lines += [f"@attribute {name} " + ("numeric" if values is None else "{" + ",".join(values) + "}")
          for name, values in script.SCHEMA]
lines.append("@data")
lines += [script.make_row(rng, "T") for _ in range(70 * 100)]
lines += [script.make_row(rng, "F") for _ in range(400 * 100)]
d = parse_arff("\\n".join(lines) + "\\n")
del lines
with open("/proc/self/statm") as statm:
    start_kb = int(statm.read().split()[1]) * resource.getpagesize() // 1024
start = time.perf_counter()
out, _ = smote(d, "T", SmoteConfig(seed=1))
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(len(out), (peak_kb - start_kb) / 1024, seconds)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm and status")
def test_smote_on_a_100x_cohort_stays_in_bounded_memory():
    # 7,000 minority rows: one dense m x m x attrs broadcast would take gigabytes
    env = {**os.environ, "PYTHONPATH": str(REPO_DIR / "src")}
    done = subprocess.run(
        [sys.executable, "-c", HUNDREDFOLD_SMOTE,
         str(REPO_DIR / "scripts" / "make_synthetic_cohort.py")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    rows, growth_mb, seconds = done.stdout.split()
    assert int(rows) == 47_000 + 7 * 7_000
    assert float(growth_mb) < 64, f"peak RSS grew {growth_mb} MB in {seconds} s"


def test_neighbor_table_of_the_100x_minority_peaks_within_three_blocks():
    # the 7,000 minority rows of a 100x cohort: one block holds 9 x 7,000
    # distances (504 KB), and the table reuses two such buffers across blocks
    d = parse_arff(synthetic_cohort_text(70 * 100, 0, "minority-100x"))
    tracemalloc.start()
    try:
        table = _neighbor_table(d, np.arange(len(d)), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (7_000, 5)
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MB"


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
    d = from_rows(schema, draw(st.permutations(table)))
    cfg = SmoteConfig(seed=draw(st.integers(0, 2**32 - 1)),
                      k_neighbors=draw(st.integers(1, m - 1)),
                      percent=100 * draw(st.integers(0, 4)))
    return d, ("T", "F")[minority], cfg


# minority values at both ends of the float range, whose differences overflow
EDGE_CASE = (
    from_rows(
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
    originals = table_rows(d)
    n_synth = 0
    for row, (xi, xj) in zip(table_rows(out), record.provenance.tolist()):
        if xj == -1:
            assert row == originals[xi]
            continue
        n_synth += 1
        parent, partner = originals[xi], originals[xj]
        for a in d.numeric_predictor_indices:
            lo, hi = sorted((parent[a], partner[a]))
            slack = 1e-9 * max(1.0, abs(lo), abs(hi))
            assert lo - slack <= row[a] <= hi + slack
        for a in d.nominal_predictor_indices:
            assert row[a] == parent[a]
        assert d.class_labels[row[d.schema.index(d.class_attribute)]] == minority
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


@st.composite
def neighbor_cases(draw):
    """Minority rows drawn from a few distinct ones, so distances tie, and a k."""
    n_nominal = draw(st.integers(0, 2))
    n_numeric = draw(st.integers(0, 3))
    schema = [AttributeSchema(f"n{a}", "nominal", ("v0", "v1", "v2")) for a in range(n_nominal)]
    schema += [AttributeSchema(f"x{a}", "numeric") for a in range(n_numeric)]
    schema.append(AttributeSchema("cls", "nominal", ("T", "F"), role="class"))
    number = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.floats(-1e3, 1e3))
    row = st.tuples(*(st.integers(0, 2) for _ in range(n_nominal)),
                    *(number for _ in range(n_numeric)))
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    m = draw(st.integers(2, 40))
    minority = [draw(st.sampled_from(distinct)) + (0,) for _ in range(m)]
    majority = [r + (1,) for r in draw(st.lists(row, max_size=3))]  # widen the ranges
    d = from_rows(schema, draw(st.permutations(minority + majority)))
    return d, draw(st.one_of(st.just(m - 1), st.integers(1, m - 1)))


# every minority row has one nominal signature: each count is 0, so the bound prunes nothing
ONE_SIGNATURE = (
    from_rows(
        [AttributeSchema("n0", "nominal", ("v0", "v1", "v2")),
         AttributeSchema("n1", "nominal", ("v0", "v1", "v2")),
         AttributeSchema("x0", "numeric"),
         AttributeSchema("cls", "nominal", ("T", "F"), role="class")],
        [(1, 2, x, 0) for x in (0.3, 0.0, 0.1, 0.2, 0.1, 0.0, 0.3, 0.2)]
        + [(0, 0, 1.0, 1), (2, 1, 0.0, 1)]),
    3,
)

# each row's fewest-mismatch column is its twin, at 0; its 2nd nearest is at 1 mismatch
TWINS = (
    from_rows(
        [AttributeSchema("n0", "nominal", ("v0", "v1", "v2")),
         AttributeSchema("x0", "numeric"),
         AttributeSchema("cls", "nominal", ("T", "F"), role="class")],
        [(a, 0.0, 0) for a in (0, 1, 2, 0, 1, 2)] + [(0, 1.0, 1)]),
    2,
)

# scaled by a span of 1e-300, the numeric differences square to inf: each row's
# fewest-mismatch columns are all at inf, so the bound is inf and every column
# (itself too, at inf) is scored; its 2 nearest share its value at 1 mismatch
OVERFLOWING = (
    from_rows(
        [AttributeSchema("n0", "nominal", ("v0", "v1", "v2")),
         AttributeSchema("x0", "numeric"),
         AttributeSchema("cls", "nominal", ("T", "F"), role="class")],
        [(a, x, 0) for x in (1.0, 2.0, 3.0) for a in (0, 1, 2)] + [(0, 0.0, 1)]),
    2,
    (np.array([0.0]), np.array([1e-300])),
)


# (block cells, dense share): the default choice per block, and every block scored
# pair by pair or whole
@pytest.mark.parametrize("block_cells, dense_share", [
    (resampling._BLOCK_CELLS, resampling._DENSE_SHARE), (64, resampling._DENSE_SHARE),
    (64, 1.0), (64, -1.0)], ids=["one-block", "uneven-blocks", "sparse-blocks", "dense-blocks"])
@settings(max_examples=150, deadline=None)
@given(neighbor_cases())
@example(ONE_SIGNATURE)
@example(TWINS)
@example(OVERFLOWING)
def test_neighbor_table_matches_the_brute_force_oracle(block_cells, dense_share, case):
    d, k, *span = case
    min_idx = np.flatnonzero(d.class_codes() == 0)
    lo, hi = span[0] if span else observed_range(d)
    scaled = minmax_scale(d.numeric_matrix()[min_idx], lo, hi)
    expected = nearest_neighbors(scaled.tolist(), d.codes_matrix()[min_idx].tolist(), k)
    with (mock.patch.object(resampling, "_BLOCK_CELLS", block_cells),
          mock.patch.object(resampling, "_DENSE_SHARE", dense_share),
          mock.patch.object(resampling, "observed_range", lambda _: (lo, hi)),
          np.errstate(over="ignore")):
        assert _neighbor_table(d, min_idx, k).tolist() == expected


@st.composite
def wide_nominal_cases(draw):
    """Minority rows over nominal domains of up to 300 values, and one numeric column.

    A domain of 70 values takes more than one 64-bit word of one-hot bits,
    and one of 130 or 300 values needs int16 codes; codes are drawn near
    the word and int8 boundaries as well as anywhere. The numeric column's
    scaled squares are on the scale of one mismatch.
    """
    sizes = draw(st.lists(st.sampled_from((1, 2, 3, 70, 130, 300)), min_size=1, max_size=4))
    schema = [AttributeSchema(f"n{a}", "nominal", tuple(f"v{i}" for i in range(size)))
              for a, size in enumerate(sizes)]
    schema += [AttributeSchema("x", "numeric"),
               AttributeSchema("cls", "nominal", ("T", "F"), role="class")]

    def code(size):
        edges = (0, 1, 60, 61, 62, 63, 64, 69, 127, 128, 129, 191, 192, 255, 256, 299)
        near_edges = [c for c in edges if c < size]
        return st.one_of(st.sampled_from(near_edges), st.integers(0, size - 1))

    row = st.tuples(*map(code, sizes), st.sampled_from((0.0, 0.5, 1.0, 2.0)))
    rows = draw(st.lists(row, min_size=2, max_size=30))
    return from_rows(schema, [r + (0,) for r in rows]), sizes


@settings(max_examples=150, deadline=None)
@given(wide_nominal_cases())
def test_mismatch_count_equals_the_one_hot_product(case):
    # every row's others ranked by (distance, row), where the nominal term is the
    # count of attributes minus the product of the rows' one-hot vectors
    d, sizes = case
    m, codes = len(d), d.codes_matrix()
    onehot = np.concatenate([np.eye(size)[codes[:, a]] for a, size in enumerate(sizes)], axis=1)
    x = minmax_scale(d.numeric_matrix(), *observed_range(d))[:, 0]
    d2 = np.square(x[:, None] - x) + (len(sizes) - onehot @ onehot.T)
    expected = [sorted((j for j in range(m) if j != i), key=lambda j: (d2[i, j], j))
                for i in range(m)]
    assert _neighbor_table(d, np.arange(m), m - 1).tolist() == expected
