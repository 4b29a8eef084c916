"""Parser, serializer, and data-model behavior."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postop.dataset import (
    AttributeSchema,
    DataError,
    Dataset,
    ParseError,
    class_counts,
    impute_missing,
    minmax_scale,
    missing_census,
    parse_arff,
    to_arff,
)

from conftest import COHORT_PATH, from_rows, synthetic_cohort_text, table_rows
from oracles import nb_enumerate, rules_predict
from postop.decision_tree import train_tree, tree_predict, tree_to_rules
from postop.mlp import encode, encode_inputs
from postop.naive_bayes import nb_predict, train_nb
from postop.resampling import SmoteConfig, smote

TOY = """% a toy table
@RELATION 'toy'
@attribute color {red,green,blue}
@ATTRIBUTE size NUMERIC
@attribute outcome {T,F}
@data
red, 1.5, T
green,2.0,F   % trailing comment
blue,?,T
"""


def test_parse_basics():
    d = parse_arff(TOY)
    assert d.relation == "toy"
    assert len(d) == 3
    assert [a.name for a in d.schema] == ["color", "size", "outcome"]
    assert d.schema[0].kind == "nominal"
    assert d.schema[1].kind == "numeric"
    assert d.class_attribute.name == "outcome"
    assert table_rows(d) == [(0, 1.5, 0), (1, 2.0, 1), (2, None, 0)]
    # numeric cells read as Python's float() reads them
    head = "@relation r\n@attribute v numeric\n@attribute c {T,F}\n@data\n"
    d = parse_arff(head + "".join(f"{t},T\n" for t in ["1_0", " 2 ", "+.5", "5.", "4.9e-324"]))
    assert d.numeric_matrix()[:, 0].tolist() == [10.0, 2.0, 0.5, 5.0, 5e-324]


def test_parse_accepts_numeric_keyword_synonyms():
    text = "@relation r\n@attribute a real\n@attribute b integer\n@attribute c {x,y}\n@data\n1,2,x\n"
    d = parse_arff(text)
    assert d.schema[0].kind == "numeric"
    assert d.schema[1].kind == "numeric"


def test_parse_empty_data_section():
    d = parse_arff("@relation r\n@attribute a {x,y}\n@attribute c {T,F}\n@data\n")
    assert len(d) == 0
    assert class_counts(d) == {"T": 0, "F": 0}


def test_class_attribute_override():
    text = "@relation r\n@attribute a {x,y}\n@attribute b {T,F}\n@data\nx,T\n"
    d = parse_arff(text, class_attribute="a")
    assert d.class_attribute.name == "a"
    assert d.schema[1].role == "predictor"


def test_parse_error_reports_line_and_column():
    bad = "@relation r\n@attribute a {x,y}\n@attribute c {T,F}\n@data\nx,T\nz,T\n"
    with pytest.raises(ParseError) as err:
        parse_arff(bad)
    assert "line 6" in str(err.value)
    assert "'z'" in str(err.value)
    assert err.value.line == 6


def test_parse_error_cases():
    head = "@relation r\n@attribute a {x,y}\n@attribute c {T,F}\n@data\n"
    with pytest.raises(ParseError, match="row has 3"):
        parse_arff(head + "x,T,extra\n")
    with pytest.raises(ParseError, match="missing @data"):
        parse_arff("@relation r\n@attribute a {x,y}\n")
    with pytest.raises(ParseError, match="before any attribute"):
        parse_arff("@relation r\n@data\n")
    with pytest.raises(ParseError, match="unsupported type"):
        parse_arff("@relation r\n@attribute a string\n@data\n")
    with pytest.raises(ParseError, match="unrecognized declaration"):
        parse_arff("@relation r\n@nonsense here\n@data\n")
    numeric_head = "@relation r\n@attribute a numeric\n@attribute c {T,F}\n@data\n"
    for token in ("abc", "0x10", "1 2"):
        with pytest.raises(ParseError, match="invalid numeric literal"):
            parse_arff(numeric_head + token + ",T\n")
    for token in ("nan", "inf", "1e999"):
        with pytest.raises(ParseError, match="non-finite"):
            parse_arff(numeric_head + token + ",T\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_arff("@relation r\n@attribute a {x,x}\n@data\n")
    with pytest.raises(ParseError, match="line 2: empty attribute name"):
        parse_arff("@relation r\n@attribute {a,b}\n@data\n")


def test_schema_validation():
    with pytest.raises(DataError, match="exactly two values"):
        parse_arff("@relation r\n@attribute a {x,y}\n@attribute c {T,F,M}\n@data\n")
    with pytest.raises(DataError, match="exactly two values"):
        parse_arff("@relation r\n@attribute a {x,y}\n@attribute c numeric\n@data\n")
    with pytest.raises(DataError, match="unique"):
        parse_arff("@relation r\n@attribute a {x,y}\n@attribute a {T,F}\n@data\n")
    with pytest.raises(DataError, match="not found"):
        parse_arff("@relation r\n@attribute a {x,y}\n@attribute c {T,F}\n@data\n",
                   class_attribute="nope")


def test_instance_validation():
    schema = [
        AttributeSchema("a", "nominal", ("x", "y")),
        AttributeSchema("c", "nominal", ("T", "F"), role="class"),
    ]
    num_schema = [
        AttributeSchema("x", "numeric"),
        AttributeSchema("c", "nominal", ("T", "F"), role="class"),
    ]
    # the array constructor is the one check of a table's cells, vectorized
    with pytest.raises(DataError, match="missing class value"):
        Dataset(schema, [[0]], np.zeros((1, 0)), [-1])
    with pytest.raises(DataError, match="non-finite"):
        Dataset(num_schema, np.zeros((1, 0), dtype=int), [[np.inf]], [0])
    with pytest.raises(DataError, match="out of range"):
        Dataset(schema, [[2]], np.zeros((1, 0)), [0])
    with pytest.raises(DataError, match="class code 2 out of range"):
        Dataset(schema, [[0]], np.zeros((1, 0)), [2])
    with pytest.raises(DataError, match="row-aligned"):
        Dataset(schema, [[0], [1]], np.zeros((1, 0)), [0])
    with pytest.raises(DataError, match="integer"):
        Dataset(schema, [[0.0]], np.zeros((1, 0)), [0])


def test_round_trip_arff():
    d = parse_arff(TOY)
    again = parse_arff(to_arff(d))
    assert again == d
    assert again.relation == d.relation


def test_round_trip_cohort_file():
    d = parse_arff(COHORT_PATH.read_text())
    assert parse_arff(to_arff(d)) == d


@pytest.mark.parametrize("declared", ["'pre op'", "'a{b'", "\"it's x\"", "'a%b'"])
def test_round_trip_quotes_attribute_names_the_bare_form_would_misread(declared):
    d = parse_arff(f"@relation r\n@attribute {declared} numeric\n"
                   "@attribute c {T,F}\n@data\n1,T\n")
    assert f"@attribute {declared} numeric" in to_arff(d)
    assert parse_arff(to_arff(d)) == d


_HEAD = "@relation r\n@attribute a {x,y}\n@attribute v numeric\n@attribute c {T,F}\n@data\n"


# (data rows, message, line, column), each with more than one fault; the
# first in file order is reported: the earlier row, then the leftmost cell
@pytest.mark.parametrize("rows, message, line, column", [
    ("x,1,T\nz,1,T\nx,1\n",
     "line 7, column 1: value 'z' is not in the domain of attribute 'a'", 7, 1),
    ("x,1,T,extra\nx,abc,T\n", "line 6: row has 4 values, schema expects 3", 6, None),
    ("x, abc ,Q\n", "line 6, column 3: invalid numeric literal 'abc' for attribute 'v'", 6, 3),
    ("x,1,Q\nz,1,T\n", "line 6, column 5: value 'Q' is not in the domain of attribute 'c'", 6, 5),
    # past the first block of data rows, after a blank line and a comment
    ("x,1,T\n" * 600 + "\n% c\ny, 2,T\ny,0x10,F\n",
     "line 609, column 3: invalid numeric literal '0x10' for attribute 'v'", 609, 3),
])
def test_parse_error_positions_in_file_order(rows, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_arff(_HEAD + rows)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


def test_reformatted_cohort_parses_to_the_same_table():
    text = COHORT_PATH.read_text()
    head, data = text.split("@data\n")
    rows = [row.replace(",", ", ") + " % note" for row in data.splitlines()]
    d = parse_arff("\r\n".join(head.splitlines()) + "\r\n@data\r\n\r\n" + "\r\n\r\n".join(rows))
    cohort = parse_arff(text)
    assert d == cohort
    assert table_rows(d) == table_rows(cohort)
    assert d.codes_matrix().flags.c_contiguous
    assert d.numeric_matrix().flags.c_contiguous


def test_parse_of_a_100x_cohort_peaks_below_its_row_tuples():
    # 47,000 rows: a tuple per row, all alive at once, would peak near 40 MB
    text = synthetic_cohort_text(7_000, 40_000, "cohort-100x")
    tracemalloc.start()
    try:
        d = parse_arff(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d) == 47_000
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_class_counts_and_census():
    d = parse_arff(TOY)
    assert class_counts(d) == {"T": 2, "F": 1}
    assert missing_census(d) == {"size": 1}


def test_impute_mean_or_mode():
    text = (
        "@relation r\n@attribute a {x,y}\n@attribute v numeric\n@attribute c {T,F}\n@data\n"
        "x,1.0,T\n?,3.0,T\ny,?,F\nx,?,F\n"
    )
    d = impute_missing(parse_arff(text), "mean-or-mode")
    rows = table_rows(d)
    assert rows[1][0] == 0  # mode of {x, y, x} is x
    assert rows[2][1] == pytest.approx(2.0)  # mean of 1.0 and 3.0
    assert rows[3][1] == pytest.approx(2.0)
    assert missing_census(d) == {}


def test_impute_mean_of_huge_values_is_finite():
    text = (
        "@relation r\n@attribute v numeric\n@attribute c {T,F}\n@data\n"
        "1e308,T\n1.5e308,T\n?,F\n1e308,F\n1.2e308,T\n1.1e308,F\n"
    )
    mean = table_rows(impute_missing(parse_arff(text)))[2][0]
    assert mean == pytest.approx(1.16e308, rel=1e-12)


def test_minmax_scale_far_outside_a_tiny_span_clamps_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = minmax_scale(np.array([[1e308], [-1e308]]), np.array([0.0]), np.array([1e-300]))
    big = np.finfo(float).max
    assert x[:, 0].tolist() == [big, -big]


def test_impute_mode_tie_prefers_earlier_domain_value():
    text = (
        "@relation r\n@attribute a {x,y}\n@attribute c {T,F}\n@data\n"
        "x,T\ny,T\n?,F\n"
    )
    d = impute_missing(parse_arff(text))
    assert table_rows(d)[2][0] == 0


def test_impute_drop_instance():
    d = impute_missing(parse_arff(TOY), "drop-instance")
    assert len(d) == 2
    assert all(None not in row for row in table_rows(d))


def test_impute_errors():
    with pytest.raises(DataError, match="unknown imputation strategy"):
        impute_missing(parse_arff(TOY), "zap")
    all_missing = (
        "@relation r\n@attribute v numeric\n@attribute c {T,F}\n@data\n?,T\n?,F\n"
    )
    with pytest.raises(DataError, match="no observed values"):
        impute_missing(parse_arff(all_missing))


def test_subset_and_matrices():
    d = parse_arff(TOY)
    s = d.subset([2, 0])
    assert len(s) == 2
    assert table_rows(s) == [table_rows(d)[2], table_rows(d)[0]]
    codes = d.codes_matrix()
    assert codes.shape == (3, 1)
    assert codes[:, 0].tolist() == [0, 1, 2]
    nums = d.numeric_matrix()
    assert nums.shape == (3, 1)
    assert np.isnan(nums[2, 0])
    assert d.class_codes().tolist() == [0, 1, 0]


def test_codes_past_128_values_stay_int16_through_every_layer():
    # codes of wide past 127 need int16; each layer adds them to an int64 operand
    rng = np.random.default_rng(28)
    schema = [AttributeSchema("wide", "nominal", tuple(f"w{i}" for i in range(300))),
              AttributeSchema("x", "numeric"),
              AttributeSchema("b", "nominal", ("u", "v")),
              AttributeSchema("cls", "nominal", ("T", "F"), role="class")]
    wide = rng.choice([0, 1, 126, 127, 128, 129, 255, 256, 299], size=60)
    rows = [(int(w), float(x), int(b), int(w >= 128))
            for w, x, b in zip(wide, rng.normal(size=60).round(2), rng.integers(0, 2, 60))]
    rows[5] = (None,) + rows[5][1:]
    d = from_rows(schema, rows)
    assert d.codes_matrix().dtype == np.int16
    assert from_rows(schema[1:], [r[1:] for r in rows]).codes_matrix().dtype == np.int8
    full = impute_missing(d)
    out, _ = smote(full, "T", SmoteConfig(seed=1, k_neighbors=3, percent=200))
    for table in (d.subset([3, 0, 59]), full, out):
        assert table.codes_matrix().dtype == np.int16
    assert parse_arff(to_arff(out)) == out
    # naive Bayes on the nominal attributes against counting by hand
    nominal = Dataset([schema[0], schema[2], schema[3]], full.codes_matrix(),
                      np.empty((60, 0)), full.class_codes())
    asked = [(0, 0), (128, 1), (299, 0), (127, 1)]
    got = nb_predict(train_nb(nominal), from_rows(nominal.schema, [q + (0,) for q in asked]))
    rows_by_hand = [(r[:-1], r[-1]) for r in table_rows(nominal)]
    for q, p in zip(asked, got):
        assert np.allclose(p, nb_enumerate(rows_by_hand, [300, 2], 2, q), atol=1e-12)
    # J48 splits on wide, a branch per value; its rules route every row as the tree does
    t = train_tree(out)
    assert t.schema[t.attrs[t.column[t.root]]].name == "wide"
    assert (rules_predict(tree_to_rules(t), out) == tree_predict(t, out).argmax(axis=1)).all()
    # the network inputs equal those of the same table with int64 codes
    wide64 = out._derive(out.codes_matrix().astype(np.int64), out.numeric_matrix(),
                         out.class_codes())
    enc, x, _ = encode(out)
    assert np.array_equal(x, encode_inputs(enc, wide64))
    assert x[np.arange(len(out)), out.codes_matrix()[:, 0].astype(np.int64)].all()


def test_serializer_float_formatting_round_trips():
    schema = [
        AttributeSchema("v", "numeric"),
        AttributeSchema("c", "nominal", ("T", "F"), role="class"),
    ]
    values = [0.1, 1 / 3, 2.5e-10, 123456.789, 60.0]
    d = from_rows(schema, [(v, 0) for v in values])
    again = parse_arff(to_arff(d))
    assert [row[0] for row in table_rows(again)] == values  # exact, not approximate


# -- properties ------------------------------------------------------------------

_ARFF_TOKENS = st.sampled_from([
    "@relation", "@attribute", "@ATTRIBUTE", "@data", "@Data", "x", "c", "'q r'", "'",
    "{a,b}", "{T,F}", "{", "}", "{a,,b}", "{a,a}", "numeric", "REAL", "integer", "string",
    "a", "b", "T", "F", "?", "1", "-2.5", "1e999", "nan", "", " ", ",", "%",
])
_ARFF_LINE = (st.lists(_ARFF_TOKENS, max_size=5).map(" ".join)
              | st.lists(_ARFF_TOKENS, max_size=5).map(",".join)
              | st.text(max_size=12))


@settings(max_examples=400, deadline=None)
@given(st.booleans(), st.lists(_ARFF_LINE, max_size=8))
def test_arff_like_text_parses_or_raises_a_data_error(with_header, lines):
    header = ["@relation r", "@attribute x {a,b}", "@attribute v numeric",
              "@attribute c {T,F}"] if with_header else []
    try:
        d = parse_arff("\n".join(header + lines))
    except DataError:
        return
    assert isinstance(d, Dataset)


@st.composite
def mixed_tables(draw):
    """Small tables of nominal and numeric predictors, missing cells included."""
    n_nominal = draw(st.integers(0, 3))
    n_numeric = draw(st.integers(0, 3))
    # a name sometimes holds a space, which the serializer must quote
    prefix = draw(st.sampled_from(["", "pre op "]))
    schema = [AttributeSchema(f"{prefix}n{a}", "nominal",
                              tuple(f"v{i}" for i in range(draw(st.integers(1, 3)))))
              for a in range(n_nominal)]
    schema += [AttributeSchema(f"{prefix}x{a}", "numeric") for a in range(n_numeric)]
    schema.insert(draw(st.integers(0, len(schema))),
                  AttributeSchema("cls", "nominal", ("T", "F"), role="class"))
    cell = {
        "nominal": lambda a: st.none() | st.integers(0, len(a.values) - 1),
        "numeric": lambda a: st.none() | st.floats(allow_nan=False, allow_infinity=False),
    }
    row = st.tuples(*(st.integers(0, 1) if a.role == "class" else cell[a.kind](a)
                      for a in schema))
    return from_rows(schema, draw(st.lists(row, max_size=12)), relation="gen")


@settings(max_examples=150, deadline=None)
@given(mixed_tables())
def test_generated_tables_round_trip_through_arff_and_csv(d):
    again = parse_arff(to_arff(d), class_attribute="cls")
    assert again == d
    assert again.relation == d.relation
    assert table_rows(again) == table_rows(d)


@settings(max_examples=150, deadline=None)
@given(mixed_tables(), st.data())
def test_subset_equals_the_table_rebuilt_from_its_rows(d, data):
    idx = data.draw(st.lists(st.integers(0, max(len(d) - 1, 0)), max_size=15)
                    if len(d) else st.just([]))
    rows = table_rows(d)
    assert d.subset(idx) == from_rows(d.schema, [rows[i] for i in idx])
