"""Parser, serializer, and data-model behavior."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postop.dataset import (
    _CHUNK_CHARS,
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
from oracles import nb_enumerate, parse_rows_by_token, rules_predict, tree_to_rules
from postop.decision_tree import train_tree, tree_predict
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
    for line, what in (("@relation 'r % x", "relation"), ("@attribute \"a numeric", "attribute")):
        with pytest.raises(ParseError, match=f"line 1: unterminated quoted {what} name"):
            parse_arff(line + "\n@attribute c {T,F}\n@data\n")


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
    # the same checks on arrays of the types a table keeps, which it would adopt
    with pytest.raises(DataError, match="symbol index 2 out of range"):
        Dataset(schema, np.array([[2]], np.int8), np.zeros((1, 0)), np.array([0]))
    with pytest.raises(DataError, match="missing class value"):
        Dataset(schema, np.array([[0]], np.int8), np.zeros((1, 0)), np.array([-1]))


def test_dataset_adopts_arrays_of_its_types_and_copies_the_others():
    schema = [AttributeSchema("a", "nominal", ("x", "y")), AttributeSchema("v", "numeric"),
              AttributeSchema("c", "nominal", ("T", "F"), role="class")]
    given = np.array([[0], [1]], np.int8), np.array([[0.5], [np.nan]]), np.array([0, 1])
    d = Dataset(schema, *given)
    for a, kept in zip(given, (d.codes_matrix(), d.numeric_matrix(), d.class_codes())):
        assert np.shares_memory(a, kept) and not kept.flags.writeable
    # an int64 code block is narrowed, and a strided numeric column copied
    wide, strided = np.array([[0], [1]]), np.array([[0.5, 9.0], [np.nan, 9.0]])[:, :1]
    again = Dataset(schema, wide, strided, given[2].astype(np.int32))
    assert again == d and again.codes_matrix().dtype == np.int8
    assert again.class_codes().dtype == np.int64
    for a, kept in zip((wide, strided), (again.codes_matrix(), again.numeric_matrix())):
        assert not np.shares_memory(a, kept) and kept.flags.c_contiguous
        assert not kept.flags.writeable


def test_round_trip_arff():
    d = parse_arff(TOY)
    again = parse_arff(to_arff(d))
    assert again == d
    assert again.relation == d.relation


def test_round_trip_cohort_file():
    d = parse_arff(COHORT_PATH.read_text())
    assert parse_arff(to_arff(d)) == d


# each name declared as the relation's and as an attribute's
@pytest.mark.parametrize("declared", ["'pre op'", "'a{b'", "\"it's x\"", "'a%b'", "'x\"'"])
@pytest.mark.parametrize("head", ["@relation {}\n@attribute a numeric\n",
                                  "@relation r\n@attribute {} numeric\n"],
                         ids=["relation", "attribute"])
def test_round_trip_quotes_attribute_names_the_bare_form_would_misread(head, declared):
    d = parse_arff(head.format(declared) + "@attribute c {T,F}\n@data\n1,T\n")
    assert declared[1:-1] in (d.relation, d.schema[0].name)
    # the attribute reader opens a quote only at a name's start, so x" is written bare
    written = "x\"" if declared == "'x\"'" and d.relation == "r" else declared
    assert to_arff(d).startswith(head.format(written))
    again = parse_arff(to_arff(d))
    assert again == d and again.relation == d.relation


# the reader has no escape, so a name that needs quotes and holds both kinds has no ARFF form;
# a bare relation name loses a quote at either end, a bare attribute name only at its start
@pytest.mark.parametrize("where, name", [("relation", "a'b\""), ("relation", "'x\""),
                                         ("relation", "pre 'op\""), ("attribute", "'x\""),
                                         ("attribute", "pre 'op\"")])
def test_to_arff_refuses_a_name_that_no_quote_can_hold(where, name):
    schema = [AttributeSchema(name if where == "attribute" else "a", "numeric"),
              AttributeSchema("c", "nominal", ("T", "F"), role="class")]
    d = from_rows(schema, [(1.0, 0)], relation=name if where == "relation" else "r")
    with pytest.raises(DataError, match=re.escape(f"name {name!r} needs quotes but holds both")):
        to_arff(d)
    # without a reason to quote it, such a name is written bare and read back
    bare = from_rows(schema[1:], [(0,)], relation="a'b\"c")
    assert parse_arff(to_arff(bare)).relation == "a'b\"c"


@pytest.mark.parametrize("name", ["a'b\"", "ab'", "x\""])
def test_an_attribute_name_that_ends_in_a_quote_is_written_bare_and_read_back(name):
    # the attribute reader opens a quote only at a name's start; the relation reader at
    # either end, so the same name as a relation is quoted, or refused when it holds both
    d = parse_arff(f"@relation r\n@attribute {name} numeric\n@attribute c {{T,F}}\n@data\n1,T\n")
    assert d.schema[0].name == name
    assert f"\n@attribute {name} numeric\n" in to_arff(d)
    assert parse_arff(to_arff(d)) == d

_HEAD ="@relation r\n@attribute a {x,y}\n@attribute v numeric\n@attribute c {T,F}\n@data\n"


# (data rows, message, line, column), each with more than one fault; the
# first in file order is reported: the earlier row, then the leftmost cell
@pytest.mark.parametrize("rows, message, line, column", [
    ("x,1,T\nz,1,T\nx,1\n",
     "line 7, column 1: value 'z' is not in the domain of attribute 'a'", 7, 1),
    ("x,1,T,extra\nx,abc,T\n", "line 6: row has 4 values, schema expects 3", 6, None),
    ("x, abc ,Q\n", "line 6, column 3: invalid numeric literal 'abc' for attribute 'v'", 6, 3),
    ("x,1,Q\nz,1,T\n", "line 6, column 5: value 'Q' is not in the domain of attribute 'c'", 6, 5),
    # a long and a short row: the block holds as many tokens as three good rows
    ("x,1,T\nx,1,T,y\nx,1\n", "line 7: row has 4 values, schema expects 3", 7, None),
    # a nan among finite values, which float() reads without complaint
    ("x,1,T\nx, nan,Q\nx,1_0,T\n", "line 7, column 3: non-finite numeric value for attribute 'v'",
     7, 3),
    # past the first block of data rows, after a blank line and a comment
    ("x,1,T\n" * 600 + "\n% c\ny, 2,T\ny,0x10,F\n",
     "line 609, column 3: invalid numeric literal '0x10' for attribute 'v'", 609, 3),
    # the same past the first piece of text the parser splits (25,000 characters)
    ("x,1,T\n" * 6000 + "\n% c\ny, 2,T\ny,0x10,F\n",
     "line 6009, column 3: invalid numeric literal '0x10' for attribute 'v'", 6009, 3),
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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028",
                                     "\x0c\n"])
def test_every_line_end_parses_as_lf_does(newline):
    # "\x0c\n" ends each line twice, so a blank line follows each: more lines than '\n's
    lf = COHORT_PATH.read_text()
    text = lf.replace("\n", newline)
    assert parse_arff(text) == parse_arff(text.removesuffix(newline)) == parse_arff(lf)
    # three cohorts' rows span pieces of the text, and a bad class value is in the third
    head, data = lf.split("@data\n")
    rows = data.splitlines() * 3
    rows[1200] = rows[1200].rsplit(",", 1)[0] + ",Q"
    step = len(f"x{newline}x".splitlines()) - 1  # lines that one newline ends
    with pytest.raises(ParseError) as err:
        parse_arff(newline.join([*head.splitlines(), "@data", *rows]) + newline)
    line = (head.count("\n") + 1 + 1200) * step + 1
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}, column {len(rows[1200])}: value 'Q' is not in the domain of attribute "
        "'Risk1Yr'", line, len(rows[1200]))


def test_parse_of_a_100x_cohort_peaks_below_its_row_tuples():
    # 47,000 rows: a tuple per row, all alive at once, would peak near 40 MB; all lines at
    # once near 8.5 MB
    text = synthetic_cohort_text(7_000, 40_000, "cohort-100x")
    tracemalloc.start()
    try:
        d = parse_arff(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d) == 47_000
    assert peak <= 5 * 2**20, f"peak {peak / 2**20:.1f} MB"


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


_NUMERIC_TOKENS = ["1", "-2.5", "+.5", "5.", "4.9e-324", "1_0", " -0 ", "?"]
_WILD_NUMERIC_TOKENS = ["nan", "inf", "1e999", "0x10", "", "1 2"]
_PADS = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\x1f"])


@st.composite
def data_sections(draw):
    """(schema, ARFF text, index of its first data line) for the parser's differential test.

    The data section has drawn rows before and after a run of good rows that
    may end near a 512-row block edge or the parser's first cut of the text. A
    drawn row may pad its tokens with blanks, hold '?', bad or non-finite
    tokens, miss or gain a field, carry a comment, and sit between blank and
    comment-only lines; lines end in LF, CRLF, CR, a form feed or U+2028, and
    the header may hold a '%' of its own.
    """
    schema = [AttributeSchema(f"n{a}", "nominal", ("a", "b", "cc")[:draw(st.integers(1, 3))])
              for a in range(draw(st.integers(0, 2)))]
    schema += [AttributeSchema(f"x{a}", "numeric") for a in range(draw(st.integers(0, 2)))]
    schema.insert(draw(st.integers(0, len(schema))),
                  AttributeSchema("cls", "nominal", ("T", "F"), role="class"))

    def cell(attr, wild):
        if attr.kind == "numeric":
            return st.sampled_from(_WILD_NUMERIC_TOKENS if wild else _NUMERIC_TOKENS)
        good = [*attr.values] + ([] if attr.role == "class" else ["?"])
        return st.sampled_from(["?", "z", "", "a b", "T"] if wild else good)

    def row(wild):  # in a wild row, each cell is wild with chance 1/3
        return [draw(_PADS) + draw(cell(a, wild and draw(st.integers(0, 2)) == 0)) + draw(_PADS)
                for a in schema]

    def lines(wild):
        rows, ragged = [row(wild)], draw(st.integers(0, 8)) if wild else 0
        if ragged == 1:  # a field short
            rows[0].pop()
        elif ragged in (2, 3):  # a field too many, at times with a row a field short after it, so
            rows[0].append("a")  # that the block holds as many tokens as good rows would
            if ragged == 2:
                rows.append(row(False)[:-1])
        out = []
        for cells in rows:
            out += draw(st.sampled_from([[], [], [""], ["   "], ["% comment only"]]))
            out.append(",".join(cells) + draw(st.sampled_from(["", " % note", "%"])))
        return out

    fill = ",".join(a.values[0] if a.kind == "nominal" else "0.5" for a in schema)
    head = [x for _ in range(draw(st.integers(0, 3))) for x in lines(draw(st.integers(0, 4)) == 0)]
    tail = [x for _ in range(draw(st.integers(0, 6))) for x in lines(draw(st.integers(0, 2)) == 0)]
    header = (["% header comment"] if draw(st.booleans()) else []) + ["@relation r"]
    header += [f"@attribute {a.name} " + ("numeric" if a.kind == "numeric"
                                          else "{" + ",".join(a.values) + "}") for a in schema]
    header.append("@data" + draw(st.sampled_from(["", " % rows follow"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"]))
    # the filler rows that end just before the parser's first cut, after the first '\n'
    # past _CHUNK_CHARS characters; a row more or less moves the cut across the rows drawn
    before = len(newline.join(header + head)) + len(newline)
    edge = (_CHUNK_CHARS - before) // (len(fill) + len(newline))
    filler = [fill] * draw(st.sampled_from([0, 1, 5, 508, 510, 511, 512, 513,
                                            edge - 1, edge, edge + 1, edge + 2]))
    return schema, newline.join(header + head + filler + tail) + newline, len(header)


def _outcome(parse):
    try:
        return parse()
    except DataError as e:
        return e


@settings(max_examples=400, deadline=None)
@given(data_sections())
def test_parser_matches_the_per_token_oracle(case):
    schema, text, start = case
    expected = _outcome(lambda: Dataset(
        schema, *parse_rows_by_token(schema, text.splitlines(), start), "r"))
    got = _outcome(lambda: parse_arff(text, class_attribute="cls"))
    if isinstance(expected, DataError):
        assert type(got) is type(expected)
        assert ((str(got), getattr(got, "line", None), getattr(got, "column", None))
                == (str(expected), getattr(expected, "line", None),
                    getattr(expected, "column", None)))
        return
    assert got == expected
    for a, b in [(got.codes_matrix(), expected.codes_matrix()),
                 (got.numeric_matrix(), expected.numeric_matrix()),
                 (got.class_codes(), expected.class_codes())]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # -0.0 and nan bits too


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
    # a relation name too may need quotes
    relation = draw(st.sampled_from(["gen", "pre op gen", "a%b"]))
    return from_rows(schema, draw(st.lists(row, max_size=12)), relation=relation)


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
