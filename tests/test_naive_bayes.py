"""Naive Bayes against hand counts and a direct-enumeration oracle."""

import math
import warnings

import numpy as np
import pytest

from postop.dataset import AttributeSchema, DataError, Dataset
from postop.naive_bayes import VARIANCE_FLOOR, nb_predict, train_nb

from conftest import nominal_dataset, query
from oracles import gaussian_logpdf, nb_enumerate


def _toy():
    # one binary attribute, classes 3:1
    return nominal_dataset(
        {"x": [0, 0, 1, 1]}, [0, 0, 0, 1], class_values=("T", "F")
    )


def test_smoothed_tables_match_hand_counts():
    model = train_nb(_toy())
    # priors: (3+1)/(4+2) and (1+1)/(4+2)
    assert model.priors.tolist() == pytest.approx([4 / 6, 2 / 6])
    table = model.nominal_tables[0]
    # T saw x=a twice, x=b once; F saw x=b once
    assert table[0].tolist() == pytest.approx([(2 + 1) / (3 + 2), (1 + 1) / (3 + 2)])
    assert table[1].tolist() == pytest.approx([(0 + 1) / (1 + 2), (1 + 1) / (1 + 2)])


def test_posterior_matches_enumeration_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        n_attrs = int(rng.integers(1, 4))
        n_rows = int(rng.integers(2, 9))
        domains = [int(rng.integers(2, 4)) for _ in range(n_attrs)]
        columns = {
            f"a{a}": rng.integers(0, domains[a], size=n_rows).tolist()
            for a in range(n_attrs)
        }
        labels = rng.integers(0, 2, size=n_rows).tolist()
        d = nominal_dataset(columns, labels,
                            domains={f"a{a}": domains[a] for a in range(n_attrs)})
        model = train_nb(d)
        rows = [(row[:-1], row[-1]) for row in d.rows()]
        asked = [tuple(int(rng.integers(0, s)) for s in domains) for _ in range(3)]
        got = nb_predict(model, query(d, *[q + (0,) for q in asked]))
        for q, p in zip(asked, got):
            assert np.allclose(p, nb_enumerate(rows, domains, 2, q), atol=1e-12)


def test_probabilities_never_zero():
    d = _toy()
    model = train_nb(d)
    for table in model.nominal_tables.values():
        assert (table > 0).all()
    # a value/class pair never seen together still gets positive posterior
    (p,) = nb_predict(model, query(d, (1, 1)))
    assert (p > 0).all()
    assert p.sum() == pytest.approx(1.0)


def test_single_class_dataset():
    d = nominal_dataset({"x": [0, 1, 0]}, [0, 0, 0], class_values=("T", "F"))
    model = train_nb(d)
    assert model.priors.tolist() == pytest.approx([4 / 5, 1 / 5])
    # the absent class has uniform smoothed conditionals
    assert model.nominal_tables[0][1].tolist() == pytest.approx([0.5, 0.5])
    (p,) = nb_predict(model, query(d, (0, 0)))
    assert np.argmax(p) == 0
    assert p.sum() == pytest.approx(1.0)


def test_gaussian_parameters_and_floor():
    schema = [
        AttributeSchema("v", "numeric"),
        AttributeSchema("w", "numeric"),
        AttributeSchema("c", "nominal", ("T", "F"), role="class"),
    ]
    d = Dataset.from_rows(schema, [
        (1.0, 5.0, 0),
        (2.0, 5.0, 0),
        (3.0, 5.0, 0),
        (10.0, 5.0, 1),
        (12.0, 5.0, 1),
    ])
    model = train_nb(d)
    params_v = model.gaussian_params[0]
    assert params_v[0].tolist() == pytest.approx([2.0, 2 / 3])  # population variance
    assert params_v[1].tolist() == pytest.approx([11.0, 1.0])
    # constant column: variance floored, never zero
    params_w = model.gaussian_params[1]
    assert params_w[0, 1] == VARIANCE_FLOOR
    assert params_w[1, 1] == VARIANCE_FLOOR
    (p,) = nb_predict(model, query(d, (2.5, 5.0, 0)))
    assert np.isfinite(p).all()
    assert np.argmax(p) == 0


def test_posteriors_finite_at_the_edge_of_the_float_range():
    schema = [
        AttributeSchema("v", "numeric"),
        AttributeSchema("c", "nominal", ("T", "F"), role="class"),
    ]
    d = Dataset.from_rows(schema, [(1e308, 0), (-1e308, 0), (1e308, 0),
                                   (1.7e308, 1), (-1e308, 1), (1e308, 1)])
    model = train_nb(d)
    assert all(np.isfinite(p).all() for p in model.gaussian_params.values())
    p = nb_predict(model, d)
    assert np.isfinite(p).all()
    assert np.allclose(p.sum(axis=1), 1.0)
    # class T's variance is the smaller one, so it wins at its own mean
    (at_mean,) = nb_predict(model, query(d, (1e308 / 3, 0)))
    assert np.argmax(at_mean) == 0


def test_a_value_far_outside_every_class_goes_to_the_widest_class():
    schema = [
        AttributeSchema("v", "numeric"),
        AttributeSchema("c", "nominal", ("T", "F"), role="class"),
    ]
    # class F's values spread wider, so F has the larger variance
    d = Dataset.from_rows(schema, [(1.0, 0), (2.0, 0), (3.0, 1), (5.0, 1)])
    model = train_nb(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p = nb_predict(model, query(d, (1e200, 0), (1e308, 0), (-1e308, 0)))
    assert p.tolist() == [[0.0, 1.0]] * 3


def test_values_overflowing_toward_different_widest_classes_give_the_one_hot_limit():
    schema = [
        AttributeSchema("u", "numeric"),
        AttributeSchema("v", "numeric"),
        AttributeSchema("c", "nominal", ("a", "b"), role="class"),
    ]
    # b is widest on u, a on v: each overflowing term ruled out the other's
    # widest class, so no class was left. The quadratic sums are about
    # 4.25 x**2 for a (u: 1/0.25, v: 1/4) and 5 x**2 for b (u: 1/1, v: 1/0.25).
    d = Dataset.from_rows(schema, [(1.0, 1.0, 0), (2.0, 5.0, 0), (3.0, 2.0, 1), (5.0, 3.0, 1)])
    model = train_nb(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p = nb_predict(model, query(d, (1e308, 1e308, 0), (-1e308, 1e308, 0)))
    assert p.tolist() == [[1.0, 0.0]] * 2


def test_gaussian_likelihood_formula():
    schema = [
        AttributeSchema("v", "numeric"),
        AttributeSchema("c", "nominal", ("T", "F"), role="class"),
    ]
    d = Dataset.from_rows(schema, [(1.0, 0), (3.0, 0), (4.0, 1), (8.0, 1)])
    model = train_nb(d)
    x = 2.2
    log_joint = [
        math.log(model.priors[c])
        + gaussian_logpdf(x, model.gaussian_params[0][c, 0], model.gaussian_params[0][c, 1])
        for c in range(2)
    ]
    m = max(log_joint)
    expected = [math.exp(v - m) for v in log_joint]
    total = sum(expected)
    expected = [v / total for v in expected]
    (got,) = nb_predict(model, query(d, (x, 0)))
    assert np.allclose(got, expected, atol=1e-12)


def test_duplicated_data_still_matches_oracle():
    # smoothing is not scale invariant, so duplication may move posteriors;
    # the model must stay consistent with enumeration on the doubled rows
    rng = np.random.default_rng(77)
    for _ in range(20):
        n_rows = int(rng.integers(3, 10))
        columns = {"a": rng.integers(0, 3, size=n_rows).tolist(),
                   "b": rng.integers(0, 2, size=n_rows).tolist()}
        labels = rng.integers(0, 2, size=n_rows).tolist()
        d = nominal_dataset(columns, labels, domains={"a": 3, "b": 2})
        doubled = d.subset(list(range(n_rows)) * 2)
        model = train_nb(doubled)
        rows = [(row[:-1], row[-1]) for row in doubled.rows()]
        for row, p in zip(d.rows(), nb_predict(model, d)):
            assert np.allclose(p, nb_enumerate(rows, [3, 2], 2, row[:-1]), atol=1e-12)


def test_tie_resolves_to_earlier_class():
    # perfectly symmetric data: posterior is exactly 0.5/0.5
    d = nominal_dataset({"x": [0, 1]}, [0, 1])
    model = train_nb(d)
    (p,) = nb_predict(model, query(d, (0, 0)))
    assert p[0] != p[1] or np.argmax(p) == 0
    sym = nominal_dataset({"x": [0, 0]}, [0, 1])
    (p2,) = nb_predict(train_nb(sym), query(sym, (0, 0)))
    assert p2[0] == pytest.approx(p2[1])
    assert np.argmax(p2) == 0


def test_empty_dataset_rejected():
    schema = [
        AttributeSchema("x", "nominal", ("a", "b")),
        AttributeSchema("c", "nominal", ("T", "F"), role="class"),
    ]
    with pytest.raises(DataError, match="empty"):
        train_nb(Dataset.from_rows(schema, []))

