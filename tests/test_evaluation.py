"""Scoring math against direct computation, plus fold and report plumbing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postop.dataset import AttributeSchema, DataError, Dataset
from postop.evaluation import (
    CLASSIFIER_NAMES,
    ClassifierSpec,
    ConfusionMatrix,
    FoldAssignment,
    confusion_metrics,
    cross_validate,
    error_measures,
    make_classifier,
    render_csv,
    render_markdown,
    roc_auc,
    stratified_folds,
)
from postop.resampling import SmoteConfig, smote
from postop.seeds import derive_seed

from conftest import nominal_dataset
from oracles import auc_by_pair_counting, error_measures_direct


def _cheat_spec():
    """Reads the true class straight off the test rows."""
    return ClassifierSpec(
        name="cheat",
        train=lambda d, seed: len(d.class_labels),
        predict=lambda m, d: np.eye(m)[d.class_codes()],
    )


def _const_spec(code, n_classes=2):
    vec = np.zeros(n_classes)
    vec[code] = 1.0
    return ClassifierSpec(name="const", train=lambda d, seed: None,
                          predict=lambda m, d: np.tile(vec, (len(d), 1)))


# -- confusion metrics ----------------------------------------------------------


def test_confusion_from_predictions_and_identities():
    cm = ConfusionMatrix.from_predictions(
        [True, True, True, False, False, False],
        [True, True, False, True, False, False],
    )
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 2)
    m = confusion_metrics(cm)
    assert m["recall"] == m["tp_rate"] == m["sensitivity"]
    assert m["accuracy"] == pytest.approx(4 / 6)
    assert m["fp_rate"] == pytest.approx(1 / 3)
    assert m["specificity"] == pytest.approx(2 / 3)
    p, r = m["precision"], m["recall"]
    assert m["f_measure"] == pytest.approx(2 * p * r / (p + r))
    # here precision equals recall, so the f-measure collapses to them
    assert m["f_measure"] == pytest.approx(p)
    assert m["flags"] == []


def test_confusion_zero_denominators_are_flagged():
    m = confusion_metrics(ConfusionMatrix(tp=0, fn=0, fp=2, tn=3))
    assert m["tp_rate"] == 0.0
    assert "tp_rate-undefined-zero-denominator" in m["flags"]
    assert "f_measure-undefined-zero-denominator" in m["flags"]
    with pytest.raises(DataError, match="empty"):
        confusion_metrics(ConfusionMatrix(0, 0, 0, 0))
    with pytest.raises(DataError, match="align"):
        ConfusionMatrix.from_predictions([True], [True, False])


def test_perfect_predictions_score_one():
    cm = ConfusionMatrix.from_predictions([True, False] * 5, [True, False] * 5)
    m = confusion_metrics(cm)
    assert m["accuracy"] == 1.0
    assert m["tp_rate"] == 1.0 and m["fp_rate"] == 0.0
    assert m["f_measure"] == 1.0


# -- error measures ---------------------------------------------------------------


def test_error_measures_match_direct_computation():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n, c = int(rng.integers(2, 30)), int(rng.integers(2, 4))
        labels = rng.integers(0, c, size=n)
        if len(set(labels.tolist())) < 2:
            continue
        actual = np.eye(c)[labels]
        raw = rng.uniform(0, 1, size=(n, c))
        predicted = raw / raw.sum(axis=1, keepdims=True)
        got = error_measures(predicted, actual)
        want = error_measures_direct(predicted.tolist(), actual.tolist())
        assert got["mean_absolute_error"] == pytest.approx(want["mae"], abs=1e-12)
        assert got["root_mean_squared_error"] == pytest.approx(want["rmse"], abs=1e-12)
        assert got["relative_absolute_error"] == pytest.approx(want["rae"], abs=1e-12)
        assert got["root_relative_squared_error"] == pytest.approx(want["rrse"], abs=1e-12)
        assert got["flags"] == []


def test_mean_predictor_scores_exactly_one_relative_error():
    actual = np.eye(2)[np.array([0, 0, 1, 0, 1])]
    predicted = np.tile(actual.mean(axis=0), (5, 1))
    got = error_measures(predicted, actual)
    assert got["relative_absolute_error"] == 1.0
    assert got["root_relative_squared_error"] == 1.0


def test_constant_actuals_make_relative_errors_undefined():
    actual = np.eye(2)[np.zeros(4, dtype=int)]
    got = error_measures(np.full((4, 2), 0.5), actual)
    assert got["relative_absolute_error"] is None
    assert got["root_relative_squared_error"] is None
    assert "rae-undefined-constant-actuals" in got["flags"]
    assert "rrse-undefined-constant-actuals" in got["flags"]
    with pytest.raises(DataError, match="shape"):
        error_measures(np.zeros((2, 2)), np.zeros((3, 2)))


# -- ROC -----------------------------------------------------------------------------


def test_roc_hand_cases():
    assert roc_auc([0.9, 0.8, 0.7, 0.6], [True, False, True, False]) == pytest.approx(0.75)
    assert roc_auc([0.9, 0.5, 0.5, 0.1], [True, True, False, False]) == pytest.approx(0.875)


def test_roc_matches_pair_counting_with_ties():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        scores = rng.integers(0, 5, size=n) / 4.0  # gridded: ties guaranteed
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            continue
        got = roc_auc(scores, labels)
        want = auc_by_pair_counting(scores.tolist(), labels.tolist())
        assert got == pytest.approx(want, abs=1e-12)


def test_roc_label_swap_complements():
    rng = np.random.default_rng(5)
    scores = rng.permutation(20) / 20.0  # distinct scores
    labels = np.array([True] * 8 + [False] * 12)
    a = roc_auc(scores, labels)
    b = roc_auc(1.0 - scores, ~labels)
    assert a == pytest.approx(b)
    assert roc_auc(scores, ~labels) == pytest.approx(1.0 - a)


def test_roc_input_validation():
    with pytest.raises(DataError, match="positive and one negative"):
        roc_auc([0.1, 0.2], [True, True])
    with pytest.raises(DataError, match="shape"):
        roc_auc([], [])
    for bad in (np.inf, np.nan):  # inf first: a sweep that loops on NaN fails before it hangs
        with pytest.raises(DataError, match="finite"):
            roc_auc([0.1, bad, 0.2], [True, False, False])


# -- folds --------------------------------------------------------------------------


def test_stratified_folds_balance_the_resampled_cohort(cohort):
    rebalanced, _ = smote(cohort, "T", SmoteConfig(seed=derive_seed(3, "smote")))
    folds = stratified_folds(rebalanced, 10, derive_seed(3, "folds"))
    y = rebalanced.class_codes()
    t_code = rebalanced.class_labels.index("T")
    for t in range(10):
        yt = y[folds.test_indices(t)]
        assert (yt == t_code).sum() == 56
        assert (yt != t_code).sum() == 40
    # the folds partition all 960 instances
    assert np.sort(np.concatenate([folds.test_indices(t) for t in range(10)])).tolist() == list(range(960))
    for t in range(10):
        together = np.concatenate([folds.test_indices(t), folds.train_indices(t)])
        assert np.sort(together).tolist() == list(range(960))


def test_stratified_folds_stay_proportional():
    rng = np.random.default_rng(60)
    for _ in range(20):
        n = int(rng.integers(10, 60))
        labels = rng.integers(0, 2, size=n).tolist()
        if len(set(labels)) < 2:
            continue
        d = nominal_dataset({"a": rng.integers(0, 2, size=n).tolist()}, labels)
        k = int(rng.integers(2, 6))
        folds = stratified_folds(d, k, int(rng.integers(0, 1000)))
        y = d.class_codes()
        for c in (0, 1):
            per_fold = [int((y[folds.test_indices(t)] == c).sum()) for t in range(k)]
            assert max(per_fold) - min(per_fold) <= 1
            assert sum(per_fold) == int((y == c).sum())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=60).filter(lambda y: len(set(y)) == 2),
       st.data())
def test_stratified_folds_partition_the_rows(labels, data):
    n = len(labels)
    k = data.draw(st.integers(2, min(n, 12)))
    folds = stratified_folds(nominal_dataset({"a": [0] * n}, labels), k,
                             data.draw(st.integers(0, 2**32 - 1)))
    tests = [folds.test_indices(t) for t in range(k)]
    assert np.sort(np.concatenate(tests)).tolist() == list(range(n))
    for t in range(k):
        together = np.concatenate([tests[t], folds.train_indices(t)])
        assert np.sort(together).tolist() == list(range(n))


def test_fold_determinism_and_validation():
    d = nominal_dataset({"a": [0, 1] * 10}, [0, 1] * 10)
    f1 = stratified_folds(d, 4, 77)
    f2 = stratified_folds(d, 4, 77)
    assert np.array_equal(f1.fold_of, f2.fold_of)
    f3 = stratified_folds(d, 4, 78)
    assert not np.array_equal(f1.fold_of, f3.fold_of)
    with pytest.raises(DataError, match="out of range"):
        stratified_folds(d, 1, 0)
    with pytest.raises(DataError, match="out of range"):
        stratified_folds(d, 21, 0)
    single = nominal_dataset({"a": [0, 1]}, [0, 0])
    with pytest.raises(DataError, match="no instances"):
        stratified_folds(single, 2, 0)


# -- cross-validation -----------------------------------------------------------------


def test_perfect_classifier_scores_clean_sweep():
    d = nominal_dataset({"a": [0, 1] * 6}, [0, 1] * 6, class_values=("T", "F"))
    folds = stratified_folds(d, 3, 1)
    report = cross_validate(d, _cheat_spec(), folds)
    m = report.metrics
    assert m["correctly_classified"] == 100.0
    assert m["mean_absolute_error"] == 0.0
    assert m["root_mean_squared_error"] == 0.0
    assert m["relative_absolute_error"] == 0.0
    assert m["root_relative_squared_error"] == 0.0
    assert m["tp_rate"] == 100.0 and m["fp_rate"] == 0.0
    assert m["precision"] == m["recall"] == m["f_measure"] == 100.0
    assert m["roc_area"] == 100.0
    assert report.cva == 100.0
    assert report.positive_class == "T"
    assert report.fold_accuracies == (100.0, 100.0, 100.0)


def test_constant_classifier_on_imbalanced_data():
    # always answering the majority class scores its prevalence
    labels = [0] * 7 + [1] * 5
    d = nominal_dataset({"a": [0, 1] * 6}, labels, class_values=("T", "F"))
    folds = stratified_folds(d, 3, 2)
    report = cross_validate(d, _const_spec(1), folds)
    assert report.metrics["correctly_classified"] == pytest.approx(100 * 5 / 12)
    assert report.metrics["roc_area"] == pytest.approx(50.0)
    assert report.per_class["T"]["tp_rate"] == 0.0
    assert report.per_class["F"]["tp_rate"] == 100.0
    assert "T:precision-undefined-zero-denominator" in report.flags
    assert report.confusion.tp == 0 and report.confusion.fn == 7


def test_pooled_accuracy_differs_from_fold_mean():
    d = nominal_dataset({"a": [0] * 6}, [0, 0, 1, 1, 0, 0], domains={"a": 2})
    folds = FoldAssignment(k=2, fold_of=np.array([0, 0, 0, 0, 1, 1]), seed=0)
    report = cross_validate(d, _const_spec(0), folds)
    assert report.fold_accuracies == (50.0, 100.0)
    assert report.cva == pytest.approx(75.0)
    assert report.metrics["correctly_classified"] == pytest.approx(100 * 4 / 6)


def test_empty_fold_is_skipped():
    d = nominal_dataset({"a": [0, 1] * 2}, [0, 1, 0, 1])
    folds = FoldAssignment(k=3, fold_of=np.array([0, 0, 1, 1]), seed=0)
    calls = []
    cheat = _cheat_spec()
    spec = ClassifierSpec("cheat", cheat.train,
                          lambda m, dd: calls.append(len(dd)) or cheat.predict(m, dd))
    report = cross_validate(d, spec, folds)
    assert report.n_folds == 3
    assert len(report.fold_accuracies) == 2
    assert calls == [2, 2]


def test_training_seeds_and_transform_wiring():
    d = nominal_dataset({"a": [0, 1] * 8}, [0, 1] * 8)
    folds = stratified_folds(d, 4, 123)
    seen_seeds = []
    predicted_sizes = []
    spec = ClassifierSpec(
        name="probe",
        train=lambda dd, seed: seen_seeds.append(seed) or 2,
        predict=lambda m, dd: predicted_sizes.append(len(dd)) or np.eye(m)[dd.class_codes()],
    )
    transform_calls = []

    def transform(train_d, seed):
        transform_calls.append((len(train_d), seed))
        return train_d

    cross_validate(d, spec, folds, train_transform=transform)
    assert seen_seeds == [derive_seed(123, "train", "probe", t) for t in range(4)]
    assert [c[1] for c in transform_calls] == [derive_seed(123, "transform", t) for t in range(4)]
    assert all(size == 12 for size, _ in transform_calls)
    # one batch predict call per fold, over exactly that fold's test rows
    assert predicted_sizes == [int((folds.fold_of == t).sum()) for t in range(4)]


def test_binary_per_class_auc_symmetry(cohort):
    small = cohort.subset(range(120))
    folds = stratified_folds(small, 4, 9)
    report = cross_validate(small, make_classifier("nb"), folds)
    t_auc = report.per_class["T"]["roc_area"]
    f_auc = report.per_class["F"]["roc_area"]
    assert t_auc == pytest.approx(f_auc, abs=1e-9)
    assert report.metrics["roc_area"] == pytest.approx(t_auc, abs=1e-9)


def test_batch_predictions_equal_one_row_predictions(cohort):
    train, test = cohort.subset(range(200)), cohort.subset(range(200, 260))
    for name, overrides in (("mlp", {"epochs": 3}), ("j48", {}), ("nb", {})):
        spec = make_classifier(name, **overrides)
        model = spec.train(train, 5)
        batch = spec.predict(model, test)
        assert batch.shape == (len(test), 2)
        for i in range(len(test)):
            assert np.array_equal(batch[i], spec.predict(model, test.subset([i]))[0]), name


def test_single_class_dataset_has_no_roc():
    d = nominal_dataset({"a": [0, 1] * 3}, [0] * 6)
    folds = FoldAssignment(k=2, fold_of=np.array([0, 1] * 3), seed=0)
    report = cross_validate(d, _const_spec(0), folds)
    assert report.metrics["roc_area"] is None
    assert "c0:roc-undefined-single-class" in report.flags
    assert "c1:roc-undefined-single-class" in report.flags


def test_cross_validate_validation_errors():
    d = nominal_dataset({"a": [0, 1] * 4}, [0, 1] * 4)
    folds = stratified_folds(d, 2, 0)
    with pytest.raises(DataError, match="positive class"):
        cross_validate(d, _cheat_spec(), folds, positive_class="nope")
    bigger = nominal_dataset({"a": [0, 1] * 5}, [0, 1] * 5)
    with pytest.raises(DataError, match="does not match"):
        cross_validate(bigger, _cheat_spec(), folds)


def test_cross_validate_refuses_a_missing_cell():
    d = nominal_dataset({"a": [0, 1] * 4}, [0, 1] * 4)
    rows = d.rows()
    rows[5] = (None, rows[5][1])
    holed = Dataset.from_rows(d.schema, rows)
    with pytest.raises(DataError, match="impute it first"):
        cross_validate(holed, make_classifier("nb"), stratified_folds(holed, 2, 0))


def test_learners_refuse_a_missing_cell():
    schema = [
        AttributeSchema("a", "nominal", ("x", "y")),
        AttributeSchema("n", "numeric"),
        AttributeSchema("cls", "nominal", ("c0", "c1"), role="class"),
    ]
    d = Dataset.from_rows(schema, [(0, 1.0, 0), (1, 2.0, 0), (1, 3.0, 1), (0, 4.0, 1),
                                   (1, 1.0, 0)])
    for name in CLASSIFIER_NAMES:
        spec = make_classifier(name, **({"epochs": 1} if name == "mlp" else {}))
        model = spec.train(d, 0)
        for row in ((None, 1.0, 0), (1, None, 0)):
            holed = Dataset.from_rows(schema, [*d.rows()[:4], row])
            with pytest.raises(DataError, match="impute it first"):
                spec.predict(model, holed)
            with pytest.raises(DataError, match="impute it first"):
                spec.train(holed, 0)


# -- classifier registry ---------------------------------------------------------------


def test_make_classifier_configs_and_errors():
    nb = make_classifier("nb")
    assert nb.config == {}
    j48 = make_classifier("j48", min_leaf_instances=5, pruning=False)
    assert j48.config["min_leaf_instances"] == 5
    assert j48.config["pruning"] is False
    mlp = make_classifier("mlp", epochs=10, hidden_sizes=(4,))
    assert mlp.config["epochs"] == 10
    assert mlp.config["hidden_sizes"] == [4]
    assert "derived per fold" in mlp.config["seed_policy"]
    with pytest.raises(DataError, match="unknown classifier"):
        make_classifier("svm")
    with pytest.raises(DataError, match="no overrides"):
        make_classifier("nb", alpha=1.0)
    with pytest.raises(DataError, match="derived per fold"):
        make_classifier("mlp", seed=3)


def test_mlp_spec_derives_fold_seeds():
    d = nominal_dataset({"a": [0, 1] * 10, "b": [0, 0, 1, 1] * 5}, [0, 1] * 10)
    folds = stratified_folds(d, 2, 400)
    spec = make_classifier("mlp", epochs=2, hidden_sizes=(2,))
    r1 = cross_validate(d, spec, folds)
    r2 = cross_validate(d, spec, folds)
    assert r1.metrics == r2.metrics
    assert r1.fold_accuracies == r2.fold_accuracies


# -- reports and rendering ----------------------------------------------------------


def test_report_serializes_to_json():
    d = nominal_dataset({"a": [0, 1] * 6}, [0, 1] * 6, class_values=("T", "F"))
    folds = stratified_folds(d, 3, 1)
    report = cross_validate(d, make_classifier("j48"), folds)
    doc = report.to_json_dict()
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["classifier"] == "j48"
    assert back["display_name"] == "J48"
    assert set(back["confusion"]) == {"tp", "fn", "fp", "tn"}
    assert len(back["fold_accuracies"]) == 3
    assert back["n_instances"] == 12


def test_render_markdown_and_csv():
    d = nominal_dataset({"a": [0, 1] * 6}, [0, 1] * 6, class_values=("T", "F"))
    folds = stratified_folds(d, 3, 1)
    report = cross_validate(d, _cheat_spec(), folds)
    md = render_markdown([report])
    lines = md.splitlines()
    assert lines[0] == "| Performance metric | cheat |"
    assert lines[1] == "| --- | ---: |"
    assert lines[2] == "| Correctly Classified | 100.0 |"
    assert lines[3] == "| MAE | 0.0 |"
    assert lines[-1] == "| ROC Area | 100.0 |"
    csv_text = render_csv([report])
    rows = csv_text.splitlines()
    assert rows[0] == "metric,cheat"
    assert rows[1] == "Correctly Classified,100.0"
    assert rows[-1] == "ROC Area,100.0"


def test_render_handles_undefined_metrics():
    d = nominal_dataset({"a": [0, 1] * 3}, [0] * 6)
    folds = FoldAssignment(k=2, fold_of=np.array([0, 1] * 3), seed=0)
    report = cross_validate(d, _const_spec(0), folds)
    md = render_markdown([report])
    assert "| ROC Area | n/a |" in md
    assert "| RAE | n/a |" in md
