"""Stratified cross-validation and the full scoring suite.

The math layer (confusion metrics, error measures, ROC) works in unitless
fractions; EvaluationReport scales everything to percentages for display,
matching how the benchmark table is read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Iterable

import numpy as np

from .dataset import DataError, Dataset, require_complete
from .decision_tree import TreeConfig, train_tree, tree_predict
from .mlp import MlpConfig, mlp_predict, train_mlp, train_mlps
from .naive_bayes import nb_predict, train_nb
from .seeds import derive_seed

CLASSIFIER_NAMES = ("mlp", "j48", "nb")

DISPLAY_NAMES = {"mlp": "MLP", "j48": "J48", "nb": "Naive Bayes"}

# report rows in presentation order: (metrics key, display label)
METRIC_LABELS = (
    ("correctly_classified", "Correctly Classified"),
    ("mean_absolute_error", "MAE"),
    ("root_mean_squared_error", "RMSE"),
    ("relative_absolute_error", "RAE"),
    ("root_relative_squared_error", "RRSE"),
    ("tp_rate", "TP Rate"),
    ("fp_rate", "FP Rate"),
    ("precision", "Precision"),
    ("recall", "Recall"),
    ("f_measure", "F-Measure"),
    ("roc_area", "ROC Area"),
)


# -- confusion matrix ---------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts for one designated positive class."""

    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    @classmethod
    def from_predictions(cls, actual_positive, predicted_positive) -> "ConfusionMatrix":
        a = np.asarray(actual_positive, dtype=bool)
        p = np.asarray(predicted_positive, dtype=bool)
        if a.shape != p.shape:
            raise DataError("actual and predicted masks must align")
        return cls(
            tp=int((a & p).sum()),
            fn=int((a & ~p).sum()),
            fp=int((~a & p).sum()),
            tn=int((~a & ~p).sum()),
        )


def _ratio(num: int, den: int, key: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(f"{key}-undefined-zero-denominator")
        return 0.0
    return num / den


def confusion_metrics(cm: ConfusionMatrix) -> dict:
    """Ratio metrics of a confusion matrix, as fractions in [0, 1].

    Zero-denominator cases report 0.0 and add a note to the "flags" list.
    recall, tp_rate, and sensitivity are the same number by definition.
    """
    flags: list[str] = []
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    tp_rate = _ratio(cm.tp, cm.tp + cm.fn, "tp_rate", flags)
    precision = _ratio(cm.tp, cm.tp + cm.fp, "precision", flags)
    recall = tp_rate
    pr = precision + recall
    if pr == 0:
        flags.append("f_measure-undefined-zero-denominator")
        f_measure = 0.0
    else:
        f_measure = 2.0 * precision * recall / pr
    return {
        "accuracy": (cm.tp + cm.tn) / cm.total,
        "tp_rate": tp_rate,
        "fp_rate": _ratio(cm.fp, cm.fp + cm.tn, "fp_rate", flags),
        "precision": precision,
        "recall": recall,
        "sensitivity": tp_rate,
        "specificity": _ratio(cm.tn, cm.tn + cm.fp, "specificity", flags),
        "f_measure": f_measure,
        "flags": flags,
    }


# -- probability error measures ------------------------------------------------


def error_measures(predicted: np.ndarray, actual: np.ndarray) -> dict:
    """Absolute and squared error measures over probability matrices.

    predicted and actual are (instances, classes); actual is one-hot. The
    mean and relative measures run over every instance-class cell, with
    the relative ones normalized by a predictor that always answers the
    per-class mean of the actuals. All values are fractions; rae and rrse
    are None (and flagged) when the actuals are constant per class.
    """
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 2 or p.shape[0] == 0:
        raise DataError("predicted and actual must be equal non-empty 2-d shapes")
    flags: list[str] = []
    diff = p - a
    mae = float(np.abs(diff).mean())
    rmse = float(np.sqrt((diff * diff).mean()))
    abar = a.mean(axis=0)
    base = a - abar
    den_abs = float(np.abs(base).sum())
    den_sq = float((base * base).sum())
    if den_abs > 0:
        rae = float(np.abs(diff).sum() / den_abs)
    else:
        rae = None
        flags.append("rae-undefined-constant-actuals")
    if den_sq > 0:
        rrse = float(np.sqrt((diff * diff).sum() / den_sq))
    else:
        rrse = None
        flags.append("rrse-undefined-constant-actuals")
    return {
        "mean_absolute_error": mae,
        "root_mean_squared_error": rmse,
        "relative_absolute_error": rae,
        "root_relative_squared_error": rrse,
        "flags": flags,
    }


# -- ROC -----------------------------------------------------------------------


def roc_auc(scores, positive) -> float:
    """Area under the ROC curve of scores for the positive class.

    The threshold sweep descends through distinct score values, moving
    tied instances as one group, from (0, 0) to (1, 1); the area is the
    trapezoidal integral, which credits ties with half weight exactly like
    rank counting.
    """
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(positive, dtype=bool)
    if s.shape != pos.shape or s.ndim != 1 or s.size == 0:
        raise DataError("scores and labels must be equal non-empty 1-d shapes")
    n_pos = int(pos.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs at least one positive and one negative instance")
    if not np.isfinite(s).all():
        raise DataError("ROC scores must be finite")
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    # the last rank of each group of tied scores (Fawcett 2006, Alg. 2)
    ends = np.append(np.nonzero(ranked[1:] != ranked[:-1])[0], s.size - 1)
    tp = np.cumsum(pos[order])[ends]
    tpr = np.concatenate(([0.0], tp / n_pos))
    fpr = np.concatenate(([0.0], (ends + 1 - tp) / n_neg))
    terms = (fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0
    # cumsum adds in order, as a running total would; np.sum adds pairwise
    return float(np.cumsum(terms)[-1])


# -- folds ----------------------------------------------------------------------


@dataclass(frozen=True)
class FoldAssignment:
    """Which fold each instance belongs to."""

    k: int
    fold_of: np.ndarray
    seed: int

    def test_indices(self, t: int) -> np.ndarray:
        return np.nonzero(self.fold_of == t)[0]

    def train_indices(self, t: int) -> np.ndarray:
        return np.nonzero(self.fold_of != t)[0]


def stratified_folds(d: Dataset, k: int, seed: int) -> FoldAssignment:
    """Assign instances to k folds, stratified by class.

    Each class's instances are shuffled with the seeded RNG (classes in
    declaration order share one RNG) and dealt round-robin, so per-fold
    class counts differ from exact proportionality by at most one.
    """
    n = len(d)
    if k < 2 or k > n:
        raise DataError(f"fold count {k} out of range for {n} instances")
    y = d.class_codes()
    counts = np.bincount(y, minlength=len(d.class_labels))
    if (counts == 0).any():
        missing = d.class_labels[int(np.argmin(counts))]
        raise DataError(f"class {missing!r} has no instances to stratify")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    for c in range(len(d.class_labels)):
        idx = np.nonzero(y == c)[0]
        shuffled = idx[rng.permutation(idx.size)]
        fold_of[shuffled] = np.arange(idx.size) % k
    return FoldAssignment(k=k, fold_of=fold_of, seed=seed)


# -- classifier plumbing ----------------------------------------------------------


@dataclass(frozen=True)
class ClassifierSpec:
    """A trainable classifier: a name, train/predict functions, and its config.

    train takes (dataset, seed) and returns an opaque model; predict takes
    (model, dataset) and returns class probabilities of shape (rows,
    classes), classes in declaration order. Seeds are ignored by
    deterministic learners. train_folds, when set, trains all folds in one
    call: (training tables, read once in order; seeds) -> models.
    """

    name: str
    train: Callable[[Dataset, int], Any]
    predict: Callable[[Any, Dataset], np.ndarray]
    config: dict = field(default_factory=dict)
    train_folds: Callable[[Iterable[Dataset], list[int]], Iterable[Any]] | None = None


def make_classifier(name: str, **overrides) -> ClassifierSpec:
    """Build one of the benchmark classifiers: "mlp", "j48", or "nb".

    Keyword overrides feed the classifier's config dataclass. The network's
    seed is not an override: each cross-validation fold derives its own.
    """
    if name == "nb":
        if overrides:
            raise DataError(f"nb takes no overrides, got {sorted(overrides)}")
        return ClassifierSpec(
            name="nb",
            train=lambda d, seed: train_nb(d),
            predict=nb_predict,
            config={},
        )
    if name == "j48":
        cfg = TreeConfig(**overrides)
        return ClassifierSpec(
            name="j48",
            train=lambda d, seed: train_tree(d, cfg),
            predict=tree_predict,
            config=asdict(cfg),
        )
    if name == "mlp":
        if "seed" in overrides:
            raise DataError("the network seed is derived per fold, not configured")
        base = MlpConfig(**overrides)
        config = asdict(base)
        del config["seed"]
        config["hidden_sizes"] = list(base.hidden_sizes) if base.hidden_sizes else None
        config["seed_policy"] = "derived per fold from the fold seed"
        return ClassifierSpec(
            name="mlp",
            train=lambda d, seed: train_mlp(d, replace(base, seed=seed)),
            predict=mlp_predict,
            config=config,
            train_folds=lambda tables, seeds: train_mlps(
                tables, [replace(base, seed=seed) for seed in seeds]),
        )
    raise DataError(f"unknown classifier {name!r}; expected one of {CLASSIFIER_NAMES}")


# -- cross-validation --------------------------------------------------------------


@dataclass(frozen=True)
class EvaluationReport:
    """Pooled cross-validation scores for one classifier.

    metrics holds the eleven report rows in percent scale (None when a
    relative error measure is undefined). per_class holds the same ratio
    metrics computed with each class as the positive one, plus support.
    cva is the mean of the per-fold accuracies; correctly_classified in
    metrics is the pooled accuracy over all instances.
    """

    classifier: str
    n_instances: int
    n_folds: int
    positive_class: str
    metrics: dict
    per_class: dict
    confusion: ConfusionMatrix
    fold_accuracies: tuple[float, ...]
    cva: float
    flags: tuple[str, ...]
    config: dict = field(default_factory=dict)

    @property
    def display_name(self) -> str:
        return DISPLAY_NAMES.get(self.classifier, self.classifier)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "display_name": self.display_name}


def _pct(v):
    return None if v is None else 100.0 * v


def cross_validate(d: Dataset, spec: ClassifierSpec, folds: FoldAssignment,
                   positive_class: str | None = None,
                   train_transform: Callable[[Dataset, int], Dataset] | None = None,
                   ) -> EvaluationReport:
    """Train and score a classifier under an existing fold assignment.

    Predictions are pooled over all folds before the confusion, error,
    and ROC measures are computed; per-fold accuracies feed the CVA mean.
    Per-fold training seeds derive from (folds.seed, "train", name, fold).
    train_transform, when given, maps (training subset, derived seed) to
    the dataset actually trained on; test folds are never transformed.
    d must have no missing cells.
    """
    require_complete(d, "cross-validation")
    n = len(d)
    if folds.fold_of.shape[0] != n:
        raise DataError("fold assignment does not match the dataset size")
    labels = d.class_labels
    pos_label = positive_class if positive_class is not None else labels[0]
    if pos_label not in labels:
        raise DataError(f"positive class {pos_label!r} is not a class value")
    pos = labels.index(pos_label)
    y = d.class_codes()
    probs = np.zeros((n, len(labels)))
    fold_accuracies = []
    scored = [t for t in range(folds.k) if folds.test_indices(t).size]
    # maps, unlike a generator, hold no table they have handed on
    tables = map(d.subset, map(folds.train_indices, scored))
    if train_transform is not None:
        tables = map(train_transform, tables,
                     [derive_seed(folds.seed, "transform", t) for t in scored])
    seeds = [derive_seed(folds.seed, "train", spec.name, t) for t in scored]
    models = (spec.train_folds(tables, seeds) if spec.train_folds is not None
              else map(spec.train, tables, seeds))
    for t, model in zip(scored, models):
        test_idx = folds.test_indices(t)
        probs[test_idx] = spec.predict(model, d.subset(test_idx))
        if not np.isfinite(probs[test_idx]).all():
            raise DataError(f"{spec.name} gave non-finite class probabilities "
                            f"in fold {t + 1} of {folds.k}")
        predicted = probs[test_idx].argmax(axis=1)
        fold_accuracies.append(float((predicted == y[test_idx]).mean()))

    predicted_all = probs.argmax(axis=1)
    accuracy = float((predicted_all == y).mean())
    flags: list[str] = []

    cm = ConfusionMatrix.from_predictions(y == pos, predicted_all == pos)

    per_class = {}
    weighted = dict.fromkeys(["tp_rate", "fp_rate", "precision", "recall", "f_measure"], 0.0)
    weighted_auc = 0.0
    auc_defined = True
    for c, label in enumerate(labels):
        cm_c = ConfusionMatrix.from_predictions(y == c, predicted_all == c)
        m = confusion_metrics(cm_c)
        for note in m.pop("flags"):
            flags.append(f"{label}:{note}")
        support = int((y == c).sum())
        entry = {k: _pct(v) for k, v in m.items()}
        entry["support"] = support
        if support and support < n:
            entry["roc_area"] = _pct(roc_auc(probs[:, c], y == c))
        else:
            entry["roc_area"] = None
            auc_defined = False
            flags.append(f"{label}:roc-undefined-single-class")
        per_class[label] = entry
        w = support / n
        for k in weighted:
            weighted[k] += w * m[k]
        if entry["roc_area"] is not None:
            weighted_auc += w * (entry["roc_area"] / 100.0)

    err = error_measures(probs, np.eye(len(labels))[y])
    for note in err.pop("flags"):
        flags.append(note)

    metrics = {
        "correctly_classified": _pct(accuracy),
        "mean_absolute_error": _pct(err["mean_absolute_error"]),
        "root_mean_squared_error": _pct(err["root_mean_squared_error"]),
        "relative_absolute_error": _pct(err["relative_absolute_error"]),
        "root_relative_squared_error": _pct(err["root_relative_squared_error"]),
        "tp_rate": _pct(weighted["tp_rate"]),
        "fp_rate": _pct(weighted["fp_rate"]),
        "precision": _pct(weighted["precision"]),
        "recall": _pct(weighted["recall"]),
        "f_measure": _pct(weighted["f_measure"]),
        "roc_area": _pct(weighted_auc) if auc_defined else None,
    }
    return EvaluationReport(
        classifier=spec.name,
        n_instances=n,
        n_folds=folds.k,
        positive_class=pos_label,
        metrics=metrics,
        per_class=per_class,
        confusion=cm,
        fold_accuracies=tuple(100.0 * a for a in fold_accuracies),
        cva=float(100.0 * np.mean(fold_accuracies)) if fold_accuracies else 0.0,
        flags=tuple(flags),
        config=dict(spec.config),
    )


# -- rendering ----------------------------------------------------------------------


def metric_grid(reports: list[EvaluationReport]) -> list[list[str]]:
    """The report's rows: a label, then each report's value to one decimal, or n/a."""
    return [[label, *("n/a" if r.metrics.get(key) is None else f"{r.metrics[key]:.1f}"
                      for r in reports)]
            for key, label in METRIC_LABELS]


def render_markdown(reports: list[EvaluationReport]) -> str:
    """Metrics-by-classifier markdown table in the standard row order."""
    names = [r.display_name for r in reports]
    lines = [
        "| Performance metric | " + " | ".join(names) + " |",
        "| --- | " + " | ".join("---:" for _ in names) + " |",
    ]
    for row in metric_grid(reports):
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def render_csv(reports: list[EvaluationReport]) -> str:
    """Metrics-by-classifier CSV with the same cells as the markdown table."""
    rows = [["metric", *(r.display_name for r in reports)], *metric_grid(reports)]
    return "".join(",".join(row) + "\n" for row in rows)
