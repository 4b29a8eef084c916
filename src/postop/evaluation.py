"""Stratified cross-validation and the full scoring suite.

The math layer (confusion metrics, error measures, ROC) works in unitless
fractions; EvaluationReport scales everything to percentages for display,
matching how the benchmark table is read.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import tempfile
import time
from dataclasses import asdict, dataclass, field
from itertools import groupby, pairwise
from typing import Any, Callable, Iterable

import numpy as np

from .dataset import DataError, Dataset, require_complete
from .decision_tree import TreeConfig, train_tree, train_trees, tree_predict
from .mlp import WEIGHT_INIT_RANGE, MlpConfig, mlp_predict, train_mlps
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
    deterministic learners. train_folds, when set, trains many folds in one
    call: (training tables, read once in order; seeds; a split hook) -> models;
    a lock-step spec (all folds in one call, split onto idle CPUs) has train None.
    """

    name: str
    train: Callable[[Dataset, int], Any] | None
    predict: Callable[[Any, Dataset], np.ndarray]
    config: dict = field(default_factory=dict)
    train_folds: Callable[[Iterable[Dataset], list[int], Callable], Iterable[Any]] | None = None


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
            train_folds=lambda tables, seeds, split: train_trees(tables, cfg),
        )
    if name == "mlp":
        cfg = MlpConfig(**overrides)
        config = {**asdict(cfg), "hidden_sizes": list(cfg.hidden_sizes) if cfg.hidden_sizes else None,
                  "weight_init_range": WEIGHT_INIT_RANGE,
                  "seed_policy": "derived per fold from the fold seed"}
        return ClassifierSpec(
            name="mlp",
            train=None,
            predict=mlp_predict,
            config=config,
            train_folds=lambda tables, seeds, split: train_mlps(tables, cfg, seeds, split),
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


def _fold_workers() -> int:
    """How many processes cross-validate: one per CPU this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _forked(here: Callable[[], Any], others: list[Callable[[], Any]]) -> tuple[Any, list]:
    """here(), run here while each of others runs in a forked child, and the children's results:
    what each returns, pickled back, or its exit code if it ended without sending that. A
    child's exception is raised here as itself. On every path each child is killed and reaped."""
    children, codes = [], []  # (pid, read end of its pipe); exit codes once reaped
    try:
        for run in others:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(w, "wb") as pipe:
                        try:
                            pickle.dump(run(), pipe)
                        except Exception as e:
                            pickle.dump(e, pipe)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        mine, sent = here(), [pipe.read() for _, pipe in children]
    finally:  # a child that has sent everything is done, so the kill changes nothing
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    theirs = []
    for data, code in zip(sent, codes):
        try:
            out = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):  # it died, or sent only part
            out = code
        if isinstance(out, Exception):
            raise out
        theirs.append(out)
    return mine, theirs


def _lost(missing: list[tuple[str, int]], code: int) -> DataError:  # (classifier, fold) pairs
    named = " and ".join(f"{name} folds {', '.join(str(t + 1) for _, t in pairs)}"
                         for name, pairs in groupby(missing, key=lambda pair: pair[0]))
    return DataError(f"the worker for {named} ended without its results (exit code {code})")


def _splitter(spare: int, name: str, group: list[int], epochs: list[int]):
    """A `train_mlps` split hook for folds group that, in this process only, hands each byte
    waiting in the pipe spare (an idle CPU) a share of the networks, and logs the epoch."""
    caller = os.getpid()

    def split(ep, held, rest):
        if os.getpid() != caller or not select.select([spare], [], [], 0)[0]:
            return None
        epochs.append(ep)
        cpus = len(os.read(spare, len(held) - 1))
        shares = list(pairwise(len(held) * i // (cpus + 1) for i in range(cpus + 2)))
        mine, theirs = _forked(lambda: rest(*shares[0]), [lambda s=s: rest(*s) for s in shares[1:]])
        for (a, b), out in zip(shares[1:], theirs):
            if isinstance(out, int):
                raise _lost([(name, group[h]) for h in sorted(held[a:b])], out)
        return [*mine, *(model for models in theirs for model in models)]

    return split


def cross_validate_all(d: Dataset, specs: list[ClassifierSpec], folds: FoldAssignment,
                       positive_class: str | None = None,
                       train_transform: Callable[[Dataset, int], Dataset] | None = None):
    """Train and score classifiers under an existing fold assignment: (a report for each, schedule).

    Predictions are pooled over all folds before the confusion, error,
    and ROC measures are computed; per-fold accuracies feed the CVA mean.
    Per-fold training seeds derive from (folds.seed, "train", name, fold).
    train_transform, when given, maps (training subset, derived seed) to
    the dataset actually trained on; test folds are never transformed.
    d must have no missing cells. This process runs each lock-step spec's
    folds as one item, then pulls the other specs' folds, one run per worker, from
    one queue, as do forked children, one per other usable CPU; a CPU left idle goes
    to the lock-step (`_splitter`). The schedule is (workers, busy_seconds, split_epochs).
    """
    require_complete(d, "cross-validation")
    n = len(d)
    if folds.fold_of.shape[0] != n:
        raise DataError("fold assignment does not match the dataset size")
    labels = d.class_labels
    pos_label = positive_class if positive_class is not None else labels[0]
    if pos_label not in labels:
        raise DataError(f"positive class {pos_label!r} is not a class value")
    scored = [t for t in range(folds.k) if folds.test_indices(t).size]
    workers = _fold_workers()
    shares = [s.tolist() for s in np.array_split(scored, workers) if s.size]  # one per worker
    lock_step = [(spec, scored) for spec in specs if spec.train is None]
    items = lock_step + [(spec, share) for spec in specs if spec.train for share in shares]
    children = min(workers - 1, len(items) - max(len(lock_step), 1))  # this process pulls too
    splits = {spec.name: [] for spec, _ in lock_step}

    def run(i: int) -> tuple[list[np.ndarray], float]:
        spec, group = items[i]
        start = time.perf_counter()
        # maps, unlike a generator, hold no table they have handed on
        tables = map(d.subset, map(folds.train_indices, group))
        if train_transform is not None:
            tables = map(train_transform, tables,
                         [derive_seed(folds.seed, "transform", t) for t in group])
        seeds = [derive_seed(folds.seed, "train", spec.name, t) for t in group]
        models = (map(spec.train, tables, seeds) if spec.train_folds is None else
                  spec.train_folds(tables, seeds, None if spec.train or workers == 1 else
                                   _splitter(spare, spec.name, group, splits[spec.name])))
        probs = [spec.predict(m, d.subset(folds.test_indices(t))) for t, m in zip(group, models)]
        return probs, time.perf_counter() - start

    def pull() -> dict:
        done = {}
        while index := os.read(queue.fileno(), 4):  # each read takes the next index
            done[i] = run(i := int.from_bytes(index, "little"))
        os.write(spare_w, b".")  # this CPU is free for the lock-step, if that still runs
        return done

    spare, spare_w = os.pipe()  # a byte for each CPU free to take a share of the lock-step
    # the queue is a file: unlike a pipe, it holds any number of indices before anyone reads
    with open(spare, "rb", 0), open(spare_w, "wb", 0), tempfile.TemporaryFile(buffering=0) as queue:
        queue.write(np.arange(len(lock_step), len(items), dtype="<u4").tobytes())
        queue.seek(0)
        os.write(spare_w, b"." * (workers - 1 - children))
        mine, theirs = _forked(lambda: {i: run(i) for i in range(len(lock_step))} | pull(),
                               [pull] * children)
    mine |= {i: out[i] for out in theirs if isinstance(out, dict) for i in out}
    if missing := [(s.name, t) for i, (s, g) in enumerate(items) if i not in mine for t in g]:
        raise _lost(missing, next(code for code in theirs if isinstance(code, int)))
    ran = {spec.name: [mine[i] for i, (s, _) in enumerate(items) if s is spec] for spec in specs}
    busy = {name: sum(seconds for _, seconds in runs) for name, runs in ran.items()}
    return ([_score(d, spec, folds, scored, ran[spec.name], pos_label) for spec in specs],
            {"workers": workers, "busy_seconds": busy, "split_epochs": splits})


def cross_validate(d, spec, folds, positive_class=None, train_transform=None) -> EvaluationReport:
    """`cross_validate_all` for one classifier."""
    return cross_validate_all(d, [spec], folds, positive_class, train_transform)[0][0]


def _score(d, spec, folds, scored, runs, pos_label) -> EvaluationReport:
    """The report of spec from its runs' (probabilities of each fold, seconds), in fold order."""
    n, labels = len(d), d.class_labels
    y = d.class_codes()
    probs = np.zeros((n, len(labels)))
    fold_accuracies = []
    for t, fold_probs in zip(scored, (p for ps, _ in runs for p in ps)):
        test_idx = folds.test_indices(t)
        probs[test_idx] = fold_probs
        if not np.isfinite(fold_probs).all():
            raise DataError(f"{spec.name} gave non-finite class probabilities "
                            f"in fold {t + 1} of {folds.k}")
        fold_accuracies.append(float((fold_probs.argmax(axis=1) == y[test_idx]).mean()))

    predicted = probs.argmax(axis=1)
    tables = [ConfusionMatrix.from_predictions(y == c, predicted == c) for c in range(len(labels))]
    flags, per_class = [], {}
    # each row averaged over the classes, weighted by support; one undefined ROC makes it None
    weighted = dict.fromkeys(["tp_rate", "fp_rate", "precision", "recall", "f_measure",
                              "roc_area"], 0.0)
    for c, (label, cm) in enumerate(zip(labels, tables)):
        m = confusion_metrics(cm)
        flags += [f"{label}:{note}" for note in m.pop("flags")]
        support = cm.tp + cm.fn
        roc = _pct(roc_auc(probs[:, c], y == c)) if 0 < support < n else None
        if roc is None:
            flags.append(f"{label}:roc-undefined-single-class")
        per_class[label] = {**{k: _pct(v) for k, v in m.items()}, "support": support, "roc_area": roc}
        m["roc_area"] = None if roc is None else roc / 100.0  # summed from the percentage, as pinned
        weighted = {k: None if v is None or m[k] is None else v + support / n * m[k]
                    for k, v in weighted.items()}

    err = error_measures(probs, np.eye(len(labels))[y])
    flags += err.pop("flags")

    # the report rows, in METRIC_LABELS order
    metrics = {"correctly_classified": _pct(float((predicted == y).mean())),
               **{k: _pct(v) for k, v in err.items()}, **{k: _pct(v) for k, v in weighted.items()}}
    return EvaluationReport(
        classifier=spec.name,
        n_instances=n,
        n_folds=folds.k,
        positive_class=pos_label,
        metrics=metrics,
        per_class=per_class,
        confusion=tables[labels.index(pos_label)],
        fold_accuracies=tuple(100.0 * a for a in fold_accuracies),
        cva=float(100.0 * np.mean(fold_accuracies)),
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
