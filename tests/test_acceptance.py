"""Acceptance gate: one test per published criterion, one PASS/FAIL line each.

Criteria 1 and 3 need the real clinical ARFF file, which cannot be bundled.
When it is absent they fail with instructions rather than silently skipping;
every slot the file can be dropped into is listed in the failure message.
"""

import json
import time

import numpy as np

from postop.cli import main
from postop.dataset import class_counts, impute_missing, parse_arff
from postop.decision_tree import train_tree, tree_predict
from postop.evaluation import (
    ConfusionMatrix,
    confusion_metrics,
    cross_validate,
    error_measures,
    make_classifier,
    roc_auc,
    stratified_folds,
)
from postop.mlp import MlpModel
from postop.naive_bayes import nb_predict, train_nb
from postop.resampling import SmoteConfig, smote
from postop.seeds import derive_seed

import conftest
from conftest import (
    COHORT_PATH, fig_dataset, gain_ratio, gradient_at, nominal_dataset, query,
    random_mixed_dataset, table_rows, thoracic_path,
)
from oracles import (
    auc_by_pair_counting,
    finite_difference_grads,
    gain_ratio_nominal,
    gain_ratio_numeric,
    max_relative_error,
    nb_enumerate,
    rules_predict,
    tree_to_rules,
)

MISSING_FILE_HELP = (
    "real clinical ARFF not found; drop ThoraricSurgery.arff into data/ at the "
    "repository root, or set POSTOP_THORACIC_ARFF to the file (or POSTOP_DATA_DIR "
    "to its directory). The file is the UCI 'Thoracic Surgery Data' dataset."
)


def _report(num: int, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"criterion {num:02d}: {detail}"


def _load_real():
    path = thoracic_path()
    if path is None:
        return None
    return parse_arff(path.read_text())


def _load_real_or_standin():
    d = _load_real()
    if d is not None:
        return d, "real clinical file"
    return parse_arff(COHORT_PATH.read_text()), "synthetic stand-in cohort"


def test_criterion_01_dataset_fidelity():
    d = _load_real()
    if d is None:
        _report(1, False, MISSING_FILE_HELP)
    nominal = [a.name for a in d.schema if a.kind == "nominal"]
    numeric = sorted(a.name for a in d.schema if a.kind == "numeric")
    counts = class_counts(d)
    ok = (
        len(d) == 470
        and len(d.schema) == 17
        and len(nominal) == 14
        and numeric == ["AGE", "PRE4", "PRE5"]
        and counts.get("T") == 70
        and counts.get("F") == 400
    )
    _report(1, ok, f"{len(d)} instances, {len(d.schema)} attributes "
                   f"({len(nominal)} nominal, numeric={numeric}), counts {counts}")


def test_criterion_02_smote_protocol():
    d, source = _load_real_or_standin()
    start = time.perf_counter()
    out, record = smote(d, "T", SmoteConfig(seed=derive_seed(1, "smote")))
    elapsed = time.perf_counter() - start
    counts = record.final_counts
    numeric_idx = d.numeric_predictor_indices
    originals_ok = True
    interval_ok = True
    n_original = 0
    rows, out_rows = table_rows(d), table_rows(out)
    for pos, (parent, partner) in enumerate(record.provenance.tolist()):
        if partner == -1:
            n_original += 1
            if out_rows[pos] != rows[parent]:
                originals_ok = False
        else:
            xi, xj = rows[parent], rows[partner]
            for ai in numeric_idx:
                lo = min(xi[ai], xj[ai])
                hi = max(xi[ai], xj[ai])
                if not lo <= out_rows[pos][ai] <= hi:
                    interval_ok = False
    ok = (
        counts == {"T": 560, "F": 400}
        and n_original == len(d)
        and originals_ok
        and interval_ok
        and elapsed < 1.0
    )
    _report(2, ok, f"{source}: counts {counts}, {record.synthetic_created} synthetic "
                   f"(originals verbatim: {originals_ok}, parent intervals: {interval_ok}), "
                   f"{elapsed:.2f} s")


def test_criterion_03_benchmark_reproduction():
    d = _load_real()
    if d is None:
        _report(3, False, MISSING_FILE_HELP + " Target table: accuracy MLP 82.3 / "
                "J48 81.8 / NB 74.4 (±3.0), AUC 84.7 / 82.2 / 79.2 (±4.0).")
    d = impute_missing(d, "mean-or-mode")
    targets_acc = {"mlp": 82.3, "j48": 81.8, "nb": 74.4}
    targets_auc = {"mlp": 84.7, "j48": 82.2, "nb": 79.2}
    acc = {name: [] for name in targets_acc}
    auc = {name: [] for name in targets_acc}
    start = time.perf_counter()
    for master in range(1, 11):
        rebalanced, _ = smote(d, "T", SmoteConfig(seed=derive_seed(master, "smote")))
        folds = stratified_folds(rebalanced, 10, derive_seed(master, "folds"))
        for name in targets_acc:
            report = cross_validate(rebalanced, make_classifier(name), folds,
                                    positive_class="T")
            acc[name].append(report.metrics["correctly_classified"])
            auc[name].append(report.metrics["roc_area"])
    elapsed = time.perf_counter() - start
    means_acc = {k: float(np.mean(v)) for k, v in acc.items()}
    means_auc = {k: float(np.mean(v)) for k, v in auc.items()}
    nb_worst = sum(
        acc["nb"][i] < min(acc["mlp"][i], acc["j48"][i]) for i in range(10)
    )
    ok = (
        all(abs(means_acc[k] - targets_acc[k]) <= 3.0 for k in targets_acc)
        and all(abs(means_auc[k] - targets_auc[k]) <= 4.0 for k in targets_auc)
        and nb_worst >= 9
        and elapsed < 300.0
    )
    detail = ", ".join(
        f"{k} acc {means_acc[k]:.1f} (target {targets_acc[k]}±3.0) "
        f"auc {means_auc[k]:.1f} (target {targets_auc[k]}±4.0)"
        for k in ("mlp", "j48", "nb")
    )
    _report(3, ok, f"{detail}; NB strictly worst in {nb_worst}/10 seeds; {elapsed:.0f} s")


def test_criterion_04_metric_identities():
    tol = 1e-9
    rng = np.random.default_rng(404)
    identity_ok = True
    for _ in range(50):
        tp, fn, fp, tn = (int(v) for v in rng.integers(0, 20, size=4))
        if tp + fn + fp + tn == 0 or (tp + fn) == 0:
            continue
        m = confusion_metrics(ConfusionMatrix(tp, fn, fp, tn))
        if abs(m["recall"] - m["tp_rate"]) > tol or abs(m["recall"] - m["sensitivity"]) > tol:
            identity_ok = False
    m = confusion_metrics(ConfusionMatrix(tp=4, fn=2, fp=2, tn=4))
    f_ok = abs(m["precision"] - m["recall"]) <= tol and abs(m["f_measure"] - m["precision"]) <= tol
    actual = np.eye(2)[np.array([0, 0, 1, 0, 1, 1, 0])]
    em = error_measures(np.tile(actual.mean(axis=0), (len(actual), 1)), actual)
    rae_ok = abs(100.0 * em["relative_absolute_error"] - 100.0) <= tol
    all_correct = confusion_metrics(ConfusionMatrix(tp=5, fn=0, fp=0, tn=7))
    acc_ok = abs(100.0 * all_correct["accuracy"] - 100.0) <= tol
    ok = identity_ok and f_ok and rae_ok and acc_ok
    _report(4, ok, f"recall≡tp_rate≡sensitivity {identity_ok}, F=p at P=R {f_ok}, "
                   f"mean-predictor RAE=100% {rae_ok}, all-correct accuracy=100% {acc_ok}")


def test_criterion_05_auc_oracle():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        n_pos = int(rng.integers(1, n))
        labels = np.zeros(n, dtype=bool)
        labels[:n_pos] = True
        rng.shuffle(labels)
        scores = rng.integers(0, 8, size=n) / 7.0  # gridded scores force ties
        got = roc_auc(scores, labels)
        want = auc_by_pair_counting(scores.tolist(), labels.tolist())
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    _report(5, ok, f"1000 instances (n ≤ 50, tied scores), max |trapezoid - pairs| = {worst:.2e}")


def test_criterion_06_gradient_check():
    rng = np.random.default_rng(31337)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 6)) for _ in range(depth + 1)]
        weights = [rng.normal(scale=0.7, size=(sizes[l], sizes[l + 1])) for l in range(depth)]
        biases = [rng.normal(scale=0.7, size=sizes[l + 1]) for l in range(depth)]
        model = MlpModel(tuple(sizes), weights, biases, encoding=None,
                         loss_history=np.zeros(0))
        x = rng.uniform(-1, 1, size=sizes[0])
        target = rng.uniform(0, 1, size=sizes[-1])
        _, gw, gb = gradient_at(model, x, target)
        nw, nb_grads = finite_difference_grads(weights, biases, x.tolist(), target.tolist())
        worst = max(worst, max_relative_error(gw, nw), max_relative_error(gb, nb_grads))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _report(6, ok, f"100 random networks, max relative error {worst:.2e}, {elapsed:.1f} s")


def test_criterion_07_naive_bayes_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        n_attrs = int(rng.integers(1, 4))
        n_rows = int(rng.integers(2, 10))
        domains = [int(rng.integers(2, 4)) for _ in range(n_attrs)]
        columns = {
            f"a{a}": rng.integers(0, domains[a], size=n_rows).tolist()
            for a in range(n_attrs)
        }
        labels = rng.integers(0, 2, size=n_rows).tolist()
        d = nominal_dataset(columns, labels,
                            domains={f"a{a}": domains[a] for a in range(n_attrs)})
        model = train_nb(d)
        rows = [(row[:-1], row[-1]) for row in table_rows(d)]
        asked = [tuple(int(rng.integers(0, s)) for s in domains) for _ in range(3)]
        got = nb_predict(model, query(d, *[q + (0,) for q in asked]))
        for q, p in zip(asked, got):
            want = nb_enumerate(rows, domains, 2, q)
            worst = max(worst, float(np.max(np.abs(p - np.asarray(want)))))
    ok = worst <= 1e-12
    _report(7, ok, f"100 random tiny datasets, max posterior deviation {worst:.2e}")


def test_criterion_08_tree_oracles():
    rng = np.random.default_rng(888)
    worst = 0.0
    tables = 0
    while tables < 100:
        d = random_mixed_dataset(rng, int(rng.integers(4, 16)))
        y = list(d.class_codes())
        rows = table_rows(d)
        for ai in d.predictor_indices:
            col = [row[ai] for row in rows]
            oracle = (gain_ratio_nominal if d.schema[ai].kind == "nominal"
                      else gain_ratio_numeric)(col, y)
            got = gain_ratio(d, d.schema[ai].name)
            if (oracle is None) != (got is None):
                worst = float("inf")
            elif oracle is not None:
                worst = max(worst, abs(got - oracle))
        tables += 1
    gain_ok = worst <= 1e-10

    d = fig_dataset()
    t = train_tree(d)
    rules = tree_to_rules(t)
    rules_ok = len(rules) == 5 and [r.consequent[1] for r in rules] == ["1", "0", "1", "0", "1"]
    grid = query(d, *[(a, b, c, 0) for a in range(3) for b in range(2) for c in range(2)])
    agree = bool((rules_predict(rules, grid) == tree_predict(t, grid).argmax(axis=1)).all())
    ok = gain_ok and rules_ok and agree
    _report(8, ok, f"gain_ratio max deviation {worst:.2e} over 100 tables; "
                   f"hand-worked tree gives 5 rules: {rules_ok}; "
                   f"rules ≡ tree argmax on all 12 inputs: {agree}")


def test_criterion_09_stratification():
    d, source = _load_real_or_standin()
    rebalanced, _ = smote(d, "T", SmoteConfig(seed=derive_seed(2, "smote")))
    folds = stratified_folds(rebalanced, 10, derive_seed(2, "folds"))
    y = rebalanced.class_codes()
    t_code = rebalanced.class_labels.index("T")
    per_fold = [
        ((y[folds.test_indices(t)] == t_code).sum(), (y[folds.test_indices(t)] != t_code).sum())
        for t in range(10)
    ]
    balanced = all(c == (56, 40) for c in per_fold)
    covered = np.sort(np.concatenate([folds.test_indices(t) for t in range(10)]))
    partition = covered.tolist() == list(range(len(rebalanced)))
    ok = len(rebalanced) == 960 and balanced and partition
    _report(9, ok, f"{source}: 960 instances, every fold (56 T, 40 F): {balanced}, "
                   f"folds partition the index set: {partition}")


def test_criterion_10_determinism(tmp_path, capsys):
    args = [
        "bench", "--data", str(COHORT_PATH), "--seed", "11", "--folds", "10",
        "--classifiers", "mlp,j48,nb", "--mlp-epochs", "5", "--format", "csv",
    ]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    capsys.readouterr()
    bytes_a = (tmp_path / "a" / "report.json").read_bytes()
    bytes_b = (tmp_path / "b" / "report.json").read_bytes()
    identical = bytes_a == bytes_b
    ok = code_a == 0 and code_b == 0 and identical
    doc = json.loads(bytes_a)
    _report(10, ok, f"two runs, seed 11, {len(doc['reports'])} classifiers: "
                    f"report.json byte-identical: {identical} ({len(bytes_a)} bytes)")
