"""Tree induction against hand-worked tables and brute-force split scoring."""

from statistics import NormalDist

import numpy as np
import pytest

from postop.cli import main
from postop.dataset import AttributeSchema, DataError, Dataset, to_arff
from postop.decision_tree import (
    GAIN_EPS,
    TreeConfig,
    TreeNode,
    _added_errors,
    _nodes,
    _scan,
    _Trainer,
    format_tree,
    gain_ratio,
    rules_predict,
    train_tree,
    tree_predict,
    tree_to_rules,
)

from conftest import (
    TESTS_DIR,
    fig_dataset,
    nominal_dataset,
    query,
    random_mixed_dataset,
    time_limit,
)
from oracles import (
    best_threshold_split,
    gain_of_partition,
    gain_ratio_nominal,
    gain_ratio_numeric,
    split_info_of_partition,
)

Z = NormalDist().inv_cdf(0.75)


def _numeric_dataset(values, labels, name="x"):
    schema = [
        AttributeSchema(name, "numeric"),
        AttributeSchema("cls", "nominal", ("c0", "c1"), role="class"),
    ]
    return Dataset.from_rows(schema, zip(values, labels))


def _leaf_count(t):
    return sum(n.is_leaf for n in _nodes(t))


def _antecedents(rules):
    """Each rule's conditions as (attribute, op, value) triples."""
    return [[(c.attribute, c.op, c.value) for c in r.antecedent] for r in rules]


# -- split scoring -------------------------------------------------------------


def test_gain_ratio_of_perfect_binary_attribute_is_one():
    d = nominal_dataset({"a": [0, 0, 1, 1]}, [0, 0, 1, 1])
    assert gain_ratio(d, "a") == pytest.approx(1.0)


def test_gain_ratio_matches_oracle_on_random_tables():
    rng = np.random.default_rng(5150)
    # mixed tables, nominal-only ones with domains of up to 9 values, numeric-only ones
    for shape in [(2, 1, 3), (2, 0, 9), (0, 2, 3)]:
        for _ in range(60):
            d = random_mixed_dataset(rng, int(rng.integers(4, 16)), *shape)
            y = list(d.class_codes())
            rows = d.rows()
            for ai in d.predictor_indices:
                col = [row[ai] for row in rows]
                if d.schema[ai].kind == "nominal":
                    expected = gain_ratio_nominal(col, y)
                else:
                    expected = gain_ratio_numeric(col, y)
                got = gain_ratio(d, d.schema[ai].name)
                if expected is None:
                    assert got is None
                else:
                    assert got == pytest.approx(expected, abs=1e-10)


def _table(columns, labels, domains):
    """Table of the given columns in order: nominal where domains gives a size, else numeric."""
    schema = [AttributeSchema(f"a{j}", "nominal", tuple(f"v{i}" for i in range(size)))
              if size else AttributeSchema(f"a{j}", "numeric") for j, size in enumerate(domains)]
    schema.append(AttributeSchema("cls", "nominal", ("c0", "c1"), role="class"))
    return Dataset.from_rows(schema, [(*row, y) for row, y in zip(zip(*columns), labels)])


def test_scan_matches_oracles_at_random_nodes():
    # a 9-value attribute (numpy sums 8 or more terms pairwise), values absent
    # from the node, attributes with one observed value, and tables with only
    # nominal or only numeric predictors
    rng = np.random.default_rng(2718)
    for domains in [(9, None, 2, None, 4), (9, 3, 2), (None, None, None)] * 20:
        n = int(rng.integers(10, 50))
        columns = [(rng.integers(0, size, n) if size else rng.integers(0, 6, n) / 2).tolist()
                   for size in domains]
        if rng.random() < 0.3:
            columns[-1] = [columns[-1][0]] * n
        labels = rng.integers(0, 2, n).tolist()
        trainer = _Trainer(_table(columns, labels, domains), TreeConfig())
        idx = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        y = [labels[i] for i in idx]
        counts = np.bincount(y, minlength=2).astype(float)
        gains, infos, thresholds, tables = _scan(
            trainer.keys[idx], trainer.width, trainer.values[idx], trainer.y[idx], counts)
        for k, ai in enumerate(trainer.attrs):
            col = [columns[ai][i] for i in idx]
            if domains[ai]:
                threshold = None
                groups = [[i for i, v in enumerate(col) if v == code]
                          for code in range(domains[ai])]
            else:
                threshold, _, groups = best_threshold_split(col, y) or (None, None, [])
            if sum(map(bool, groups)) < 2:  # not a candidate
                assert not (gains[k] > GAIN_EPS and infos[k] > 0.0)
                continue
            assert thresholds[k] == threshold
            assert tables[k][:len(groups)].tolist() == [[sum(y[i] == c for i in g) for c in (0, 1)]
                                                        for g in groups]
            assert gains[k] == pytest.approx(gain_of_partition(y, groups), abs=1e-12)
            assert infos[k] == pytest.approx(split_info_of_partition(len(y), groups), abs=1e-12)


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)])
def test_identical_columns_tie_and_the_earlier_attribute_splits(order):
    # a nominal column, a numeric one, and a copy of each; the first table
    # parts its classes exactly, so all four tie at gain ratio 1 and the
    # earliest in schema order must take the root. In the noisy one each copy
    # ties with its original at every node, and no node may pick the copy.
    rng = np.random.default_rng(77)
    for labels in ([0, 0, 1, 1, 0, 1], rng.integers(0, 2, 80).tolist()):
        n = len(labels)
        nominal = labels if n == 6 else rng.integers(0, 3, n).tolist()
        numeric = [float(v) for v in labels] if n == 6 else (rng.integers(0, 8, n) / 2).tolist()
        base = [(nominal, 3), (numeric, None), (nominal, 3), (numeric, None)]
        picked = [base[j] for j in order]
        d = _table([c for c, _ in picked], labels, [size for _, size in picked])
        earlier = {j: min(k for k in range(4) if order[k] % 2 == order[j] % 2) for j in range(4)}
        t = train_tree(d, TreeConfig(min_leaf_instances=1, pruning=False))
        if n == 6:
            assert t.attr_index == 0 and _leaf_count(t) in (2, 3)
        splits = [node.attr_index for node in _nodes(t) if not node.is_leaf]
        assert splits and all(earlier[ai] == ai for ai in splits)


def test_gain_ratio_degenerate_cases():
    d = nominal_dataset({"a": [0, 0, 0, 0]}, [0, 0, 1, 1], domains={"a": 2})
    assert gain_ratio(d, "a") is None
    with pytest.raises(DataError, match="class"):
        gain_ratio(d, "cls")


def test_numeric_threshold_is_midpoint_lowest_on_ties():
    # thresholds 1.5 and 3.5 tie on gain; the lower one must win
    d = _numeric_dataset([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1])
    t = train_tree(d, TreeConfig(pruning=False))
    assert t.attr_index == 0
    assert t.threshold == pytest.approx(1.5)
    assert t.children[0].is_leaf
    assert t.children[0].counts.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("a, b", [(1 + 2**-52, 1 + 2**-51), (1e308, 1.7e308)])
def test_threshold_between_adjacent_or_huge_values_parts_them(a, b, tmp_path, capsys):
    # (a + b) / 2 rounds up to b for adjacent doubles and overflows to inf
    # for huge ones; either way one child got every row and growth never ended
    d = _numeric_dataset([a, a, b, b] * 2, [0, 0, 1, 1] * 2)
    path = tmp_path / "close.arff"
    path.write_text(to_arff(d))
    with time_limit(20):
        t = train_tree(d, TreeConfig(pruning=False))
        code = main(["bench", "--data", str(path), "--seed", "1", "--classifiers", "j48",
                     "--no-smote", "--folds", "2", "--out", str(tmp_path / "out")])
    assert a <= t.threshold < b
    assert [c.counts.tolist() for c in t.children] == [[4.0, 0.0], [0.0, 4.0]]
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


# -- growth on the hand-worked table -------------------------------------------


def test_mean_gain_filter_yields_known_structure():
    d = fig_dataset()
    ratios = {name: gain_ratio(d, name) for name in ("S1", "S2", "S3")}
    assert ratios["S1"] == pytest.approx(0.17095 / 1.52193, abs=1e-4)
    assert ratios["S2"] == pytest.approx(0.12451, abs=1e-4)
    assert ratios["S3"] == pytest.approx(ratios["S2"], abs=1e-12)
    # S1 has a lower ratio than S2/S3 but is the only attribute whose
    # gain reaches the mean gain, so it must take the root
    t = train_tree(d)
    assert t.attr_index == d.attribute_index("S1")
    assert t.children[0].attr_index == d.attribute_index("S2")
    assert t.children[1].attr_index == d.attribute_index("S3")
    assert t.children[2].is_leaf
    assert _leaf_count(t) == 5


def test_known_tree_rules_and_rendering():
    d = fig_dataset()
    t = train_tree(d)
    rules = tree_to_rules(t)
    assert [r.consequent for r in rules] == [("d", v) for v in ("1", "0", "1", "0", "1")]
    assert _antecedents(rules) == [
        [("S1", "=", "v11"), ("S2", "=", "v21")],
        [("S1", "=", "v11"), ("S2", "=", "v22")],
        [("S1", "=", "v12"), ("S3", "=", "v31")],
        [("S1", "=", "v12"), ("S3", "=", "v32")],
        [("S1", "=", "v13")],
    ]
    assert format_tree(t) == "\n".join(
        [
            "S1 = v11",
            "|   S2 = v21: d = 1 (2/0)",
            "|   S2 = v22: d = 0 (0/2)",
            "S1 = v12",
            "|   S3 = v31: d = 1 (2/0)",
            "|   S3 = v32: d = 0 (0/2)",
            "S1 = v13: d = 1 (2/0)",
        ]
    )


def test_rules_agree_with_tree_on_whole_instance_space():
    d = fig_dataset()
    t = train_tree(d)
    rules = tree_to_rules(t)
    grid = query(d, *[(a, b, c, 0) for a in range(3) for b in range(2) for c in range(2)])
    assert rules_predict(rules, grid).tolist() == tree_predict(t, grid).argmax(axis=1).tolist()


def test_rules_require_complete_instances():
    d = fig_dataset()
    rules = tree_to_rules(train_tree(d))
    with pytest.raises(DataError, match="no rule matched instance 1"):
        rules_predict(rules, query(d, (0, 0, 0, 0), (None, 0, 0, 0)))


@pytest.mark.parametrize("name, cfg", [
    ("default", TreeConfig()),
    ("no_pruning", TreeConfig(pruning=False)),
    ("min_leaf_1", TreeConfig(min_leaf_instances=1)),
])
def test_cohort_tree_text_is_pinned(cohort, name, cfg):
    # captured from the per-attribute split search these scans replaced
    expected = (TESTS_DIR / "data" / f"cohort_tree_{name}.txt").read_text()
    assert format_tree(train_tree(cohort, cfg)) + "\n" == expected


# -- stopping and fallback behavior ---------------------------------------------


def test_pure_node_is_a_leaf():
    d = nominal_dataset({"a": [0, 1, 0, 1]}, [0, 0, 0, 0])
    t = train_tree(d)
    assert t.is_leaf
    assert t.prediction == 0


def test_small_node_stops_before_splitting():
    d = nominal_dataset({"a": [0, 1, 1]}, [0, 1, 1])
    assert train_tree(d, TreeConfig(min_leaf_instances=2)).is_leaf
    assert not train_tree(d, TreeConfig(min_leaf_instances=1, pruning=False)).is_leaf


def test_empty_branch_predicts_uniformly():
    d = nominal_dataset({"a": [0, 0, 1, 1]}, [0, 0, 1, 1], domains={"a": 3})
    t = train_tree(d, TreeConfig(pruning=False))
    assert not t.is_leaf
    empty = t.children[2]
    assert empty.is_leaf and empty.counts.tolist() == [0.0, 0.0]
    assert empty.prediction == 0
    p = tree_predict(t, query(d, (2, 0)))
    assert p.tolist() == [[0.5, 0.5]]


def test_leaf_probabilities_are_smoothed_counts():
    d = nominal_dataset({"a": [0] * 10}, [0] * 8 + [1] * 2, domains={"a": 2})
    t = train_tree(d)
    assert t.is_leaf
    assert tree_predict(t, d.subset([0]))[0].tolist() == pytest.approx([0.75, 0.25])


def test_training_rejects_missing_values_and_empty_data():
    d = nominal_dataset({"a": [0, 1]}, [0, 1])
    with pytest.raises(DataError, match="missing"):
        train_tree(query(d, (None, 0), (1, 1)))
    with pytest.raises(DataError, match="empty"):
        train_tree(d.subset([]))


def test_training_indices_route_back_to_their_leaf():
    # growth and prediction route alike: the rows a leaf was grown from are
    # exactly the training rows that walk down to it
    rng = np.random.default_rng(9)
    for d in (fig_dataset(), random_mixed_dataset(rng, 40, n_nominal=2, n_numeric=2)):
        t = train_tree(d, TreeConfig(pruning=False))
        routed = {}
        for row, y in zip(d.rows(), d.class_codes()):
            node = t
            while not node.is_leaf:
                v = row[node.attr_index]
                if node.threshold is not None:
                    node = node.children[0 if v <= node.threshold else 1]
                else:
                    node = node.children[v]
            routed.setdefault(id(node), np.zeros_like(node.counts))[y] += 1
        leaves, stack = [], [t]
        while stack:
            node = stack.pop()
            stack.extend(node.children or ())
            if node.is_leaf:
                leaves.append(node)
        assert len(leaves) == _leaf_count(t)
        for leaf in leaves:
            expected = routed.get(id(leaf), np.zeros_like(leaf.counts))
            assert leaf.counts.tolist() == expected.tolist()


# -- pruning ---------------------------------------------------------------------


def test_added_errors_formula():
    assert _added_errors(2.0, 0.0, 0.25, Z) == pytest.approx(1.0)
    # frozen values cross-checked by numerically inverting the binomial bound
    assert _added_errors(10.0, 4.0, 0.25, Z) == pytest.approx(1.5597578, abs=1e-6)
    assert _added_errors(6.0, 2.0, 0.25, Z) == pytest.approx(1.3213257, abs=1e-6)
    # above half confidence the bound adds nothing
    assert _added_errors(10.0, 3.0, 0.6, Z) == 0.0
    # nearly all wrong: capped at the remaining instances
    assert _added_errors(4.0, 3.8, 0.25, Z) == pytest.approx(0.2)
    # fractional errors below one interpolate between the e=0 and e=1 bounds
    lo = _added_errors(4.0, 0.0, 0.25, Z)
    hi = _added_errors(4.0, 1.0, 0.25, Z)
    assert _added_errors(4.0, 0.5, 0.25, Z) == pytest.approx(lo + 0.5 * (hi - lo))


def test_pruning_keeps_a_clean_split():
    # three pure branches: subtree estimate 3.0 beats the root leaf estimate
    d = nominal_dataset({"a": [0, 0, 1, 1, 2, 2]}, [0, 0, 0, 0, 1, 1])
    t = train_tree(d)
    assert not t.is_leaf
    assert _leaf_count(t) == 3
    assert len(tree_to_rules(t)) == 3


def test_pruning_collapses_a_noisy_split():
    # both branches keep the majority class; the pessimistic bound prefers
    # one leaf (7.85 added-error estimate vs 8.88 for the subtree)
    labels = [0] * 4 + [1] * 2 + [0] * 6 + [1] * 4
    column = [0] * 6 + [1] * 10
    d = nominal_dataset({"a": column}, labels)
    unpruned = train_tree(d, TreeConfig(pruning=False))
    pruned = train_tree(d)
    assert _leaf_count(unpruned) == 2
    assert pruned.is_leaf
    assert pruned.prediction == 0
    assert pruned.counts.tolist() == [10.0, 6.0]


def test_pruning_never_grows_the_tree():
    rng = np.random.default_rng(31)
    for _ in range(15):
        d = random_mixed_dataset(rng, int(rng.integers(8, 40)), n_numeric=2)
        pruned = train_tree(d)
        unpruned = train_tree(d, TreeConfig(pruning=False))
        assert _leaf_count(pruned) <= _leaf_count(unpruned)


def test_deep_tree_trains_predicts_and_benches(tmp_path, capsys):
    # classes alternate in pairs along one numeric column, so each split
    # peels two rows off the end: 999 levels, past Python's recursion limit
    n = 2000
    d = _numeric_dataset([float(i) for i in range(n)], [(i // 2) % 2 for i in range(n)])
    for pruning in (False, True):
        t = train_tree(d, TreeConfig(pruning=pruning))
        depth, nodes, stack = 0, 0, [(t, 0)]
        while stack:
            node, level = stack.pop()
            depth, nodes = max(depth, level), nodes + 1
            stack.extend((child, level + 1) for child in node.children or ())
        assert depth == 999
        predicted = tree_predict(t, d).argmax(axis=1)
        assert (predicted == d.class_codes()).all()
        rules = tree_to_rules(t)
        assert len(rules) == _leaf_count(t)
        assert (rules_predict(rules, d) == predicted).all()
        assert len(format_tree(t).splitlines()) == nodes - 1
    path = tmp_path / "alternating.arff"
    path.write_text(to_arff(d))
    code = main(["bench", "--data", str(path), "--seed", "1", "--classifiers", "j48",
                 "--no-smote", "--folds", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


# -- configuration and wiring ------------------------------------------------------


def test_config_validation():
    with pytest.raises(DataError, match="min_leaf_instances"):
        TreeConfig(min_leaf_instances=0)
    with pytest.raises(DataError, match="pruning_confidence"):
        TreeConfig(pruning_confidence=0.0)
    with pytest.raises(DataError, match="pruning_confidence"):
        TreeConfig(pruning_confidence=1.0)


def test_rules_need_a_schema():
    bare = TreeNode(counts=np.array([1.0, 1.0]), prediction=0)
    with pytest.raises(DataError, match="schema"):
        tree_to_rules(bare)
    with pytest.raises(DataError, match="schema"):
        format_tree(bare)


def test_numeric_rule_rendering():
    d = _numeric_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
    t = train_tree(d)
    rules = tree_to_rules(t)
    assert _antecedents(rules) == [[("x", "<=", 2.5)], [("x", ">", 2.5)]]
    assert [r.consequent for r in rules] == [("cls", "c0"), ("cls", "c1")]
    single = tree_to_rules(train_tree(nominal_dataset({"a": [0, 1]}, [0, 0])))
    assert _antecedents(single) == [[]]
    assert [r.consequent for r in single] == [("cls", "c0")]
