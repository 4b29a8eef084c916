"""Tree induction against hand-worked tables and brute-force split scoring."""

import math
import tracemalloc
from itertools import pairwise
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postop.cli import main
from postop import decision_tree
from postop.dataset import AttributeSchema, DataError, impute_missing, parse_arff, to_arff
from postop.evaluation import stratified_folds
from postop.resampling import SmoteConfig, smote
from postop.decision_tree import (
    GAIN_EPS,
    TreeConfig,
    _added_errors,
    _ranks,
    _scan,
    _Trainer,
    format_tree,
    gain_ratio,
    train_tree,
    train_trees,
    tree_predict,
    tree_to_rules,
)

from conftest import (
    TESTS_DIR,
    fig_dataset,
    from_rows,
    nominal_dataset,
    query,
    random_mixed_dataset,
    synthetic_cohort_text,
    table_rows,
    time_limit,
    tree_nodes,
)
from oracles import (
    best_threshold_split,
    entropy_of_counts,
    gain_of_partition,
    gain_ratio_nominal,
    gain_ratio_numeric,
    prune_by_recursion,
    rules_predict,
    split_info_of_partition,
)

Z = NormalDist().inv_cdf(0.75)


def _numeric_dataset(values, labels, name="x"):
    schema = [
        AttributeSchema(name, "numeric"),
        AttributeSchema("cls", "nominal", ("c0", "c1"), role="class"),
    ]
    return from_rows(schema, zip(values, labels))


def _leaf_count(t):
    return sum(n.is_leaf for n in tree_nodes(t))


def _root(t):
    return next(tree_nodes(t))


def _by_id(t):
    """The reachable nodes of t by id."""
    return {n.id: n for n in tree_nodes(t)}


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
            rows = table_rows(d)
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


def _holed_table(hole):
    """Four complete rows of (a, n, cls) and one with hole in place of a or n."""
    schema = [
        AttributeSchema("a", "nominal", ("x", "y")),
        AttributeSchema("n", "numeric"),
        AttributeSchema("cls", "nominal", ("c0", "c1"), role="class"),
    ]
    return from_rows(schema, [(0, 1.0, 0), (1, 2.0, 0), (1, 3.0, 1), (0, 4.0, 1), hole])


def test_gain_ratio_refuses_a_missing_nominal_code():
    # numpy's bincount raised its own ValueError on the code -1
    d = _holed_table((None, 5.0, 1))
    for attribute in ("a", "n"):
        with pytest.raises(DataError, match="gain ratio needs a table with no missing cells"):
            gain_ratio(d, attribute)


def test_gain_ratio_refuses_a_missing_numeric_value():
    # a NaN was sorted last and scored as a value: the ratio came out as a number
    d = _holed_table((1, None, 1))
    for attribute in ("a", "n"):
        with pytest.raises(DataError, match="gain ratio needs a table with no missing cells"):
            gain_ratio(d, attribute)


def test_entropy_matches_a_per_vector_loop_bit_for_bit():
    # class count pairs of mixed magnitude scored as two planes, zeros and zero
    # totals included; then the split info of one nominal attribute of 1-20
    # values over many nodes, where unobserved values leave zeros in the sum
    rng = np.random.default_rng(31)
    pairs = rng.integers(0, 10 ** rng.integers(0, 6, (2000, 1)), (2000, 2))
    pairs[rng.random(pairs.shape) < 0.2] = 0
    assert (pairs.sum(axis=1) == 0).any()
    expected = np.array([entropy_of_counts(v) for v in pairs.tolist()])
    assert decision_tree._entropy2(*pairs.T.astype(float)).tobytes() == expected.tobytes()
    for width in range(1, 21):
        sizes = rng.integers(2, 300, 30)
        seg = np.repeat(np.arange(len(sizes)), sizes)
        observed = np.flatnonzero(rng.random(width) < 0.7)
        codes = rng.choice(observed if observed.size else [0], (len(seg), 1))
        y = rng.integers(0, 2, len(seg))
        counts = np.stack([np.bincount(seg, weights=1 - y), np.bincount(seg, weights=y)], axis=1)
        empty = np.empty((len(y), 0), dtype=np.int64)
        keys = decision_tree._nominal_keys(codes, width, y)
        infos = _scan(keys, width, empty, empty, y, counts)[1][:, 0]
        expected = np.array([entropy_of_counts(np.bincount(codes[seg == s, 0], minlength=width))
                             for s in range(len(sizes))])
        assert infos.tobytes() == expected.tobytes()


@pytest.mark.parametrize("length", range(1, 21))
def test_sum_last_has_the_bits_of_an_accumulation(length):
    # mixed magnitudes, so a pairwise or reordered sum rounds differently
    rng = np.random.default_rng(length)
    a = rng.standard_normal((200, 3, length)) * 10.0 ** rng.integers(-8, 9, (200, 3, length))
    expected = np.add.accumulate(a, axis=-1)[..., -1]
    assert decision_tree._sum_last(a).tobytes() == expected.tobytes()


def _table(columns, labels, domains):
    """Table of the given columns in order: nominal where domains gives a size, else numeric."""
    schema = [AttributeSchema(f"a{j}", "nominal", tuple(f"v{i}" for i in range(size)))
              if size else AttributeSchema(f"a{j}", "numeric") for j, size in enumerate(domains)]
    schema.append(AttributeSchema("cls", "nominal", ("c0", "c1"), role="class"))
    return from_rows(schema, [(*row, y) for row, y in zip(zip(*columns), labels)])


def _trainer(d):
    """A one-table forest of d, with its compact inputs as codes, values, ranks and y."""
    trainer = _Trainer(d, TreeConfig())
    trainer.add(d)
    trainer.codes, trainer.values, trainer.ranks, trainer.y = trainer.parts[0]
    return trainer


def _scan_nodes(trainer, nodes, ranks=None):
    """_scan over the given nodes' rows, one segment per node in order; keys made per scan."""
    rows = np.concatenate(nodes)
    y = trainer.y[rows]
    counts = np.array([np.bincount(trainer.y[idx], minlength=2) for idx in nodes], dtype=float)
    ranks = trainer.ranks[rows] if ranks is None else ranks
    keys = decision_tree._nominal_keys(trainer.codes[rows], trainer.width, y)
    return _scan(keys, trainer.width, trainer.values[rows], ranks, y, counts)


def test_scan_matches_oracles_at_random_nodes():
    # a 9-value attribute (numpy sums 8 or more terms pairwise), values absent
    # from a node, attributes with one observed value, and tables with only
    # nominal or only numeric predictors; one scan scores up to four nodes
    rng = np.random.default_rng(2718)
    for domains in [(9, None, 2, None, 4), (9, 3, 2), (None, None, None)] * 20:
        n = int(rng.integers(10, 50))
        columns = [(rng.integers(0, size, n) if size else rng.integers(0, 6, n) / 2).tolist()
                   for size in domains]
        if rng.random() < 0.3:
            columns[-1] = [columns[-1][0]] * n
        labels = rng.integers(0, 2, n).tolist()
        trainer = _trainer(_table(columns, labels, domains))
        nodes = [np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
                 for _ in range(int(rng.integers(1, 5)))]
        gains, infos, thresholds, tables = _scan_nodes(trainer, nodes)
        assert gains.shape == infos.shape == thresholds.shape == (len(nodes), len(domains))
        for s, idx in enumerate(nodes):
            y = [labels[i] for i in idx]
            for k, ai in enumerate(trainer.attrs):
                col = [columns[ai][i] for i in idx]
                if domains[ai]:
                    threshold = None
                    groups = [[i for i, v in enumerate(col) if v == code]
                              for code in range(domains[ai])]
                else:
                    threshold, gain, groups = best_threshold_split(col, y) or (None, None, [])
                    if threshold is not None and thresholds[s, k] != threshold:
                        # thresholds whose gains tie in exact arithmetic differ in the
                        # last bits; the oracle takes the lowest within 1e-15, the scan
                        # the largest rounded gain
                        distinct = sorted(set(col))
                        threshold = thresholds[s, k]
                        assert threshold in [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
                        groups = [[i for i, v in enumerate(col) if v <= threshold],
                                  [i for i, v in enumerate(col) if v > threshold]]
                        assert gain_of_partition(y, groups) == pytest.approx(gain, abs=1e-12)
                if sum(map(bool, groups)) < 2:  # not a candidate
                    assert not (gains[s, k] > GAIN_EPS and infos[s, k] > 0.0)
                    continue
                if threshold is None:
                    assert np.isnan(thresholds[s, k])
                else:
                    assert thresholds[s, k] == threshold
                assert tables[s, k, :len(groups)].tolist() == [
                    [sum(y[i] == c for i in g) for c in (0, 1)] for g in groups]
                assert gains[s, k] == pytest.approx(gain_of_partition(y, groups), abs=1e-12)
                assert infos[s, k] == pytest.approx(split_info_of_partition(len(y), groups),
                                                    abs=1e-12)


def test_one_scan_of_many_nodes_equals_a_scan_per_node():
    # 2-row nodes, a 9-value domain, a numeric column constant in one node
    # only, and one holding both -0.0 and 0.0 (they tie); each node alone is
    # also scanned with ranks of its own rows, so rank numbering cannot matter
    rng = np.random.default_rng(4242)
    domains = (9, None, None, 2)
    for _ in range(40):
        n = int(rng.integers(12, 60))
        order, nodes = rng.permutation(n), []
        while sum(map(len, nodes)) < n - 1 and len(nodes) < 6:
            size = 2 if len(nodes) < 2 else int(rng.integers(2, n // 2))
            nodes.append(np.sort(order[sum(map(len, nodes)):][:size]))
        nodes = [idx for idx in nodes if len(idx) >= 2]
        columns = [rng.integers(0, 9, n).tolist(), (rng.integers(0, 6, n) / 2).tolist(),
                   rng.choice([-0.0, 0.0, 0.5, -1.5], n).tolist(), rng.integers(0, 2, n).tolist()]
        for i in nodes[int(rng.integers(len(nodes)))]:
            columns[1][i] = 1.5
        trainer = _trainer(_table(columns, rng.integers(0, 2, n).tolist(), domains))
        together = _scan_nodes(trainer, nodes)
        for s, idx in enumerate(nodes):
            alone = _scan_nodes(trainer, [idx], _ranks(trainer.values[idx]))
            for got, expected in zip(together, alone):
                assert got[s].tobytes() == expected[0].tobytes()


def _levels(t):
    """Number of levels of the tree, the root's included."""
    level = {t.root: 1}
    for node in tree_nodes(t):
        level.update((child, level[node.id] + 1) for child in node.children)
    return max(level.values())


def test_growth_scans_once_per_level(cohort, monkeypatch):
    # every level holding an internal node is scanned once; the deepest level
    # is scanned too when a leaf there could grow but no split pays
    calls = []
    scan = decision_tree._scan
    monkeypatch.setattr(decision_tree, "_scan", lambda *args: calls.append(1) or scan(*args))
    rng = np.random.default_rng(12)
    for d in (cohort, random_mixed_dataset(rng, 200, n_nominal=2, n_numeric=2)):
        for cfg in (TreeConfig(pruning=False), TreeConfig(min_leaf_instances=1, pruning=False)):
            calls.clear()
            t = train_tree(d, cfg)
            nodes = sum(not node.is_leaf for node in tree_nodes(t))
            assert _levels(t) - 1 <= len(calls) <= _levels(t) < nodes


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
            assert _root(t).attribute == 0 and _leaf_count(t) in (2, 3)
        splits = [node.attribute for node in tree_nodes(t) if not node.is_leaf]
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
    nodes = _by_id(t)
    root = nodes[t.root]
    assert root.attribute == 0
    assert root.threshold == pytest.approx(1.5)
    assert nodes[root.children[0]].is_leaf
    assert nodes[root.children[0]].counts.tolist() == [1.0, 0.0]


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
    nodes = _by_id(t)
    assert a <= nodes[t.root].threshold < b
    assert [nodes[c].counts.tolist() for c in nodes[t.root].children] == [[4.0, 0.0], [0.0, 4.0]]
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
    nodes = _by_id(t)
    root = nodes[t.root]
    assert root.attribute == d.attribute_index("S1")
    assert nodes[root.children[0]].attribute == d.attribute_index("S2")
    assert nodes[root.children[1]].attribute == d.attribute_index("S3")
    assert nodes[root.children[2]].is_leaf
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
    root = _root(train_tree(d))
    assert root.is_leaf
    assert root.prediction == 0


def test_small_node_stops_before_splitting():
    d = nominal_dataset({"a": [0, 1, 1]}, [0, 1, 1])
    assert _root(train_tree(d, TreeConfig(min_leaf_instances=2))).is_leaf
    assert not _root(train_tree(d, TreeConfig(min_leaf_instances=1, pruning=False))).is_leaf


def test_empty_branch_predicts_uniformly():
    d = nominal_dataset({"a": [0, 0, 1, 1]}, [0, 0, 1, 1], domains={"a": 3})
    t = train_tree(d, TreeConfig(pruning=False))
    nodes = _by_id(t)
    assert not nodes[t.root].is_leaf
    empty = nodes[nodes[t.root].children[2]]
    assert empty.is_leaf and empty.counts.tolist() == [0.0, 0.0]
    assert empty.prediction == 0
    p = tree_predict(t, query(d, (2, 0)))
    assert p.tolist() == [[0.5, 0.5]]


def test_leaf_probabilities_are_smoothed_counts():
    d = nominal_dataset({"a": [0] * 10}, [0] * 8 + [1] * 2, domains={"a": 2})
    t = train_tree(d)
    assert _root(t).is_leaf
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
        nodes, routed = _by_id(t), {}
        for row, y in zip(table_rows(d), d.class_codes()):
            node = nodes[t.root]
            while not node.is_leaf:
                v = row[node.attribute]
                if node.threshold is not None:
                    node = nodes[node.children[0 if v <= node.threshold else 1]]
                else:
                    node = nodes[node.children[v]]
            routed.setdefault(node.id, np.zeros_like(node.counts))[y] += 1
        for leaf in (node for node in nodes.values() if node.is_leaf):
            expected = routed.get(leaf.id, np.zeros_like(leaf.counts))
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
    assert not _root(t).is_leaf
    assert _leaf_count(t) == 3
    assert len(tree_to_rules(t)) == 3


def test_pruning_collapses_a_noisy_split():
    # both branches keep the majority class; the pessimistic bound prefers
    # one leaf (7.85 added-error estimate vs 8.88 for the subtree)
    labels = [0] * 4 + [1] * 2 + [0] * 6 + [1] * 4
    column = [0] * 6 + [1] * 10
    d = nominal_dataset({"a": column}, labels)
    unpruned = train_tree(d, TreeConfig(pruning=False))
    pruned = _root(train_tree(d))
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


@settings(max_examples=150, deadline=None)
@given(n_rows=st.integers(1, 60), n_nominal=st.integers(0, 2), n_numeric=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1), min_leaf=st.integers(1, 3),
       cf=st.sampled_from([0.1, 0.25, 0.5]))
def test_pruning_matches_the_recursive_rule_on_drawn_tables(n_rows, n_nominal, n_numeric, seed,
                                                             min_leaf, cf):
    # at cf 0.5 a leaf and its subtree often tie, which the rule resolves toward the leaf
    d = random_mixed_dataset(np.random.default_rng(seed), n_rows, n_nominal, n_numeric)
    unpruned = train_tree(d, TreeConfig(min_leaf, cf, pruning=False))
    _assert_same_tree(train_tree(d, TreeConfig(min_leaf, cf)), prune_by_recursion(unpruned, cf))


@pytest.mark.parametrize("cf", [0.1, 0.25, 0.5])
def test_pruning_matches_the_recursive_rule_on_cohort_folds(cohort_folds, cf):
    pruned = train_trees(cohort_folds, TreeConfig(pruning_confidence=cf))
    unpruned = train_trees(cohort_folds, TreeConfig(pruning_confidence=cf, pruning=False))
    for got, want in zip(pruned, unpruned, strict=True):
        _assert_same_tree(got, prune_by_recursion(want, cf))


def test_deep_tree_trains_predicts_and_benches(tmp_path, capsys):
    # classes alternate in pairs along one numeric column, so each split
    # peels two rows off the end: 999 levels, past Python's recursion limit
    n = 2000
    d = _numeric_dataset([float(i) for i in range(n)], [(i // 2) % 2 for i in range(n)])
    for pruning in (False, True):
        t = train_tree(d, TreeConfig(pruning=pruning))
        nodes = len(list(tree_nodes(t)))
        assert _levels(t) == 1000
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


def test_training_on_a_100x_cohort_peaks_below_36_mb():
    # 47,000 rows: a level's rows, keys and numeric sort scratch are alive at
    # once, next to the table's keys, ranks and float columns
    d = impute_missing(parse_arff(synthetic_cohort_text(7_000, 40_000, "cohort-100x")))
    tracemalloc.start()
    try:
        t = train_tree(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d) == 47_000 and not _root(t).is_leaf
    assert peak <= 36 * 2**20, f"peak {peak / 2**20:.1f} MB"


# -- forests --------------------------------------------------------------------------


def _assert_same_tree(got, want):
    """Node for node: class count bytes, attribute, threshold bits, prediction and shape."""
    assert got.schema == want.schema
    for g, w in zip(tree_nodes(got), tree_nodes(want), strict=True):
        assert g.counts.tobytes() == w.counts.tobytes()
        assert (g.attribute, g.prediction, len(g.children)) == (
            w.attribute, w.prediction, len(w.children))
        got_bits, want_bits = (t if t is None else t.hex() for t in (g.threshold, w.threshold))
        assert got_bits == want_bits


def _fold_tables(d):
    """The ten training tables of d after SMOTE up front, as `postop bench` cuts them."""
    d = smote(d, "T", SmoteConfig(seed=1))[0]
    folds = stratified_folds(d, 10, 1)
    return [d.subset(folds.train_indices(t)) for t in range(10)]


@pytest.fixture(scope="module")
def cohort_folds(cohort):
    """The 1x folds, a table of one class (it stays one leaf), then the 2x folds."""
    one_x = _fold_tables(cohort)
    leaf = one_x[0].subset(np.flatnonzero(one_x[0].class_codes() == 0))
    two_x = impute_missing(parse_arff(synthetic_cohort_text(140, 800, "cohort-2x")))
    return [*one_x, leaf, *_fold_tables(two_x)]


@pytest.mark.parametrize("cfg", [TreeConfig(), TreeConfig(pruning=False),
                                 TreeConfig(min_leaf_instances=1)],
                         ids=["pruned", "unpruned", "min-leaf-1"])
def test_a_forest_grows_the_tree_each_table_grows_alone(cohort_folds, monkeypatch, cfg):
    alone = [train_tree(t, cfg) for t in cohort_folds]
    leaves = [_root(t).is_leaf for t in alone]
    assert leaves[10] and not any(leaves[:10] + leaves[11:])
    few = [0, 1, 10, 11, 12]  # two 1x folds, the leaf and two 2x folds
    for scan_rows, picked in [(decision_tree._SCAN_ROWS, range(21)),
                              (1, few),  # a scan per node
                              (7, few)]:  # scan groups end inside levels
        monkeypatch.setattr(decision_tree, "_SCAN_ROWS", scan_rows)
        forest = train_trees(map(cohort_folds.__getitem__, picked), cfg)
        for i, tree in zip(picked, forest, strict=True):
            _assert_same_tree(tree, alone[i])


def test_a_forest_scans_each_level_across_its_trees(cohort_folds, monkeypatch):
    calls = []
    scan = decision_tree._scan
    monkeypatch.setattr(decision_tree, "_scan", lambda *args: calls.append(1) or scan(*args))
    for t in cohort_folds[:10]:
        train_tree(t)
    alone, calls[:] = len(calls), []
    train_trees(cohort_folds[:10])
    assert len(calls) < alone / 2, (len(calls), alone)


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=6),
       n_nominal=st.integers(0, 2), n_numeric=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
       cfg=st.sampled_from([TreeConfig(), TreeConfig(pruning=False),
                            TreeConfig(min_leaf_instances=1)]),
       scan_rows=st.sampled_from([1, 7, decision_tree._SCAN_ROWS]))
def test_forests_of_drawn_tables_grow_each_tree_alone(sizes, n_nominal, n_numeric, seed, cfg,
                                                      scan_rows):
    rng = np.random.default_rng(seed)
    d = random_mixed_dataset(rng, sum(sizes), n_nominal=n_nominal, n_numeric=n_numeric)
    tables = [d.subset(range(a, b)) for a, b in pairwise(np.cumsum([0, *sizes]).tolist())]
    alone = [train_tree(t, cfg) for t in tables]
    with mock.patch.object(decision_tree, "_SCAN_ROWS", scan_rows):
        forest = train_trees(iter(tables), cfg)
    for tree, want in zip(forest, alone, strict=True):
        _assert_same_tree(tree, want)


# A five-table forest holds five tables' compact inputs (0.37 MB) when it
# scans its largest group, and a 2,048-row scan group takes more scratch than
# one tree's 1,728-row root; its nodes are a few arrays of 40 B a node. The
# forest peaks at 1.37 MB, 1.84 times one tree's 0.75 MB.
@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="a five-table forest peaks at 1.84 times one tree")
def test_a_five_table_forest_of_2x_folds_peaks_within_1_2_trees(cohort_folds):
    two_x = cohort_folds[11:16]
    peaks = []
    for tables in (two_x[:1], two_x):
        # tables arrive one at a time, as cross-validation hands them on
        copies = (t.subset(range(len(t))) for t in tables)
        tracemalloc.start()
        try:
            trees = train_trees(copies)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(trees) == len(tables)
    tree, forest = (peak / 2**20 for peak in peaks)
    assert forest <= 1.2 * tree, f"forest {forest:.2f} MB, tree {tree:.2f} MB"


def test_the_tables_of_a_forest_share_one_schema():
    rng = np.random.default_rng(5)
    tables = [random_mixed_dataset(rng, 20), random_mixed_dataset(rng, 20, n_numeric=2)]
    with pytest.raises(DataError, match="one schema"):
        train_trees(tables)


def test_no_tables_grow_no_trees():
    assert train_trees([]) == []


# -- configuration and wiring ------------------------------------------------------


def test_config_validation():
    with pytest.raises(DataError, match="min_leaf_instances"):
        TreeConfig(min_leaf_instances=0)


@pytest.mark.parametrize("cf, taken", [
    (6e-17, True), (1e-16, True), (0.25, True), (0.5, True), (1 - 2**-53, True),
    (1e-17, False), (5e-324, False), (-1e-17, False), (0.0, False), (1.0, False),
    (math.nan, False), (math.inf, False), (-math.inf, False),
])
def test_the_config_alone_decides_which_confidences_prune(cf, taken):
    # 1 - 1e-17 rounds to 1, where pruning's normal quantile is undefined; a
    # confidence taken prunes, and one near 0 prunes the hand-worked tree to its root
    if taken:
        t = train_tree(fig_dataset(), TreeConfig(pruning_confidence=cf))
        assert _root(t).is_leaf == (cf < 0.25)
    else:
        with pytest.raises(DataError, match="^pruning_confidence must be strictly between 0 and 1"):
            TreeConfig(pruning_confidence=cf)


def test_numeric_rule_rendering():
    d = _numeric_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
    t = train_tree(d)
    rules = tree_to_rules(t)
    assert _antecedents(rules) == [[("x", "<=", 2.5)], [("x", ">", 2.5)]]
    assert [r.consequent for r in rules] == [("cls", "c0"), ("cls", "c1")]
    single = tree_to_rules(train_tree(nominal_dataset({"a": [0, 1]}, [0, 0])))
    assert _antecedents(single) == [[]]
    assert [r.consequent for r in single] == [("cls", "c0")]
