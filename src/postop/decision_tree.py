"""Gain-ratio decision tree with pessimistic pruning and rule extraction.

Splits are chosen by gain ratio among attributes whose information gain
reaches the mean gain of the viable candidates. Nominal attributes branch
over their whole declared domain; numeric attributes get a binary test at
the midpoint between adjacent observed values that maximizes gain. Pruning
replaces subtrees with leaves when a pessimistic error estimate (upper
confidence bound on the training error) says the leaf is no worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .dataset import CLASS, NOMINAL, DataError, Dataset, require_complete

# gains this small are noise; such attributes are not split candidates
GAIN_EPS = 1e-12


@dataclass(frozen=True)
class TreeConfig:
    min_leaf_instances: int = 2
    pruning_confidence: float = 0.25
    pruning: bool = True

    def __post_init__(self):
        if self.min_leaf_instances < 1:
            raise DataError("min_leaf_instances must be at least 1")
        if not 0.0 < self.pruning_confidence < 1.0:
            raise DataError("pruning_confidence must be strictly between 0 and 1")


@dataclass
class TreeNode:
    """One node; a leaf when children is None.

    counts holds the training class distribution at the node, prediction
    the majority class index (ties toward the earlier class). Internal
    nodes test schema attribute attr_index: nominal tests have one child
    per domain value, numeric tests have children [<= threshold, > threshold].
    Leaves are counted by walking _nodes; the rules come from tree_to_rules.
    """

    counts: np.ndarray
    prediction: int
    attr_index: int | None = None
    threshold: float | None = None
    children: list["TreeNode"] | None = None
    schema: tuple | None = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _nodes(root: TreeNode):
    """Every node under root, each parent before its descendants.

    Nodes come from an explicit stack, so depth is unbounded.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children or ())


@dataclass(frozen=True)
class Condition:
    """One conjunct of a rule antecedent."""

    attribute: str
    attr_index: int
    op: str  # "=", "<=", ">"
    value: str | float
    code: int | None = None  # domain index backing an "=" test

    def matches(self, d: Dataset) -> np.ndarray:
        """Which rows satisfy the test; a missing value satisfies none."""
        v = d.column(self.attr_index)
        if self.op == "=":
            return v == self.code
        if self.op == "<=":
            return v <= self.value
        return v > self.value


@dataclass(frozen=True)
class Rule:
    """Conjunction of conditions implying a class value."""

    antecedent: tuple[Condition, ...]
    consequent: tuple[str, str]  # (class attribute name, class value token)
    class_code: int

    def matches(self, d: Dataset) -> np.ndarray:
        hits = np.ones(len(d), dtype=bool)
        for c in self.antecedent:
            hits &= c.matches(d)
        return hits


# -- information measures ----------------------------------------------------


def _sum_last(a: np.ndarray) -> np.ndarray:
    """Sum along the last axis strictly left to right, whatever its length.

    numpy's sum goes pairwise from 8 terms on, so its bits would depend on
    how much zero padding a row carries; an accumulation does not.
    """
    return np.add.accumulate(a, axis=-1)[..., -1]


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each count vector along the last axis."""
    p = counts / np.maximum(counts.sum(axis=-1, keepdims=True), 1.0)
    return -_sum_last(p * np.log2(p, out=np.zeros_like(p), where=p > 0))


def _nominal_keys(codes: np.ndarray, width: int, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Cell of each (row, nominal attribute) in a zero-padded (attrs, width, classes) table."""
    return (codes + np.arange(codes.shape[1]) * width) * n_classes + y[:, None]


def _scan(keys, width, values, y, counts):
    """Gains, split infos, thresholds and child class counts of every split of one node.

    keys come from _nominal_keys for the node's rows, values are the
    rows' numeric columns and counts the node's class counts. Nominal
    attributes come first, then numeric ones. A nominal split branches over
    the whole domain; a numeric one is the midpoint test of best gain, the
    lowest threshold on ties. A nominal attribute with one observed value
    gets gain 0, a numeric one gain -inf. Needs at least two rows.
    """
    n = len(y)
    h0 = _entropy_rows(counts)
    shape = (keys.shape[1], width, len(counts))
    tables = np.bincount(keys.ravel(), minlength=math.prod(shape)).reshape(shape).astype(float)
    sizes = tables.sum(axis=-1)
    gains = h0 - _sum_last(sizes / n * _entropy_rows(tables))
    infos = _entropy_rows(sizes).tolist()
    # one stable sort of every numeric column; gains between equal values are -inf
    order = np.argsort(values, axis=0, kind="mergesort")
    cols = np.arange(values.shape[1])
    sv = values[order, cols]
    left = np.cumsum(y[order][..., None] == np.arange(len(counts)), axis=0, dtype=float)[:-1]
    nl = np.arange(1.0, n)[:, None]
    split_gains = h0 - nl / n * _entropy_rows(left) - (n - nl) / n * _entropy_rows(counts - left)
    split_gains = np.where(sv[:-1] < sv[1:], split_gains, -np.inf)
    best = split_gains.argmax(axis=0)
    a, b = sv[best, cols], sv[best + 1, cols]
    thresholds = a / 2 + b / 2  # halved first, so the sum cannot overflow
    thresholds = np.where((a <= thresholds) & (thresholds < b), thresholds, a)  # b stays right
    # math.log2 keeps the bits of the pinned trees; np.log2 rounds some ratios apart
    for pl, pr in zip(((best + 1) / n).tolist(), ((n - best - 1) / n).tolist()):
        infos.append(-(pl * math.log2(pl) + pr * math.log2(pr)))
    left = left[best, cols]
    return (
        np.concatenate([gains, split_gains[best, cols]]).tolist(),
        infos,
        [None] * len(gains) + thresholds.tolist(),
        list(tables) + list(np.stack([left, counts - left], axis=1)),
    )


# -- training ----------------------------------------------------------------


def _leaf(counts: np.ndarray) -> TreeNode:
    return TreeNode(counts=counts, prediction=int(np.argmax(counts)))


def _route(node: TreeNode, d: Dataset, idx: np.ndarray) -> list[np.ndarray]:
    """The rows idx split by an internal node's test, one index array per child."""
    v = d.column(node.attr_index)[idx]
    if node.threshold is not None:
        v = v > node.threshold
    return [idx[v == k] for k in range(len(node.children))]


class _Trainer:
    def __init__(self, d: Dataset, cfg: TreeConfig):
        require_complete(d, "tree training")
        self.d = d
        self.cfg = cfg
        self.n_classes = len(d.class_labels)
        self.y = d.class_codes()
        self.width = max((len(d.schema[ai].values) for ai in d.nominal_predictor_indices),
                         default=1)
        self.keys = _nominal_keys(d.codes_matrix(), self.width, self.y, self.n_classes)
        self.values = d.numeric_matrix()
        self.attrs = d.nominal_predictor_indices + d.numeric_predictor_indices

    def _best_split(self, idx, counts):
        """(attribute, threshold, child class counts) of the split for rows idx, or None.

        Attributes with positive gain and split info whose gain reaches the
        mean gain compete on gain ratio.
        """
        gains, infos, thresholds, tables = _scan(
            self.keys[idx], self.width, self.values[idx], self.y[idx], counts)
        candidates = sorted(
            (ai, gain, gain / info, k)
            for k, (ai, gain, info) in enumerate(zip(self.attrs, gains, infos))
            if gain > GAIN_EPS and info > 0.0
        )
        if not candidates:
            return None
        mean_gain = sum(c[1] for c in candidates) / len(candidates)
        best = None
        for cand in candidates:  # schema order; strict > keeps the earliest on ties
            if cand[1] >= mean_gain - GAIN_EPS and (best is None or cand[2] > best[2]):
                best = cand
        ai, k = best[0], best[3]
        return ai, thresholds[k], tables[k]

    def build(self, idx) -> TreeNode:
        """Grow the tree over rows idx from an explicit stack, so depth is unbounded."""
        root = _leaf(np.bincount(self.y[idx], minlength=self.n_classes).astype(float))
        stack = [(root, idx)]
        while stack:
            node, idx = stack.pop()
            if int((node.counts > 0).sum()) <= 1:
                continue
            if len(idx) < 2 * self.cfg.min_leaf_instances:
                continue
            best = self._best_split(idx, node.counts)
            if best is None:
                continue
            node.attr_index, node.threshold, child_counts = best
            size = len(self.d.schema[node.attr_index].values) or 2  # a numeric test has 2
            # a copy, so the nodes do not keep the whole scan table alive
            node.children = [_leaf(c) for c in child_counts[:size].copy()]
            stack.extend(zip(node.children, _route(node, self.d, idx)))
        return root


def _added_errors(n: float, e: float, cf: float, z: float) -> float:
    """Pessimistic extra errors for a leaf with n instances and e errors.

    Upper confidence bound on the binomial error rate at confidence cf,
    with a continuity correction; the small-e branches interpolate the
    exact bound for e < 1.
    """
    if n <= 0:
        return 0.0
    if cf > 0.5:
        return 0.0
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (_added_errors(n, 1.0, cf, z) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1 + z * z / n
    )
    return r * n - e


def _leaf_estimate(node: TreeNode, cf: float, z: float) -> float:
    n = float(node.counts.sum())
    e = n - float(node.counts.max()) if n > 0 else 0.0
    return e + _added_errors(n, e, cf, z)


def _prune(root: TreeNode, cf: float, z: float) -> None:
    """Pessimistic pruning in place, children before parents.

    A subtree becomes a leaf when the leaf's estimated errors are no more
    than its pruned children's, summed in child order.
    """
    estimates = {}
    for node in reversed(list(_nodes(root))):
        estimate = _leaf_estimate(node, cf, z)
        if not node.is_leaf:
            subtree_estimate = 0.0
            for child in node.children:
                subtree_estimate += estimates[id(child)]
            if estimate <= subtree_estimate:
                node.attr_index = node.threshold = node.children = None
            else:
                estimate = subtree_estimate
        estimates[id(node)] = estimate


def train_tree(d: Dataset, cfg: TreeConfig | None = None) -> TreeNode:
    """Grow (and by default prune) a tree for the dataset's class attribute.

    Growth stops at pure nodes, nodes smaller than twice min_leaf_instances,
    and nodes where no attribute offers positive gain. The returned root
    carries the schema, so format_tree and tree_to_rules need nothing else.
    """
    if len(d) == 0:
        raise DataError("cannot train on an empty dataset")
    cfg = cfg or TreeConfig()
    root = _Trainer(d, cfg).build(np.arange(len(d)))
    if cfg.pruning:
        z = NormalDist().inv_cdf(1.0 - cfg.pruning_confidence)
        _prune(root, cfg.pruning_confidence, z)
    root.schema = d.schema
    return root


# -- prediction ---------------------------------------------------------------


def tree_predict(t: TreeNode, d: Dataset) -> np.ndarray:
    """Class probabilities (rows, classes) from the leaf each row reaches.

    Row index sets are routed down the tree; d must have no missing cells.
    The leaf's training counts get a +1 correction per class, so empty
    leaves yield a uniform distribution.
    """
    require_complete(d, "tree prediction")
    out = np.full((len(d), len(t.counts)), np.nan)
    stack = [(t, np.arange(len(d)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = (node.counts + 1.0) / (node.counts.sum() + len(node.counts))
            continue
        stack.extend(zip(node.children, _route(node, d, idx)))
    return out


# -- rules ---------------------------------------------------------------------


def _class_attribute(t: TreeNode):
    """The class attribute of the schema the tree carries."""
    if t.schema is None:
        raise DataError("tree carries no schema; train it with train_tree")
    for a in t.schema:
        if a.role == CLASS:
            return a
    raise DataError("schema has no class attribute")


def _walk(t: TreeNode):
    """Every node with the conditions leading to it from t, in depth-first child order.

    Nodes come from an explicit stack, so depth is unbounded.
    """
    stack = [(t, ())]
    while stack:
        node, conds = stack.pop()
        yield node, conds
        if node.is_leaf:
            continue
        ai = node.attr_index
        attr = t.schema[ai]
        if node.threshold is None:
            tests = [Condition(attr.name, ai, "=", value, code)
                     for code, value in enumerate(attr.values)]
        else:
            tests = [Condition(attr.name, ai, op, node.threshold) for op in ("<=", ">")]
        stack.extend(reversed([(child, conds + (c,)) for child, c in zip(node.children, tests)]))


def tree_to_rules(t: TreeNode) -> list[Rule]:
    """One rule per leaf, in depth-first child order.

    The rules partition the instance space: on complete instances, the
    first matching rule classifies exactly like the tree.
    """
    class_attr = _class_attribute(t)
    return [
        Rule(conds, (class_attr.name, class_attr.values[node.prediction]), node.prediction)
        for node, conds in _walk(t)
        if node.is_leaf
    ]


def rules_predict(rules: list[Rule], d: Dataset) -> np.ndarray:
    """Class code of the first rule each row matches."""
    out = np.full(len(d), -1)
    for rule in reversed(rules):  # earlier rules overwrite later ones
        out[rule.matches(d)] = rule.class_code
    if (out < 0).any():
        raise DataError(f"no rule matched instance {int(np.argmax(out < 0))}")
    return out


# -- printer -------------------------------------------------------------------


def format_tree(t: TreeNode) -> str:
    """Indented text rendering: one line per node below the root, or one for a lone leaf."""
    class_attr = _class_attribute(t)
    lines: list[str] = []
    for node, conds in _walk(t):
        parts = [f"{c.attribute} {c.op} " + (c.value if c.op == "=" else f"{c.value:g}")
                 for c in conds[-1:]]
        if node.is_leaf:
            dist = "/".join(f"{c:g}" for c in node.counts)
            parts.append(f"{class_attr.name} = {class_attr.values[node.prediction]} ({dist})")
        if parts:
            lines.append("|   " * max(len(conds) - 1, 0) + ": ".join(parts))
    return "\n".join(lines)


# -- standalone split quality ---------------------------------------------------


def gain_ratio(d: Dataset, attribute) -> float | None:
    """Gain ratio of splitting the dataset on one predictor attribute.

    Numeric attributes are scored at their best-gain midpoint threshold.
    Returns None when the attribute cannot split the data (fewer than two
    distinct values). d must have no missing value in the attribute.
    """
    ai = d.attribute_index(attribute) if isinstance(attribute, str) else int(attribute)
    attr = d.schema[ai]
    if attr.role == CLASS:
        raise DataError("gain ratio of the class attribute is undefined")
    if len(d) < 2:
        return None
    col, y = d.column(ai)[:, None], d.class_codes()
    n_classes = len(d.class_labels)
    counts = np.bincount(y, minlength=n_classes).astype(float)
    if attr.kind == NOMINAL:
        width = len(attr.values)
        scan = _scan(_nominal_keys(col, width, y, n_classes), width, np.empty((len(y), 0)),
                     y, counts)
    else:
        scan = _scan(np.empty((len(y), 0), dtype=np.int64), 1, col, y, counts)
    gain, split_info = scan[0][0], scan[1][0]
    if gain == -math.inf or split_info <= 0.0:
        return None
    return gain / split_info
