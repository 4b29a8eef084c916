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

from .dataset import CLASS, NOMINAL, DataError, Dataset, is_missing

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
    """

    counts: np.ndarray
    prediction: int
    attr_index: int | None = None
    threshold: float | None = None
    children: list["TreeNode"] | None = None
    train_indices: np.ndarray | None = field(default=None, repr=False)
    schema: tuple | None = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return sum(ch.leaf_count() for ch in self.children)


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


def _entropy(counts: np.ndarray) -> float:
    """Entropy in bits of a count vector."""
    n = counts.sum()
    if n <= 0:
        return 0.0
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a count matrix."""
    n = counts.sum(axis=1, keepdims=True)
    safe = np.maximum(n, 1.0)
    p = counts / safe
    terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return terms.sum(axis=1)


def _nominal_candidate(codes, y, n_values, n_classes):
    """(gain, split_info, None) of a full-domain nominal split, or None."""
    counts = np.zeros((n_values, n_classes))
    np.add.at(counts, (codes, y), 1.0)
    sizes = counts.sum(axis=1)
    present = sizes > 0
    if int(present.sum()) < 2:
        return None
    n = float(len(codes))
    gain = _entropy(counts.sum(axis=0)) - float(
        (sizes[present] / n * _entropy_rows(counts[present])).sum()
    )
    p = sizes[present] / n
    split_info = float(-(p * np.log2(p)).sum())
    return gain, split_info, None


def _numeric_candidate(values, y, n_classes):
    """(gain, split_info, threshold) of the best midpoint test, or None.

    The threshold maximizes information gain; equal gains resolve toward
    the smallest threshold. Split info is that of the chosen binary split.
    """
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    sy = y[order]
    bounds = np.nonzero(sv[:-1] < sv[1:])[0]
    if bounds.size == 0:
        return None
    n = len(sv)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), sy] = 1.0
    cum = onehot.cumsum(axis=0)
    total = cum[-1]
    left = cum[bounds]
    right = total - left
    nl = left.sum(axis=1)
    nr = right.sum(axis=1)
    gains = (
        _entropy(total)
        - nl / n * _entropy_rows(left)
        - nr / n * _entropy_rows(right)
    )
    best = int(np.argmax(gains))  # first maximum: lowest threshold wins ties
    threshold = float((sv[bounds[best]] + sv[bounds[best] + 1]) / 2.0)
    pl = nl[best] / n
    pr = nr[best] / n
    split_info = float(-(pl * math.log2(pl) + pr * math.log2(pr)))
    return float(gains[best]), split_info, threshold


# -- training ----------------------------------------------------------------


class _Trainer:
    def __init__(self, d: Dataset, cfg: TreeConfig, record: bool):
        self.cfg = cfg
        self.record = record
        self.schema = d.schema
        self.n_classes = len(d.class_labels)
        self.y = d.class_codes()
        self.nom = d.codes_matrix()
        self.num = d.numeric_matrix()
        if (self.nom < 0).any() or np.isnan(self.num).any():
            raise DataError("tree training requires a dataset with no missing values")
        self.nom_col = {ai: j for j, ai in enumerate(d.nominal_predictor_indices)}
        self.num_col = {ai: j for j, ai in enumerate(d.numeric_predictor_indices)}
        self.predictors = d.predictor_indices

    def _candidate(self, ai, idx):
        if ai in self.nom_col:
            codes = self.nom[idx, self.nom_col[ai]]
            return _nominal_candidate(
                codes, self.y[idx], len(self.schema[ai].values), self.n_classes
            )
        return _numeric_candidate(self.num[idx, self.num_col[ai]], self.y[idx], self.n_classes)

    def _best_split(self, idx):
        candidates = []
        for ai in self.predictors:
            res = self._candidate(ai, idx)
            if res is None:
                continue
            gain, split_info, threshold = res
            if gain <= GAIN_EPS or split_info <= 0.0:
                continue
            candidates.append((ai, gain, gain / split_info, threshold))
        if not candidates:
            return None
        mean_gain = sum(c[1] for c in candidates) / len(candidates)
        best = None
        for cand in candidates:  # schema order; strict > keeps the earliest on ties
            if cand[1] >= mean_gain - GAIN_EPS and (best is None or cand[2] > best[2]):
                best = cand
        return best

    def _node(self, idx) -> TreeNode:
        counts = np.bincount(self.y[idx], minlength=self.n_classes).astype(float)
        node = TreeNode(counts=counts, prediction=int(np.argmax(counts)))
        if self.record:
            node.train_indices = np.asarray(idx).copy()
        return node

    def build(self, idx) -> TreeNode:
        node = self._node(idx)
        if int((node.counts > 0).sum()) <= 1:
            return node
        if len(idx) < 2 * self.cfg.min_leaf_instances:
            return node
        best = self._best_split(idx)
        if best is None:
            return node
        ai, _, _, threshold = best
        node.attr_index = ai
        if threshold is None:
            codes = self.nom[idx, self.nom_col[ai]]
            node.children = [
                self.build(idx[codes == v]) for v in range(len(self.schema[ai].values))
            ]
        else:
            vals = self.num[idx, self.num_col[ai]]
            node.threshold = threshold
            node.children = [self.build(idx[vals <= threshold]), self.build(idx[vals > threshold])]
        return node


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


def _prune(node: TreeNode, cf: float, z: float) -> tuple[TreeNode, float]:
    if node.is_leaf:
        return node, _leaf_estimate(node, cf, z)
    subtree_estimate = 0.0
    for i, child in enumerate(node.children):
        node.children[i], est = _prune(child, cf, z)
        subtree_estimate += est
    leaf_estimate = _leaf_estimate(node, cf, z)
    if leaf_estimate <= subtree_estimate:
        leaf = TreeNode(
            counts=node.counts,
            prediction=node.prediction,
            train_indices=node.train_indices,
        )
        return leaf, leaf_estimate
    return node, subtree_estimate


def train_tree(d: Dataset, cfg: TreeConfig | None = None, *,
               keep_training_indices: bool = False) -> TreeNode:
    """Grow (and by default prune) a tree for the dataset's class attribute.

    Growth stops at pure nodes, nodes smaller than twice min_leaf_instances,
    and nodes where no attribute offers positive gain. The returned root
    carries the schema so printers and rule extraction are self-contained.
    With keep_training_indices, every leaf records which training rows
    reached it.
    """
    if len(d) == 0:
        raise DataError("cannot train on an empty dataset")
    cfg = cfg or TreeConfig()
    trainer = _Trainer(d, cfg, keep_training_indices)
    root = trainer.build(np.arange(len(d)))
    if cfg.pruning:
        z = NormalDist().inv_cdf(1.0 - cfg.pruning_confidence)
        root, _ = _prune(root, cfg.pruning_confidence, z)
    root.schema = d.schema
    return root


# -- prediction ---------------------------------------------------------------


def tree_predict(t: TreeNode, d: Dataset) -> np.ndarray:
    """Class probabilities (rows, classes) from the leaf each row reaches.

    Row index sets are routed down the tree. The leaf's training counts
    get a +1 correction per class, so empty leaves yield a uniform
    distribution. Unseen or missing test values fall through to the child
    with the largest training mass (the earliest on ties).
    """
    out = np.empty((len(d), len(t.counts)))
    stack = [(t, np.arange(len(d)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = (node.counts + 1.0) / (node.counts.sum() + len(node.counts))
            continue
        v = d.column(node.attr_index)[idx]
        if node.threshold is not None:
            branch = np.where(v <= node.threshold, 0, 1)
        else:
            branch = v.copy()
        unseen = is_missing(v) | (branch >= len(node.children))
        branch[unseen] = np.argmax([child.counts.sum() for child in node.children])
        stack.extend((child, idx[branch == k]) for k, child in enumerate(node.children))
    return out


# -- rules ---------------------------------------------------------------------


def _class_attribute(schema):
    for a in schema:
        if a.role == CLASS:
            return a
    raise DataError("schema has no class attribute")


def tree_to_rules(t: TreeNode, schema=None) -> list[Rule]:
    """One rule per leaf, in depth-first child order.

    The rules partition the instance space: on complete instances, the
    first matching rule classifies exactly like the tree.
    """
    schema = schema if schema is not None else t.schema
    if schema is None:
        raise DataError("tree carries no schema; pass one explicitly")
    class_attr = _class_attribute(schema)
    rules: list[Rule] = []

    def walk(node, conds):
        if node.is_leaf:
            rules.append(
                Rule(
                    antecedent=tuple(conds),
                    consequent=(class_attr.name, class_attr.values[node.prediction]),
                    class_code=node.prediction,
                )
            )
            return
        attr = schema[node.attr_index]
        if node.threshold is None:
            for code, child in enumerate(node.children):
                cond = Condition(attr.name, node.attr_index, "=", attr.values[code], code)
                walk(child, conds + [cond])
        else:
            walk(node.children[0], conds + [Condition(attr.name, node.attr_index, "<=", node.threshold)])
            walk(node.children[1], conds + [Condition(attr.name, node.attr_index, ">", node.threshold)])

    walk(t, [])
    return rules


def rules_predict(rules: list[Rule], d: Dataset) -> np.ndarray:
    """Class code of the first rule each row matches."""
    out = np.full(len(d), -1)
    for rule in reversed(rules):  # earlier rules overwrite later ones
        out[rule.matches(d)] = rule.class_code
    if (out < 0).any():
        raise DataError(f"no rule matched instance {int(np.argmax(out < 0))}")
    return out


# -- printers ------------------------------------------------------------------


def _format_number(v: float) -> str:
    return f"{v:g}"


def format_tree(t: TreeNode, schema=None) -> str:
    """Indented text rendering of the tree."""
    schema = schema if schema is not None else t.schema
    if schema is None:
        raise DataError("tree carries no schema; pass one explicitly")
    class_attr = _class_attribute(schema)
    lines: list[str] = []

    def leaf_text(node):
        dist = "/".join(_format_number(c) for c in node.counts)
        return f"{class_attr.name} = {class_attr.values[node.prediction]} ({dist})"

    def walk(node, depth, label):
        pad = "|   " * depth
        if node.is_leaf:
            lines.append(f"{pad}{label}: {leaf_text(node)}" if label else f"{pad}{leaf_text(node)}")
            return
        if label:
            lines.append(f"{pad}{label}")
            depth += 1
            pad = "|   " * depth
        attr = schema[node.attr_index]
        if node.threshold is None:
            for code, child in enumerate(node.children):
                walk(child, depth, f"{attr.name} = {attr.values[code]}")
        else:
            walk(node.children[0], depth, f"{attr.name} <= {_format_number(node.threshold)}")
            walk(node.children[1], depth, f"{attr.name} > {_format_number(node.threshold)}")

    walk(t, 0, "")
    return "\n".join(lines)


def format_rules(rules: list[Rule]) -> str:
    """Rules as conjunction lines: (attr, value) ∩ ... ⇒ (class = value)."""
    out = []
    for rule in rules:
        if rule.antecedent:
            parts = []
            for c in rule.antecedent:
                shown = c.value if c.op == "=" else f"{c.op} {_format_number(c.value)}"
                parts.append(f"({c.attribute}, {shown})")
            left = " ∩ ".join(parts)
        else:
            left = "(true)"
        out.append(f"{left} ⇒ ({rule.consequent[0]} = {rule.consequent[1]})")
    return "\n".join(out)


# -- standalone split quality ---------------------------------------------------


def gain_ratio(d: Dataset, attribute) -> float | None:
    """Gain ratio of splitting the dataset on one predictor attribute.

    Numeric attributes are scored at their best-gain midpoint threshold.
    Returns None when the attribute cannot split the data (fewer than two
    observed values). Rows missing the attribute's value are left out.
    """
    ai = d.attribute_index(attribute) if isinstance(attribute, str) else int(attribute)
    attr = d.schema[ai]
    if attr.role == CLASS:
        raise DataError("gain ratio of the class attribute is undefined")
    col = d.column(ai)
    keep = ~is_missing(col)
    if not keep.any():
        return None
    y = d.class_codes()[keep]
    n_classes = len(d.class_labels)
    if attr.kind == NOMINAL:
        res = _nominal_candidate(col[keep], y, len(attr.values), n_classes)
    else:
        res = _numeric_candidate(col[keep], y, n_classes)
    if res is None:
        return None
    gain, split_info, _ = res
    if split_info <= 0.0:
        return None
    return gain / split_info
