"""Gain-ratio decision tree with pessimistic pruning and rule extraction.

Splits are chosen by gain ratio among attributes whose information gain
reaches the mean gain of the viable candidates. Nominal attributes branch
over their whole domain; numeric ones test the gain-maximizing midpoint
between adjacent observed values. Trees grow a level at a time, one scan
scoring every split of a level's nodes on two count planes, one per class
of the binary class. Pruning makes a subtree a leaf when the leaf's
pessimistic error estimate (an upper confidence bound) is no worse.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import pairwise
from statistics import NormalDist

import numpy as np

from .dataset import CLASS, NOMINAL, DataError, Dataset, require_complete

# gains this small are noise; such attributes are not split candidates
GAIN_EPS = 1e-12
# rows per _scan call: a larger node is scanned alone
_SCAN_ROWS = 1 << 11


@dataclass(frozen=True)
class TreeConfig:
    min_leaf_instances: int = 2
    pruning_confidence: float = 0.25
    pruning: bool = True

    def __post_init__(self):
        if self.min_leaf_instances < 1:
            raise DataError("min_leaf_instances must be at least 1")
        # pruning takes the normal quantile at 1 - cf, so that is what must lie in (0, 1)
        if not 0.0 < 1.0 - self.pruning_confidence < 1.0:
            raise DataError("pruning_confidence must be strictly between 0 and 1, "
                            f"and so must 1 - pruning_confidence (got {self.pruning_confidence})")


@dataclass(frozen=True, eq=False)
class Tree:
    """A trained tree: node root of read-only node arrays in level order, shared by a forest.

    Node i has the training class counts counts[i] and predicts their majority class (ties
    toward the earlier class). It is a leaf when column[i] is -1; otherwise it tests scan
    column k = column[i], schema attribute attrs[k]: a nominal test (k < n_nominal) has a
    child per domain value, a numeric one the children [<= threshold[i], > threshold[i]],
    and they are the contiguous nodes from first[i]. Nodes pruned away stay, unreachable.
    """

    column: np.ndarray
    threshold: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    schema: tuple = field(repr=False)
    attrs: tuple
    n_nominal: int
    root: int


@dataclass(frozen=True)
class Condition:
    """One conjunct of a rule antecedent."""

    attribute: str
    attr_index: int
    op: str  # "=", "<=", ">"
    value: str | float
    code: int | None = None  # domain index backing an "=" test


@dataclass(frozen=True)
class Rule:
    """Conjunction of conditions implying a class value."""

    antecedent: tuple[Condition, ...]
    consequent: tuple[str, str]  # (class attribute name, class value token)
    class_code: int


# -- information measures ----------------------------------------------------


def _sum_last(a: np.ndarray) -> np.ndarray:
    """Sum along the last axis strictly left to right, whatever its length.

    numpy's sum goes pairwise from 8 terms on, so its bits would depend on
    how much zero padding a row carries; one elementwise add per term does
    not, and is fast where a reduction over a short strided axis is slow.
    """
    return functools.reduce(np.add, np.moveaxis(a, -1, 0))


def _plogp(p: np.ndarray) -> np.ndarray:
    """p * log2(p), and 0 where p is 0."""
    return p * np.log2(p, out=np.zeros_like(p), where=p > 0)


def _entropy2(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Entropy in bits of the class counts c0 and c1 (two arrays of one shape)."""
    n = np.maximum(c0 + c1, 1.0)
    return -(_plogp(c0 / n) + _plogp(c1 / n))


def _nominal_keys(codes: np.ndarray, width: int, y: np.ndarray) -> np.ndarray:
    """Cell of each (row, nominal attribute) in a zero-padded (attrs, width, 2 classes) table."""
    return (codes + np.arange(codes.shape[1]) * width) * 2 + y[:, None]


def _ranks(values: np.ndarray) -> np.ndarray:
    """Each value's position among its column's distinct values (-0.0 and 0.0 tie), held small."""
    ranks = [np.unique(col, return_inverse=True)[1] for col in values.T]
    return np.array(ranks, dtype=np.min_scalar_type(len(values))).reshape(values.shape[::-1]).T


def _scan(keys, width, values, ranks, y, counts):
    """Gains, split infos, thresholds and child class counts of every split of many nodes.

    Node i has class counts counts[i] and its rows in the i-th contiguous
    segment of keys (from _nominal_keys), values, their _ranks and y; keys
    is overwritten. Each class is scored as a count plane of its own, so
    nothing is summed over a class axis. Results have a row per node
    and the nominal attributes' columns first: thresholds are nan for them,
    child counts are (nodes, attributes, max(width, 2), 2). A nominal split
    branches over the whole domain, a numeric one is the midpoint test at
    the first position of the largest computed gain, so rounding decides a
    tie of exact gains. One observed value gives a nominal attribute gain 0,
    a numeric one gain -inf. Each node needs two rows and is scored alone.
    """
    c0, c1 = counts[:, 0], counts[:, 1]
    n = c0 + c1
    sizes = n.astype(np.int64)
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(n)), sizes)
    h0 = _entropy2(c0, c1)
    shape = (len(n), keys.shape[1], width, 2)
    keys += (seg * math.prod(shape[1:]))[:, None]  # each node its own block of tables
    tables = np.bincount(keys.ravel(), minlength=math.prod(shape)).reshape(shape).astype(float)
    del keys  # the level's largest block, not needed past the count
    t0, t1 = tables[..., 0], tables[..., 1]
    shares = (t0 + t1) / n[:, None, None]  # each branch's share of its node's rows
    gains = h0[:, None] - _sum_last(shares * _entropy2(t0, t1))
    infos = -_sum_last(_plogp(shares))
    # numeric columns sorted in their segments, ties in row order: keys unique, so any sort does
    order = (ranks + (seg * (int(ranks.max(initial=0)) + 1))[:, None]) * len(y)
    order = np.argsort(order + np.arange(len(y))[:, None], axis=0)
    cols = np.arange(values.shape[1])
    sv = values[order, cols]
    # class-1 rows before each position; integers, so the differences are exact
    ones = np.concatenate([np.zeros((1, len(cols)), dtype=np.int64), np.cumsum(y[order], axis=0)])
    del order
    # a split after every position but a segment's last
    pos = np.delete(np.arange(len(y)), starts + sizes - 1)
    at = seg[pos]
    local = (pos - starts[at])[:, None]  # position inside the segment
    nl, nn = local + 1.0, n[at][:, None]
    l1 = (ones[pos + 1] - ones[starts[at]]).astype(float)
    l0 = nl - l1
    split_gains = (h0[at][:, None] - nl / nn * _entropy2(l0, l1)
                   - (nn - nl) / nn * _entropy2(c0[at][:, None] - l0, c1[at][:, None] - l1))
    split_gains = np.where(sv[pos] < sv[pos + 1], split_gains, -np.inf)
    # the first position of each segment's best gain; gains between equal values are -inf
    first = starts - np.arange(len(n))
    top = np.maximum.reduceat(split_gains, first, axis=0)
    best = np.minimum.reduceat(np.where(split_gains == top[at], local, len(y)), first, axis=0)
    a, b = sv[starts[:, None] + best, cols], sv[starts[:, None] + best + 1, cols]
    thresholds = a / 2 + b / 2  # halved first, so the sum cannot overflow
    thresholds = np.where((a <= thresholds) & (thresholds < b), thresholds, a)  # b stays right
    # math.log2 keeps the bits of the pinned trees; np.log2 rounds some ratios apart
    split_infos = [-(pl * math.log2(pl) + pr * math.log2(pr)) for pl, pr in
                   zip(((best + 1) / n[:, None]).flat, ((n[:, None] - best - 1) / n[:, None]).flat)]
    left = np.stack([plane[first[:, None] + best, cols] for plane in (l0, l1)], axis=-1)
    children = np.zeros((len(n), shape[1] + len(cols), max(width, 2), 2))
    children[:, :shape[1], :width] = tables
    children[:, shape[1]:, :2] = np.stack([left, counts[:, None] - left], axis=2)
    infos = np.concatenate([infos, np.reshape(split_infos, best.shape)], axis=1)
    thresholds = np.concatenate([np.full(gains.shape, np.nan), thresholds], axis=1)
    return np.concatenate([gains, top], axis=1), infos, thresholds, children


# -- training ----------------------------------------------------------------


def _branch(codes, values, rows, k, t, n_nominal) -> np.ndarray:
    """The branch each of rows takes at the test of scan column k and threshold t (one per row).

    codes and values hold a table's nominal and numeric predictors in scan
    column order; growth and prediction both route rows through here.
    """
    branch, nominal = np.empty(len(rows), dtype=np.int64), k < n_nominal
    branch[nominal] = codes[rows[nominal], k[nominal]]
    branch[~nominal] = values[rows[~nominal], k[~nominal] - n_nominal] > t[~nominal]
    return branch


class _Trainer:
    """A forest: the layout of one schema, and the rows of its tables, held compactly."""

    def __init__(self, d: Dataset, cfg: TreeConfig):
        self.cfg, self.schema, self.parts = cfg, d.schema, []
        self.n_nominal = len(d.nominal_predictor_indices)
        self.attrs = d.nominal_predictor_indices + d.numeric_predictor_indices
        self.schema_order = np.argsort(self.attrs)
        # a nominal test has a branch per domain value, a numeric one has 2
        self.branches = np.array([len(d.schema[ai].values) or 2 for ai in self.attrs], dtype=int)
        self.width = int(self.branches[:self.n_nominal].max(initial=1))

    def add(self, d: Dataset) -> None:
        """Join d's tree to the forest: d is kept as codes, values, their _ranks and classes."""
        require_complete(d, "tree training")
        if len(d) == 0:
            raise DataError("cannot train on an empty dataset")
        if d.schema != self.schema:
            raise DataError("the tables of one forest must share one schema")
        self.parts.append((d.codes_matrix().astype(np.min_scalar_type(self.width)),
                           v := d.numeric_matrix(), _ranks(v), d.class_codes().astype(np.int8)))

    def _choose(self, gains: np.ndarray, infos: np.ndarray) -> np.ndarray:
        """Scan column of each node's split, or -1 where no split is worth it.

        Attributes with positive gain and split info whose gain reaches the
        mean gain compete on gain ratio; the earliest in schema order wins ties.
        """
        gains, infos = gains[:, self.schema_order], infos[:, self.schema_order]
        candidate = (gains > GAIN_EPS) & (infos > 0.0)
        n = candidate.sum(axis=1)
        # summed left to right in schema order, as Python's sum over the candidates
        mean_gain = _sum_last(np.where(candidate, gains, 0.0)) / np.maximum(n, 1)
        eligible = candidate & (gains >= mean_gain[:, None] - GAIN_EPS)
        ratios = np.divide(gains, infos, out=np.full(gains.shape, -np.inf), where=eligible)
        return np.where(n > 0, self.schema_order[ratios.argmax(axis=1)], -1)

    def _split(self, rows: np.ndarray, counts: np.ndarray) -> tuple:
        """Each node's chosen scan column (-1 for none), its threshold and child class counts."""
        y = self.y[rows]
        gains, infos, thresholds, tables = _scan(_nominal_keys(self.codes[rows], self.width, y),
                                                 self.width, self.values[rows], self.ranks[rows],
                                                 y, counts)
        chosen, at = self._choose(gains, infos), np.arange(len(counts))
        return chosen, thresholds[at, chosen], tables[at, chosen]  # copies: the scan frees

    def build(self) -> list[Tree]:
        """Grow every tree a level at a time, then prune them; the trees in table order.

        Inputs join a field at a time. A level's rows sit in a segment per growing node,
        ascending; a node's split depends only on its rows, so the scans may group nodes freely.
        """
        counts = np.array([np.bincount(part[3], minlength=2) for part in self.parts], dtype=float)
        sizes, fields, self.parts = [len(part[3]) for part in self.parts], [*zip(*self.parts)], []
        self.codes, self.values, self.ranks, self.y = (np.concatenate(fields.pop(0)) for _ in range(4))
        rows, child = np.arange(sum(sizes)), np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        levels, end = [], 0  # each level's (column, threshold, first, counts); nodes through it
        while len(counts):
            column, first = np.full((2, len(counts)), -1)  # a leaf; no children
            levels.append((column, threshold := np.full(len(counts), np.nan), first, counts))
            end += len(counts)
            n = counts[:, 0] + counts[:, 1]
            # a node grows when it holds two classes and twice min_leaf_instances rows
            grows = (counts[:, 0] > 0) & (counts[:, 1] > 0) & (
                n >= 2 * self.cfg.min_leaf_instances) & bool(self.attrs)
            rows = rows[grows[child]][np.argsort(child[grows[child]], kind="stable")]
            nodes, counts, n = np.flatnonzero(grows), counts[grows], n[grows]
            if not len(nodes):
                break
            ends, a, splits = np.cumsum(n.astype(np.int64)), 0, []
            while a < len(nodes):  # one scan per run of nodes in _SCAN_ROWS rows, or larger node
                b = max(a + 1, int(np.searchsorted(ends, ends[a] - n[a] + _SCAN_ROWS, "right")))
                splits.append(self._split(rows[ends[a] - int(n[a]):ends[b - 1]], counts[a:b]))
                a = b
            chosen, thresholds, tables = map(np.concatenate, zip(*splits))
            split = chosen >= 0
            branches = np.take(self.branches, chosen[split])
            counts = tables[split][np.arange(tables.shape[1]) < branches[:, None]]
            column[nodes[split]], threshold[nodes[split]] = chosen[split], thresholds[split]
            first[nodes[split]] = end + np.cumsum(branches) - branches
            # each row's child on the next level: its node's first child plus its branch
            seg = np.repeat(nodes, n.astype(np.int64))
            rows, seg = rows[column[seg] >= 0], seg[column[seg] >= 0]
            child = first[seg] - end + _branch(self.codes, self.values, rows, column[seg],
                                               threshold[seg], self.n_nominal)
            del seg  # each row's child is all the next level needs
        column, threshold, first, counts = map(np.concatenate, zip(*levels))
        if self.cfg.pruning:
            _prune(column, first, counts, self.branches,
                   np.cumsum([0] + [len(level[3]) for level in levels]), self.cfg.pruning_confidence)
        for a in (column, threshold, first, counts):
            a.flags.writeable = False
        return [Tree(column, threshold, first, counts, self.schema, self.attrs, self.n_nominal, root)
                for root in range(len(sizes))]


def _added_errors(n: float, e: float, cf: float, z: float) -> float:
    """Pessimistic extra errors for a leaf with n instances and e errors.

    Upper confidence bound on the binomial error rate at confidence cf,
    with a continuity correction; the small-e branches interpolate the
    exact bound for e < 1.
    """
    if n <= 0 or cf > 0.5:
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


def _prune(column, first, counts, branches, levels, cf: float) -> None:
    """Pessimistic pruning of a forest's node arrays in place, the deepest level first.

    A split node becomes a leaf (column -1) when its leaf's estimated errors are no more
    than its pruned children's, added in child order from 0.0. branches holds each scan
    column's child count, levels each level's first node and, last, the node count.
    """
    z = NormalDist().inv_cdf(1.0 - cf)
    # one estimate per distinct count pair, viewed as c0 + c1 j; integer counts, so the
    # minority count is exactly n minus the majority count
    pairs, at = np.unique(counts.view(complex).ravel(), return_inverse=True)
    leaf = np.array([e + _added_errors(c.real + c.imag, e, cf, z)
                     for c in pairs.tolist() for e in [min(c.real, c.imag)]])[at]
    estimate = leaf.copy()
    for a, b in reversed(list(pairwise(levels.tolist()))):
        split = a + np.flatnonzero(column[a:b] >= 0)
        subtree, n_branches = np.zeros(len(split)), np.take(branches, column[split])
        for j in range(n_branches.max(initial=0)):
            has = n_branches > j
            subtree[has] += estimate[first[split[has]] + j]
        column[split[leaf[split] <= subtree]] = -1
        estimate[split] = np.minimum(leaf[split], subtree)


def train_trees(tables: Iterable[Dataset], cfg: TreeConfig | None = None) -> list[Tree]:
    """Grow (and by default prune) a tree for each table's class attribute.

    Growth stops at pure nodes, nodes smaller than twice min_leaf_instances,
    and nodes where no attribute offers positive gain. The tables, read once in
    turn, share one schema and grow as one forest: each tree is the one its table
    grows alone, and they share one set of node arrays.
    """
    forest = None
    for d in tables:
        forest = forest or _Trainer(d, cfg or TreeConfig())
        forest.add(d)
    d = None  # the forest holds the last table compactly; the table itself may go
    return forest.build() if forest else []


def train_tree(d: Dataset, cfg: TreeConfig | None = None) -> Tree:
    """`train_trees` for one table."""
    return train_trees([d], cfg)[0]


# -- prediction ---------------------------------------------------------------


def tree_predict(t: Tree, d: Dataset) -> np.ndarray:
    """Class probabilities (rows, classes) from the leaf each row reaches.

    All rows move down a level at a time; d must have no missing cells.
    The leaf's training counts get a +1 correction per class, so empty
    leaves yield a uniform distribution.
    """
    require_complete(d, "tree prediction")
    rows, node, leaf = np.arange(len(d)), np.full(len(d), t.root), np.empty(len(d), dtype=np.int64)
    while len(rows):
        k = t.column[node]
        leaf[rows[k < 0]] = node[k < 0]
        rows, node, k = rows[k >= 0], node[k >= 0], k[k >= 0]
        node = t.first[node] + _branch(d.codes_matrix(), d.numeric_matrix(), rows, k,
                                       t.threshold[node], t.n_nominal)
    counts = t.counts[leaf]
    return (counts + 1.0) / (counts.sum(axis=1, keepdims=True) + counts.shape[1])


# -- rules ---------------------------------------------------------------------


def _walk(t: Tree):
    """Each node of t, its prediction (None if split) and the conditions leading to it, in
    depth-first child order.

    Nodes come from an explicit stack, so depth is unbounded.
    """
    stack = [(t.root, ())]
    while stack:
        i, conds = stack.pop()
        k = int(t.column[i])
        yield i, None if k >= 0 else int(t.counts[i].argmax()), conds
        if k < 0:
            continue
        ai, attr = t.attrs[k], t.schema[t.attrs[k]]
        if k < t.n_nominal:
            tests = [Condition(attr.name, ai, "=", value, code)
                     for code, value in enumerate(attr.values)]
        else:
            tests = [Condition(attr.name, ai, op, float(t.threshold[i])) for op in ("<=", ">")]
        stack.extend(reversed([(int(t.first[i]) + j, conds + (c,)) for j, c in enumerate(tests)]))


def tree_to_rules(t: Tree) -> list[Rule]:
    """One rule per leaf, in depth-first child order.

    The rules partition the instance space: on complete instances, the
    first matching rule classifies exactly like the tree.
    """
    class_attr = next(a for a in t.schema if a.role == CLASS)
    return [Rule(conds, (class_attr.name, class_attr.values[p]), p)
            for _, p, conds in _walk(t) if p is not None]


# -- printer -------------------------------------------------------------------


def format_tree(t: Tree) -> str:
    """Indented text rendering: one line per node below the root, or one for a lone leaf."""
    class_attr = next(a for a in t.schema if a.role == CLASS)
    lines: list[str] = []
    for i, p, conds in _walk(t):
        parts = [f"{c.attribute} {c.op} " + (c.value if c.op == "=" else f"{c.value:g}")
                 for c in conds[-1:]]
        if p is not None:
            dist = "/".join(f"{c:g}" for c in t.counts[i].tolist())
            parts.append(f"{class_attr.name} = {class_attr.values[p]} ({dist})")
        if parts:
            lines.append("|   " * max(len(conds) - 1, 0) + ": ".join(parts))
    return "\n".join(lines)


# -- standalone split quality ---------------------------------------------------


def gain_ratio(d: Dataset, attribute) -> float | None:
    """Gain ratio of splitting the dataset on one predictor attribute.

    Numeric attributes are scored at their best-gain midpoint threshold.
    Returns None when the attribute cannot split the data (fewer than two
    distinct values). d must have no missing cells.
    """
    require_complete(d, "gain ratio")
    ai = d.attribute_index(attribute) if isinstance(attribute, str) else int(attribute)
    attr = d.schema[ai]
    if attr.role == CLASS:
        raise DataError("gain ratio of the class attribute is undefined")
    if len(d) < 2:
        return None
    col, y = d.column(ai)[:, None], d.class_codes()
    counts = np.bincount(y, minlength=2).astype(float)[None]
    empty = np.empty((len(y), 0), dtype=np.int64)
    if attr.kind == NOMINAL:
        width = len(attr.values)
        scan = _scan(_nominal_keys(col, width, y), width, empty, empty, y, counts)
    else:
        scan = _scan(empty, 1, col, _ranks(col), y, counts)
    gain, split_info = scan[0][0, 0], scan[1][0, 0]
    if gain == -math.inf or split_info <= 0.0:
        return None
    return gain / split_info
