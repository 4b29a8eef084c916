"""Independent reference implementations used to verify the package.

Everything here is written the slow, obvious way (dict counting, python
loops, closed-form math) so the fast implementations are checked against
code that shares none of their structure.
"""

import dataclasses
import math
from statistics import NormalDist

import numpy as np

from postop.dataset import DataError, ParseError
from postop.decision_tree import _added_errors


# -- ARFF data rows ----------------------------------------------------------------


def parse_rows_by_token(schema, lines, start):
    """The codes, numerics and classes of the data rows lines[start:], a token at a time.

    Each line loses what follows its first '%' and its surrounding blanks,
    and a line left empty is skipped. A row is split at its commas and its
    cells are read left to right, each token stripped: a nominal one is its
    domain index, a numeric one float() of it, and '?' is -1 or nan. The
    first ragged row, or else the first bad cell, raises ParseError with
    its line (from 1) and the column (from 1) where the cell's field starts.
    """
    codes, numbers, classes = [], [], []
    for lineno, raw in enumerate(lines[start:], start + 1):
        line = raw.split("%")[0].strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(schema):
            raise ParseError(f"row has {len(fields)} values, schema expects {len(schema)}",
                             line=lineno)
        codes.append([])
        numbers.append([])
        for j, (attr, field) in enumerate(zip(schema, fields)):
            token = field.strip()
            where = {"line": lineno, "column": sum(len(f) + 1 for f in fields[:j]) + 1}
            if attr.kind == "nominal":
                if token != "?" and token not in attr.values:
                    raise ParseError(f"value {token!r} is not in the domain of attribute "
                                     f"{attr.name!r}", **where)
                code = -1 if token == "?" else attr.values.index(token)
                (classes if attr.role == "class" else codes[-1]).append(code)
                continue
            try:
                value = math.nan if token == "?" else float(token)
            except ValueError:
                raise ParseError(f"invalid numeric literal {token!r} for attribute "
                                 f"{attr.name!r}", **where) from None
            if math.isinf(value) or (math.isnan(value) and token != "?"):
                raise ParseError(f"non-finite numeric value for attribute {attr.name!r}",
                                 **where)
            numbers[-1].append(value)
    n = len(classes)
    n_codes = sum(a.kind == "nominal" and a.role != "class" for a in schema)
    return (np.array(codes, dtype=np.int64).reshape(n, n_codes),
            np.array(numbers, dtype=np.float64).reshape(n, len(schema) - n_codes - 1),
            np.array(classes, dtype=np.int64))


# -- information theory --------------------------------------------------------


def entropy_of_labels(labels) -> float:
    """Shannon entropy in bits of a label sequence."""
    counts = {}
    for v in labels:
        counts[v] = counts.get(v, 0) + 1
    n = len(labels)
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    return h


def entropy_of_counts(counts) -> float:
    """Entropy in bits of one class count vector, its terms added left to right.

    Each term is p * log2(p) with numpy's log2, so the result has the bits
    of a vectorized entropy that adds its terms in the same order.
    """
    total = max(float(sum(counts)), 1.0)
    h = 0.0
    for c in counts:
        p = c / total
        if p > 0:
            h += p * float(np.log2(p))
    return -h


def gain_of_partition(labels, groups) -> float:
    """Information gain of partitioning labels into the given index groups."""
    n = len(labels)
    h = entropy_of_labels(labels)
    for g in groups:
        h -= len(g) / n * entropy_of_labels([labels[i] for i in g])
    return h


def split_info_of_partition(n, groups) -> float:
    si = 0.0
    for g in groups:
        p = len(g) / n
        if p > 0:
            si -= p * math.log2(p)
    return si


def gain_ratio_nominal(column, labels) -> float | None:
    """Gain ratio of a nominal column, or None when unsplittable."""
    groups = {}
    for i, v in enumerate(column):
        groups.setdefault(v, []).append(i)
    if len(groups) < 2:
        return None
    parts = list(groups.values())
    si = split_info_of_partition(len(labels), parts)
    if si <= 0:
        return None
    return gain_of_partition(labels, parts) / si


def best_threshold_split(column, labels):
    """(threshold, gain, [left, right]) of the best-gain midpoint test, or None.

    Scans every midpoint between adjacent distinct sorted values and keeps
    the first threshold achieving the maximal gain (ties: lowest). None
    when the column has fewer than two distinct values.
    """
    distinct = sorted(set(column))
    if len(distinct) < 2:
        return None
    best = None
    for lo, hi in zip(distinct[:-1], distinct[1:]):
        threshold = (lo + hi) / 2.0
        left = [i for i, v in enumerate(column) if v <= threshold]
        right = [i for i, v in enumerate(column) if v > threshold]
        gain = gain_of_partition(labels, [left, right])
        if best is None or gain > best[1] + 1e-15:
            best = (threshold, gain, [left, right])
    return best


def gain_ratio_numeric(column, labels) -> float | None:
    """Gain ratio at the best-gain midpoint threshold (ties: lowest)."""
    best = best_threshold_split(column, labels)
    if best is None:
        return None
    _, gain, groups = best
    si = split_info_of_partition(len(labels), groups)
    if si <= 0:
        return None
    return gain / si


def condition_matches(condition, d) -> np.ndarray:
    """Which rows of d satisfy one rule condition; a missing value satisfies none."""
    v = d.column(condition.attr_index)
    if condition.op == "=":
        return v == condition.code
    if condition.op == "<=":
        return v <= condition.value
    return v > condition.value


def rules_predict(rules, d) -> np.ndarray:
    """Class code of the first rule each row of d matches, every condition tested."""
    out = np.full(len(d), -1)
    for rule in reversed(rules):  # earlier rules overwrite later ones
        hits = np.ones(len(d), dtype=bool)
        for c in rule.antecedent:
            hits &= condition_matches(c, d)
        out[hits] = rule.class_code
    if (out < 0).any():
        raise DataError(f"no rule matched instance {int(np.argmax(out < 0))}")
    return out


# -- pruning ----------------------------------------------------------------------


def prune_by_recursion(tree, cf):
    """A pruned copy of an unpruned tree, by C4.5's pessimistic rule written out plainly.

    A node's leaf estimate is its minority count plus `_added_errors` at
    confidence cf. A subtree's estimate is its pruned children's estimates,
    added as Python floats in child order from 0.0. The subtree becomes a
    leaf when its leaf estimate is no more than that. Recursive, so for
    shallow trees only.
    """
    z = NormalDist().inv_cdf(1.0 - cf)
    column = tree.column.copy()

    def estimate(i: int) -> float:
        c0, c1 = tree.counts[i].tolist()
        leaf = min(c0, c1) + _added_errors(c0 + c1, min(c0, c1), cf, z)
        if column[i] < 0:
            return leaf
        first, attr = int(tree.first[i]), tree.schema[tree.attrs[column[i]]]
        subtree = 0.0
        for child in range(first, first + (len(attr.values) or 2)):
            subtree += estimate(child)
        if leaf <= subtree:
            column[i] = -1
            return leaf
        return subtree

    estimate(tree.root)
    return dataclasses.replace(tree, column=column)


# -- nearest neighbours -----------------------------------------------------------


def nearest_neighbors(numeric_rows, code_rows, k) -> list[list[int]]:
    """Per row, the indexes of its k nearest other rows.

    The distance of two rows is their squared numeric differences added
    left to right as python floats, plus the count of nominal codes that
    differ. Each row's others are sorted by (distance, index), so ties go
    to the lower index.
    """
    table = []
    for i, (x, a) in enumerate(zip(numeric_rows, code_rows)):
        others = []
        for j, (y, b) in enumerate(zip(numeric_rows, code_rows)):
            if j == i:
                continue
            dist = 0.0
            for u, v in zip(x, y):
                dist += (u - v) * (u - v)
            dist += sum(1 for s, t in zip(a, b) if s != t)
            others.append((dist, j))
        table.append([j for _, j in sorted(others)[:k]])
    return table


# -- SMOTE draws ------------------------------------------------------------------


def smote_draws_by_loop(rng, k, total):
    """Per synthetic, rng.integers(0, k) for the neighbour choice, then rng.random()
    for lambda: one scalar call each, in SMOTE's documented order."""
    choice, lam = [], []
    for _ in range(total):
        choice.append(int(rng.integers(0, k)))
        lam.append(float(rng.random()))
    return np.array(choice, dtype=np.int64), np.array(lam)


# -- naive Bayes ----------------------------------------------------------------


def nb_enumerate(rows, domains, class_domain, query) -> list[float]:
    """Posterior over classes by direct smoothed counting, linear space.

    rows are (values, label) with nominal value indexes; domains the
    per-attribute domain sizes; query a value-index tuple. Smoothing adds
    one to every count, including the class priors.
    """
    n = len(rows)
    c_count = {c: 0 for c in range(class_domain)}
    for _, label in rows:
        c_count[label] += 1
    joint = []
    for c in range(class_domain):
        p = (c_count[c] + 1) / (n + class_domain)
        for a, v in enumerate(query):
            matches = sum(
                1 for values, label in rows if label == c and values[a] == v
            )
            p *= (matches + 1) / (c_count[c] + domains[a])
        joint.append(p)
    total = sum(joint)
    return [p / total for p in joint]


def gaussian_logpdf(x, mean, var) -> float:
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


# -- ROC --------------------------------------------------------------------------


def auc_by_pair_counting(scores, positive) -> float:
    """AUC as the rank statistic: P(score_pos > score_neg) + half ties."""
    pos_scores = [s for s, p in zip(scores, positive) if p]
    neg_scores = [s for s, p in zip(scores, positive) if not p]
    wins = 0.0
    for sp in pos_scores:
        for sn in neg_scores:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos_scores) * len(neg_scores))


# -- error measures ----------------------------------------------------------------


def error_measures_direct(predicted, actual) -> dict:
    """Error measures by direct formula loops over instance-class cells."""
    n, c = len(predicted), len(predicted[0])
    abs_sum = 0.0
    sq_sum = 0.0
    for i in range(n):
        for j in range(c):
            diff = predicted[i][j] - actual[i][j]
            abs_sum += abs(diff)
            sq_sum += diff * diff
    abar = [sum(actual[i][j] for i in range(n)) / n for j in range(c)]
    base_abs = sum(abs(actual[i][j] - abar[j]) for i in range(n) for j in range(c))
    base_sq = sum((actual[i][j] - abar[j]) ** 2 for i in range(n) for j in range(c))
    return {
        "mae": abs_sum / (n * c),
        "rmse": math.sqrt(sq_sum / (n * c)),
        "rae": abs_sum / base_abs if base_abs > 0 else None,
        "rrse": math.sqrt(sq_sum / base_sq) if base_sq > 0 else None,
    }


# -- network ---------------------------------------------------------------------


def forward_by_loops(weights, biases, x) -> list[float]:
    """Sigmoid network forward pass with plain python loops."""
    act = list(x)
    for w, b in zip(weights, biases):
        nxt = []
        for jo in range(len(b)):
            z = b[jo]
            for ji in range(len(act)):
                z += act[ji] * w[ji][jo]
            nxt.append(1.0 / (1.0 + math.exp(-z)))
        act = nxt
    return act


def forward_by_layers(weights, biases, x) -> np.ndarray:
    """Sigmoid network forward pass of one input vector, a fresh array per layer."""
    a = x
    for w, b in zip(weights, biases):
        a = 1.0 / (1.0 + np.exp(-(a @ w + b)))
    return a


def sgd_by_loops(weights, biases, xs, ys, orders, lr, mom):
    """Online backprop with momentum in scalar python loops.

    weights/biases are nested lists of the initial network, updated in
    place; orders holds one list of row indices per epoch. Every delta
    comes from the weights before the step. Returns the mean half squared
    error of each epoch.
    """
    layers = len(weights)
    dw = [[[0.0] * len(w[0]) for _ in w] for w in weights]
    db = [[0.0] * len(b) for b in biases]
    losses = []
    for order in orders:
        total = 0.0
        for idx in order:
            acts = [list(xs[idx])]
            for w, b in zip(weights, biases):
                act = acts[-1]
                nxt = []
                for jo in range(len(b)):
                    z = b[jo]
                    for ji in range(len(act)):
                        z += act[ji] * w[ji][jo]
                    nxt.append(1.0 / (1.0 + math.exp(-z)))
                acts.append(nxt)
            delta = [None] * layers
            out = acts[layers]
            last = []
            for jo, o in enumerate(out):
                e = o - ys[idx][jo]
                total += 0.5 * e * e
                last.append(e * o * (1.0 - o))
            delta[layers - 1] = last
            for l in range(layers - 2, -1, -1):
                cur = []
                for ji, a in enumerate(acts[l + 1]):
                    acc = 0.0
                    for jo, dl in enumerate(delta[l + 1]):
                        acc += dl * weights[l + 1][ji][jo]
                    cur.append(acc * a * (1.0 - a))
                delta[l] = cur
            for l in range(layers):
                for ji, a in enumerate(acts[l]):
                    for jo, dl in enumerate(delta[l]):
                        dw[l][ji][jo] = -lr * dl * a + mom * dw[l][ji][jo]
                        weights[l][ji][jo] += dw[l][ji][jo]
                for jo, dl in enumerate(delta[l]):
                    db[l][jo] = -lr * dl + mom * db[l][jo]
                    biases[l][jo] += db[l][jo]
        losses.append(total / len(order))
    return losses


def stacked_gradient_by_layers(weights, biases, x, target):
    """Half the squared error of k stacked models at one row each, and its gradients.

    weights (k, in, out) and biases (k, 1, out) per layer, x and target one
    row per model. Every intermediate is a fresh per-layer array. Returns
    (losses (k,), gradients listed W1, b1, W2, b2, ...).
    """
    acts = [x[:, None, :]]
    for w, b in zip(weights, biases):
        acts.append(1.0 / (1.0 + np.exp(-(acts[-1] @ w + b))))
    acts = [a[:, 0, :] for a in acts]
    out = acts[-1]
    err = out - target
    delta = err * out * (1.0 - out)
    grads = [None] * (2 * len(weights))
    for l in range(len(weights) - 1, -1, -1):
        grads[2 * l] = acts[l][:, :, None] * delta[:, None, :]
        grads[2 * l + 1] = delta[:, None, :]
        if l > 0:
            a = acts[l]
            delta = (weights[l] @ delta[:, :, None])[:, :, 0] * a * (1.0 - a)
    return 0.5 * (err[:, None, :] @ err[:, :, None])[:, 0, 0], grads


@np.errstate(over="ignore")
def sgd_lock_step_by_layers(xs, ys, sizes, seeds, epochs, lr, mom, init_range):
    """Online backprop of one network per (x, y) table in lock-step, from per-layer arrays.

    Each network's RNG draws its layers' weights then biases, then one
    permutation of its rows per epoch. Every step stacks the models that
    still have rows (tables run largest first), takes a fresh
    `stacked_gradient_by_layers` and updates each parameter's momentum step
    in turn. Returns (weights, biases, mean loss per epoch) per table.
    """
    by_size = sorted(range(len(xs)), key=lambda j: -len(xs[j]))
    xs, ys = [xs[j] for j in by_size], [ys[j] for j in by_size]
    n = [len(x) for x in xs]
    shapes = [s for i, o in zip(sizes, sizes[1:]) for s in ((i, o), (1, o))]
    rngs = [np.random.default_rng(seeds[j]) for j in by_size]
    r = init_range
    params = [np.stack(p) for p in zip(*([rng.uniform(-r, r, s) for s in shapes] for rng in rngs))]
    steps = [np.zeros_like(p) for p in params]
    history = np.zeros((len(n), epochs))
    for ep in range(epochs):
        orders = [rng.permutation(m) for rng, m in zip(rngs, n)]
        for i in range(n[0]):
            a = sum(m > i for m in n)
            x = np.stack([xs[j][orders[j][i]] for j in range(a)])
            target = np.stack([ys[j][orders[j][i]] for j in range(a)])
            loss, grads = stacked_gradient_by_layers(
                [w[:a] for w in params[0::2]], [b[:a] for b in params[1::2]], x, target)
            history[:a, ep] += loss
            for p, step, g in zip(params, steps, grads):
                step = step[:a]
                step *= mom
                step -= lr * g
                p[:a] += step
        history[:, ep] /= n
    trained = [([w[j] for w in params[0::2]], [b[j, 0] for b in params[1::2]], history[j])
               for j in range(len(n))]
    return [trained[by_size.index(j)] for j in range(len(n))]


def half_squared_error(weights, biases, x, target) -> float:
    out = forward_by_loops(weights, biases, x)
    return 0.5 * sum((o - t) ** 2 for o, t in zip(out, target))


def finite_difference_grads(model_weights, model_biases, x, target, h=1e-5):
    """Central-difference gradients of the half squared error.

    Returns (weight_grads, bias_grads) as nested lists matching shapes.
    """
    weights = [w.tolist() for w in model_weights]
    biases = [b.tolist() for b in model_biases]
    wgrads = []
    for l, w in enumerate(weights):
        g = [[0.0] * len(w[0]) for _ in range(len(w))]
        for ji in range(len(w)):
            for jo in range(len(w[0])):
                orig = w[ji][jo]
                w[ji][jo] = orig + h
                up = half_squared_error(weights, biases, x, target)
                w[ji][jo] = orig - h
                down = half_squared_error(weights, biases, x, target)
                w[ji][jo] = orig
                g[ji][jo] = (up - down) / (2.0 * h)
        wgrads.append(g)
    bgrads = []
    for l, b in enumerate(biases):
        g = [0.0] * len(b)
        for jo in range(len(b)):
            orig = b[jo]
            b[jo] = orig + h
            up = half_squared_error(weights, biases, x, target)
            b[jo] = orig - h
            down = half_squared_error(weights, biases, x, target)
            b[jo] = orig
            g[jo] = (up - down) / (2.0 * h)
        bgrads.append(g)
    return wgrads, bgrads


def max_relative_error(analytic, numeric, floor=1e-8) -> float:
    """Largest |a - n| / max(|a|, |n|, floor) across nested structures."""
    a = np.concatenate([np.asarray(x, dtype=float).ravel() for x in analytic])
    b = np.concatenate([np.asarray(x, dtype=float).ravel() for x in numeric])
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())
