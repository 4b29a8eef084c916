"""Independent reference implementations used to verify the package.

Everything here is written the slow, obvious way (dict counting, python
loops, closed-form math) so the fast implementations are checked against
code that shares none of their structure.
"""

import math

import numpy as np


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


def gain_ratio_numeric(column, labels) -> float | None:
    """Gain ratio at the best-gain midpoint threshold (ties: lowest).

    Scans every midpoint between adjacent distinct sorted values and keeps
    the first threshold achieving the maximal gain.
    """
    distinct = sorted(set(column))
    if len(distinct) < 2:
        return None
    best_gain = None
    best_groups = None
    for lo, hi in zip(distinct[:-1], distinct[1:]):
        threshold = (lo + hi) / 2.0
        left = [i for i, v in enumerate(column) if v <= threshold]
        right = [i for i, v in enumerate(column) if v > threshold]
        gain = gain_of_partition(labels, [left, right])
        if best_gain is None or gain > best_gain + 1e-15:
            best_gain = gain
            best_groups = [left, right]
    si = split_info_of_partition(len(labels), best_groups)
    if si <= 0:
        return None
    return best_gain / si


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
