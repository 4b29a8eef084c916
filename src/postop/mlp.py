"""Feed-forward network with logistic units, trained by online backprop.

Nominal predictors are one-hot encoded, numeric predictors min-max scaled
to [0, 1], and the class one-hot encoded as the target vector. Training
minimizes half the squared error per instance with stochastic gradient
descent plus momentum, visiting instances in a fresh seeded shuffle each
epoch. The inner loop is compiled with numba when available; a numpy
fallback implements the same update rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import NOMINAL, DataError, Dataset

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # numba is an optional extra; the numpy path runs without it
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap


class TrainingError(RuntimeError):
    """Training diverged or could not proceed."""


@dataclass(frozen=True)
class MlpConfig:
    """Network shape and optimization knobs.

    hidden_sizes None means one hidden layer sized to half the sum of the
    predictor attribute count and the class count (at least one unit).
    """

    seed: int = 0
    hidden_sizes: tuple[int, ...] | None = None
    learning_rate: float = 0.3
    momentum: float = 0.2
    epochs: int = 500
    weight_init_range: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise DataError("learning_rate must be in (0, 1]")
        if not 0.0 < self.momentum <= 1.0:
            raise DataError("momentum must be in (0, 1]")
        if self.epochs < 1:
            raise DataError("epochs must be at least 1")
        if self.weight_init_range <= 0.0:
            raise DataError("weight_init_range must be positive")
        if self.hidden_sizes is not None:
            if len(self.hidden_sizes) == 0 or any(h < 1 for h in self.hidden_sizes):
                raise DataError("hidden_sizes must be a non-empty tuple of positive ints")


@dataclass(frozen=True)
class NumericRange:
    lo: float
    hi: float
    constant: bool


@dataclass(frozen=True)
class Encoding:
    """How dataset attributes map onto network inputs and outputs.

    blocks aligns with predictor attributes in schema order: nominal
    attributes occupy a one-hot block of their domain size, numeric
    attributes one input scaled by the recorded (lo, hi) range. Constant
    numeric columns are flagged and encode to 0.
    """

    attr_indices: tuple[int, ...]
    offsets: tuple[int, ...]
    kinds: tuple[str, ...]
    sizes: tuple[int, ...]
    ranges: dict[int, NumericRange]
    input_width: int
    class_labels: tuple[str, ...]


def encode(d: Dataset) -> tuple[Encoding, np.ndarray, np.ndarray]:
    """Build the encoding from a dataset and encode all its instances.

    Returns (encoding, X, Y) with X of shape (n, input_width) and Y the
    one-hot class matrix of shape (n, classes).
    """
    if len(d) == 0:
        raise DataError("cannot encode an empty dataset")
    attr_indices = []
    offsets = []
    kinds = []
    sizes = []
    ranges: dict[int, NumericRange] = {}
    offset = 0
    for ai in d.predictor_indices:
        attr = d.schema[ai]
        attr_indices.append(ai)
        offsets.append(offset)
        if attr.kind == NOMINAL:
            kinds.append(NOMINAL)
            sizes.append(len(attr.values))
            offset += len(attr.values)
        else:
            kinds.append("numeric")
            sizes.append(1)
            col = d.column(ai)
            col = col[~np.isnan(col)]
            if not col.size:
                raise DataError(f"attribute {attr.name!r} has no observed values to scale by")
            lo, hi = float(col.min()), float(col.max())
            ranges[ai] = NumericRange(lo, hi, constant=lo == hi)
            offset += 1
    enc = Encoding(
        attr_indices=tuple(attr_indices),
        offsets=tuple(offsets),
        kinds=tuple(kinds),
        sizes=tuple(sizes),
        ranges=ranges,
        input_width=offset,
        class_labels=d.class_labels,
    )
    y = np.zeros((len(d), len(d.class_labels)))
    y[np.arange(len(d)), d.class_codes()] = 1.0
    return enc, encode_inputs(enc, d), y


def encode_inputs(enc: Encoding, d: Dataset) -> np.ndarray:
    """Input matrix (rows, input_width); missing values encode to all-zero fields."""
    x = np.zeros((len(d), enc.input_width))
    rows = np.arange(len(d))
    for ai, offset, kind in zip(enc.attr_indices, enc.offsets, enc.kinds):
        v = d.column(ai)
        if kind == NOMINAL:
            seen = v >= 0
            x[rows[seen], offset + v[seen]] = 1.0
        elif not enc.ranges[ai].constant:
            r = enc.ranges[ai]
            x[:, offset] = np.nan_to_num((v - r.lo) / (r.hi - r.lo), nan=0.0)
    return x


@dataclass
class MlpModel:
    """Trained network: per-layer weight matrices (in, out) and bias vectors."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    encoding: Encoding
    loss_history: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "class_labels": list(self.encoding.class_labels),
        }


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output activations for an encoded input vector, or a matrix of rows.

    Rows pass through each layer as a stack of one-row products, so every
    row's sums run in the same order as for a single vector.
    """
    a = x[..., None, :]
    for w, b in zip(model.weights, model.biases):
        a = _sigmoid(a @ w + b)
    return a[..., 0, :]


def _forward_all(model, x):
    acts = [x]
    for w, b in zip(model.weights, model.biases):
        acts.append(_sigmoid(acts[-1] @ w + b))
    return acts


def backprop_gradient(model: MlpModel, x: np.ndarray,
                      target: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of half the squared error at one encoded instance.

    Returns (weight_grads, bias_grads) with shapes matching the model's
    weights and biases.
    """
    acts = _forward_all(model, x)
    out = acts[-1]
    delta = (out - target) * out * (1.0 - out)
    weight_grads: list[np.ndarray] = [None] * len(model.weights)
    bias_grads: list[np.ndarray] = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        weight_grads[l] = np.outer(acts[l], delta)
        bias_grads[l] = delta.copy()
        if l > 0:
            a = acts[l]
            delta = (model.weights[l] @ delta) * a * (1.0 - a)
    return weight_grads, bias_grads


@njit(cache=True)
def _sgd_kernel(x, y, sizes, w, b, dw, db, lr, mom, orders, losses):  # pragma: no cover
    layers = sizes.shape[0] - 1
    n = x.shape[0]
    width = w.shape[1]
    act = np.zeros((layers + 1, width))
    delta = np.zeros((layers, width))
    for ep in range(orders.shape[0]):
        total = 0.0
        for pos in range(n):
            idx = orders[ep, pos]
            for j in range(sizes[0]):
                act[0, j] = x[idx, j]
            for l in range(layers):
                nin = sizes[l]
                nout = sizes[l + 1]
                for jo in range(nout):
                    z = b[l, jo]
                    for ji in range(nin):
                        z += act[l, ji] * w[l, ji, jo]
                    act[l + 1, jo] = 1.0 / (1.0 + math.exp(-z))
            for jo in range(sizes[layers]):
                o = act[layers, jo]
                e = o - y[idx, jo]
                total += 0.5 * e * e
                delta[layers - 1, jo] = e * o * (1.0 - o)
            for l in range(layers - 2, -1, -1):
                for ji in range(sizes[l + 1]):
                    acc = 0.0
                    for jo in range(sizes[l + 2]):
                        acc += delta[l + 1, jo] * w[l + 1, ji, jo]
                    a = act[l + 1, ji]
                    delta[l, ji] = acc * a * (1.0 - a)
            for l in range(layers):
                nin = sizes[l]
                nout = sizes[l + 1]
                for ji in range(nin):
                    a = act[l, ji]
                    for jo in range(nout):
                        dw[l, ji, jo] = -lr * delta[l, jo] * a + mom * dw[l, ji, jo]
                        w[l, ji, jo] += dw[l, ji, jo]
                for jo in range(nout):
                    db[l, jo] = -lr * delta[l, jo] + mom * db[l, jo]
                    b[l, jo] += db[l, jo]
        losses[ep] = total / n
        if not math.isfinite(losses[ep]):
            return ep
    return -1


def _sgd_numpy(x, y, sizes, w, b, dw, db, lr, mom, orders, losses):
    """Same update rule as the compiled kernel, in vectorized numpy."""
    layers = len(sizes) - 1
    n = x.shape[0]
    for ep in range(orders.shape[0]):
        total = 0.0
        for pos in range(n):
            idx = orders[ep, pos]
            acts = [x[idx, : sizes[0]]]
            for l in range(layers):
                z = acts[l] @ w[l, : sizes[l], : sizes[l + 1]] + b[l, : sizes[l + 1]]
                acts.append(_sigmoid(z))
            err = acts[layers] - y[idx, : sizes[layers]]
            total += 0.5 * float(err @ err)
            # all deltas come from the pre-update weights
            deltas = [None] * layers
            deltas[layers - 1] = err * acts[layers] * (1.0 - acts[layers])
            for l in range(layers - 1, 0, -1):
                a = acts[l]
                deltas[l - 1] = (w[l, : sizes[l], : sizes[l + 1]] @ deltas[l]) * a * (1.0 - a)
            for l in range(layers):
                grad_w = np.outer(acts[l], deltas[l])
                dw[l, : sizes[l], : sizes[l + 1]] = (
                    -lr * grad_w + mom * dw[l, : sizes[l], : sizes[l + 1]]
                )
                w[l, : sizes[l], : sizes[l + 1]] += dw[l, : sizes[l], : sizes[l + 1]]
                db[l, : sizes[l + 1]] = -lr * deltas[l] + mom * db[l, : sizes[l + 1]]
                b[l, : sizes[l + 1]] += db[l, : sizes[l + 1]]
        losses[ep] = total / n
        if not math.isfinite(losses[ep]):
            return ep
    return -1


def default_hidden_size(d: Dataset) -> int:
    return max(1, (len(d.predictor_indices) + len(d.class_labels)) // 2)


def train_mlp(d: Dataset, cfg: MlpConfig, *, use_numba: bool | None = None) -> MlpModel:
    """Train a network on the dataset.

    Parameters
    ----------
    d : Dataset
        Training table; instances are encoded with `encode`.
    cfg : MlpConfig
        Shape, rates, epoch count, and seed.
    use_numba : bool, optional
        Force the compiled or the numpy path; default picks the compiled
        path when numba imported.

    Notes
    -----
    The seeded RNG draws, in order: each layer's weight matrix then bias
    vector (uniform in +-weight_init_range), then one instance visit order
    per epoch. Training runs exactly cfg.epochs epochs and raises
    TrainingError if the epoch loss becomes non-finite.
    """
    enc, x, y = encode(d)
    hidden = cfg.hidden_sizes if cfg.hidden_sizes is not None else (default_hidden_size(d),)
    sizes = (enc.input_width,) + tuple(hidden) + (len(enc.class_labels),)
    layers = len(sizes) - 1
    width = max(sizes)
    n = x.shape[0]

    rng = np.random.default_rng(cfg.seed)
    r = cfg.weight_init_range
    w = np.zeros((layers, width, width))
    b = np.zeros((layers, width))
    for l in range(layers):
        w[l, : sizes[l], : sizes[l + 1]] = rng.uniform(-r, r, size=(sizes[l], sizes[l + 1]))
        b[l, : sizes[l + 1]] = rng.uniform(-r, r, size=sizes[l + 1])
    orders = np.empty((cfg.epochs, n), dtype=np.int64)
    for ep in range(cfg.epochs):
        orders[ep] = rng.permutation(n)

    dw = np.zeros_like(w)
    db = np.zeros_like(b)
    losses = np.zeros(cfg.epochs)
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    x_pad = x
    if x.shape[1] < width:
        x_pad = np.zeros((n, width))
        x_pad[:, : x.shape[1]] = x
    y_pad = y
    if y.shape[1] < width:
        y_pad = np.zeros((n, width))
        y_pad[:, : y.shape[1]] = y

    run_compiled = _HAVE_NUMBA if use_numba is None else use_numba
    if run_compiled and not _HAVE_NUMBA:
        raise TrainingError("the compiled path was requested but numba is unavailable")
    step = _sgd_kernel if run_compiled else _sgd_numpy
    bad_epoch = step(x_pad, y_pad, sizes_arr, w, b, dw, db,
                     float(cfg.learning_rate), float(cfg.momentum), orders, losses)
    if bad_epoch >= 0:
        raise TrainingError(f"non-finite training loss at epoch {bad_epoch}")

    weights = [w[l, : sizes[l], : sizes[l + 1]].copy() for l in range(layers)]
    biases = [b[l, : sizes[l + 1]].copy() for l in range(layers)]
    return MlpModel(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        encoding=enc,
        loss_history=losses,
    )


def mlp_predict(model: MlpModel, d: Dataset) -> np.ndarray:
    """Class probabilities (rows, classes): output activations normalized per row."""
    out = forward(model, encode_inputs(model.encoding, d))
    return out / out.sum(axis=1, keepdims=True)
