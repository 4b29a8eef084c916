"""Feed-forward network with logistic units, trained by online backprop.

Nominal predictors are one-hot encoded, numeric predictors min-max scaled
to [0, 1], and the class one-hot encoded as the target vector. Training
minimizes half the squared error per instance with stochastic gradient
descent plus momentum, visiting instances in a fresh seeded shuffle each
epoch. Each step takes the loss and gradients of one instance from
`backprop_gradient`, the function the finite-difference tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import NOMINAL, DataError, Dataset

# perfbench/child.py:environment() reads this name to label the training
# path. Training has one numpy path, so it is False.
_HAVE_NUMBA = False


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


def backprop_gradient(model: MlpModel, x: np.ndarray,
                      target: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Half the squared error at one encoded instance, and its gradients.

    Returns (loss, weight_grads, bias_grads) with the gradients shaped like
    the model's weights and biases.
    """
    acts = [x]
    for w, b in zip(model.weights, model.biases):
        acts.append(_sigmoid(acts[-1] @ w + b))
    out = acts[-1]
    err = out - target
    delta = err * out * (1.0 - out)
    weight_grads: list[np.ndarray] = [None] * len(model.weights)
    bias_grads: list[np.ndarray] = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        weight_grads[l] = np.outer(acts[l], delta)
        bias_grads[l] = delta
        if l > 0:
            a = acts[l]
            delta = (model.weights[l] @ delta) * a * (1.0 - a)
    return 0.5 * float(err @ err), weight_grads, bias_grads


def default_hidden_size(d: Dataset) -> int:
    return max(1, (len(d.predictor_indices) + len(d.class_labels)) // 2)


def train_mlp(d: Dataset, cfg: MlpConfig) -> MlpModel:
    """Train a network on the dataset.

    Parameters
    ----------
    d : Dataset
        Training table; instances are encoded with `encode`.
    cfg : MlpConfig
        Shape, rates, epoch count, and seed.

    Notes
    -----
    The seeded RNG draws, in order: each layer's weight matrix then bias
    vector (uniform in +-weight_init_range), then one instance visit order
    per epoch, drawn as that epoch starts. Each visit takes one
    `backprop_gradient` step with momentum. Training runs exactly
    cfg.epochs epochs and raises TrainingError if the epoch loss becomes
    non-finite.
    """
    enc, x, y = encode(d)
    hidden = cfg.hidden_sizes if cfg.hidden_sizes is not None else (default_hidden_size(d),)
    sizes = (enc.input_width,) + tuple(hidden) + (len(enc.class_labels),)
    layers = len(sizes) - 1
    width = max(sizes)
    n = x.shape[0]

    # Every layer's weights, biases and momentum buffers are views into one
    # zero-padded block. The products `h @ w` run on strided views, whose
    # summation order differs in the last bit from that of compact arrays;
    # the padded layout keeps reports byte-identical to those already recorded.
    w = np.zeros((layers, width, width))
    b = np.zeros((layers, width))
    dw = np.zeros_like(w)
    db = np.zeros_like(b)
    weights = [w[l, : sizes[l], : sizes[l + 1]] for l in range(layers)]
    biases = [b[l, : sizes[l + 1]] for l in range(layers)]
    weight_steps = [dw[l, : sizes[l], : sizes[l + 1]] for l in range(layers)]
    bias_steps = [db[l, : sizes[l + 1]] for l in range(layers)]

    rng = np.random.default_rng(cfg.seed)
    r = cfg.weight_init_range
    for wl, bl in zip(weights, biases):
        wl[...] = rng.uniform(-r, r, size=wl.shape)
        bl[...] = rng.uniform(-r, r, size=bl.shape)

    model = MlpModel(sizes, weights, biases, enc, loss_history=np.zeros(cfg.epochs))
    lr, mom = float(cfg.learning_rate), float(cfg.momentum)
    for ep in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(n):
            loss, weight_grads, bias_grads = backprop_gradient(model, x[idx], y[idx])
            total += loss
            for wl, bl, dwl, dbl, gw, gb in zip(weights, biases, weight_steps, bias_steps,
                                                weight_grads, bias_grads):
                dwl[...] = -lr * gw + mom * dwl
                wl += dwl
                dbl[...] = -lr * gb + mom * dbl
                bl += dbl
        model.loss_history[ep] = total / n
        if not np.isfinite(model.loss_history[ep]):
            raise TrainingError(f"non-finite training loss at epoch {ep}")

    model.weights = [wl.copy() for wl in weights]
    model.biases = [bl.copy() for bl in biases]
    return model


def mlp_predict(model: MlpModel, d: Dataset) -> np.ndarray:
    """Class probabilities (rows, classes): output activations normalized per row."""
    out = forward(model, encode_inputs(model.encoding, d))
    return out / out.sum(axis=1, keepdims=True)
