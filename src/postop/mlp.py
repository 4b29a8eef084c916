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

from .dataset import DataError, Dataset, minmax_scale, observed_range

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
class Encoding:
    """How dataset attributes map onto network inputs and outputs.

    Inputs follow predictor schema order. The nominal predictor at position
    j of the dataset's codes matrix occupies a one-hot block of its domain
    size starting at input nominal_offsets[j]; the numeric predictor at
    position j of its numeric matrix occupies input numeric_offsets[j],
    min-max scaled by (lo[j], hi[j]).
    """

    nominal_offsets: np.ndarray
    numeric_offsets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    input_width: int
    class_labels: tuple[str, ...]


def encode(d: Dataset) -> tuple[Encoding, np.ndarray, np.ndarray]:
    """Build the encoding from a dataset and encode all its instances.

    Returns (encoding, X, Y) with X of shape (n, input_width) and Y the
    one-hot class matrix of shape (n, classes).
    """
    if len(d) == 0:
        raise DataError("cannot encode an empty dataset")
    # a nominal predictor takes one input per domain value, a numeric one
    # (which declares no domain) a single input
    widths = [len(d.schema[ai].values) or 1 for ai in d.predictor_indices]
    at = dict(zip(d.predictor_indices, np.cumsum([0, *widths]).tolist()))
    lo, hi = observed_range(d)
    enc = Encoding(
        nominal_offsets=np.array([at[ai] for ai in d.nominal_predictor_indices], dtype=int),
        numeric_offsets=np.array([at[ai] for ai in d.numeric_predictor_indices], dtype=int),
        lo=lo,
        hi=hi,
        input_width=sum(widths),
        class_labels=d.class_labels,
    )
    y = np.zeros((len(d), len(d.class_labels)))
    y[np.arange(len(d)), d.class_codes()] = 1.0
    return enc, encode_inputs(enc, d), y


def encode_inputs(enc: Encoding, d: Dataset) -> np.ndarray:
    """Input matrix (rows, input_width); missing values encode to all-zero fields."""
    x = np.zeros((len(d), enc.input_width))
    codes = d.codes_matrix()
    rows, cols = np.nonzero(codes >= 0)
    x[rows, enc.nominal_offsets[cols] + codes[rows, cols]] = 1.0
    x[:, enc.numeric_offsets] = minmax_scale(d.numeric_matrix(), enc.lo, enc.hi)
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


def _activations(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's activations, input first, for an input vector or a matrix of rows.

    Rows pass through each layer as a stack of one-row products, so every
    row's sums run in the same order as for a single vector.
    """
    acts = [x[..., None, :]]
    for w, b in zip(model.weights, model.biases):
        acts.append(_sigmoid(acts[-1] @ w + b))
    return [a[..., 0, :] for a in acts]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output activations for an encoded input vector, or a matrix of rows."""
    return _activations(model, x)[-1]


def backprop_gradient(model: MlpModel, x: np.ndarray,
                      target: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Half the squared error at one encoded instance, and its gradients.

    Returns (loss, weight_grads, bias_grads) with the gradients shaped like
    the model's weights and biases.
    """
    acts = _activations(model, x)
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
    rng = np.random.default_rng(cfg.seed)
    r = cfg.weight_init_range
    weights, biases = [], []
    for l in range(len(sizes) - 1):
        weights.append(rng.uniform(-r, r, size=(sizes[l], sizes[l + 1])))
        biases.append(rng.uniform(-r, r, size=sizes[l + 1]))

    model = MlpModel(sizes, weights, biases, enc, loss_history=np.zeros(cfg.epochs))
    params = [*weights, *biases]
    steps = [np.zeros_like(p) for p in params]
    lr, mom = float(cfg.learning_rate), float(cfg.momentum)
    n = x.shape[0]
    for ep in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(n):
            loss, weight_grads, bias_grads = backprop_gradient(model, x[idx], y[idx])
            total += loss
            for p, step, g in zip(params, steps, weight_grads + bias_grads):
                step *= mom
                step -= lr * g
                p += step
        model.loss_history[ep] = total / n
        if not np.isfinite(model.loss_history[ep]):
            raise TrainingError(f"non-finite training loss at epoch {ep}")
    return model


def mlp_predict(model: MlpModel, d: Dataset) -> np.ndarray:
    """Class probabilities (rows, classes): output activations normalized per row."""
    out = forward(model, encode_inputs(model.encoding, d))
    return out / out.sum(axis=1, keepdims=True)
