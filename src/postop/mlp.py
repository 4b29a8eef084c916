"""Feed-forward network with logistic units, trained by online backprop.

Nominal predictors are one-hot encoded, numeric predictors min-max scaled
to [0, 1], and the class one-hot encoded as the target vector. Training
minimizes half the squared error per instance with stochastic gradient
descent plus momentum, visiting instances in a fresh seeded shuffle each
epoch. The finite-difference tests check `backprop_gradient`, the
one-model case of the stacked gradient that every training step takes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import DataError, Dataset, minmax_scale, observed_range, require_complete

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
    """Input matrix (rows, input_width) of a table with no missing cells."""
    require_complete(d, "the network encoding")
    x = np.zeros((len(d), enc.input_width))
    x[np.arange(len(d))[:, None], enc.nominal_offsets + d.codes_matrix()] = 1.0
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


def _sigmoid(z):
    """Logistic function of z.

    exp(-z) overflows to inf below z = -709 and gives the right 0. Callers
    ignore that overflow once per call (`train_mlps`, `mlp_predict`), since
    entering np.errstate costs about as much as the sigmoid itself.
    """
    return 1.0 / (1.0 + np.exp(-z))


def _activations(weights, biases, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's activations, input first, for an input vector or a matrix of rows.

    Rows pass through each layer as a stack of one-row products, so every
    row's sums run in the same order as for a single vector. Weights stacked
    (k, in, out) with biases (k, 1, out) take x as one row per model.
    """
    acts = [x[..., None, :]]
    for w, b in zip(weights, biases):
        acts.append(_sigmoid(acts[-1] @ w + b))
    return [a[..., 0, :] for a in acts]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output activations for an encoded input vector, or a matrix of rows."""
    return _activations(model.weights, model.biases, x)[-1]


def stacked_gradient(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray,
                     target: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Half the squared error of k stacked models, each at its own instance, and its gradients.

    x and target hold one row per model. Returns (losses (k,), weight_grads,
    bias_grads); each model's products are the BLAS calls it makes alone.
    """
    acts = _activations(weights, biases, x)
    out = acts[-1]
    err = out - target
    delta = err * out * (1.0 - out)
    weight_grads, bias_grads = [None] * len(weights), [None] * len(biases)
    for l in range(len(weights) - 1, -1, -1):
        weight_grads[l] = acts[l][:, :, None] * delta[:, None, :]
        bias_grads[l] = delta[:, None, :]
        if l > 0:
            a = acts[l]
            delta = (weights[l] @ delta[:, :, None])[:, :, 0] * a * (1.0 - a)
    return 0.5 * (err[:, None, :] @ err[:, :, None])[:, 0, 0], weight_grads, bias_grads


def backprop_gradient(model: MlpModel, x: np.ndarray,
                      target: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Half the squared error at one encoded instance, and its gradients.

    Returns (loss, weight_grads, bias_grads) with the gradients shaped like
    the model's weights and biases: the k = 1 case of `stacked_gradient`.
    """
    loss, weight_grads, bias_grads = stacked_gradient(
        [w[None] for w in model.weights], [b[None, None] for b in model.biases],
        x[None], target[None])
    return float(loss[0]), [g[0] for g in weight_grads], [g[0, 0] for g in bias_grads]


def default_hidden_size(d: Dataset) -> int:
    return max(1, (len(d.predictor_indices) + len(d.class_labels)) // 2)


def train_mlp(d: Dataset, cfg: MlpConfig) -> MlpModel:
    """Train a network on the dataset: `train_mlps` for one table.

    The seeded RNG draws, in order: each layer's weight matrix then bias
    vector (uniform in +-weight_init_range), then one instance visit order
    per epoch, drawn as that epoch starts. Each visit takes one gradient
    step with momentum. Training runs exactly cfg.epochs epochs and raises
    TrainingError if the epoch loss becomes non-finite.
    """
    return train_mlps([d], [cfg])[0]


def _compact(d: Dataset) -> tuple:
    """(encoding, one-hot bits, numeric inputs, targets, default hidden size) of a table."""
    enc, x, y = encode(d)
    return enc, x.astype(bool), x[:, enc.numeric_offsets], y, default_hidden_size(d)


@np.errstate(over="ignore")
def train_mlps(tables, configs: list[MlpConfig]) -> list[MlpModel]:
    """Train one network per table in lock-step, each to the bits `train_mlp` gives it.

    configs may differ only in seed. Each step runs one `stacked_gradient`
    and momentum update over the models that still have rows: a prefix, as
    models sort by table size, largest first. Tables are read once, in turn,
    and kept only in `_compact` form.
    """
    cfg = configs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in configs):
        raise DataError("networks trained in lock-step may differ only in seed")
    folds = list(map(_compact, tables))
    by_size = sorted(range(len(folds)), key=lambda j: -len(folds[j][3]))
    encs, hot, num, y, default_hidden = zip(*map(folds.__getitem__, by_size))
    del folds
    n = np.array([len(t) for t in y])
    first = np.cumsum(n) - n  # each table's first row in the joined arrays
    hot = np.concatenate(hot)  # one at a time, so each part's pieces free in turn
    num = np.concatenate(num)
    y = np.concatenate(y)
    sizes = (encs[0].input_width, *(cfg.hidden_sizes or default_hidden[:1]),
             len(encs[0].class_labels))
    shapes = [s for i, o in zip(sizes, sizes[1:]) for s in ((i, o), (1, o))]
    rngs = [np.random.default_rng(configs[j].seed) for j in by_size]
    r = cfg.weight_init_range
    init = [np.stack(p) for p in zip(*([rng.uniform(-r, r, s) for s in shapes] for rng in rngs))]
    weights, biases = init[0::2], init[1::2]
    params = weights + biases
    steps = [np.zeros_like(p) for p in params]
    lr, mom = float(cfg.learning_rate), float(cfg.momentum)
    history = np.zeros((len(n), cfg.epochs))
    active = (n > np.arange(n[0])[:, None]).sum(axis=1).tolist()  # models with rows, per step
    for ep in range(cfg.epochs):
        order = np.zeros((n[0], len(n)), dtype=np.intp)
        for j, rng in enumerate(rngs):
            order[: n[j], j] = first[j] + rng.permutation(n[j])
        for i, a in enumerate(active):
            rows = order[i, :a]
            x = hot[rows].astype(float)
            x[:, encs[0].numeric_offsets] = num[rows]
            loss, weight_grads, bias_grads = stacked_gradient(
                [w[:a] for w in weights], [b[:a] for b in biases], x, y[rows])
            history[:a, ep] += loss
            for p, step, g in zip(params, steps, weight_grads + bias_grads):
                step = step[:a]
                step *= mom
                step -= lr * g
                p[:a] += step
        history[:, ep] /= n
        if not np.isfinite(history[:, ep]).all():
            raise TrainingError(f"non-finite training loss at epoch {ep}")
    models = [MlpModel(sizes, [w[j] for w in weights], [b[j, 0] for b in biases], enc, history[j])
              for j, enc in enumerate(encs)]
    return [models[by_size.index(j)] for j in range(len(models))]


@np.errstate(over="ignore")
def mlp_predict(model: MlpModel, d: Dataset) -> np.ndarray:
    """Class probabilities (rows, classes): output activations normalized per row."""
    out = forward(model, encode_inputs(model.encoding, d))
    return out / out.sum(axis=1, keepdims=True)
