"""Feed-forward network with logistic units, trained by online backprop.

Nominal predictors are one-hot encoded, numeric predictors min-max scaled
to [0, 1], and the class one-hot encoded as the target vector. Training
minimizes half the squared error per instance with stochastic gradient
descent plus momentum, visiting instances in a fresh seeded shuffle each
epoch. Networks train in lock-step from one flat buffer per quantity
(parameters, momentum steps, gradients), laid out param-major so that each
layer's weights of all networks are one contiguous view; each step writes
its gradients into those views in place. Parameters are held negated,
which saves the logistic a negation and changes no bit but signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .dataset import DataError, Dataset, minmax_scale, observed_range, require_complete

# perfbench/child.py:environment() reads this name to label the training
# path. Training has one numpy path, so it is False.
_HAVE_NUMBA = False

_GATHER = 64  # steps per input gather and loss sum; an epoch's inputs are rows x models x inputs
_ONE = np.array(1.0)  # a ufunc takes a 0-d operand for less than a Python float, in the same loop


class TrainingError(RuntimeError):
    """Training diverged or could not proceed."""


WEIGHT_INIT_RANGE = 0.05  # initial weights and biases are uniform in +-this


@dataclass(frozen=True)
class MlpConfig:
    """Network shape and optimization knobs.

    hidden_sizes None means one hidden layer sized to half the sum of the
    predictor attribute count and the class count (at least one unit).
    """

    hidden_sizes: tuple[int, ...] | None = None
    learning_rate: float = 0.3
    momentum: float = 0.2
    epochs: int = 500

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise DataError("learning_rate must be in (0, 1]")
        if not 0.0 < self.momentum <= 1.0:
            raise DataError("momentum must be in (0, 1]")
        if self.epochs < 1:
            raise DataError("epochs must be at least 1")
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


def _forward(weights, biases, acts) -> np.ndarray:
    """The one forward pass, in place: acts[l + 1] = 1 / (1 + exp(acts[l] @ W + b)).

    W and b are the negated parameters, so x @ W + b is the exact negation of
    the true z, as rounding to nearest is sign-symmetric: exp takes -z's bits.
    Activations are (..., 1, units), so each product is one row's whatever
    stacks it: a row sums in the same order in training and prediction.
    exp overflows to inf above 709 and gives the right 0. Callers
    ignore that overflow once per call (`mlp_predict`, `train_mlps`), since
    entering np.errstate costs about as much as the logistic function itself.
    """
    for w, b, x, z in zip(weights, biases, acts, acts[1:]):
        np.matmul(x, w, out=z)
        z += b
        np.exp(z, out=z)  # then the rest of the logistic, in place
        z += _ONE
        np.divide(_ONE, z, out=z)
    return acts[-1]


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output activations for an encoded input vector, or a matrix of rows."""
    acts = [x[..., None, :], *(np.empty((*x.shape[:-1], 1, o)) for o in model.layer_sizes[1:])]
    return _forward([-w for w in model.weights], [-b for b in model.biases], acts)[..., 0, :]


def _workspace(sizes, k: int):
    """The arrays that k networks of these layer sizes train in.

    Flat buffers of parameters, momentum steps and gradients, each buffer's
    param-major (k, *shape) views (all models' W1, then b1, ...), and the
    activations (k, 1, units) of every layer above the input.
    """
    shapes = [s for i, o in zip(sizes, sizes[1:]) for s in ((i, o), (1, o))]
    ends = [0, *accumulate(k * math.prod(s) for s in shapes)]
    buffers = [np.zeros(ends[-1]) for _ in range(3)]  # apart: trained models keep only the first
    views = [[b[i:j].reshape(k, *s) for i, j, s in zip(ends, ends[1:], shapes)] for b in buffers]
    return buffers, views, [np.zeros((k, 1, o)) for o in sizes[1:]]


def _stepper(workspace, a: int, lr: float, mom: float):
    """The momentum SGD step of a workspace's first a networks, with every view it takes built once.

    step(x, target, err) takes a row of all k models: inputs (k, 1, in),
    targets and error slots (k, 1, classes). For the first a it runs
    `_forward`, writes the output's error into err, backpropagates it into
    the gradients (a bias gradient is its layer's delta) and updates: four
    whole-buffer operations when a is k. Each model's products are the BLAS
    calls it makes alone, and each element takes textbook backprop's order.
    """
    buffers, views, acts = workspace
    k, lr, mom = len(acts[0]), np.array(lr), np.array(mom)  # 0-d: cheaper operands
    params, steps, grads = ([v[:a] for v in vs] for vs in views)
    weights, biases, acts = params[0::2], params[1::2], [None, *(v[:a] for v in acts)]
    # each layer from the output down: its activations, delta (also as (a, units, 1)),
    # weight gradient and the weights and delta of the layer above it (None at the output)
    layers = [(acts[l], grads[2 * l - 1], grads[2 * l - 1].mT, grads[2 * l - 2],
               *((params[2 * l], grads[2 * l + 1].mT) if l < len(params) // 2 else (None, None)))
              for l in range(len(params) // 2, 0, -1)]
    below = [v.mT for v in acts[-2:0:-1]]  # each layer's input but the first, transposed
    update = [buffers] if a == k else list(zip(params, steps, grads))

    def step(x, target, err):
        if a < k:
            x, target, err = x[:a], target[:a], err[:a]
        acts[0] = x
        np.subtract(_forward(weights, biases, acts), target, out=err)
        for (act, delta, delta_t, grad, w, above_t), inputs_t in zip(layers, [*below, x.mT]):
            if w is None:
                np.multiply(err, act, out=delta)
            else:
                np.matmul(w, above_t, out=delta_t)
                delta *= act
            act -= _ONE  # from here on only act - 1 is needed; deltas take the parameters' sign
            delta *= act
            np.multiply(inputs_t, delta, out=grad)
        for p, s, g in update:
            g *= lr
            s *= mom
            s -= g
            p += s

    return step


def default_hidden_size(d: Dataset) -> int:
    return max(1, (len(d.predictor_indices) + len(d.class_labels)) // 2)


def _compact(d: Dataset) -> tuple:
    """(encoding, one-hot bits, numeric inputs, targets, default hidden size) of a table."""
    enc, x, y = encode(d)
    return enc, x.astype(bool), x[:, enc.numeric_offsets], y, default_hidden_size(d)


@np.errstate(over="ignore")
def train_mlps(tables, cfg: MlpConfig, seeds: list[int], split=None) -> list[MlpModel]:
    """Train one network per table in lock-step, each to the bits it gets trained alone.

    Network j's RNG, seeded with seeds[j], draws in order: each layer's
    weight matrix then bias vector (uniform in +-WEIGHT_INIT_RANGE), then
    one instance visit order per epoch, drawn as that epoch starts. Each
    visit takes one gradient step with momentum. Training runs exactly
    cfg.epochs epochs and raises TrainingError if an epoch loss becomes
    non-finite. Each step runs the `_stepper` step of the models that still
    have rows: a prefix, as models sort by table size, largest first; each
    `_GATHER` steps add their losses. Tables are read once, in turn, and
    kept only in `_compact` form. split, if given, is called as each epoch
    starts while more than one network trains here: split(epoch, held,
    rest), held their tables' positions, largest first. It returns None,
    or their models after rest(a, b) has trained held[a:b] on from their
    state.
    """
    folds = list(map(_compact, tables))
    by_size = sorted(range(len(folds)), key=lambda j: -len(folds[j][3]))
    encs, hot, num, y, default_hidden = zip(*map(folds.__getitem__, by_size))
    del folds
    n = np.array([len(t) for t in y])
    first = np.cumsum(n) - n  # each table's first row in the joined arrays
    hot = np.concatenate(hot)  # one at a time, so each part's pieces free in turn
    num = np.concatenate(num)
    y = np.concatenate(y)
    sizes = (encs[0].input_width, *(cfg.hidden_sizes or default_hidden[:1]), y.shape[1])
    k = len(n)
    try:  # every buffer of the run, sized up front
        workspace = _workspace(sizes, k)
        history = np.zeros((k, cfg.epochs))
    except (MemoryError, ValueError) as e:
        raise DataError(f"cannot allocate {k} networks of layer sizes {sizes} "
                        f"over {cfg.epochs} epochs: {e}") from None
    rngs = [np.random.default_rng(seeds[j]) for j in by_size]
    for j, v in product(range(k), workspace[1][0]):  # each model's draws in parameter order
        v[j] = -rngs[j].uniform(-WEIGHT_INIT_RANGE, WEIGHT_INIT_RANGE, v.shape[1:])
    lr, mom = float(cfg.learning_rate), float(cfg.momentum)

    def train(lo, hi, workspace, history, start):  # networks lo..hi-1 in size order
        params, steps = workspace[1][:2]
        k, m = hi - lo, n[lo]
        active = (n[lo:hi] > np.arange(m)[:, None]).sum(axis=1).tolist()  # models with rows
        stepper = {a: _stepper(workspace, a, lr, mom) for a in set(active)}
        for ep in range(start, cfg.epochs):

            def rest(a, b):  # on buffers of their own, whole for the four-operation update
                share = _workspace(sizes, b - a)
                for new, old in zip(share[1][0] + share[1][1], params + steps):
                    new[:] = old[a:b]
                return train(lo + a, lo + b, share, history[a:b], ep)

            if k > 1 and split and (models := split(ep, by_size[lo:hi], rest)) is not None:
                return models
            order = np.zeros((m, k), dtype=np.intp)
            for j in range(k):
                order[: n[lo + j], j] = first[lo + j] + rngs[lo + j].permutation(n[lo + j])
            for i in range(0, m, _GATHER):
                rows = order[i : i + _GATHER, :, None]
                xs, ys = hot[rows].astype(float), y[rows]
                xs[..., encs[0].numeric_offsets] = num[rows]
                errs = np.zeros((len(rows) + 1, k, 1, sizes[-1]))  # row 0 carries the sum so far
                for x, t, err, a in zip(xs, ys, errs[1:], active[i : i + _GATHER]):
                    stepper[a](x, t, err)
                loss = np.matmul(errs, errs.mT)
                loss *= 0.5
                loss[0, :, 0, 0] = history[:, ep]  # then in step order (add.reduce: pairwise)
                history[:, ep] = np.add.accumulate(loss, axis=0, out=loss)[-1, :, 0, 0]
            history[:, ep] /= n[lo:hi]
            if not np.isfinite(history[:, ep]).all():
                raise TrainingError(f"non-finite training loss at epoch {ep}")
        return [MlpModel(sizes, [-w[j] for w in params[0::2]], [-b[j, 0] for b in params[1::2]],
                         encs[lo + j], history[j]) for j in range(k)]

    models = train(0, k, workspace, history, 0)
    return [models[by_size.index(j)] for j in range(k)]


@np.errstate(over="ignore")
def mlp_predict(model: MlpModel, d: Dataset) -> np.ndarray:
    """Class probabilities (rows, classes): output activations normalized per row."""
    out = forward(model, encode_inputs(model.encoding, d))
    return out / out.sum(axis=1, keepdims=True)
