"""Network encoding, gradients vs finite differences, and both training paths."""

import numpy as np
import pytest

import postop.mlp as mlp_mod
from postop.dataset import AttributeSchema, DataError, Dataset
from postop.mlp import (
    MlpConfig,
    MlpModel,
    TrainingError,
    backprop_gradient,
    default_hidden_size,
    encode,
    encode_inputs,
    forward,
    mlp_predict,
    train_mlp,
)

from conftest import nominal_dataset, query
from oracles import finite_difference_grads, forward_by_loops, max_relative_error


def _toy_dataset(n=24, seed=3):
    """Separable two-class table: one nominal and one numeric predictor."""
    rng = np.random.default_rng(seed)
    schema = [
        AttributeSchema("color", "nominal", ("red", "blue")),
        AttributeSchema("size", "numeric"),
        AttributeSchema("cls", "nominal", ("T", "F"), role="class"),
    ]
    rows = []
    for i in range(n):
        c = i % 2
        rows.append((c, float(rng.normal(loc=3.0 * c, scale=0.3)), c))
    return Dataset.from_rows(schema, rows)


def _random_net(rng, sizes):
    weights = [rng.normal(scale=0.7, size=(sizes[l], sizes[l + 1])) for l in range(len(sizes) - 1)]
    biases = [rng.normal(scale=0.7, size=sizes[l + 1]) for l in range(len(sizes) - 1)]
    return MlpModel(tuple(sizes), weights, biases, encoding=None, loss_history=np.zeros(0))


# -- encoding -------------------------------------------------------------------


def test_cohort_encoding_shape(cohort):
    enc, x, y = encode(cohort)
    # 13 nominal predictors over 34 values, plus 3 scaled numerics
    assert enc.input_width == 37
    assert x.shape == (470, 37)
    assert y.shape == (470, 2)
    assert ((y == 0) | (y == 1)).all()
    assert (y.sum(axis=1) == 1).all()
    # one-hot blocks carry exactly one 1; numeric inputs live in [0, 1]
    for offset, kind, size in zip(enc.offsets, enc.kinds, enc.sizes):
        block = x[:, offset : offset + size]
        if kind == "nominal":
            assert ((block == 0) | (block == 1)).all()
            assert (block.sum(axis=1) == 1).all()
        else:
            assert block.min() == 0.0 and block.max() == 1.0


def test_numeric_scaling_and_constant_column():
    schema = [
        AttributeSchema("u", "numeric"),
        AttributeSchema("v", "numeric"),
        AttributeSchema("cls", "nominal", ("T", "F"), role="class"),
    ]
    d = Dataset.from_rows(schema, [(2.0, 5.0, 0), (4.0, 5.0, 1), (6.0, 5.0, 0)])
    enc, x, _ = encode(d)
    assert x[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert enc.ranges[1].constant
    assert x[:, 1].tolist() == [0.0, 0.0, 0.0]
    # out-of-range values extrapolate rather than clamp
    assert encode_inputs(enc, query(d, (8.0, 9.9, 0)))[0, 0] == pytest.approx(1.5)


def test_missing_values_encode_to_zero():
    d = _toy_dataset()
    enc, _, _ = encode(d)
    x = encode_inputs(enc, query(d, (None, None, 0), (1, None, 0), (None, 3.0, 0)))
    assert x[0].tolist() == [0.0, 0.0, 0.0]
    assert x[1, :2].tolist() == [0.0, 1.0] and x[1, 2] == 0.0
    assert x[2, :2].tolist() == [0.0, 0.0] and x[2, 2] > 0.0


def test_encode_rejects_empty_dataset():
    with pytest.raises(DataError, match="empty"):
        encode(_toy_dataset().subset([]))


# -- gradients -------------------------------------------------------------------


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for sizes in [(3, 2), (4, 5, 2), (2, 3, 3, 2)]:
        model = _random_net(rng, sizes)
        x = rng.uniform(0, 1, size=sizes[0])
        expected = forward_by_loops([w.tolist() for w in model.weights],
                                    [b.tolist() for b in model.biases], x.tolist())
        assert np.allclose(forward(model, x), expected, atol=1e-12)
        # a matrix of rows gives each row's vector result, bit for bit
        rows = rng.uniform(0, 1, size=(7, sizes[0]))
        batch = forward(model, rows)
        assert batch.shape == (7, sizes[-1])
        assert all(np.array_equal(batch[i], forward(model, r)) for i, r in enumerate(rows))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(10):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        model = _random_net(rng, sizes)
        x = rng.uniform(-1, 1, size=sizes[0])
        target = rng.uniform(0, 1, size=sizes[-1])
        gw, gb = backprop_gradient(model, x, target)
        nw, nb = finite_difference_grads(model.weights, model.biases,
                                         x.tolist(), target.tolist())
        assert max_relative_error(gw, nw) < 1e-5
        assert max_relative_error(gb, nb) < 1e-5


# -- training --------------------------------------------------------------------


def test_compiled_and_numpy_paths_agree():
    d = _toy_dataset()
    cfg = MlpConfig(seed=42, hidden_sizes=(3,), epochs=8)
    fast = train_mlp(d, cfg, use_numba=True)
    slow = train_mlp(d, cfg, use_numba=False)
    assert fast.layer_sizes == slow.layer_sizes
    for wf, ws in zip(fast.weights, slow.weights):
        assert np.allclose(wf, ws, atol=1e-8)
    for bf, bs in zip(fast.biases, slow.biases):
        assert np.allclose(bf, bs, atol=1e-8)
    assert np.allclose(fast.loss_history, slow.loss_history, atol=1e-8)


def test_same_seed_is_bitwise_reproducible():
    d = _toy_dataset()
    cfg = MlpConfig(seed=7, hidden_sizes=(4,), epochs=5)
    for path in (False, True) if mlp_mod._HAVE_NUMBA else (False,):
        m1 = train_mlp(d, cfg, use_numba=path)
        m2 = train_mlp(d, cfg, use_numba=path)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)
        assert np.array_equal(m1.loss_history, m2.loss_history)


def test_different_seeds_differ():
    d = _toy_dataset()
    m1 = train_mlp(d, MlpConfig(seed=1, hidden_sizes=(3,), epochs=2))
    m2 = train_mlp(d, MlpConfig(seed=2, hidden_sizes=(3,), epochs=2))
    assert not np.allclose(m1.weights[0], m2.weights[0])


def test_loss_history_and_learning_progress():
    d = _toy_dataset()
    model = train_mlp(d, MlpConfig(seed=5, hidden_sizes=(3,), epochs=60))
    assert model.loss_history.shape == (60,)
    assert np.isfinite(model.loss_history).all()
    assert model.loss_history[-1] < model.loss_history[0]
    assert model.loss_history[-10:].mean() < model.loss_history[:10].mean()
    # the trained net separates the toy classes
    assert (mlp_predict(model, d).argmax(axis=1) == d.class_codes()).all()


def test_default_topology(cohort):
    assert default_hidden_size(cohort) == 9
    model = train_mlp(cohort.subset(range(40)), MlpConfig(seed=0, epochs=1))
    assert model.layer_sizes == (37, 9, 2)


def test_multiple_hidden_layers():
    d = _toy_dataset()
    model = train_mlp(d, MlpConfig(seed=0, hidden_sizes=(4, 3), epochs=3))
    assert model.layer_sizes == (3, 4, 3, 2)
    assert [w.shape for w in model.weights] == [(3, 4), (4, 3), (3, 2)]


def test_predictions_are_normalized():
    d = _toy_dataset()
    model = train_mlp(d, MlpConfig(seed=0, hidden_sizes=(3,), epochs=2))
    p = mlp_predict(model, d)
    assert p.shape == (len(d), 2)
    assert p.sum(axis=1) == pytest.approx(np.ones(len(d)))
    assert (p > 0).all()


def test_config_validation():
    for bad in (dict(learning_rate=0.0), dict(learning_rate=1.5),
                dict(momentum=0.0), dict(momentum=1.2), dict(epochs=0),
                dict(weight_init_range=0.0), dict(hidden_sizes=()),
                dict(hidden_sizes=(3, 0))):
        with pytest.raises(DataError):
            MlpConfig(**bad)


def test_non_finite_loss_is_reported():
    # the step function contract: a NaN input makes epoch 0 non-finite
    sizes = np.array([1, 2], dtype=np.int64)
    w = np.zeros((1, 2, 2))
    b = np.zeros((1, 2))
    x = np.array([[np.nan, 0.0]])
    y = np.array([[1.0, 0.0]])
    orders = np.zeros((1, 1), dtype=np.int64)
    losses = np.zeros(1)
    bad = mlp_mod._sgd_numpy(x, y, sizes, w, b, np.zeros_like(w), np.zeros_like(b),
                             0.3, 0.2, orders, losses)
    assert bad == 0
    # and train_mlp turns a bad epoch into a TrainingError
    d = _toy_dataset(n=6)

    def fake_step(*args, **kwargs):
        return 3

    saved = mlp_mod._sgd_numpy
    mlp_mod._sgd_numpy = fake_step
    try:
        with pytest.raises(TrainingError, match="epoch 3"):
            train_mlp(d, MlpConfig(seed=0, hidden_sizes=(2,), epochs=5), use_numba=False)
    finally:
        mlp_mod._sgd_numpy = saved


def test_compiled_path_requires_numba(monkeypatch):
    monkeypatch.setattr(mlp_mod, "_HAVE_NUMBA", False)
    d = _toy_dataset(n=6)
    with pytest.raises(TrainingError, match="numba"):
        train_mlp(d, MlpConfig(seed=0, hidden_sizes=(2,), epochs=1), use_numba=True)
    # the automatic choice falls back to the numpy path
    model = train_mlp(d, MlpConfig(seed=0, hidden_sizes=(2,), epochs=1))
    assert model.loss_history.shape == (1,)


def test_all_nominal_dataset_trains():
    d = nominal_dataset({"a": [0, 1, 0, 1, 0, 1], "b": [0, 0, 1, 1, 0, 0]},
                        [0, 1, 0, 1, 0, 1])
    model = train_mlp(d, MlpConfig(seed=0, hidden_sizes=(2,), epochs=30))
    assert model.layer_sizes == (4, 2, 2)
    assert np.isfinite(model.loss_history).all()
