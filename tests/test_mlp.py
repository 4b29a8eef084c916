"""Network encoding, gradients vs finite differences, and training vs a loop oracle."""

import tracemalloc
import warnings

import numpy as np
import pytest

import postop.mlp as mlp_mod
from postop.dataset import AttributeSchema, DataError, parse_arff
from postop.evaluation import cross_validate, make_classifier, stratified_folds
from postop.mlp import (
    MlpConfig,
    MlpModel,
    TrainingError,
    default_hidden_size,
    encode,
    encode_inputs,
    forward,
    mlp_predict,
    WEIGHT_INIT_RANGE,
    train_mlps,
)
from postop.resampling import SmoteConfig, smote

from conftest import (
    from_rows, gradient_at, nominal_dataset, query, synthetic_cohort_text, train_one,
)
from oracles import (
    finite_difference_grads, forward_by_layers, forward_by_loops, max_relative_error,
    sgd_by_loops, sgd_lock_step_by_layers,
)


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
    return from_rows(schema, rows)


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
    sizes = [len(cohort.schema[ai].values) for ai in cohort.nominal_predictor_indices]
    for offset, size in zip(enc.nominal_offsets, sizes):
        block = x[:, offset : offset + size]
        assert ((block == 0) | (block == 1)).all()
        assert (block.sum(axis=1) == 1).all()
    for offset in enc.numeric_offsets:
        assert x[:, offset].min() == 0.0 and x[:, offset].max() == 1.0


def test_numeric_scaling_and_constant_column():
    schema = [
        AttributeSchema("u", "numeric"),
        AttributeSchema("v", "numeric"),
        AttributeSchema("cls", "nominal", ("T", "F"), role="class"),
    ]
    d = from_rows(schema, [(2.0, 5.0, 0), (4.0, 5.0, 1), (6.0, 5.0, 0)])
    enc, x, _ = encode(d)
    assert x[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert enc.lo[1] == enc.hi[1] == 5.0
    assert x[:, 1].tolist() == [0.0, 0.0, 0.0]
    # out-of-range values extrapolate rather than clamp, except in a column
    # constant in training: a value it never took there still encodes to 0
    x = encode_inputs(enc, query(d, (8.0, 9.9, 0)))
    assert x[0, 0] == pytest.approx(1.5)
    assert x[0, 1] == 0.0


def test_extreme_magnitudes_scale_into_the_unit_interval():
    schema = [
        AttributeSchema("v", "numeric"),
        AttributeSchema("cls", "nominal", ("T", "F"), role="class"),
    ]
    d = from_rows(schema, [(-1e308, 0), (1e308, 1), (0.0, 0), (5e307, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, x, _ = encode(d)
    assert x[:, 0].tolist() == [0.0, 1.0, 0.5, 0.75]


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


@np.errstate(over="ignore")
@pytest.mark.parametrize("scale", [0.7, 900.0])  # 900: |z| passes 709 both ways, exp(-z) overflows
def test_forward_equals_the_per_layer_oracle_bit_for_bit(scale):
    rng = np.random.default_rng(12)
    z = []
    for sizes in [(3, 2), (4, 5, 2), (2, 3, 3, 2), (37, 9, 2)]:
        model = _random_net(rng, sizes)
        model.weights = [w * scale for w in model.weights]
        rows = rng.uniform(0, 1, size=(9, sizes[0]))
        batch = forward(model, rows)
        assert batch.shape == (9, sizes[-1])
        for i, x in enumerate(rows):
            want = forward_by_layers(model.weights, model.biases, x)
            assert forward(model, x).tobytes() == want.tobytes()
            assert batch[i].tobytes() == want.tobytes()
        z.append(rows @ model.weights[0] + model.biases[0])
    z = np.concatenate([a.ravel() for a in z])
    assert (z.min() < -709 and z.max() > 709) == (scale > 1)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(10):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        model = _random_net(rng, sizes)
        x = rng.uniform(-1, 1, size=sizes[0])
        target = rng.uniform(0, 1, size=sizes[-1])
        _, gw, gb = gradient_at(model, x, target)
        nw, nb = finite_difference_grads(model.weights, model.biases,
                                         x.tolist(), target.tolist())
        assert max_relative_error(gw, nw) < 1e-5
        assert max_relative_error(gb, nb) < 1e-5


# -- training --------------------------------------------------------------------


def test_training_matches_scalar_loop_oracle():
    d = _toy_dataset()
    _, x, y = encode(d)
    for hidden in [(3,), (4, 3), (5,)]:
        cfg = MlpConfig(hidden_sizes=hidden, epochs=8)
        model = train_one(d, cfg, 42)
        # the draws in the order train_mlps's docstring gives
        sizes = (x.shape[1],) + hidden + (y.shape[1],)
        rng = np.random.default_rng(42)
        r = WEIGHT_INIT_RANGE
        weights, biases = [], []
        for l in range(len(sizes) - 1):
            weights.append(rng.uniform(-r, r, size=(sizes[l], sizes[l + 1])).tolist())
            biases.append(rng.uniform(-r, r, size=sizes[l + 1]).tolist())
        orders = [rng.permutation(len(d)).tolist() for _ in range(cfg.epochs)]
        losses = sgd_by_loops(weights, biases, x.tolist(), y.tolist(), orders,
                              cfg.learning_rate, cfg.momentum)
        assert model.layer_sizes == sizes
        for got, want in zip(model.weights, weights):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip(model.biases, biases):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(model.loss_history, losses, rtol=0, atol=1e-12)


def test_same_seed_is_bitwise_reproducible():
    d = _toy_dataset()
    cfg = MlpConfig(hidden_sizes=(4,), epochs=5)
    m1 = train_one(d, cfg, 7)
    m2 = train_one(d, cfg, 7)
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(m1.biases, m2.biases):
        assert np.array_equal(b1, b2)
    assert np.array_equal(m1.loss_history, m2.loss_history)


def test_different_seeds_differ():
    d = _toy_dataset()
    m1 = train_one(d, MlpConfig(hidden_sizes=(3,), epochs=2), 1)
    m2 = train_one(d, MlpConfig(hidden_sizes=(3,), epochs=2), 2)
    assert not np.allclose(m1.weights[0], m2.weights[0])


def test_loss_history_and_learning_progress():
    d = _toy_dataset()
    model = train_one(d, MlpConfig(hidden_sizes=(3,), epochs=60), 5)
    assert model.loss_history.shape == (60,)
    assert np.isfinite(model.loss_history).all()
    assert model.loss_history[-1] < model.loss_history[0]
    assert model.loss_history[-10:].mean() < model.loss_history[:10].mean()
    # the trained net separates the toy classes
    assert (mlp_predict(model, d).argmax(axis=1) == d.class_codes()).all()


def test_default_topology(cohort):
    assert default_hidden_size(cohort) == 9
    model = train_one(cohort.subset(range(40)), MlpConfig(epochs=1), 0)
    assert model.layer_sizes == (37, 9, 2)


def test_multiple_hidden_layers():
    d = _toy_dataset()
    model = train_one(d, MlpConfig(hidden_sizes=(4, 3), epochs=3), 0)
    assert model.layer_sizes == (3, 4, 3, 2)
    assert [w.shape for w in model.weights] == [(3, 4), (4, 3), (3, 2)]


def test_predictions_are_normalized():
    d = _toy_dataset()
    model = train_one(d, MlpConfig(hidden_sizes=(3,), epochs=2), 0)
    p = mlp_predict(model, d)
    assert p.shape == (len(d), 2)
    assert p.sum(axis=1) == pytest.approx(np.ones(len(d)))
    assert (p > 0).all()


def test_prediction_far_outside_the_training_range_raises_no_warning():
    d = _toy_dataset()
    model = train_one(d, MlpConfig(hidden_sizes=(3,), epochs=2), 0)
    rows = query(d, (0, 1e6, 0), (0, -1e6, 0))
    z = encode_inputs(model.encoding, rows) @ model.weights[0] + model.biases[0]
    assert z.min() < -710  # exp(-z) overflows in the sigmoid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = mlp_predict(model, rows)
    assert np.isfinite(p).all()
    assert p.sum(axis=1) == pytest.approx(np.ones(2))


def test_config_validation():
    for bad in (dict(learning_rate=0.0), dict(learning_rate=1.5),
                dict(momentum=0.0), dict(momentum=1.2), dict(epochs=0),
                dict(hidden_sizes=()), dict(hidden_sizes=(3, 0))):
        with pytest.raises(DataError):
            MlpConfig(**bad)


def _diverging_after(steps):
    """A `_stepper` whose steps, after the first `steps`, set the error of the
    last model still stepping to inf: its loss is then infinite."""
    stepper, calls = mlp_mod._stepper, []

    def diverging_stepper(workspace, a, lr, mom):
        step = stepper(workspace, a, lr, mom)

        def diverging(x, target, err):
            step(x, target, err)
            calls.append(1)
            if len(calls) > steps:
                err[a - 1] = np.inf

        return diverging

    return diverging_stepper


def test_non_finite_loss_is_reported(monkeypatch):
    d = _toy_dataset(n=6)
    cfg = MlpConfig(hidden_sizes=(2,), epochs=5)
    # a NaN in the numeric input makes epoch 0 non-finite
    def nan_encode(table):
        enc, x, y = encode(table)
        x[0, 2] = np.nan
        return enc, x, y

    with monkeypatch.context() as m:
        m.setattr(mlp_mod, "encode", nan_encode)
        with pytest.raises(TrainingError, match="epoch 0"):
            train_one(d, cfg, 0)
    # a loss that turns infinite later is reported at the epoch it happens
    monkeypatch.setattr(mlp_mod, "_stepper", _diverging_after(3 * len(d)))
    with pytest.raises(TrainingError, match="epoch 3"):
        train_one(d, cfg, 0)


def test_non_finite_loss_in_one_of_k_models_names_the_epoch(monkeypatch):
    tables = [_toy_dataset(n=n, seed=n) for n in (7, 9, 8)]
    cfg = MlpConfig(hidden_sizes=(2,), epochs=5)
    nan_table = tables[2]

    def nan_encode(table):
        enc, x, y = encode(table)
        if table is nan_table:
            x[0, 2] = np.nan
        return enc, x, y

    with monkeypatch.context() as m:
        m.setattr(mlp_mod, "encode", nan_encode)
        with pytest.raises(TrainingError, match="epoch 0"):
            train_mlps(tables, cfg, range(3))
    # only the last model still stepping turns infinite, from epoch 2 on
    # (9 lock-steps per epoch, one per row of the largest table)
    monkeypatch.setattr(mlp_mod, "_stepper", _diverging_after(2 * 9))
    with pytest.raises(TrainingError, match="epoch 2"):
        train_mlps(tables, cfg, range(3))


@pytest.mark.parametrize("k, overrides", [
    (10, dict(epochs=3)),
    (10, dict(hidden_sizes=(4, 3), epochs=2)),
    (7, dict(epochs=2)),  # unequal folds: 402 and 403 training rows
])
def test_lock_step_training_equals_one_fold_at_a_time(cohort, k, overrides):
    folds = stratified_folds(cohort, k, 5)
    tables = [cohort.subset(folds.train_indices(t)) for t in range(k)]
    cfg, seeds = MlpConfig(**overrides), [100 + t for t in range(k)]
    if k == 7:
        assert {len(t) for t in tables} == {402, 403}
    together = train_mlps(iter(tables), cfg, seeds)
    for table, seed, got in zip(tables, seeds, together):
        alone = train_one(table, cfg, seed)
        assert got.layer_sizes == alone.layer_sizes
        # bytes, not values: -0.0 and 0.0 would compare equal
        assert [g.tobytes() for g in got.weights] == [w.tobytes() for w in alone.weights]
        assert [g.tobytes() for g in got.biases] == [w.tobytes() for w in alone.biases]
        assert got.loss_history.tobytes() == alone.loss_history.tobytes()
        assert np.array_equal(got.encoding.lo, alone.encoding.lo)


@pytest.mark.parametrize("k, overrides", [
    (10, dict(epochs=3)),
    (10, dict(hidden_sizes=(4, 3), epochs=2)),
    (7, dict(epochs=2)),  # unequal folds: the last step updates only the larger models
    (10, dict(learning_rate=0.05, momentum=0.9, epochs=2)),
    # tables of the cohort's first rows, of these sizes: one network, whose block
    # losses add in step order; tables shorter than one block; and counts of models
    # that drop inside a block (at row 130) and stay down past its end (row 192)
    ((470,), dict(epochs=2)),
    ((7, 9, 8), dict(hidden_sizes=(2,), epochs=5)),
    ((200, 130), dict(epochs=2)),
])
def test_param_major_training_equals_the_per_layer_loop(cohort, k, overrides):
    if isinstance(k, tuple):
        tables = [cohort.subset(np.arange(rows)) for rows in k]
    else:
        folds = stratified_folds(cohort, k, 5)
        tables = [cohort.subset(folds.train_indices(t)) for t in range(k)]
    cfg, seeds = MlpConfig(**overrides), [100 + t for t in range(len(tables))]
    if k == 7:
        assert {len(t) for t in tables} == {402, 403}
    got = train_mlps(tables, cfg, seeds)
    xs, ys = zip(*(encode(t)[1:] for t in tables))
    want = sgd_lock_step_by_layers(xs, ys, got[0].layer_sizes, seeds, cfg.epochs,
                                   cfg.learning_rate, cfg.momentum, WEIGHT_INIT_RANGE)
    for model, (weights, biases, history) in zip(got, want):
        assert [g.tobytes() for g in model.weights] == [w.tobytes() for w in weights]
        assert [g.tobytes() for g in model.biases] == [w.tobytes() for w in biases]
        assert model.loss_history.tobytes() == history.tobytes()


def test_networks_too_large_to_allocate_are_a_data_error(monkeypatch):
    d = _toy_dataset()
    # numpy refuses this size before it allocates anything
    with pytest.raises(DataError, match=r"layer sizes \(3, 1000000000000000000, 2\)"):
        train_one(d, MlpConfig(hidden_sizes=(10**18,), epochs=1), 0)
    with pytest.raises(DataError, match="over 1000000000000000000 epochs"):
        train_one(d, MlpConfig(hidden_sizes=(2,), epochs=10**18), 0)
    zeros = np.zeros

    def short_of_memory(shape, *args, **kwargs):
        if np.prod(shape) > 10**6:
            raise MemoryError("Unable to allocate")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", short_of_memory)
    with pytest.raises(DataError, match=r"layer sizes \(3, 1000000, 2\)"):
        train_one(d, MlpConfig(hidden_sizes=(10**6,), epochs=1), 0)


def test_an_epoch_gathers_its_inputs_a_block_at_a_time():
    # 4,230 training rows per fold: training peaks at 4.6 MB, and one epoch's
    # inputs for all ten networks gathered at once would add 4,230 x 10 x 37
    # floats, 12.5 MB
    d = parse_arff(synthetic_cohort_text(700, 4_000, "cohort-10x"))
    folds = stratified_folds(d, 10, 1)
    tables = [d.subset(folds.train_indices(t)) for t in range(10)]
    tracemalloc.start()
    try:
        train_mlps(tables, MlpConfig(epochs=1), range(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.6 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_cross_validation_keeps_the_folds_compact(cohort):
    """The fold networks train from one-hot bits, not float copies of every fold's inputs."""
    resampled, _ = smote(cohort, "T", SmoteConfig(seed=1))
    folds = stratified_folds(resampled, 10, 2)
    spec = make_classifier("mlp", epochs=1)
    cross_validate(resampled, spec, folds)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        cross_validate(resampled, spec, folds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_all_nominal_dataset_trains():
    d = nominal_dataset({"a": [0, 1, 0, 1, 0, 1], "b": [0, 0, 1, 1, 0, 0]},
                        [0, 1, 0, 1, 0, 1])
    model = train_one(d, MlpConfig(hidden_sizes=(2,), epochs=30), 0)
    assert model.layer_sizes == (4, 2, 2)
    assert np.isfinite(model.loss_history).all()
