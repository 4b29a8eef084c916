"""Cross-validation on forked fold workers: the same reports, the same errors, no process left.

The worker count is one per usable CPU; these tests set it by replacing
postop.evaluation._fold_workers. Workers pull items from one queue (each
other spec's folds cut into one run per worker), and the MLP lock-step
splits onto CPUs that go idle, so the tests that need a fold
in a given process arrange it with a lock-step item that this process runs
first and that waits until the child has ended.
"""

import fcntl
import os
import select
import signal
import time

import numpy as np
import pytest

from postop import evaluation, mlp
from postop.dataset import DataError
from postop.evaluation import (
    ClassifierSpec,
    cross_validate,
    cross_validate_all,
    make_classifier,
    stratified_folds,
)
from postop.mlp import TrainingError
from postop.resampling import SmoteConfig, smote
from postop.seeds import derive_seed

FOLDS_SEED = 5


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def use_workers(monkeypatch, count):
    monkeypatch.setattr(evaluation, "_fold_workers", lambda: count)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def smote_within_folds(train_d, seed):
    return smote(train_d, "T", SmoteConfig(seed=seed))[0]


@pytest.mark.parametrize("name, overrides, transform", [
    ("mlp", {"epochs": 3}, None),
    ("j48", {}, None),
    ("nb", {}, None),
    ("nb", {}, smote_within_folds),
], ids=["mlp", "j48", "nb", "nb-smote-within-folds"])
def test_reports_are_equal_with_one_two_and_three_workers(
        cohort, monkeypatch, forks, name, overrides, transform):
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    reports = []
    for count in (1, 2, 3):
        use_workers(monkeypatch, count)
        spec = make_classifier(name, **overrides)
        reports.append(cross_validate(cohort, spec, folds, train_transform=transform))
    assert len(forks) == 0 + 1 + 2
    assert_reaped(forks)
    one, two, three = (r.to_json_dict() for r in reports)
    assert two == one
    assert three == one


def test_folds_of_one_row_or_two_give_equal_reports_on_three_workers(
        cohort, monkeypatch, forks):
    folds = stratified_folds(cohort, len(cohort), FOLDS_SEED)  # 400 folds of one row or two
    specs = [make_classifier("j48"), make_classifier("nb")]
    reports = []
    for count in (1, 3):
        use_workers(monkeypatch, count)
        reports.append([r.to_json_dict() for r in cross_validate_all(cohort, specs, folds)[0]])
    assert len(forks) == 2
    assert_reaped(forks)
    assert reports[1] == reports[0]


def test_more_workers_than_folds_fork_one_child_per_fold_but_the_first(
        cohort, monkeypatch, forks):
    use_workers(monkeypatch, 8)
    small = cohort.subset(range(60))
    folds = stratified_folds(small, 3, FOLDS_SEED)
    one = cross_validate(small, make_classifier("nb"), folds)
    assert len(forks) == 2
    assert_reaped(forks)
    use_workers(monkeypatch, 1)
    assert cross_validate(small, make_classifier("nb"), folds) == one


@pytest.mark.parametrize("transform", [None, smote_within_folds],
                         ids=["smote-up-front", "smote-within-folds"])
def test_a_three_classifier_schedule_gives_equal_reports_with_one_two_and_three_workers(
        cohort, monkeypatch, forks, transform):
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    specs = [make_classifier("nb"), make_classifier("mlp", epochs=3), make_classifier("j48")]
    use_workers(monkeypatch, 1)
    alone = [cross_validate(cohort, spec, folds, train_transform=transform) for spec in specs]
    assert not forks
    for count in (1, 2, 3):
        use_workers(monkeypatch, count)
        reports, schedule = cross_validate_all(cohort, specs, folds, train_transform=transform)
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in alone]
        assert schedule["workers"] == count
        assert set(schedule["busy_seconds"]) == {"nb", "mlp", "j48"}
        assert set(schedule["split_epochs"]) == {"mlp"}
    assert_reaped(forks)


def test_one_worker_calls_nothing_that_only_some_platforms_have(cohort, monkeypatch):
    specs = [make_classifier("nb"), make_classifier("mlp", epochs=2), make_classifier("j48")]
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    use_workers(monkeypatch, 2)
    two, _ = cross_validate_all(cohort, specs, folds)
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")  # as where it is missing: one worker

    def absent(*args):
        raise AttributeError("not on this platform")

    for module, name in [(os, "fork"), (os, "kill"), (select, "select"), (select, "poll")]:
        monkeypatch.setattr(module, name, absent)
    monkeypatch.delattr(signal, "SIGKILL")
    monkeypatch.delattr(fcntl, "F_SETPIPE_SZ", raising=False)
    one, schedule = cross_validate_all(cohort, specs, folds)
    assert schedule["workers"] == 1
    assert schedule["split_epochs"] == {"mlp": []}
    assert [r.to_json_dict() for r in one] == [r.to_json_dict() for r in two]


def test_a_queue_longer_than_a_pipe_holds_runs_each_item_once(
        cohort, monkeypatch, forks, tmp_path):
    use_workers(monkeypatch, 6)  # more pullers than this machine's cores, racing for each index
    folds = stratified_folds(cohort, 6, FOLDS_SEED)  # a share of one fold per worker
    log = tmp_path / "seeds"

    def train(d, seed):
        with open(log, "a") as f:  # one append, whole, per call
            f.write(f"{seed}\n")

    specs = [ClassifierSpec(f"probe{j}", train, lambda m, d: np.full((len(d), 2), 0.5))
             for j in range(2_800)]
    fds = open_fds()
    start = time.monotonic()
    reports, _ = cross_validate_all(cohort, specs, folds)  # 16,800 items: 67,200 queued bytes
    assert time.monotonic() - start < 60
    assert [len(r.fold_accuracies) for r in reports] == [6] * 2_800
    assert sorted(map(int, log.read_text().split())) == sorted(
        derive_seed(FOLDS_SEED, "train", spec.name, t) for spec in specs for t in range(6))
    assert len(forks) == 5
    assert_reaped(forks)
    assert open_fds() == fds


@pytest.mark.parametrize("workers, cuts", [(1, [0, 10]), (2, [0, 5, 10]), (3, [0, 4, 7, 10])])
def test_each_worker_trains_one_run_of_a_spec_s_folds_in_one_call(
        cohort, monkeypatch, forks, tmp_path, workers, cuts):
    use_workers(monkeypatch, workers)
    log = tmp_path / "calls"

    def train(d, seed):
        raise AssertionError("a spec with train_folds trains its shares through it")

    def train_folds(tables, seeds, split):
        assert split is None  # only a lock-step spec splits
        with open(log, "a") as f:  # one append, whole, per call
            f.write(" ".join(map(str, seeds)) + "\n")
        return [len(t) for t in tables]

    spec = ClassifierSpec("share", train, lambda m, d: np.full((len(d), 2), 0.5),
                          train_folds=train_folds)
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    report = cross_validate(cohort, spec, folds)
    seeds = [derive_seed(FOLDS_SEED, "train", "share", t) for t in range(10)]
    calls = sorted(list(map(int, line.split())) for line in log.read_text().splitlines())
    assert calls == sorted(seeds[a:b] for a, b in zip(cuts, cuts[1:]))
    assert len(report.fold_accuracies) == 10
    assert len(forks) == workers - 1
    assert_reaped(forks)


def test_j48_trains_each_share_as_one_forest(cohort, monkeypatch, forks, tmp_path):
    use_workers(monkeypatch, 2)
    log, grow = tmp_path / "forests", evaluation.train_trees

    def logged(tables, cfg):
        trees = grow(tables, cfg)
        with open(log, "a") as f:
            f.write(f"{len(trees)}\n")
        return trees

    monkeypatch.setattr(evaluation, "train_trees", logged)
    monkeypatch.setattr(evaluation, "train_tree", None)  # not called
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    report = cross_validate(cohort, make_classifier("j48"), folds)
    assert sorted(log.read_text().split()) == ["5", "5"]
    monkeypatch.undo()
    use_workers(monkeypatch, 1)
    assert cross_validate(cohort, make_classifier("j48"), folds) == report


def _probe(**actions):
    """A spec whose training calls actions[f"fold{n}"]() on the fold of 1-based number n."""
    by_seed = {derive_seed(FOLDS_SEED, "train", "probe", int(key[4:]) - 1): action
               for key, action in actions.items()}

    def train(d, seed):
        by_seed.get(seed, lambda: None)()

    return ClassifierSpec("probe", train, lambda m, d: np.full((len(d), 2), 0.5))


def _lock_step(action):
    """A lock-step spec, run first by the calling process, whose training calls action()."""

    def train_folds(tables, seeds, split):
        action()
        return [None for _ in tables]

    return ClassifierSpec("lock", None, lambda m, d: np.full((len(d), 2), 0.5),
                          train_folds=train_folds)


def _until_the_child_ends(forks):
    """An action that waits for the first forked child to end, leaving it for the reaper."""
    return lambda: os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)


def test_a_lost_worker_names_every_fold_of_each_share_it_sent_nothing_for(
        cohort, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    parent = os.getpid()
    dies = derive_seed(FOLDS_SEED, "train", "second", 2)  # fold 3 of the second probe

    def train(d, seed):
        if seed == dies and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    probes = [ClassifierSpec(name, train, lambda m, d: np.full((len(d), 2), 0.5))
              for name in ("first", "second")]
    # the child pulls both shares of the first probe and the first of the
    # second, and dies in it; this process then pulls the last share itself
    specs = [_lock_step(_until_the_child_ends(forks)), *probes]
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    with pytest.raises(DataError) as raised:
        cross_validate_all(cohort, specs, folds)
    assert str(raised.value) == ("the worker for first folds 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 and "
                                 "second folds 1, 2, 3, 4, 5 ended without its results "
                                 "(exit code -9)")
    assert_reaped(forks)


@pytest.mark.parametrize("error", [DataError, TrainingError])
def test_an_error_in_a_child_reaches_the_caller(cohort, monkeypatch, forks, error):
    use_workers(monkeypatch, 2)
    parent = os.getpid()

    def fail():
        assert os.getpid() != parent, "fold 7 should be trained by the child"
        raise error("fold 7 cannot be trained")

    # this process waits in its lock-step item until the child has pulled fold 7
    specs = [_lock_step(_until_the_child_ends(forks)), _probe(fold7=fail)]
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    fds = open_fds()
    with pytest.raises(error, match="^fold 7 cannot be trained$"):
        cross_validate_all(cohort, specs, folds)
    assert len(forks) == 1
    assert_reaped(forks)
    assert open_fds() == fds


def test_a_child_killed_by_a_signal_becomes_one_data_error(cohort, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    parent = os.getpid()

    def die():
        if os.getpid() != parent:  # never this process
            os.kill(os.getpid(), signal.SIGKILL)

    # the child pulls both shares (folds 1-5 and 6-10) while this process
    # waits, and dies at fold 7: neither share's results were sent
    specs = [_lock_step(_until_the_child_ends(forks)), _probe(fold7=die)]
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    fds = open_fds()
    with pytest.raises(DataError) as raised:
        cross_validate_all(cohort, specs, folds)
    assert str(raised.value) == ("the worker for probe folds 1, 2, 3, 4, 5, 6, 7, 8, 9, 10 "
                                 "ended without its results (exit code -9)")
    assert len(forks) == 1
    assert_reaped(forks)
    assert open_fds() == fds


def test_an_error_in_this_process_kills_a_child_that_is_still_running(
        cohort, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    parent = os.getpid()

    def fail_here():
        assert os.getpid() == parent
        raise DataError("the lock-step cannot be trained")

    # each of the child's folds takes a minute: only a kill ends it sooner
    naps = {f"fold{n}": lambda: time.sleep(60) for n in range(1, 11)}
    specs = [_lock_step(fail_here), _probe(**naps)]
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    fds = open_fds()
    start = time.monotonic()
    with pytest.raises(DataError, match="^the lock-step cannot be trained$"):
        cross_validate_all(cohort, specs, folds)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_reaped(forks)
    assert open_fds() == fds


# -- the lock-step's split onto idle CPUs ------------------------------------------


def _fold_tables(cohort, k):
    folds = stratified_folds(cohort, k, FOLDS_SEED)
    return [cohort.subset(folds.train_indices(t)) for t in range(k)]


@pytest.mark.parametrize("k, tokens, epochs", [
    (10, {0: 1}, [0]),  # a CPU idle from the start
    (10, {1: 1}, [1]),
    (10, {2: 1}, [2]),  # the last epoch
    (10, {0: 2}, [0]),  # three parts
    (7, {1: 1, 2: 2}, [1, 2]),  # unequal tables, and a second split of this process's share
])
def test_forced_splits_train_the_bits_of_an_unsplit_lock_step(
        cohort, forks, k, tokens, epochs):
    tables = _fold_tables(cohort, k)
    cfg, seeds = mlp.MlpConfig(epochs=3), [100 + t for t in range(k)]
    whole = mlp.train_mlps(tables, cfg, seeds)
    fds = open_fds()
    r, w = os.pipe()
    os.set_blocking(r, False)
    logged, tokens = [], dict(tokens)
    forked = sum(tokens.values())
    hook = evaluation._splitter(r, "mlp", list(range(k)), logged)

    def split(ep, held, rest):
        os.write(w, b"." * tokens.pop(ep, 0))  # each epoch's tokens once, on its first call
        return hook(ep, held, rest)

    try:
        parts = mlp.train_mlps(tables, cfg, seeds, split)
    finally:
        os.close(r)
        os.close(w)
    assert logged == epochs
    assert len(forks) == forked
    for got, want in zip(parts, whole, strict=True):
        assert got.layer_sizes == want.layer_sizes
        assert [g.tobytes() for g in got.weights] == [x.tobytes() for x in want.weights]
        assert [g.tobytes() for g in got.biases] == [x.tobytes() for x in want.biases]
        assert got.loss_history.tobytes() == want.loss_history.tobytes()
    assert_reaped(forks)
    assert open_fds() == fds


def _in_a_split_child(monkeypatch, action):
    """Make each step of the MLP call action() first, in forked processes only."""

    def in_a_child(here):
        if not here:
            action()

    _before_each_step(monkeypatch, in_a_child)


def _before_each_step(monkeypatch, action):
    """Make each step of the MLP call action(here) first, here True in this process."""
    parent, stepper = os.getpid(), mlp._stepper

    def action_then_stepper(*args):
        step = stepper(*args)

        def action_then_step(*buffers):
            action(os.getpid() == parent)
            step(*buffers)

        return action_then_step

    monkeypatch.setattr(mlp, "_stepper", action_then_stepper)


def test_a_training_error_in_a_split_child_reaches_the_caller(cohort, monkeypatch, forks):
    use_workers(monkeypatch, 2)  # the MLP alone leaves one CPU idle: it splits at epoch 0

    def fail():
        raise TrainingError("a share cannot be trained")

    _in_a_split_child(monkeypatch, fail)
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    fds = open_fds()
    with pytest.raises(TrainingError, match="^a share cannot be trained$"):
        cross_validate(cohort, make_classifier("mlp", epochs=2), folds)
    assert len(forks) == 1
    assert_reaped(forks)
    assert open_fds() == fds


def test_a_split_child_killed_by_a_signal_becomes_one_data_error(cohort, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    _in_a_split_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    folds = stratified_folds(cohort, 10, FOLDS_SEED)  # ten training tables of 423 rows
    fds = open_fds()
    with pytest.raises(DataError) as raised:
        cross_validate(cohort, make_classifier("mlp", epochs=2), folds)
    # equal tables keep fold order, so the child took the second half
    assert str(raised.value) == ("the worker for mlp folds 6, 7, 8, 9, 10 "
                                 "ended without its results (exit code -9)")
    assert len(forks) == 1
    assert_reaped(forks)
    assert open_fds() == fds


def test_an_error_in_this_process_kills_queue_and_split_children(cohort, monkeypatch, forks):
    # four CPUs and two folds of each classifier: two queue children, and one
    # CPU left idle, onto which the MLP splits at epoch 0
    use_workers(monkeypatch, 4)

    def fail_here_or_nap(here):
        if here:
            raise DataError("this share cannot be trained")
        time.sleep(60)

    _before_each_step(monkeypatch, fail_here_or_nap)
    specs = [make_classifier("mlp", epochs=2),
             _probe(fold1=lambda: time.sleep(60), fold2=lambda: time.sleep(60))]
    folds = stratified_folds(cohort, 2, FOLDS_SEED)
    fds = open_fds()
    start = time.monotonic()
    with pytest.raises(DataError, match="^this share cannot be trained$"):
        cross_validate_all(cohort, specs, folds)
    assert time.monotonic() - start < 30
    assert len(forks) == 3
    assert_reaped(forks)
    assert open_fds() == fds
