"""Cross-validation on forked fold workers: the same reports, the same errors, no process left.

The worker count is one per usable CPU; these tests set it by replacing
postop.evaluation._fold_workers.
"""

import os
import signal
import time

import numpy as np
import pytest

from postop import evaluation
from postop.dataset import DataError
from postop.evaluation import ClassifierSpec, cross_validate, make_classifier, stratified_folds
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


def _probe(**actions):
    """A spec whose training calls actions[f"fold{n}"]() on the fold of 1-based number n."""
    by_seed = {derive_seed(FOLDS_SEED, "train", "probe", int(key[4:]) - 1): action
               for key, action in actions.items()}

    def train(d, seed):
        by_seed.get(seed, lambda: None)()

    return ClassifierSpec("probe", train, lambda m, d: np.full((len(d), 2), 0.5))


@pytest.mark.parametrize("error", [DataError, TrainingError])
def test_an_error_in_a_child_reaches_the_caller(cohort, monkeypatch, forks, error):
    use_workers(monkeypatch, 2)
    parent = os.getpid()

    def fail():
        assert os.getpid() != parent, "fold 7 should be trained by the second worker"
        raise error("fold 7 cannot be trained")

    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    with pytest.raises(error, match="^fold 7 cannot be trained$"):
        cross_validate(cohort, _probe(fold7=fail), folds)
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_child_killed_by_a_signal_becomes_one_data_error(cohort, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    parent = os.getpid()

    def die():
        if os.getpid() != parent:  # never this process
            os.kill(os.getpid(), signal.SIGKILL)

    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    with pytest.raises(DataError) as raised:
        cross_validate(cohort, _probe(fold7=die), folds)
    assert str(raised.value) == \
        "the worker for folds 6-10 ended without its results (exit code -9)"
    assert len(forks) == 1
    assert_reaped(forks)


def test_an_error_in_this_process_kills_a_child_that_is_still_running(
        cohort, monkeypatch, forks):
    use_workers(monkeypatch, 2)
    parent = os.getpid()

    def fail_here():
        assert os.getpid() == parent
        raise DataError("fold 1 cannot be trained")

    # the child's first fold takes a minute: only a kill ends it sooner
    spec = _probe(fold1=fail_here, fold6=lambda: time.sleep(60))
    folds = stratified_folds(cohort, 10, FOLDS_SEED)
    start = time.monotonic()
    with pytest.raises(DataError, match="^fold 1 cannot be trained$"):
        cross_validate(cohort, spec, folds)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_reaped(forks)
