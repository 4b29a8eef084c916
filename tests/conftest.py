"""Shared fixtures: toy tables, the stand-in cohort, and the real-file locator."""

import contextlib
import importlib.util
import os
import signal
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from postop.dataset import AttributeSchema, Dataset, is_missing, parse_arff
from postop.mlp import MlpConfig, MlpModel, _stepper, _workspace, train_mlps

TESTS_DIR = Path(__file__).resolve().parent
REPO_DIR = TESTS_DIR.parent
COHORT_PATH = TESTS_DIR / "data" / "synthetic_cohort.arff"

THORACIC_FILE_ENV = "POSTOP_THORACIC_ARFF"
DATA_DIR_ENV = "POSTOP_DATA_DIR"


def thoracic_path() -> Path | None:
    """Locate the real clinical ARFF file, or None when unavailable."""
    env_file = os.environ.get(THORACIC_FILE_ENV)
    candidates = [Path(env_file)] if env_file else []
    for base in (os.environ.get(DATA_DIR_ENV), REPO_DIR / "data"):
        if base:
            base = Path(base)
            candidates += [base / "ThoraricSurgery.arff", base / "ThoracicSurgery.arff"]
    for c in candidates:
        if c.is_file():
            return c
    return None


@pytest.fixture(scope="session")
def cohort() -> Dataset:
    """The checked-in synthetic stand-in cohort (70 T / 400 F)."""
    return parse_arff(COHORT_PATH.read_text())


@pytest.fixture(scope="session")
def cohort_or_real() -> tuple[Dataset, str]:
    """The real clinical dataset when present, else the stand-in cohort."""
    path = thoracic_path()
    if path is not None:
        return parse_arff(path.read_text()), f"real file {path}"
    return parse_arff(COHORT_PATH.read_text()), "synthetic stand-in cohort"


class TimeLimitExceeded(Exception):
    """A block ran past its time_limit. Not an OSError (as TimeoutError is),
    so the CLI's one-line error handler does not turn it into exit 1."""


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeLimitExceeded inside the block once it has run for `seconds` (SIGALRM)."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def from_rows(schema, rows, relation: str = "dataset") -> Dataset:
    """A table from value tuples in schema order, None for missing cells.

    Nominal and class values are int domain codes, numeric values reals;
    the Dataset constructor checks the arrays built from them.
    """
    schema, rows = tuple(schema), [tuple(r) for r in rows]

    def block(kind, missing, dtype):
        positions = [i for i, a in enumerate(schema) if a.kind == kind and a.role != "class"]
        cells = [[missing if r[i] is None else r[i] for i in positions] for r in rows]
        return np.array(cells, dtype=dtype).reshape(len(rows), len(positions))

    ci = [a.role for a in schema].index("class")
    classes = np.array([-1 if r[ci] is None else r[ci] for r in rows], dtype=np.int64)
    return Dataset(schema, block("nominal", -1, np.int64), block("numeric", np.nan, np.float64),
                   classes, relation)


def table_rows(d: Dataset) -> list[tuple]:
    """The table as value tuples in schema order, None for missing cells."""
    columns = [[None if hole else v for v, hole in zip(col.tolist(), is_missing(col).tolist())]
               for col in map(d.column, range(len(d.schema)))]
    return list(zip(*columns))


class Node(NamedTuple):
    """One node of a trained tree, as tree_nodes reads it from the node arrays."""

    id: int
    counts: np.ndarray
    attribute: int | None  # schema index of the attribute tested; None at a leaf
    threshold: float | None  # None at a leaf or a nominal test
    children: tuple[int, ...]  # node ids in branch order; empty at a leaf

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def prediction(self) -> int:
        return int(self.counts.argmax())


def tree_nodes(t):
    """The nodes reachable from t's root, depth first in child order, parents before
    descendants; the nodes pruning cut off stay in the arrays and are left out."""
    stack = [t.root]
    while stack:
        i = stack.pop()
        k = int(t.column[i])
        if k < 0:
            yield Node(i, t.counts[i], None, None, ())
            continue
        attr, first = t.attrs[k], int(t.first[i])
        children = tuple(range(first, first + (len(t.schema[attr].values) or 2)))
        yield Node(i, t.counts[i], attr, None if k < t.n_nominal else float(t.threshold[i]),
                   children)
        stack.extend(reversed(children))


def synthetic_cohort_text(n_t: int, n_f: int, relation: str) -> str:
    """ARFF of n_t T rows, then n_f F rows, drawn by scripts/make_synthetic_cohort.py (seed 7)."""
    spec = importlib.util.spec_from_file_location(
        "make_synthetic_cohort", REPO_DIR / "scripts" / "make_synthetic_cohort.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rng = np.random.default_rng(7)
    header = [f"@attribute {name} "
              + ("numeric" if values is None else "{" + ",".join(values) + "}")
              for name, values in script.SCHEMA]
    rows = [script.make_row(rng, label) for label in ["T"] * n_t + ["F"] * n_f]
    return "\n".join([f"@relation {relation}", *header, "@data", *rows]) + "\n"


def query(d: Dataset, *rows) -> Dataset:
    """A table over d's schema holding the given value tuples."""
    return from_rows(d.schema, rows)


def train_one(d: Dataset, cfg: MlpConfig, seed: int) -> MlpModel:
    """One network trained on d: the one-table case of the lock-step trainer."""
    return train_mlps([d], cfg, [seed])[0]


def gradient_at(model: MlpModel, x: np.ndarray, target: np.ndarray):
    """(loss, weight gradients, bias gradients) of one network at one encoded instance.

    The one-network `_stepper` step, on the `_workspace` that training gives
    it, with learning rate 1 so that its update leaves the gradients as they
    are. Training holds parameters and gradients negated, so the model's
    parameters go in negated and the gradients come out negated back; the
    loss is computed from the step's error as training does, and the
    gradients are shaped like the model's weights and biases.
    """
    workspace = _workspace(model.layer_sizes, 1)
    _, (params, _, grads), _ = workspace
    for view, p in zip(params, chain(*zip(model.weights, model.biases))):
        view[0] = -p
    err = np.zeros((1, 1, len(target)))
    _stepper(workspace, 1, 1.0, 1.0)(x[None, None], target[None, None], err)
    loss = np.matmul(err, err.mT)
    loss *= 0.5
    return float(loss[0, 0, 0]), [-g[0] for g in grads[0::2]], [-g[0, 0] for g in grads[1::2]]


def nominal_dataset(columns, class_column, domains=None, class_values=("c0", "c1")):
    """Build an all-nominal dataset from per-attribute value-index columns.

    columns: dict name -> list of value indexes. domains: dict name ->
    domain size (default: max index + 1).
    """
    domains = domains or {}
    schema = []
    names = list(columns)
    for name in names:
        size = domains.get(name, max(columns[name]) + 1)
        schema.append(AttributeSchema(name, "nominal", tuple(f"{name}v{i}" for i in range(size))))
    schema.append(AttributeSchema("cls", "nominal", tuple(class_values), role="class"))
    rows = [tuple(columns[n][i] for n in names) + (class_column[i],)
            for i in range(len(class_column))]
    return from_rows(schema, rows)


def fig_dataset() -> Dataset:
    """Ten rows over three nominal predictors whose tree is known by hand.

    The root must split on S1 (highest gain, passing the mean-gain filter
    despite a lower gain ratio than S2/S3), the v11 branch on S2, the v12
    branch on S3, and v13 is pure; the five leaves alternate class 1/0.
    """
    schema = [
        AttributeSchema("S1", "nominal", ("v11", "v12", "v13")),
        AttributeSchema("S2", "nominal", ("v21", "v22")),
        AttributeSchema("S3", "nominal", ("v31", "v32")),
        AttributeSchema("d", "nominal", ("1", "0"), role="class"),
    ]
    rows = [
        ("v11", "v21", "v31", "1"),
        ("v11", "v21", "v32", "1"),
        ("v11", "v22", "v31", "0"),
        ("v11", "v22", "v32", "0"),
        ("v12", "v21", "v31", "1"),
        ("v12", "v22", "v31", "1"),
        ("v12", "v21", "v32", "0"),
        ("v12", "v22", "v32", "0"),
        ("v13", "v21", "v31", "1"),
        ("v13", "v22", "v32", "1"),
    ]
    coded = [tuple(schema[i].values.index(tok) for i, tok in enumerate(row)) for row in rows]
    return from_rows(schema, coded, relation="figure-tree")


def random_mixed_dataset(rng, n_rows, n_nominal=2, n_numeric=1, max_domain=3):
    """Random small mixed-type dataset with a binary class."""
    schema = []
    columns = []
    for a in range(n_nominal):
        size = int(rng.integers(2, max_domain + 1))
        schema.append(
            AttributeSchema(f"n{a}", "nominal", tuple(f"n{a}v{i}" for i in range(size)))
        )
        columns.append(rng.integers(0, size, size=n_rows).tolist())
    for a in range(n_numeric):
        schema.append(AttributeSchema(f"x{a}", "numeric"))
        # values from a small grid so ties and repeats occur
        columns.append((rng.integers(0, 6, size=n_rows) / 2.0).tolist())
    schema.append(AttributeSchema("cls", "nominal", ("c0", "c1"), role="class"))
    labels = rng.integers(0, 2, size=n_rows).tolist()
    rows = [tuple(col[i] for col in columns) + (labels[i],) for i in range(n_rows)]
    return from_rows(schema, rows)


# -- acceptance reporting -----------------------------------------------------

# one "[criterion NN] PASS/FAIL: ..." line per criterion, echoed after the
# run summary so they are visible without -s
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
