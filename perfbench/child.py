"""One benchmark invocation, run by run.py in a fresh interpreter.

    python3 perfbench/child.py import
        Time `import postop.cli` and describe the environment.
    python3 perfbench/child.py bench BENCH_ARGS...
        Time `import postop.cli`, then one postop.cli.main(["bench", ...]).
    python3 perfbench/child.py trace WORKLOAD SPANS_PATH BENCH_ARGS...
        Run the same bench pipeline by calling the modules' public
        functions, with a span around each call; write the spans to
        SPANS_PATH when the pipeline ends.

Each mode prints one JSON object on its last stdout line; its times are
SpeedClock readings, {"s": contention-corrected seconds, "wall_s": wall
seconds}. postop must be importable (run.py puts the checkout's src/ on
PYTHONPATH).
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

# which module of postop each classifier lives in; spans are named after it
MODULE_OF = {"mlp": "mlp", "j48": "decision_tree", "nb": "naive_bayes"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# On a shared machine the same code runs up to 1.8x slower while other
# tenants contend for the core, in spells of seconds that differ between
# the two CPUs. SpeedClock therefore times a fixed probe every TICK_S and
# rescales each stretch of program time by how fast the probe ran, so the
# result is in seconds at the probe's uncontended speed (PROBE_REF_S, its
# fastest time on a 2.0 GHz Xeon VM). Wall seconds are reported beside it.
TICK_S = 0.025
PROBE_REF_S = 2.3e-4
_PROBE_VALUES = [((i * 7919) % 1000) / 7.0 for i in range(256)]


def probe():
    """A fixed stretch of interpreter work: list sorts, tuples and dict updates."""
    out = []
    for r in range(6):
        ys = sorted(_PROBE_VALUES[r:] + _PROBE_VALUES[:r])
        sums = {}
        for k, v in enumerate(ys):
            sums[k % 17] = sums.get(k % 17, 0.0) + v
        out.append((tuple(ys[:8]), sums))
    return out


class SpeedClock:
    """Program time between start() and stop(), rescaled to an uncontended CPU."""

    def start(self):
        self._marks: list[tuple[float, float, float, float]] = []  # start, end, scaled, factor
        self._scaled = 0.0
        self.t0 = self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame):
        begin = time.perf_counter()
        probe()  # warm-up: the timed pass should not pay for caches the program evicted
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        factor = PROBE_REF_S / (end - start)
        self._scaled += (begin - self._last) * factor
        self._marks.append((begin, end, self._scaled, factor))
        self._last = end

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.t1 = time.perf_counter()

    def scaled(self, t: float) -> float:
        """Scaled seconds from start() to perf_counter time t; probe time counts zero."""
        marks = self._marks
        i = bisect.bisect_right(marks, t, key=lambda m: m[0])  # probes begun by t
        if i and t <= marks[i - 1][1]:
            return marks[i - 1][2]
        last_end, base = (marks[i - 1][1], marks[i - 1][2]) if i else (self.t0, 0.0)
        # a stretch is scaled by the probe that ends it; the tail by the last one
        factor = marks[min(i, len(marks) - 1)][3] if marks else 1.0
        return base + (t - last_end) * factor

    def elapsed(self) -> dict:
        return {"s": self.scaled(self.t1), "wall_s": self.t1 - self.t0}


def timed_import() -> dict:
    clock = SpeedClock().start()
    import postop.cli  # noqa: F401

    clock.stop()
    return clock.elapsed()


def environment() -> dict:
    """What the timings depend on besides the code: interpreter, BLAS, CPU, numba."""
    import numpy
    import postop.mlp

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    compiled = bool(postop.mlp._HAVE_NUMBA)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "numba": numba_version,
        "mlp_path": "numba _sgd_kernel" if compiled else "numpy _sgd_numpy",
    }


def run_import() -> dict:
    import_s = timed_import()
    return {"import_s": import_s, "env": environment()}


def run_bench(bench_args: list[str]) -> dict:
    import_s = timed_import()
    from postop.cli import main

    messages = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(messages):
        clock = SpeedClock().start()
        code = main(["bench", *bench_args])
        clock.stop()
    return {
        "import_s": import_s,
        "run_s": clock.elapsed(),
        "exit_code": code,
        "peak_rss_mb": peak_rss_mb(),
        "stderr_tail": messages.getvalue().strip().splitlines()[-1:],
    }


# -- traced pipeline -------------------------------------------------------------


class Tracer:
    """Spans kept in memory: one per call into a postop module."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict | None] = []
        self.counts: dict[str, float] = {}
        self.classifier: str | None = None
        self._open: list[int] = []

    def call(self, name: str, fold: int | None, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[span_id] = {
                "id": span_id, "parent": parent, "name": name,
                "workload": self.workload, "classifier": self.classifier,
                "fold": fold, "start": start, "end": end,
            }

    def count(self, key: str, amount: float):
        self.counts[key] = self.counts.get(key, 0) + amount


def tree_nodes(root) -> int:
    nodes, stack = 0, [root]
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(getattr(node, "children", None) or ())
    return nodes


def traced_smote(tracer: Tracer, d, minority: str, cfg, fold: int | None):
    from postop.resampling import smote

    rss_before = peak_rss_mb()
    out, record = tracer.call("resampling.smote", fold, smote, d, minority, cfg)
    tracer.count("resampling.calls", 1)
    tracer.count("resampling.synthetic_rows", record.synthetic_created)
    tracer.count("resampling.rss_growth_mb", peak_rss_mb() - rss_before)
    return out


def traced_spec(tracer: Tracer, spec):
    """The spec with train and predict wrapped in spans; fold = train call index."""
    module = MODULE_OF[spec.name]
    trained = 0

    def train(d, seed):
        nonlocal trained
        fold = trained
        trained += 1
        model = tracer.call(f"{module}.train", fold, spec.train, d, seed)
        if module == "mlp":
            tracer.count("mlp.sgd_steps", len(d) * spec.config["epochs"])
        elif module == "decision_tree":
            tracer.count("decision_tree.nodes", tree_nodes(model))
        return model

    def predict(*args):
        return tracer.call(f"{module}.predict", trained - 1, spec.predict, *args)

    return dataclasses.replace(spec, train=train, predict=predict)


def traced_transform(tracer: Tracer, minority: str, k: int, percent: int):
    """SMOTE inside each training fold, as `bench --smote-within-folds` does it."""
    from postop.resampling import SmoteConfig

    calls = 0

    def transform(train_d, seed):
        nonlocal calls
        fold = calls
        calls += 1
        cfg = SmoteConfig(seed=seed, k_neighbors=k, percent=percent)
        return traced_smote(tracer, train_d, minority, cfg, fold)

    return transform


def traced_pipeline(tracer: Tracer, args) -> list:
    """The steps of `postop bench` for args, each call into postop in a span.

    Covers the options the workloads use (ARFF input, SMOTE up front or
    within folds); run.py checks that the reports equal the CLI's.
    """
    from postop.dataset import impute_missing, parse_arff
    from postop.evaluation import (
        cross_validate,
        make_classifier,
        render_csv,
        render_markdown,
        stratified_folds,
    )
    from postop.resampling import SmoteConfig
    from postop.seeds import derive_seed

    d = tracer.call("dataset.parse", None,
                    lambda: parse_arff(Path(args.data).read_text(),
                                       class_attribute=args.class_attribute))
    tracer.count("dataset.rows", len(d))
    d = tracer.call("dataset.impute", None, impute_missing, d, args.impute)
    positive = d.class_labels[0]

    working = d
    if not args.no_smote and not args.smote_within_folds:
        cfg = SmoteConfig(seed=derive_seed(args.seed, "smote"),
                          k_neighbors=args.smote_k, percent=args.smote_percent)
        working = traced_smote(tracer, d, positive, cfg, None)
    folds = tracer.call("evaluation.folds", None, stratified_folds,
                        working, args.folds, derive_seed(args.seed, "folds"))

    overrides = {
        "mlp": {"hidden_sizes": None, "learning_rate": args.mlp_learning_rate,
                "momentum": args.mlp_momentum, "epochs": args.mlp_epochs},
        "j48": {"min_leaf_instances": args.tree_min_leaf,
                "pruning_confidence": args.tree_confidence,
                "pruning": not args.tree_no_pruning},
        "nb": {},
    }
    reports = []
    for name in args.classifiers.split(","):
        tracer.classifier = name
        spec = traced_spec(tracer, make_classifier(name, **overrides[name]))
        transform = None
        if not args.no_smote and args.smote_within_folds:
            transform = traced_transform(tracer, positive, args.smote_k, args.smote_percent)
        reports.append(tracer.call("evaluation.cross_validate", None, cross_validate,
                                   working, spec, folds, positive_class=positive,
                                   train_transform=transform))
    tracer.classifier = None
    tracer.call("evaluation.render", None,
                lambda: (render_markdown(reports), render_csv(reports)))
    return reports


def run_trace(workload: str, spans_path: str, bench_args: list[str]) -> dict:
    from postop.cli import build_parser

    args = build_parser().parse_args(["bench", *bench_args])
    tracer = Tracer(workload)
    clock = SpeedClock().start()
    reports = tracer.call("bench", None, traced_pipeline, tracer, args)
    clock.stop()
    for span in tracer.spans:  # span times in the clock's scaled seconds
        span["start"], span["end"] = clock.scaled(span["start"]), clock.scaled(span["end"])
    Path(spans_path).write_text(json.dumps(
        {"workload": workload, "counts": tracer.counts, "spans": tracer.spans}))
    return {
        "run_s": clock.elapsed(),
        "peak_rss_mb": peak_rss_mb(),
        "reports": [r.to_json_dict() for r in reports],
    }


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        result = run_import()
    elif mode == "bench":
        result = run_bench(rest)
    elif mode == "trace":
        result = run_trace(rest[0], rest[1], rest[2:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
