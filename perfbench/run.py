"""Benchmark of `postop bench`: end-to-end metrics, checked reports, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-1x --seed 7 --seconds 30 --trace 0

A run generates the workload's cohort from --seed and runs `postop bench`
on it in a fresh child interpreter, one invocation at a time (a closed
loop with one client), until --seconds have passed. Before that it times
`import postop.cli` in fresh interpreters and runs one untimed invocation
on the cohort of DEFAULT_SEED, whose report is compared with the stored
reference (reference.json). Every report is checked; see check_report.
Times are medians over the invocations, in seconds corrected for CPU
contention by child.SpeedClock.

With --trace 1 the timed invocations alternate between the CLI and a
traced run of the same pipeline (child.py trace), which calls the
modules' public functions and records a span around each call.

The last stdout line is one JSON object: "correct", "attempted", "failed"
and "metrics" (the end-to-end metrics with --trace 0, the per-module ones
with --trace 1). The lines before it give sample counts and the
environment; perfbench/.work/<workload>/result.json keeps the full record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from cohort import cohort_arff, load_sampler  # noqa: E402

DEFAULT_SEED = 20240816  # the seed of tests/data/synthetic_cohort.arff
FOLDS = 10  # postop bench's default, kept by every workload
REFERENCE = HERE / "reference.json"
# absolute tolerance, in percentage points, on report metrics compared with
# the reference; confusion counts and class counts must match exactly
FLOAT_TOLERANCE = 1e-6
IMPORT_SAMPLES = 5  # fresh-interpreter imports per run, besides the bench children
HARD_LIMIT_S = 170.0  # a run ends (children killed) within this many seconds


@dataclass(frozen=True)
class Workload:
    """A cohort scale and the `postop bench` options run on it (SMOTE 700%, k = 5)."""

    scale: int
    classifiers: tuple[str, ...]
    within_folds: bool = False
    mlp_epochs: int = 0

    def class_counts(self) -> dict[str, int]:
        """Class counts of the data the classifiers are scored on."""
        minority = 70 * self.scale
        if not self.within_folds:
            minority *= 8  # SMOTE 700% up front adds 7 synthetics per original
        return {"T": minority, "F": 400 * self.scale}


# Why each workload exists is in BENCHMARK.json. Sizes keep one invocation
# at a few seconds on a 2-core box, so a run holds several of them.
WORKLOADS = {
    "paper-1x": Workload(1, ("mlp", "j48", "nb"), mlp_epochs=4),
    "tree-nb-2x": Workload(2, ("j48", "nb")),
    "smote-in-folds-10x": Workload(10, ("nb",), within_folds=True),
    # a second-long configuration for the benchmark's own tests
    "smoke": Workload(1, ("nb",)),
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER = {
    "mlp.train_s": "s", "mlp.predict_s": "s", "mlp.sgd_steps": "count",
    "mlp.step_us": "us", "mlp.train_s.max_fold": "s",
    "decision_tree.train_s": "s", "decision_tree.predict_s": "s",
    "decision_tree.nodes": "count", "decision_tree.train_s.max_fold": "s",
    "resampling.smote_s": "s", "resampling.calls": "count",
    "resampling.synthetic_rows": "count", "resampling.rss_growth_mb": "MB",
    "naive_bayes.train_s": "s", "naive_bayes.predict_s": "s",
    "dataset.parse_s": "s", "dataset.impute_s": "s", "dataset.rows": "count",
    "evaluation.self_s": "s", "evaluation.folds_s": "s", "evaluation.render_s": "s",
    "trace.overhead_frac": "frac", "trace.covered_frac": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- report checks ---------------------------------------------------------------


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= FLOAT_TOLERANCE


def check_report(doc: dict, wl: Workload) -> list[str]:
    """Problems with a report.json that hold whatever the seed: counts and identities."""
    expected = wl.class_counts()
    total = sum(expected.values())
    if doc.get("class_counts") != expected:
        return [f"class counts {doc.get('class_counts')} != {expected}"]
    names = [r["classifier"] for r in doc["reports"]]
    if names != list(wl.classifiers):
        return [f"classifiers {names} != {list(wl.classifiers)}"]
    problems = []
    for r in doc["reports"]:
        c, name = r["confusion"], r["classifier"]
        if r["n_instances"] != total or sum(c.values()) != total:
            problems.append(f"{name}: confusion covers {sum(c.values())} of {total} rows")
        if c["tp"] + c["fn"] != expected["T"]:
            problems.append(f"{name}: {c['tp'] + c['fn']} positives, expected {expected['T']}")
        folds = r["fold_accuracies"]
        if r["n_folds"] != FOLDS or len(folds) != FOLDS:
            problems.append(f"{name}: {len(folds)} folds scored, expected {FOLDS}")
        accuracy = 100.0 * (c["tp"] + c["tn"]) / total
        if not _close(r["metrics"]["correctly_classified"], accuracy):
            problems.append(f"{name}: accuracy disagrees with its confusion matrix")
        if folds and not _close(r["cva"], sum(folds) / len(folds)):
            problems.append(f"{name}: cva is not the mean fold accuracy")
        for key, v in r["metrics"].items():
            if v is None or not math.isfinite(v) or v < 0:
                problems.append(f"{name}: metric {key} = {v}")
        if not 0 <= (r["metrics"]["roc_area"] or 0) <= 100:
            problems.append(f"{name}: roc_area out of range")
    return problems


def reference_entry(doc: dict) -> dict:
    """The parts of a report that the reference pins."""
    return {
        "class_counts": doc["class_counts"],
        "reports": [
            {k: r[k] for k in ("classifier", "confusion", "metrics", "cva", "fold_accuracies")}
            for r in doc["reports"]
        ],
    }


def compare_reference(doc: dict, ref: dict) -> list[str]:
    got = reference_entry(doc)
    if got["class_counts"] != ref["class_counts"]:
        return [f"class counts {got['class_counts']} != reference {ref['class_counts']}"]
    if len(got["reports"]) != len(ref["reports"]):
        return ["classifier count differs from the reference"]
    problems = []
    for g, w in zip(got["reports"], ref["reports"]):
        name = w["classifier"]
        if g["classifier"] != name or g["confusion"] != w["confusion"]:
            problems.append(f"{name}: confusion {g['confusion']} != reference {w['confusion']}")
        pairs = [(k, g["metrics"].get(k), v) for k, v in w["metrics"].items()]
        pairs.append(("cva", g["cva"], w["cva"]))
        pairs += [(f"fold {i}", a, b) for i, (a, b) in
                  enumerate(zip(g["fold_accuracies"], w["fold_accuracies"]))]
        for key, a, b in pairs:
            if not _close(a, b):
                problems.append(f"{name}: {key} = {a}, reference {b}")
    return problems


# -- child processes ----------------------------------------------------------------


class Runner:
    """Starts child.py invocations one at a time and keeps their record."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        # the same bytecode cache whatever the caller's settings, so that
        # import times compare across checkouts; the first import fills it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(ROOT / "perfbench" / ".work" / "pycache")
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, *args: str) -> dict | None:
        """Run child.py with args; its JSON result, or None on a crash or timeout."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"child {args[0]} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["(no output)"])[-1]
            print(f"child {args[0]} exited {proc.returncode}: {tail}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def invocation(self, *args: str, check) -> dict | None:
        """An attempted invocation: counted failed unless it ran and check() found nothing."""
        self.attempted += 1
        result = self.child(*args)
        try:
            problems = ["the child failed"] if result is None else check(result)
        except (OSError, ValueError, KeyError, TypeError) as e:  # missing or malformed output
            problems = [f"unreadable output: {e!r}"]
        if problems:
            self.failures.append(f"{args[0]}: {problems[0]}")
            print(f"invocation {self.attempted} failed: {problems[0]}", file=sys.stderr)
            return None
        return result


# -- traced run -----------------------------------------------------------------------


def layer_metrics(trace: dict, untraced_run_s: float) -> dict[str, float]:
    """Per-module metrics of one traced run, from span self times and counts."""
    spans = trace["spans"]
    in_children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            in_children[s["parent"]] += s["end"] - s["start"]
    self_s: dict[str, float] = {}
    max_fold: dict[str, float] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + duration - in_children[s["id"]]
        max_fold[s["name"]] = max(max_fold.get(s["name"], 0.0), duration)
    counts = trace["counts"]
    wall = spans[0]["end"] - spans[0]["start"]
    steps = counts.get("mlp.sgd_steps", 0)
    metrics = {
        "mlp.sgd_steps": steps,
        "mlp.step_us": 1e6 * self_s.get("mlp.train", 0.0) / steps if steps else 0.0,
        "decision_tree.nodes": counts.get("decision_tree.nodes", 0),
        "resampling.calls": counts.get("resampling.calls", 0),
        "resampling.synthetic_rows": counts.get("resampling.synthetic_rows", 0),
        "resampling.rss_growth_mb": counts.get("resampling.rss_growth_mb", 0.0),
        "dataset.rows": counts.get("dataset.rows", 0),
        "evaluation.self_s": self_s.get("evaluation.cross_validate", 0.0),
        "trace.overhead_frac": wall / untraced_run_s - 1.0,
        "trace.covered_frac": 1.0 - self_s["bench"] / wall,
    }
    for module in ("mlp", "decision_tree"):
        metrics[f"{module}.train_s.max_fold"] = max_fold.get(f"{module}.train", 0.0)
    for name in PER_LAYER:  # the rest are "<span name>_s": summed self times
        metrics.setdefault(name, self_s.get(name[: -len("_s")], 0.0))
    return metrics


# -- one run ----------------------------------------------------------------------------


def bench_args(wl: Workload, data: str, seed: int, out: str) -> list[str]:
    args = ["--data", data, "--seed", str(seed), "--out", out,
            "--classifiers", ",".join(wl.classifiers)]
    if wl.within_folds:
        args.append("--smote-within-folds")
    if "mlp" in wl.classifiers:
        args += ["--mlp-epochs", str(wl.mlp_epochs)]
    return args


def run(name: str, seed: int, seconds: int, trace: bool,
        reference_path: Path, write_reference: bool) -> dict:
    for needed in ("src/postop/cli.py", "scripts/make_synthetic_cohort.py"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} not found: run from a checkout of the repository")
    wl = WORKLOADS[name]
    started = time.monotonic()
    runner = Runner(deadline=started + HARD_LIMIT_S)

    # inputs: the cohort of this seed and the reference cohort; --data is a
    # path relative to the checkout, so report.json repeats across runs
    work = Path("perfbench") / ".work" / name
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    sampler = load_sampler(ROOT)
    data = {}
    for s in {seed, DEFAULT_SEED}:
        data[s] = str(work / f"cohort-{s}.arff")
        (ROOT / data[s]).write_text(cohort_arff(sampler, wl.scale, s))
    out = str(work / "out")
    report_path = ROOT / out / "report.json"

    # set-up: the first import compiles bytecode, so it is not a sample
    first_import = runner.child("import")
    if first_import is None:
        raise BenchError("postop.cli does not import")
    env = first_import["env"]
    imports = [r["import_s"] for r in (runner.child("import") for _ in range(IMPORT_SAMPLES)) if r]

    def bench(args, expected_digest=None, ref=None):
        """One checked CLI invocation; a report left by an earlier one cannot pass."""
        report_path.unlink(missing_ok=True)
        return runner.invocation("bench", *args,
                                 check=lambda r: bench_check(r, expected_digest, ref))

    def bench_check(result, expected_digest, ref):
        if result["exit_code"] != 0:
            return [f"exit code {result['exit_code']}: {result['stderr_tail']}"]
        raw = report_path.read_bytes()
        doc = json.loads(raw)
        result["digest"] = hashlib.sha256(raw).hexdigest()
        result["doc"] = doc
        problems = check_report(doc, wl)
        if ref is not None:
            problems += compare_reference(doc, ref)
        if expected_digest and result["digest"] != expected_digest:
            problems.append("report.json differs from the first invocation's")
        return problems

    # warm-up on the reference cohort, checked against the stored reference
    references = json.loads(reference_path.read_text()) if reference_path.is_file() else {}
    ref = None if write_reference else references.get(name)
    if ref is None and not write_reference:
        raise BenchError(f"{reference_path} has no reference for {name}")
    warm = bench(bench_args(wl, data[DEFAULT_SEED], DEFAULT_SEED, out), ref=ref)
    if write_reference and warm is not None:
        references[name] = reference_entry(warm["doc"])
        reference_path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    # the timed loop: closed, one invocation at a time, until --seconds pass
    args = bench_args(wl, data[seed], seed, out)
    spans_path = str(work / "spans.json")
    timed, traced, durations = [], [], []
    loop_start = time.monotonic()
    while time.monotonic() < runner.deadline:
        # stop before an invocation that would end past --seconds
        elapsed = time.monotonic() - loop_start
        if timed and (traced or not trace) and elapsed + statistics.median(durations) > seconds:
            break
        t0 = time.monotonic()
        if trace and timed and len(traced) < len(timed):
            cli_reports = timed[0]["doc"]["reports"]
            result = runner.invocation(
                "trace", name, spans_path, *args,
                check=lambda r: [] if r["reports"] == cli_reports
                else ["traced reports differ from the CLI's"])
            if result is not None:
                trace_doc = json.loads((ROOT / spans_path).read_text())
                traced.append(result | {"trace": trace_doc})
        else:
            result = bench(args, expected_digest=timed[0]["digest"] if timed else None)
            if result is not None:
                timed.append(result)
        durations.append(time.monotonic() - t0)
        if result is None and not timed:
            break  # the program fails on this input; no point repeating it
    if not timed or (trace and not traced):
        raise BenchError("no invocation succeeded: " + "; ".join(runner.failures[:3]))

    # times are in child.SpeedClock's contention-corrected seconds; wall
    # seconds go to result.json and the summary lines
    imports += [r["import_s"] for r in timed]
    run_s = statistics.median(r["run_s"]["s"] for r in timed)
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(r["s"] for r in imports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ok_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
    }
    wall = {"run_s": statistics.median(r["run_s"]["wall_s"] for r in timed),
            "setup_s": statistics.median(r["wall_s"] for r in imports)}
    samples = {"run_s": len(timed), "setup_s": len(imports), "traced": len(traced)}
    if trace:
        per_run = [layer_metrics(r["trace"], run_s) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in PER_LAYER}
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "samples": samples, "failures": runner.failures,
              "wall_medians": wall, "run_s_samples": [r["run_s"] for r in timed],
              "setup_s_samples": imports, "result": result}
    (ROOT / work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {name}, seed {seed}: {samples['run_s']} timed invocations, "
          f"{samples['setup_s']} import samples, {samples['traced']} traced; "
          f"wall medians: run {wall['run_s']:.3f} s, import {wall['setup_s']:.3f} s")
    for k, v in metrics.items():
        print(f"  {k:32s} {v:14.6f} {units[k]}")
    print("env: " + json.dumps(env, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="stored reports to compare with (default: %(default)s)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference for this workload instead of checking it")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.reference, args.write_reference)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
