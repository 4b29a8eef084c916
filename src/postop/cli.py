"""Command line: inspect a dataset, rebalance it, run the benchmark.

Exit codes: 0 on success, 1 on input or data errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from os import environ
from pathlib import Path

from . import __version__
from .dataset import (
    DataError,
    Dataset,
    class_counts,
    impute_missing,
    missing_census,
    parse_arff,
    to_arff,
)
from .evaluation import (
    CLASSIFIER_NAMES,
    cross_validate,
    make_classifier,
    render_csv,
    render_markdown,
    stratified_folds,
)
from .resampling import ResampleRecord, SmoteConfig, smote
from .seeds import derive_seed

DATA_DIR_ENV = "POSTOP_DATA_DIR"


def _resolve_data_path(path_str: str) -> Path:
    p = Path(path_str)
    if p.exists():
        return p
    if not p.is_absolute():
        base = environ.get(DATA_DIR_ENV)
        if base:
            candidate = Path(base) / p
            if candidate.exists():
                return candidate
    raise DataError(
        f"data file {path_str!r} not found (also looked under ${DATA_DIR_ENV})"
    )


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not readable text: {e.reason} at byte {e.start}") from None


def _load_dataset(args) -> tuple[Dataset, Path]:
    """The --data table as parsed, before imputation, and its path."""
    path = _resolve_data_path(args.data)
    return parse_arff(_read_text(path), class_attribute=args.class_attribute), path


def _positive_class(d: Dataset, requested: str | None) -> str:
    if requested is None:
        return d.class_labels[0]
    if requested not in d.class_labels:
        raise DataError(
            f"positive class {requested!r} is not a value of {d.class_attribute.name!r}"
        )
    return requested


def _oversample(d: Dataset, minority: str, seed: int, opts) -> tuple[Dataset, ResampleRecord]:
    """SMOTE as the --smote-k and --smote-percent of opts (resample or bench flags) ask."""
    return smote(d, minority, SmoteConfig(seed=seed, k_neighbors=opts.smote_k,
                                          percent=opts.smote_percent))


# -- inspect -----------------------------------------------------------------


def _cmd_inspect(args) -> int:
    d, path = _load_dataset(args)  # not imputed: the census reports the file as-is
    nominal = sum(1 for a in d.schema if a.kind == "nominal")
    numeric = len(d.schema) - nominal
    counts = class_counts(d)
    counts_text = ", ".join(f"{k}:{v}" for k, v in counts.items())
    print(f"relation: {d.relation} ({path})")
    print(
        f"{len(d)} instances, {len(d.schema)} attributes "
        f"({nominal} nominal, {numeric} numeric), class {{{counts_text}}}"
    )
    census = missing_census(d)
    if census:
        total = sum(census.values())
        detail = ", ".join(f"{k}: {v}" for k, v in census.items())
        print(f"missing values: {total} cells ({detail})")
    else:
        print("missing values: none")
    return 0


# -- resample ----------------------------------------------------------------


def _cmd_resample(args) -> int:
    d = impute_missing(_load_dataset(args)[0], args.impute)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "resampled.arff"
    record_path = out_dir / "resample_record.json"

    if args.no_smote:
        out_path.write_text(to_arff(d))
        record = {
            "method": "none",
            "original_counts": class_counts(d),
            "final_counts": class_counts(d),
            "synthetic_created": 0,
        }
        record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"no resampling; wrote {out_path} and {record_path}")
        return 0

    minority = _positive_class(d, args.positive_class)
    resampled, record = _oversample(d, minority, derive_seed(args.seed, "smote"), args)
    out_path.write_text(to_arff(resampled))
    record_path.write_text(
        json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    before = ", ".join(f"{k}:{v}" for k, v in record.original_counts.items())
    after = ", ".join(f"{k}:{v}" for k, v in record.final_counts.items())
    print(f"resampled {{{before}}} -> {{{after}}} ({record.synthetic_created} synthetic)")
    print(f"wrote {out_path} and {record_path}")
    return 0


# -- bench ---------------------------------------------------------------------


def _parse_classifiers(text: str) -> tuple[str, ...]:
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    if not names:
        raise DataError("no classifiers requested")
    for n in names:
        if n not in CLASSIFIER_NAMES:
            raise DataError(f"unknown classifier {n!r}; expected one of {CLASSIFIER_NAMES}")
    return names


def _parse_hidden(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        sizes = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise DataError(f"invalid --mlp-hidden value {text!r}") from None
    if not sizes:
        raise DataError(f"invalid --mlp-hidden value {text!r}")
    return sizes


# One row per report.json config key: the (classifier, make_classifier override)
# it feeds, and how it derives from the parsed flags (None: the flag of its name).
BENCH_CONFIG = (
    ("data", None, None),
    ("class_attribute", None, None),
    ("positive_class", None, None),
    ("impute", None, None),
    ("folds", None, None),
    ("seed", None, None),
    ("smote", None, lambda a: not a.no_smote),
    ("smote_percent", None, None),
    ("smote_k", None, None),
    ("smote_within_folds", None, None),
    ("classifiers", None, lambda a: _parse_classifiers(a.classifiers)),
    ("mlp_epochs", ("mlp", "epochs"), None),
    ("mlp_learning_rate", ("mlp", "learning_rate"), None),
    ("mlp_momentum", ("mlp", "momentum"), None),
    ("mlp_hidden", ("mlp", "hidden_sizes"), lambda a: _parse_hidden(a.mlp_hidden)),
    ("tree_min_leaf", ("j48", "min_leaf_instances"), None),
    ("tree_confidence", ("j48", "pruning_confidence"), None),
    ("tree_pruning", ("j48", "pruning"), lambda a: not a.tree_no_pruning),
)


def _cmd_bench(args) -> int:
    started = time.perf_counter()
    timings: dict[str, float] = {}
    d = impute_missing(_load_dataset(args)[0], args.impute)
    timings["load"] = time.perf_counter() - started

    config = {key: derive(args) if derive else getattr(args, key)
              for key, _, derive in BENCH_CONFIG}
    positive = _positive_class(d, args.positive_class)

    resample_record = None
    train_transform = None
    working = d
    t0 = time.perf_counter()
    if config["smote"] and not args.smote_within_folds:
        working, resample_record = _oversample(d, positive, derive_seed(args.seed, "smote"), args)
    elif config["smote"]:

        def train_transform(train_d, seed):
            return _oversample(train_d, positive, seed, args)[0]

    timings["resample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    folds = stratified_folds(working, args.folds, derive_seed(args.seed, "folds"))
    timings["folds"] = time.perf_counter() - t0

    overrides = {name: {} for name in CLASSIFIER_NAMES}
    for key, target, _ in BENCH_CONFIG:
        if target:
            overrides[target[0]][target[1]] = config[key]
    specs = [make_classifier(name, **overrides[name]) for name in config["classifiers"]]
    reports = []
    for spec in specs:
        t0 = time.perf_counter()
        reports.append(
            cross_validate(working, spec, folds, positive_class=positive,
                           train_transform=train_transform)
        )
        timings[f"cv-{spec.name}"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - started

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_doc = {
        "version": __version__,
        "config": config,
        "positive_class": positive,
        "resampling": resample_record.to_json_dict() if resample_record else {
            "method": "within-folds" if train_transform else "none"
        },
        "class_counts": class_counts(working),
        "reports": [r.to_json_dict() for r in reports],
    }
    report_json = json.dumps(report_doc, indent=2, sort_keys=True) + "\n"
    manifest_doc = dict(report_doc)
    manifest_doc["timings_seconds"] = {k: round(v, 6) for k, v in timings.items()}
    manifest_json = json.dumps(manifest_doc, indent=2, sort_keys=True) + "\n"

    files = {
        "report.json": report_json,
        "manifest.json": manifest_json,
        "report.md": _render_report_markdown(config, positive, resample_record, working, reports),
        "report.csv": render_csv(reports),
    }
    for name, text in files.items():
        (out_dir / name).write_text(text)
    echo = {"markdown": "report.md", "csv": "report.csv", "json": "report.json"}
    print(files[echo[args.format]], end="")
    print(f"\nwrote report.md, report.csv, report.json, manifest.json to {out_dir}",
          file=sys.stderr)
    return 0


def _render_report_markdown(config, positive, resample_record, working, reports) -> str:
    lines = ["# Benchmark report", ""]
    counts = class_counts(working)
    counts_text = ", ".join(f"{k}:{v}" for k, v in counts.items())
    lines.append(
        f"Dataset: `{config['data']}`, {len(working)} instances after resampling "
        f"({counts_text}), positive class {positive}."
    )
    if resample_record is not None:
        before = ", ".join(f"{k}:{v}" for k, v in resample_record.original_counts.items())
        lines.append(
            f"Resampling: {resample_record.method}, {{{before}}} before, "
            f"{resample_record.synthetic_created} synthetic instances added."
        )
    elif config["smote"]:
        lines.append("Resampling: applied inside each training fold only.")
    else:
        lines.append("Resampling: none.")
    lines.append(
        f"Evaluation: stratified {config['folds']}-fold cross-validation, "
        f"master seed {config['seed']}."
    )
    lines.append("")
    lines.append(render_markdown(reports).rstrip())
    lines.append("")
    lines.append("| Classifier | CVA (mean fold accuracy) | Folds |")
    lines.append("| --- | ---: | ---: |")
    for r in reports:
        lines.append(f"| {r.display_name} | {r.cva:.1f} | {r.n_folds} |")
    flagged = [(r.classifier, f) for r in reports for f in r.flags]
    if flagged:
        lines.append("")
        lines.append("Notes:")
        for name, f in flagged:
            lines.append(f"- {name}: {f}")
    return "\n".join(lines) + "\n"


# -- parser -----------------------------------------------------------------------


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="ARFF dataset file")
    p.add_argument("--class-attribute", default=None,
                   help="class attribute name; default: the last attribute")
    p.add_argument("--impute", choices=["mean-or-mode", "drop-instance"],
                   default="mean-or-mode", help="missing-value strategy")
    p.add_argument("--positive-class", default=None,
                   help="positive (and minority) class value; default: first declared")


def _add_smote_flags(p: argparse.ArgumentParser):
    p.add_argument("--no-smote", action="store_true", help="skip minority oversampling")
    p.add_argument("--smote-percent", type=int, default=700,
                   help="synthetic minority mass, multiple of 100 (default 700)")
    p.add_argument("--smote-k", type=int, default=5,
                   help="neighbourhood size (default 5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postop",
        description="Benchmark post-operative life-expectancy classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a dataset file")
    _add_data_flags(p)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("resample", help="rebalance the minority class and write the result")
    _add_data_flags(p)
    _add_smote_flags(p)
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=_cmd_resample)

    p = sub.add_parser("bench", help="run the full benchmark")
    _add_data_flags(p)
    _add_smote_flags(p)
    p.add_argument("--seed", type=int, required=True, help="master seed (required)")
    p.add_argument("--folds", type=int, default=10, help="cross-validation folds")
    p.add_argument("--smote-within-folds", action="store_true",
                   help="oversample inside each training fold instead of up front")
    p.add_argument("--classifiers", default="mlp,j48,nb",
                   help="comma-separated subset of mlp,j48,nb")
    p.add_argument("--mlp-epochs", type=int, default=500)
    p.add_argument("--mlp-learning-rate", type=float, default=0.3)
    p.add_argument("--mlp-momentum", type=float, default=0.2)
    p.add_argument("--mlp-hidden", default=None,
                   help="comma-separated hidden layer sizes; default: auto")
    p.add_argument("--tree-min-leaf", type=int, default=2)
    p.add_argument("--tree-confidence", type=float, default=0.25)
    p.add_argument("--tree-no-pruning", action="store_true")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--format", choices=["markdown", "csv", "json"], default="markdown",
                   help="what to echo to stdout (all formats are written)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
