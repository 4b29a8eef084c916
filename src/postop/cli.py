"""Command line: inspect a dataset, rebalance it, run the benchmark, plot data.

Exit codes: 0 on success, 1 on input or data errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
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
    parse_csv,
    to_arff,
    to_csv,
)
from .evaluation import (
    CLASSIFIER_NAMES,
    DISPLAY_NAMES,
    METRIC_LABELS,
    cross_validate,
    make_classifier,
    render_csv,
    render_markdown,
    stratified_folds,
)
from .resampling import ResampleRecord, SmoteConfig, smote, smote_repeated
from .seeds import derive_seed

DATA_DIR_ENV = "POSTOP_DATA_DIR"


@dataclass(frozen=True)
class RunConfig:
    """Everything a benchmark run depends on, as recorded in the manifest."""

    data: str
    data_format: str
    schema: str | None
    class_attribute: str | None
    positive_class: str | None
    impute: str
    folds: int
    seed: int
    smote: bool
    smote_percent: int
    smote_k: int
    smote_repeat: int
    smote_within_folds: bool
    classifiers: tuple[str, ...]
    mlp_epochs: int
    mlp_learning_rate: float
    mlp_momentum: float
    mlp_hidden: tuple[int, ...] | None
    tree_min_leaf: int
    tree_confidence: float
    tree_pruning: bool

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["classifiers"] = list(self.classifiers)
        d["mlp_hidden"] = list(self.mlp_hidden) if self.mlp_hidden else None
        return d


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


def _infer_format(path: Path, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "csv" if path.suffix.lower() == ".csv" else "arff"


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not readable text: {e.reason} at byte {e.start}") from None


def _load_dataset(args) -> tuple[Dataset, Path, str]:
    """The --data table as parsed, before imputation; its path and format."""
    path = _resolve_data_path(args.data)
    fmt = _infer_format(path, args.data_format)
    text = _read_text(path)
    if fmt == "csv":
        if not args.schema:
            raise DataError("CSV input needs --schema pointing at an ARFF header")
        schema = parse_arff(_read_text(_resolve_data_path(args.schema))).schema
        d = parse_csv(text, schema, class_attribute=args.class_attribute)
    else:
        d = parse_arff(text, class_attribute=args.class_attribute)
    return d, path, fmt


def _positive_class(d: Dataset, requested: str | None) -> str:
    if requested is None:
        return d.class_labels[0]
    if requested not in d.class_labels:
        raise DataError(
            f"positive class {requested!r} is not a value of {d.class_attribute.name!r}"
        )
    return requested


def _oversample(d: Dataset, minority: str, seed: int, opts) -> tuple[Dataset, ResampleRecord]:
    """SMOTE as the smote_k, smote_percent and smote_repeat of opts ask.

    opts is the parsed command line or a RunConfig. A non-zero smote_repeat
    applies 100% oversampling that many times instead of one pass.
    """
    cfg = SmoteConfig(seed=seed, k_neighbors=opts.smote_k, percent=opts.smote_percent)
    if opts.smote_repeat:
        return smote_repeated(d, minority, opts.smote_repeat, cfg)
    return smote(d, minority, cfg)


# -- inspect -----------------------------------------------------------------


def _cmd_inspect(args) -> int:
    d, path, _ = _load_dataset(args)  # not imputed: the census reports the file as-is
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
    d, path, fmt = _load_dataset(args)
    d = impute_missing(d, args.impute)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"resampled.{fmt}"
    record_path = out_dir / "resample_record.json"

    if args.no_smote:
        out_path.write_bytes(path.read_bytes())  # byte-identical copy
        record = {
            "method": "none",
            "original_counts": class_counts(d),
            "final_counts": class_counts(d),
            "synthetic_created": 0,
        }
        record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"no resampling; copied input to {out_path}")
        return 0

    minority = _positive_class(d, args.positive_class)
    resampled, record = _oversample(d, minority, derive_seed(args.seed, "smote"), args)
    out_path.write_text(to_csv(resampled) if fmt == "csv" else to_arff(resampled))
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


def _build_specs(cfg: RunConfig):
    specs = []
    for name in cfg.classifiers:
        if name == "mlp":
            specs.append(
                make_classifier(
                    "mlp",
                    hidden_sizes=cfg.mlp_hidden,
                    learning_rate=cfg.mlp_learning_rate,
                    momentum=cfg.mlp_momentum,
                    epochs=cfg.mlp_epochs,
                )
            )
        elif name == "j48":
            specs.append(
                make_classifier(
                    "j48",
                    min_leaf_instances=cfg.tree_min_leaf,
                    pruning_confidence=cfg.tree_confidence,
                    pruning=cfg.tree_pruning,
                )
            )
        else:
            specs.append(make_classifier("nb"))
    return specs


def _cmd_bench(args) -> int:
    started = time.perf_counter()
    timings: dict[str, float] = {}
    d, path, fmt = _load_dataset(args)
    d = impute_missing(d, args.impute)
    timings["load"] = time.perf_counter() - started

    cfg = RunConfig(
        data=args.data,
        data_format=fmt,
        schema=args.schema,
        class_attribute=args.class_attribute,
        positive_class=args.positive_class,
        impute=args.impute,
        folds=args.folds,
        seed=args.seed,
        smote=not args.no_smote,
        smote_percent=args.smote_percent,
        smote_k=args.smote_k,
        smote_repeat=args.smote_repeat,
        smote_within_folds=args.smote_within_folds,
        classifiers=_parse_classifiers(args.classifiers),
        mlp_epochs=args.mlp_epochs,
        mlp_learning_rate=args.mlp_learning_rate,
        mlp_momentum=args.mlp_momentum,
        mlp_hidden=_parse_hidden(args.mlp_hidden),
        tree_min_leaf=args.tree_min_leaf,
        tree_confidence=args.tree_confidence,
        tree_pruning=not args.tree_no_pruning,
    )
    positive = _positive_class(d, cfg.positive_class)

    resample_record = None
    train_transform = None
    working = d
    t0 = time.perf_counter()
    if cfg.smote and not cfg.smote_within_folds:
        working, resample_record = _oversample(d, positive, derive_seed(cfg.seed, "smote"), cfg)
    elif cfg.smote and cfg.smote_within_folds:

        def train_transform(train_d, seed):
            return _oversample(train_d, positive, seed, cfg)[0]

    timings["resample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    folds = stratified_folds(working, cfg.folds, derive_seed(cfg.seed, "folds"))
    timings["folds"] = time.perf_counter() - t0

    reports = []
    for spec in _build_specs(cfg):
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
        "config": cfg.to_json_dict(),
        "positive_class": positive,
        "resampling": resample_record.to_json_dict() if resample_record else {
            "method": "within-folds" if (cfg.smote and cfg.smote_within_folds) else "none"
        },
        "class_counts": class_counts(working),
        "reports": [r.to_json_dict() for r in reports],
    }
    report_json = json.dumps(report_doc, indent=2, sort_keys=True) + "\n"
    manifest_doc = dict(report_doc)
    manifest_doc["timings_seconds"] = {k: round(v, 6) for k, v in timings.items()}
    manifest_json = json.dumps(manifest_doc, indent=2, sort_keys=True) + "\n"

    markdown = _render_report_markdown(cfg, positive, resample_record, working, reports)
    csv_text = render_csv(reports)

    (out_dir / "report.json").write_text(report_json)
    (out_dir / "manifest.json").write_text(manifest_json)
    (out_dir / "report.md").write_text(markdown)
    (out_dir / "report.csv").write_text(csv_text)

    if args.format == "json":
        print(report_json, end="")
    elif args.format == "csv":
        print(csv_text, end="")
    else:
        print(markdown, end="")
    print(f"\nwrote report.md, report.csv, report.json, manifest.json to {out_dir}",
          file=sys.stderr)
    return 0


def _render_report_markdown(cfg, positive, resample_record, working, reports) -> str:
    lines = ["# Benchmark report", ""]
    counts = class_counts(working)
    counts_text = ", ".join(f"{k}:{v}" for k, v in counts.items())
    lines.append(
        f"Dataset: `{cfg.data}`, {len(working)} instances after resampling "
        f"({counts_text}), positive class {positive}."
    )
    if resample_record is not None:
        before = ", ".join(f"{k}:{v}" for k, v in resample_record.original_counts.items())
        lines.append(
            f"Resampling: {resample_record.method}, {{{before}}} before, "
            f"{resample_record.synthetic_created} synthetic instances added."
        )
    elif cfg.smote and cfg.smote_within_folds:
        lines.append("Resampling: applied inside each training fold only.")
    else:
        lines.append("Resampling: none.")
    lines.append(
        f"Evaluation: stratified {cfg.folds}-fold cross-validation, master seed {cfg.seed}."
    )
    lines.append("")
    lines.append(render_markdown(reports).rstrip())
    lines.append("")
    lines.append("| Classifier | CVA (mean fold accuracy) | Folds |")
    lines.append("| --- | ---: | ---: |")
    for r in reports:
        name = DISPLAY_NAMES.get(r.classifier, r.classifier)
        lines.append(f"| {name} | {r.cva:.1f} | {r.n_folds} |")
    flagged = [(r.classifier, f) for r in reports for f in r.flags]
    if flagged:
        lines.append("")
        lines.append("Notes:")
        for name, f in flagged:
            lines.append(f"- {name}: {f}")
    return "\n".join(lines) + "\n"


# -- plotdata ---------------------------------------------------------------------


def _cmd_plotdata(args) -> int:
    path = Path(args.manifest)
    if not path.exists():
        raise DataError(f"manifest {args.manifest!r} not found")
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise DataError(f"manifest {args.manifest!r} is not valid JSON: {e}") from None
    reports = doc.get("reports") if isinstance(doc, dict) else None
    if not reports:
        raise DataError("manifest contains no classifier reports")
    if not isinstance(reports, list) or not all(
            isinstance(r, dict) and isinstance(r.get("metrics", {}), dict) for r in reports):
        raise DataError("manifest reports must be objects with a metrics object")
    names = [str(r.get("display_name", r.get("classifier", "?"))) for r in reports]
    lines = ["metric," + ",".join(names)]
    for key, label in METRIC_LABELS:
        cells = []
        for name, r in zip(names, reports):
            v = r.get("metrics", {}).get(key)
            if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
                raise DataError(f"{name} metric {key!r} is not a number: {v!r}")
            cells.append("" if v is None else f"{v:.1f}")
        lines.append(label + "," + ",".join(cells))
    out_path = Path(args.out) if args.out else path.parent / "plot.csv"
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    return 0


# -- parser -----------------------------------------------------------------------


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="dataset file (ARFF or CSV)")
    p.add_argument("--data-format", choices=["arff", "csv"], default=None,
                   help="input format; default: by file extension")
    p.add_argument("--schema", default=None,
                   help="ARFF file supplying the schema for CSV input")
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
    p.add_argument("--smote-repeat", type=int, default=0,
                   help="instead apply 100%% oversampling this many times")


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

    p = sub.add_parser("plotdata", help="turn a manifest into a plotting-friendly CSV")
    p.add_argument("manifest", help="manifest.json (or report.json) from bench")
    p.add_argument("--out", default=None, help="output CSV path (default: plot.csv beside it)")
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())
