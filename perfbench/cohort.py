"""Scaled synthetic cohorts for the benchmark workloads.

The rows come from the sampler in scripts/make_synthetic_cohort.py
(its SCHEMA and make_row), which is imported, not edited. Scale s gives
70*s rows of class T and 400*s of class F, shuffled with the same RNG,
in the same file layout the script writes. Scale 1 at the script's seed
reproduces tests/data/synthetic_cohort.arff byte for byte.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path("scripts") / "make_synthetic_cohort.py"
MINORITY_ROWS = 70
MAJORITY_ROWS = 400


def load_sampler(root: Path):
    """Import the cohort script from the checkout at root, by file path."""
    path = root / SCRIPT
    spec = importlib.util.spec_from_file_location("make_synthetic_cohort", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cohort_arff(sampler, scale: int, seed: int) -> str:
    """ARFF text of a cohort with 70*scale T rows and 400*scale F rows."""
    rng = np.random.default_rng(seed)
    rows = [sampler.make_row(rng, "T") for _ in range(MINORITY_ROWS * scale)]
    rows += [sampler.make_row(rng, "F") for _ in range(MAJORITY_ROWS * scale)]
    order = rng.permutation(len(rows))
    lines = ["% synthetic stand-in cohort: sampled values, not clinical data",
             "@relation synthetic-thoracic-cohort"]
    for name, values in sampler.SCHEMA:
        if values is None:
            lines.append(f"@attribute {name} numeric")
        else:
            lines.append(f"@attribute {name} {{{','.join(values)}}}")
    lines.append("@data")
    lines += [rows[i] for i in order]
    return "\n".join(lines) + "\n"
