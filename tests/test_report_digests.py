"""Every report of scripts/report_digests.py's runs, against the digests pinned here.

tests/data/report_digests.txt holds one header line naming the numpy version
and BLAS that made the digests, then the script's lines. A change that
legitimately changes a report regenerates the file, and names the lines and
the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import importlib.util

import numpy as np

from conftest import REPO_DIR, TESTS_DIR

PINNED = TESTS_DIR / "data" / "report_digests.txt"


def environment() -> str:
    """The numpy version and BLAS: the float sums of a report can depend on both."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


def digest_lines() -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "report_digests", REPO_DIR / "scripts" / "report_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.digest_lines()


def mismatch(pinned: list[str], got: list[str], pinned_env: str, env: str) -> str:
    """The runs whose lines differ, and the environments if they differ too."""
    def by_file(lines):
        return {tuple(line.split()[:2]): line for line in lines}

    a, b = by_file(pinned), by_file(got)
    runs = dict.fromkeys(run for run, f in [*a, *b] if a.get((run, f)) != b.get((run, f)))
    message = f"reports differ from the pinned digests in runs: {', '.join(runs)}"
    if pinned_env != env:
        message += f"; the digests were pinned under {pinned_env}, this run is under {env}"
    return message


def test_mismatch_names_the_runs_and_the_environment():
    pinned = ["default report.json 00", "default report.md 11", "tree-min-leaf report.csv 22"]
    got = ["default report.json 00", "default report.md 1f", "tree-min-leaf report.csv 22",
           "extra report.json 33"]
    env = "numpy 2.0.0, openblas 0.3.27"
    assert mismatch(pinned, got, env, env) == (
        "reports differ from the pinned digests in runs: default, extra")
    assert mismatch(pinned, got, env, "numpy 2.4.6, mkl 2024").endswith(
        "; the digests were pinned under numpy 2.0.0, openblas 0.3.27, "
        "this run is under numpy 2.4.6, mkl 2024")


def test_reports_match_the_pinned_digests():
    header, *pinned = PINNED.read_text().splitlines()
    got = digest_lines()
    assert got == pinned, mismatch(pinned, got, header.removeprefix("# "), environment())


if __name__ == "__main__":
    PINNED.write_text("\n".join([f"# {environment()}", *digest_lines()]) + "\n")
