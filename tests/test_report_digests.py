"""Every report of scripts/report_digests.py's runs, against the digests pinned here.

tests/data/report_digests.txt holds one header line naming the numpy version,
BLAS and CPU kernels that made the digests, then the script's lines. A change
that legitimately changes a report regenerates the file, and names the lines
and the reason in CHANGES.md (`--environment` prints the header's values alone):

    PYTHONPATH=src python tests/test_report_digests.py
"""

import importlib.util
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_DIR, TESTS_DIR
from postop import cli

PINNED = TESTS_DIR / "data" / "report_digests.txt"


def environment() -> str:
    """The numpy version, BLAS and CPU kernels: the float sums of a report can depend on each.

    The same versions give other MLP bits under another OpenBLAS core or
    without numpy's AVX-512 loops, so the kernels are named too. The values
    are those a bench run writes into manifest.json.
    """
    env = cli.environment()
    return (f"numpy {env['numpy']}, {env['blas']}, OpenBLAS core {env['openblas_core']}, "
            f"SIMD {env['simd']}")


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
    # the same versions on other kernels
    skylake = "numpy 2.4.6, scipy-openblas 0.3.31, OpenBLAS core SkylakeX, SIMD X86_V3 X86_V4"
    haswell = "numpy 2.4.6, scipy-openblas 0.3.31, OpenBLAS core Haswell, SIMD X86_V3"
    assert mismatch(pinned, got, skylake, haswell) == (
        "reports differ from the pinned digests in runs: default, extra; the digests were "
        f"pinned under {skylake}, this run is under {haswell}")


@pytest.mark.skipif(cli.environment()["openblas_core"] == "unknown"
                    or platform.machine() != "x86_64"
                    or not np._core._multiarray_umath.__cpu_features__.get("AVX2"),
                    reason="no bundled OpenBLAS core to read, or no x86-64 CPU with AVX2")
def test_environment_names_the_kernels_a_child_runs():
    # Haswell's kernels run on any AVX2 CPU, and numpy may drop each target it dispatches
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"), OPENBLAS_CORETYPE="Haswell",
               NPY_DISABLE_CPU_FEATURES=cli.environment()["simd"].replace("none", ""))
    done = subprocess.run([sys.executable, __file__, "--environment"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    versions = environment().split(", OpenBLAS core ")[0]
    assert done.stdout == f"{versions}, OpenBLAS core Haswell, SIMD none\n"


def test_reports_match_the_pinned_digests():
    header, *pinned = PINNED.read_text().splitlines()
    got = digest_lines()
    assert got == pinned, mismatch(pinned, got, header.removeprefix("# "), environment())


if __name__ == "__main__":
    if sys.argv[1:] == ["--environment"]:
        print(environment())
    else:
        PINNED.write_text("\n".join([f"# {environment()}", *digest_lines()]) + "\n")
