"""The benchmark harness still finds every name it traces in the package."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selftest_metrics_and_coverage():
    # a renamed or rebound traced function (run_law, run_suite, a sampling
    # hook, ...) leaves a target unwrapped and fails the coverage check
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "metrics", "coverage"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
