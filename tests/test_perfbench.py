"""The benchmark harness still finds every name it traces in the package, and
the benchmark's seed-0 outputs of every workload are still the package's."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

import cubecat.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(monkeypatch, name: str):
    """perfbench/<name>.py as the module ``name``, as its siblings import it, for one test.

    It is registered in ``sys.modules`` because dataclasses look their module up.
    """
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_metrics_and_coverage():
    # a renamed or rebound traced function (run_law, run_suite, a sampling
    # hook, ...) leaves a target unwrapped and fails the coverage check
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "metrics", "coverage"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def _reference_problems(monkeypatch, workload: str) -> dict:
    """{label: problems} of the seed-0 calls of ``workload`` that disagree with references.json."""
    workloads = _load(monkeypatch, "workloads")
    refs = json.loads((PERFBENCH / "references.json").read_text("utf-8"))
    checker = workloads.Checker(cubecat, refs, 0)
    problems = {}
    ops = workloads.make_ops(workload, 0, refs)
    assert ops
    for op in ops:
        found = checker.check(op, workloads.call_cli(cubecat.cli.main, op.argv, op.stdin))
        if found:
            problems[op.label] = found
    return problems


def test_theorems_dim3_reports_at_seed_0_are_the_references(monkeypatch):
    # the benchmark's sampled jobs pin the seeded draw stream: at seed 0 each
    # report's digest must be the one in references.json
    assert _reference_problems(monkeypatch, "theorems-dim3") == {}


@pytest.mark.parametrize("workload", ["registry-exhaustive", "cube-queries"])
def test_benchmark_outputs_at_seed_0_are_the_references(monkeypatch, workload):
    # every other benchmarked output too: each call's exit code and stdout
    # (the report's digest, or the query's) must be the reference's
    assert _reference_problems(monkeypatch, workload) == {}


def test_traced_law_and_suite_runs_name_their_spans(monkeypatch):
    # the tracer binds run_law's ``law`` and run_suite's ``suite_id`` by name
    _load(monkeypatch, "workloads")
    tracer = _load(monkeypatch, "tracing").Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        for argv in (["axioms", "--cat", "terminal", "--dim", "2", "--law", "ASSOC"],
                     ["theorems", "--cat", "terminal", "--dim", "2", "--name", "lemma-1.1"]):
            assert cubecat.cli.main(argv) == 0
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert {"core.law.ASSOC", "suites.lemma-1.1"} <= {span[0] for span in tracer.spans}
