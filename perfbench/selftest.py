#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selftest.py [CHECK ...]

Checks, all by default:

  metrics   BENCHMARK.json names exactly the metrics run.py reports
  coverage  every traced function is wrapped at every place it is bound,
            and a wrapper that no workload reaches still counts a call
  corrupt   a corrupted reference raises the failure count without
            stopping the run
  hashseed  one registry-exhaustive pass gives the same report digests
            under two PYTHONHASHSEED values, equal to the references
  traced    no named per-layer metric is zero on every workload, and every
            .calls count repeats across two traced runs of
            registry-exhaustive and of theorems-dim3 (takes minutes)
  bare      with only BENCHMARK.json and perfbench/ present, run.py exits
            non-zero without printing a result

Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run
import tracing
import workloads

# Named metrics that no CLI path reaches at this commit.  The coverage
# check proves their wrappers count; a workload reaching them is welcome.
EXPECTED_ZERO = {
    # the CLI draws the unfold partition but never composes it
    "arrays.compose_partition.calls",
    "arrays.compose_partition.s",
}


def check_metrics() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"workloads {names} != {list(workloads.WORKLOADS)}")
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append(f"end_to_end {e2e} != {list(run.END_TO_END)}")
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if layer != tracing.per_layer_metrics():
        problems.append("per_layer differs from tracing.per_layer_metrics()")
    return problems


def check_coverage() -> list[str]:
    cubecat = run.load_cubecat()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        problems = [f"unwrapped: {site}" for site in tracer.unpatched_sites()]
        arrays, folding, shells = cubecat.arrays, cubecat.folding, cubecat.shells
        system = cubecat.cli.build_system("nerve", "poset22", 3)
        x = system.cubes(2)[17]
        s = shells.boundary(system, x)
        cell = arrays.PartitionCell
        partition = arrays.ComposablePartition(system, [
            cell(0, 0, 1, 1, system.degeneracy(s.face(1, "-"), 1), "e-"),
            cell(0, 1, 1, 2, system.connection(s.face(2, "+"), 1, "+"), "G+"),
            cell(1, 0, 2, 2, folding.psi(system, x, 1), "fold"),
            cell(2, 0, 3, 1, system.connection(s.face(2, "-"), 1, "-"), "G-"),
            cell(2, 1, 3, 2, system.degeneracy(s.face(1, "+"), 1), "e+"),
        ], dir_v=1, dir_h=2)
        tracer.enabled = True
        composed = arrays.compose_partition(partition)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    if composed != x:
        problems.append("the unfold partition does not compose to its cube")
    for name in EXPECTED_ZERO:
        if name.endswith(".calls") and tracer.stats.get(name[:-6], [0])[0] != 1:
            problems.append(f"probe call not counted by {name}")
    return problems


def check_corrupt() -> list[str]:
    refs = json.loads(run.REFERENCES.read_text("utf-8"))
    for pool in refs["queries"]["pools"]:
        for cube in pool["cubes"]:
            cube["out"]["fold"][1] = "0" * 16
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", "cube-queries", "--seed", "0", "--seconds", "1",
                         "--trace", "0"], references=refs)
    result = json.loads(out.getvalue().splitlines()[-1])
    problems = []
    if code != 0:
        problems.append(f"run exited {code}")
    if result["correct"] or result["failed"] == 0:
        problems.append(f"corrupted references went unnoticed: {result}")
    return problems


def pass_digests() -> dict:
    """Child mode: report digests of one registry-exhaustive pass at seed 0."""
    cubecat, _, ops, _ = run.set_up("registry-exhaustive", 0)
    return {op.label: workloads.digest(workloads.call_cli(cubecat.cli.main, op.argv).stdout)
            for op in ops}


def check_hashseed() -> list[str]:
    seen = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, __file__, "--digests"], env=env,
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            return [f"digest pass failed under PYTHONHASHSEED={hashseed}: {proc.stderr}"]
        seen.append(json.loads(proc.stdout.splitlines()[-1]))
    refs = json.loads(run.REFERENCES.read_text("utf-8"))["jobs"]
    problems = []
    if seen[0] != seen[1]:
        problems.append(f"reports depend on PYTHONHASHSEED: {seen}")
    for job, got in seen[0].items():
        if got != refs[job]["digest"]:
            problems.append(f"{job}: digest {got} != reference {refs[job]['digest']}")
    return problems


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False, cwd=run.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"traced {workload} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"traced {workload} had failures: {proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_traced() -> list[str]:
    runs = {w: traced_run(w) for w in workloads.WORKLOADS}
    problems = []
    for name, _ in tracing.per_layer_metrics():
        if not name.endswith((".calls", ".s")):
            continue
        zero = all(values[name] == 0 for values in runs.values())
        if zero and name not in EXPECTED_ZERO:
            problems.append(f"{name} is zero on every workload")
        if not zero and name in EXPECTED_ZERO:
            print(f"note: {name} is no longer zero; drop it from EXPECTED_ZERO",
                  file=sys.stderr)
    for workload in ("registry-exhaustive", "theorems-dim3"):
        again = traced_run(workload)
        for name, value in runs[workload].items():
            if name.endswith(".calls") and again[name] != value:
                problems.append(f"{workload} {name}: {value} then {again[name]}")
    return problems


def check_bare() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cube-queries", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, check=False, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("run.py exited 0 without the sources")
    if '"correct"' in proc.stdout:
        problems.append("run.py printed a result without the sources")
    return problems


CHECKS = {
    "metrics": check_metrics,
    "coverage": check_coverage,
    "corrupt": check_corrupt,
    "hashseed": check_hashseed,
    "traced": check_traced,
    "bare": check_bare,
}


def main(argv) -> int:
    if argv == ["--digests"]:
        print(json.dumps(pass_digests()))
        return 0
    unknown = [a for a in argv if a not in CHECKS]
    if unknown:
        print(f"unknown checks {unknown}; have {', '.join(CHECKS)}", file=sys.stderr)
        return 2
    failed = False
    for name in argv or list(CHECKS):
        problems = CHECKS[name]()
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'ok'} {name}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
