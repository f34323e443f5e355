#!/usr/bin/env python3
"""Benchmark of the cubecat command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is one fresh
``cubecat.cli.main(argv)`` call in this single-threaded process, timed from
outside and checked against ``perfbench/references.json``.  With
``--trace 0`` the run repeats passes over the workload's operations for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
runs two untraced passes and then one traced pass, and reports the
per-layer metrics of the traced pass; its spans go to ``perfbench/out/``.
End-to-end times are scaled to a quiet host by a probe timed before every
call (see ``probe``).  The last line of stdout is one JSON object; the
lines above it list every metric with its unit.  METRICS.md defines each
metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"
SETUP_REPEATS = 16  # half before the passes, half after
SETUP_PROBES = 15  # probes after each set-up, which scale that set-up
# About the probe's median between calls when the host (a 2-core Xeon VM,
# Python 3.11) was quiet; it sets the unit of the scaled times.
PROBE_REF_S = 0.0007

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p99", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, no references)."""


def load_cubecat():
    """Import the package afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "cubecat" or n.startswith("cubecat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cubecat = importlib.import_module("cubecat")
        importlib.import_module("cubecat.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import cubecat from {SRC}: {exc}") from exc
    if Path(cubecat.__file__).resolve().parent != (SRC / "cubecat").resolve():
        raise SetupError(f"imported cubecat from {cubecat.__file__}, not from {SRC}")
    return cubecat


def set_up(workload: str, seed: int, references=None):
    """Import, load the bundled categories and references, make the inputs."""
    start = time.perf_counter()
    cubecat = load_cubecat()
    for name in cubecat.models.BUNDLED:
        cubecat.models.bundled_category(name)
    if references is None:
        try:
            references = json.loads(REFERENCES.read_text("utf-8"))
        except (OSError, ValueError) as exc:
            raise SetupError(f"cannot load {REFERENCES}: {exc}") from exc
    ops = workloads.make_ops(workload, seed, references)
    return cubecat, references, ops, time.perf_counter() - start


def settle() -> None:
    """Start the next call with empty young generations, as a fresh process does.

    What earlier calls and the benchmark itself left alive is frozen out of
    the collector, so a call's collections depend on its own allocations
    only, and not on where in the run it falls.
    """
    gc.collect()
    gc.freeze()


def probe() -> float:
    """Seconds that a fixed, allocation-heavy pure-Python loop takes now.

    It fills a dict with tuples and frozensets, as the program's model code
    does, so other tenants of the host slow it down about as much as they
    slow the program.
    """
    start = time.perf_counter()
    table = {}
    for i in range(1000):
        table[(i, i % 7)] = frozenset((i, str(i)))
    sum(len(v) for v in table.values())
    return time.perf_counter() - start


def host_scale(probes) -> float:
    """Factor that takes times measured next to ``probes`` to a quiet host."""
    return PROBE_REF_S / statistics.median(probes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, p: int) -> float:
    """Linearly interpolated percentile of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Runner:
    """Runs passes over the operations and checks every output."""

    def __init__(self, cubecat, references: dict, ops, seed: int):
        self.main = cubecat.cli.main
        self.ops = ops
        self.checker = workloads.Checker(cubecat, references, seed)
        self.latencies: list[list[float]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.reported = 0
        self.probes: list[float] = []

    def run_pass(self, tracer=None) -> float:
        """One pass over the operations; returns the summed call time."""
        total = 0.0
        for index, op in enumerate(self.ops):
            settle()
            if tracer is None:
                self.probes.append(probe())
                out = workloads.call_cli(self.main, op.argv, op.stdin)
                problems = self.checker.check(op, out)
            else:
                name = f"cli.job.{op.job.name}" if op.job else "cli.query"
                with tracer.span(name, job=index):
                    out = workloads.call_cli(self.main, op.argv, op.stdin)
                with tracer.paused():
                    problems = self.checker.check(op, out)
            self.attempted += 1
            self.latencies[index].append(out.seconds)
            total += out.seconds
            if problems:
                self.failed += 1
                if self.reported < 10:
                    self.reported += 1
                    print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
        return total

    def typical_latencies(self) -> list[float]:
        """Each operation's median latency over the passes of the run.

        Other tenants of a shared host slow calls down by up to half, in
        spells that come and go within a minute.  A call's fastest time
        depends on whether the run met a quiet spell; its median over many
        passes moves less.
        """
        return [statistics.median(samples) for samples in self.latencies]


def run_untraced(workload, seed, seconds, references=None) -> tuple:
    def timed_set_up():
        made = set_up(workload, seed, references)
        times.append(made[3] * host_scale([probe() for _ in range(SETUP_PROBES)]))
        return made

    times = []
    for _ in range(SETUP_REPEATS // 2):
        # only the last set-up is kept, so the others do not add to peak RSS
        cubecat, refs, ops, _ = timed_set_up()
    runner = Runner(cubecat, refs, ops, seed)
    settle()
    start = time.perf_counter()
    runner.run_pass()
    # taken after one pass, so that it does not depend on how many passes fit
    peak = peak_rss_mb()
    # start no pass that would end after the measured time
    longest = time.perf_counter() - start
    while True:
        began = time.perf_counter()
        if began + longest - start > seconds:
            break
        runner.run_pass()
        longest = max(longest, time.perf_counter() - began)
    # the other half after the passes: the host's load changes within a run
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        timed_set_up()
    # times on a quiet host: the run's slowdown is the probe's
    scale = host_scale(runner.probes)
    print(f"host_scale {scale:.6g} (probe {PROBE_REF_S / scale * 1000:.4g} ms, "
          f"{PROBE_REF_S * 1000:.4g} ms on a quiet host)")
    lat = [t * scale for t in runner.typical_latencies()]
    values = {
        "setup_s": statistics.median(times),
        "pass_s": sum(lat),
        "query_ms_p50": percentile(lat, 50) * 1000,
        "query_ms_p99": percentile(lat, 99) * 1000,
        "queries_per_s": len(lat) / sum(lat),
        "peak_rss_mb": peak,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return runner, metrics


def run_traced(workload, seed, references=None) -> tuple:
    cubecat, refs, ops, _ = set_up(workload, seed, references)
    runner = Runner(cubecat, refs, ops, seed)
    settle()
    runner.run_pass()
    rss_first = peak_rss_mb()
    untraced = runner.run_pass()
    growth = peak_rss_mb() - rss_first
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missed = tracer.unpatched_sites()
        if missed:
            raise SetupError(f"targets left unwrapped at {', '.join(missed)}")
        tracer.enabled = True
        started = time.perf_counter()
        traced = runner.run_pass(tracer)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    per = 1000 / len(ops) if workload == "cube-queries" else 1.0
    metrics = tracer.layer_metrics(per, growth, traced / untraced)
    OUT.mkdir(exist_ok=True)
    spans = [[name, start - started, end - started, parent, job]
             for name, start, end, parent, job in tracer.spans]
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "job"],
        "spans": spans,
        "stats": {name: {"calls": e[0], "self_s": e[1], "non_none": e[2], "total_s": e[3]}
                  for name, e in sorted(tracer.stats.items())},
    }, indent=1) + "\n", encoding="utf-8")
    return runner, metrics


def main(argv=None, references=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            runner, metrics = run_traced(args.workload, args.seed, references)
        else:
            runner, metrics = run_untraced(args.workload, args.seed, args.seconds, references)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
