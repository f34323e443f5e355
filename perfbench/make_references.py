#!/usr/bin/env python3
"""Regenerate ``perfbench/references.json`` from the current library.

    python3 perfbench/make_references.py

Run it only when a change is meant to alter the CLI's output, and say so in
that change.  For every call of a bulk job it stores the exit code, each
report's instance count and verdict, and a digest of the JSON report for
seed 0.
Each call also runs under a few more seeds, and a report whose instance
count moves with the seed is marked ``sampled``; at other seeds only its
verdict is checked.  For cube-queries it stores a fixed set of cubes from
every pool with their thinness and, for every query variant, the exit code
and stdout digest.  Every stored output is first checked for meaning, and
every kind of malformed document is checked to exit 2.
"""

from __future__ import annotations

import json
import random
import sys

import run
import workloads
from workloads import BULK, MUTATIONS, QUERY_POOLS, Op, call_cli, canonical, digest

SEEDS = (0, 1, 2, 3)
CUBES_PER_POOL = 64


def call_reference(main, job, label, argv) -> dict:
    outs = [call_cli(main, argv + ("--format", "json", "--seed", str(s))) for s in SEEDS]
    docs = [json.loads(o.stdout) for o in outs]
    first = docs[0]["results"]
    if canonical(docs[0]) != outs[0].stdout:
        raise SystemExit(f"{label}: stdout is not the canonical JSON rendering")
    reports = []
    for k, report in enumerate(first):
        if any(d["results"][k]["passed"] != report["passed"] for d in docs):
            raise SystemExit(f"{label}: verdict of {report['id']} depends on the seed")
        reports.append({
            "id": report["id"],
            "instances": report["instances"],
            "passed": report["passed"],
            "sampled": any(d["results"][k]["instances"] != report["instances"] for d in docs),
        })
    if any(o.code != outs[0].code for o in outs) or outs[0].code != job.exit:
        raise SystemExit(f"{label}: unexpected exit codes {[o.code for o in outs]}")
    print(f"{label}: exit {outs[0].code}, "
          f"{sum(r['sampled'] for r in reports)} sampled reports", file=sys.stderr)
    return {"exit": outs[0].code, "digest": digest(outs[0].stdout), "reports": reports}


def pool_reference(cubecat, spec) -> dict:
    family, cat, model_dim, n = spec
    system = cubecat.cli.build_system(family, cat, model_dim)
    pool = system.cubes(n)
    count = min(CUBES_PER_POOL, len(pool))
    chosen = [pool[k * len(pool) // count] for k in range(count)]
    cubes = []
    for x in chosen:
        doc = system.describe(x)
        out = {}
        for variant in workloads.variants(n):
            o = call_cli(cubecat.cli.main, workloads.query_argv(spec, variant), json.dumps(doc))
            out[variant] = [o.code, digest(o.stdout)]
        cubes.append({"doc": doc, "thin": cubecat.folding.is_thin(system, x), "out": out})
    thin = sum(c["thin"] for c in cubes)
    print(f"{family}-{cat}-n{n}: {count} of {len(pool)} cubes, {count - thin} not thin",
          file=sys.stderr)
    return {"spec": list(spec), "cubes": cubes}


def verify_queries(cubecat, refs: dict) -> None:
    """Every stored output must pass the meaning checks; malformed input exits 2."""
    checker = workloads.Checker(cubecat, refs, 0)
    main = cubecat.cli.main
    rng = random.Random("make_references")
    for p, pool in enumerate(refs["queries"]["pools"]):
        spec = tuple(pool["spec"])
        for c, cube in enumerate(pool["cubes"]):
            for variant, expect in cube["out"].items():
                argv = workloads.query_argv(spec, variant)
                op = Op(variant, argv, json.dumps(cube["doc"]), pool=p, cube=c,
                        variant=variant, expect=tuple(expect))
                problems = checker.check(op, call_cli(main, argv, op.stdin))
                for mutation in MUTATIONS:
                    bad = Op(variant, argv, workloads.mutate(cube["doc"], mutation, rng),
                             pool=p, cube=c, variant=variant, mutation=mutation,
                             expect=(2, digest("")))
                    problems += checker.check(bad, call_cli(main, argv, bad.stdin))
                if problems:
                    raise SystemExit(f"pool {spec} cube {c} {variant}: {problems}")


def main() -> int:
    cubecat = run.load_cubecat()
    refs = {"jobs": {}, "queries": {"pools": []}}
    for jobs in BULK.values():
        for job in jobs:
            for label, argv in job.calls():
                refs["jobs"][label] = call_reference(cubecat.cli.main, job, label, argv)
    for spec in QUERY_POOLS:
        refs["queries"]["pools"].append(pool_reference(cubecat, spec))
    verify_queries(cubecat, refs)
    run.REFERENCES.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":"))
                              + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
