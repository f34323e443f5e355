"""Workload definitions, seeded inputs and output checks for the benchmark.

Every operation is one ``cubecat.cli.main(argv)`` call made in-process, with
stdout and stderr captured and stdin supplying the cube document.  A call
counts as failed when its exit code, its stdout or the meaning of its stdout
disagrees with the stored references in ``references.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("registry-exhaustive", "theorems-dim3", "cube-queries")

LAW_IDS = (
    "FACE-FACE", "EPS-FACE", "EPS-EPS", "EPS-UNIT", "COMP-FACE", "ASSOC",
    "INTERCHANGE", "EPS-COMP", "GAMMA-FACE", "GAMMA-EPS", "GAMMA-GAMMA",
    "GAMMA-COMP", "TRANSPORT", "TRANSPORT-MINUS", "GAMMA-CANCEL",
)
SUITE_IDS = (
    "lemma-1.1", "prop-1.2", "lemma-1.3", "thm-1.4", "lemma-1.5", "lemma-2.3",
    "lemma-2.4", "lemma-2.5", "lemma-2.6", "prop-2.1", "prop-2.2", "cor-2.7",
    "thm-2.8", "cor-2.9", "thm-3.1",
)
# a split job runs as one CLI call per law (axioms) or per suite (theorems)
SPLITS = {"axioms": ("--law", LAW_IDS), "theorems": ("--name", SUITE_IDS)}


@dataclass(frozen=True)
class Job:
    """One named bulk job; ``failing`` lists reports that must fail.

    A ``split`` job is one CLI call per law or suite, so that no single call
    runs much longer than a second.
    """

    name: str
    argv: tuple
    exit: int = 0
    failing: tuple = ()
    split: bool = False

    def calls(self) -> list[tuple[str, tuple]]:
        """(label, argv) of each CLI call of the job, without format and seed."""
        if not self.split:
            return [(self.name, self.argv)]
        flag, ids = SPLITS[self.argv[0]]
        return [(f"{self.name}/{i}", self.argv + (flag, i)) for i in ids]


# Why each workload exists is written in METRICS.md.
BULK = {
    "registry-exhaustive": (
        Job("axioms-tower-poset22-d3",
            ("axioms", "--model", "tower", "--cat", "poset22", "--dim", "3"), split=True),
        Job("axioms-nerve-parallel_pair-d3",
            ("axioms", "--model", "nerve", "--cat", "parallel_pair", "--dim", "3"),
            split=True),
        Job("axioms-nerve-poset22-d2",
            ("axioms", "--model", "nerve", "--cat", "poset22", "--dim", "2")),
        # negative control: the miswired degeneracy must be caught
        Job("axioms-broken-poset22-d2",
            ("axioms", "--model", "broken", "--cat", "poset22", "--dim", "2"),
            exit=1, failing=("EPS-FACE",)),
    ),
    "theorems-dim3": (
        Job("theorems-nerve-parallel_pair-d3",
            ("theorems", "--model", "nerve", "--cat", "parallel_pair", "--dim", "3")),
        # sampled above dimension 2: the sampling hooks, random_top_shell
        # and the dimension-4 pool do the work
        Job("theorems-tower-parallel_pair-d3-sampled",
            ("theorems", "--model", "tower", "--cat", "parallel_pair", "--dim", "3",
             "--exhaustive-dim", "2", "--samples", "200")),
        Job("theorems-tower-poset22-d3-sampled",
            ("theorems", "--model", "tower", "--cat", "poset22", "--dim", "3",
             "--exhaustive-dim", "2", "--samples", "200")),
        Job("theorems-nerve-parallel_pair-d4-sampled",
            ("theorems", "--model", "nerve", "--cat", "parallel_pair", "--dim", "4",
             "--exhaustive-dim", "2", "--samples", "50")),
    ),
}

# Cube pools of cube-queries: (family, category, model dimension, cube dimension).
# The tower's dimension-2 elements include non-commutative shells, which
# are the non-thin cubes that decompose must refuse.
QUERY_POOLS = (
    ("nerve", "poset22", 3, 2),
    ("nerve", "poset22", 3, 3),
    ("nerve", "free_square", 3, 2),
    ("nerve", "free_square", 3, 3),
    ("tower", "free_square", 3, 2),
    ("tower", "free_square", 3, 3),
)
QUERY_KINDS = ("fold", "decompose", "psi", "unfold")
QUERIES_PER_KIND = 20  # per pool and pass
MALFORMED_PER_POOL = 4  # per pool and pass
MUTATIONS = ("truncated", "bad-dim", "unknown-arrow", "missing-entry")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(doc) -> str:
    """The CLI's own JSON rendering, as printed to stdout."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass
class Outcome:
    code: Optional[int]
    seconds: float
    stdout: str
    error: Optional[str] = None


def call_cli(main, argv, stdin_text: str = "") -> Outcome:
    """Run one CLI call in-process; only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # counted as a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return Outcome(code, seconds, out.getvalue(), error)


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One CLI call of a pass, with what its output must be."""

    label: str  # job name, or the query's pool and variant
    argv: tuple
    stdin: str = ""
    job: Optional[Job] = None
    pool: int = -1
    cube: int = -1
    variant: str = ""
    mutation: Optional[str] = None
    expect: tuple = ()  # (exit code, stdout digest) for queries


def make_ops(workload: str, seed: int, refs: dict) -> list[Op]:
    """The seeded operations of one pass."""
    if workload in BULK:
        return [
            Op(label, argv + ("--format", "json", "--seed", str(seed)), job=job)
            for job in BULK[workload]
            for label, argv in job.calls()
        ]
    if workload == "cube-queries":
        return make_queries(seed, refs["queries"])
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def model_args(pool_spec) -> tuple:
    family, cat, model_dim, _ = pool_spec
    return ("--model", family, "--cat", cat, "--dim", str(model_dim))


def query_argv(pool_spec, variant: str) -> tuple:
    base = model_args(pool_spec)
    if variant in ("fold", "decompose"):
        return (variant,) + base + ("--format", "json", "-")
    kind, direction = variant[:-1], variant[-1]
    return ("render",) + base + ("--kind", kind, "--dir", direction, "-")


def variants(n: int) -> list[str]:
    """Every query variant on an n-cube (render needs 1 <= dir <= n-1)."""
    dirs = range(1, n)
    return ["fold", "decompose"] + [f"psi{j}" for j in dirs] + [f"unfold{j}" for j in dirs]


def mutate(doc: dict, mutation: str, rng: random.Random) -> str:
    """A malformed cube document; the CLI must exit 2 on it."""
    if mutation == "truncated":
        text = json.dumps(doc)
        return text[: len(text) // 2]
    doc = json.loads(json.dumps(doc))
    if mutation == "bad-dim":
        doc["dim"] = "two"
    elif mutation == "missing-entry":
        table = doc["faces"] if "faces" in doc else doc["vertices"]
        del table[rng.choice(sorted(table))]
    elif mutation == "unknown-arrow":
        tables = []
        _edge_tables(doc, tables)
        table = rng.choice(tables)
        table[rng.choice(sorted(table))] = "no-such-arrow"
    else:
        raise ValueError(mutation)
    return json.dumps(doc)


def _edge_tables(doc: dict, out: list) -> None:
    if doc.get("edges"):
        out.append(doc["edges"])
    for key in sorted(doc.get("faces", {})):
        _edge_tables(doc["faces"][key], out)


def make_queries(seed: int, qrefs: dict) -> list[Op]:
    """A shuffled, stratified stream: every pool meets every kind equally often.

    The seed picks the cubes, the fold directions, the malformed documents
    and the order, so the mix of work per pass is the same for every seed.
    """
    rng = random.Random(f"cube-queries:{seed}")
    ops = []
    for p, pool in enumerate(qrefs["pools"]):
        spec = tuple(pool["spec"])
        n = spec[3]
        picks = [(kind, None) for kind in QUERY_KINDS for _ in range(QUERIES_PER_KIND)]
        picks += [(rng.choice(QUERY_KINDS), rng.choice(MUTATIONS))
                  for _ in range(MALFORMED_PER_POOL)]
        for kind, mutation in picks:
            c = rng.randrange(len(pool["cubes"]))
            cube = pool["cubes"][c]
            variant = kind if kind in ("fold", "decompose") else f"{kind}{rng.randint(1, n - 1)}"
            if mutation is None:
                stdin = json.dumps(cube["doc"])
                expect = tuple(cube["out"][variant])
            else:
                stdin = mutate(cube["doc"], mutation, rng)
                expect = (2, digest(""))
            ops.append(Op(f"{spec[0]}-{spec[1]}-n{n}-{variant}", query_argv(spec, variant),
                          stdin, pool=p, cube=c, variant=variant, mutation=mutation,
                          expect=expect))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Compares outputs with the references and checks what they mean.

    Meaning checks use the library on the checker's own models, built once
    per model, and run once per distinct output.
    """

    def __init__(self, cubecat, refs: dict, seed: int):
        self.cubecat = cubecat
        self.refs = refs
        self.seed = seed
        self._systems: dict = {}
        self._meanings: dict = {}

    def check(self, op: Op, out: Outcome) -> list[str]:
        if out.error is not None:
            return [f"raised {out.error}"]
        try:
            if op.job is not None:
                return self._check_job(op, out)
            return self._check_query(op, out)
        except Exception as exc:  # a malformed output must not stop the run
            return [f"check raised {type(exc).__name__}: {exc}"]

    # -- bulk jobs -------------------------------------------------------

    def _check_job(self, op: Op, out: Outcome) -> list[str]:
        job, ref = op.job, self.refs["jobs"].get(op.label)
        if ref is None:
            return ["no reference"]
        problems = []
        if out.code != ref["exit"] or out.code != job.exit:
            problems.append(f"exit {out.code}, expected {ref['exit']}")
        try:
            doc = json.loads(out.stdout)
            results = doc["results"]
        except (ValueError, KeyError, TypeError):
            return problems + ["stdout is not a JSON report"]
        if [r.get("id") for r in results] != [r["id"] for r in ref["reports"]]:
            return problems + ["report ids differ from the reference"]
        for got, want in zip(results, ref["reports"]):
            if got.get("passed") != want["passed"]:
                problems.append(f"{want['id']} passed={got.get('passed')}")
            if not want["sampled"] and got.get("instances") != want["instances"]:
                problems.append(f"{want['id']} instances {got.get('instances')}, "
                                f"expected {want['instances']}")
            if want["id"] in job.failing and got.get("passed") is not False:
                problems.append(f"negative control {want['id']} did not fail")
        if self.seed == 0:
            if digest(out.stdout) != ref["digest"]:
                problems.append("stdout differs from the reference report")
        elif not any(r["sampled"] for r in ref["reports"]):
            # fully exhaustive: the report may differ only in its seed field
            doc["config"]["seed"] = 0
            if digest(canonical(doc)) != ref["digest"]:
                problems.append("stdout differs from the reference report")
        return problems

    # -- cube queries ----------------------------------------------------

    def _check_query(self, op: Op, out: Outcome) -> list[str]:
        code, want_digest = op.expect
        got_digest = digest(out.stdout)
        problems = []
        if out.code != code:
            problems.append(f"exit {out.code}, expected {code}")
        if got_digest != want_digest:
            problems.append("stdout differs from the reference")
        if problems or op.mutation is not None:
            return problems
        # the output equals the reference, so one meaning check per query suffices
        key = (op.pool, op.cube, op.variant)
        if key not in self._meanings:
            self._meanings[key] = self._meaning(op, out)
        return self._meanings[key]

    def _system(self, p: int):
        if p not in self._systems:
            family, cat, model_dim, _ = self.refs["queries"]["pools"][p]["spec"]
            self._systems[p] = self.cubecat.cli.build_system(family, cat, model_dim)
        return self._systems[p]

    def _meaning(self, op: Op, out: Outcome) -> list[str]:
        cube = self.refs["queries"]["pools"][op.pool]["cubes"][op.cube]
        fillers, shells = self.cubecat.fillers, self.cubecat.shells
        if op.variant == "decompose":
            if out.code != (0 if cube["thin"] else 1):
                return ["decompose verdict contradicts the cube's thinness"]
            if out.code != 0:
                return []
        if op.variant not in ("fold", "decompose"):
            return []
        system = self._system(op.pool)
        x = system.parse(cube["doc"])
        doc = json.loads(out.stdout)
        if system.parse(doc["input"]) != x:
            return ["reported input is not the input"]
        if op.variant == "decompose":
            expr = fillers.expression_from_doc(system, doc["expression"])
            if not fillers.is_base_free(expr):
                return ["decomposition has a base leaf"]
            if fillers.evaluate(system, expr) != x:
                return ["decomposition does not evaluate to the input"]
            return []
        if doc["thin"] != cube["thin"]:
            return ["fold reports the wrong thinness"]
        folded = system.parse(doc["folded"])
        if fillers.filler_from_fold(system, folded, shells.boundary(system, x)) != x:
            return ["folded cube does not reconstruct the input"]
        return []
