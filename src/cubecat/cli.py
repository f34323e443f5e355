"""Command-line verification harness.

Subcommands: axioms (registry laws), theorems (named suites), fold,
decompose, render.  Reports are deterministic for a fixed seed and config:
stdout carries only the canonical report (text, json or tap); timing goes
to stderr.  Exit codes: 0 all checks pass, 1 at least one check fails,
2 configuration or input errors, 130 interrupted, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import arrays, fillers, folding, models, shells, suites
from .core import LawReport, MINUS, PLUS, REGISTRY, run_axiom_suite
from .errors import CubicalError, NotThin, ParseError, UnknownLaw

FAMILIES = ("nerve", "tower", "broken")


# Where the unfold diagram draws the leaves of fillers.unfold_expression,
# in leaf order: (first row, first column, end row, end column, label).
UNFOLD_TILES = (
    (0, 0, 1, 1, "e-"),
    (0, 1, 1, 2, "G+"),
    (1, 0, 2, 2, "fold"),
    (2, 0, 3, 1, "G-"),
    (2, 1, 3, 2, "e+"),
)


def build_system(family: str, cat_spec: str, max_dim: int, base_dim: int = 1):
    if max_dim < 1:
        raise ParseError("--dim must be at least 1")
    # a Path, which ``_read_json`` never takes for stdin, so a file named "-" is read
    cat = (models.load_fincat(_read_json(Path(cat_spec))) if os.path.exists(cat_spec)
           else models.bundled_category(cat_spec))
    if family == "nerve":
        return models.nerve(cat, max_dim)
    if family == "broken":
        return models.BrokenNerveSystem(cat, max_dim)
    if family == "tower":
        if base_dim < 1:
            raise ParseError("--base-dim must be at least 1")
        if base_dim >= max_dim:
            raise ParseError("tower needs base dimension below the checked dimension")
        return shells.shell_tower(models.nerve(cat, base_dim), max_dim - base_dim)
    raise ParseError(f"unknown model family {family!r}")


def unfold_partition(system, x, j: int) -> arrays.ComposablePartition:
    """The partition that recovers x from its boundary and direction-j folding."""
    expr = fillers.unfold_expression(
        shells.boundary(system, x), j, fillers.Base(folding.psi(system, x, j))
    )
    return arrays.ComposablePartition(system, [
        arrays.PartitionCell(r0, c0, r1, c1, fillers.evaluate(system, leaf), label)
        for (r0, c0, r1, c1, label), leaf in zip(UNFOLD_TILES, fillers.leaves(expr))
    ], dir_v=j, dir_h=j + 1)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and undecodable bytes
        raise ParseError(f"{path}: {exc}") from exc


_quote = json.encoder.encode_basestring_ascii


def _dump(doc, newline: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    Every JSON, TAP and text report is written here.  As in the stdlib
    encoder, types are tested in its order and numbers are written by
    ``int.__repr__`` and ``float.__repr__``.  A non-str key or a value that
    is not JSON raises ``TypeError``.  ``newline`` is the line break plus
    the indent of the current level.
    """
    if isinstance(doc, str):
        return _quote(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float):
        if doc != doc:
            return "NaN"
        if doc == math.inf:
            return "Infinity"
        if doc == -math.inf:
            return "-Infinity"
        return float.__repr__(doc)
    inner = newline + "  "
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = [_dump(v, inner) for v in doc]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        for key in doc:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [f"{_quote(k)}: {_dump(doc[k], inner)}" for k in sorted(doc)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# report formatting


def _emit_reports(command: str, config: dict, reports: list[LawReport], fmt: str) -> int:
    passed = all(r.passed for r in reports)
    if fmt == "json":
        doc = {
            "command": command,
            "config": config,
            "results": [r.as_dict() for r in reports],
            "passed": passed,
        }
        print(_dump(doc))
    elif fmt == "tap":
        print("TAP version 13")
        print(f"1..{len(reports)}")
        for idx, r in enumerate(reports, 1):
            if r.passed:
                print(f"ok {idx} - {r.law_id} ({r.instances} instances)")
            else:
                print(f"not ok {idx} - {r.law_id}")
                print("  ---")
                for line in _dump({"counterexample": r.counterexample}).splitlines():
                    print(f"  {line}")
                print("  ...")
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.law_id} ({r.instances} instances)")
            else:
                print(f"FAIL {r.law_id} ({r.instances} instances)")
                for line in _dump(r.counterexample).splitlines():
                    print(f"    {line}")
        print(f"{'all passed' if passed else 'FAILURES PRESENT'} "
              f"({sum(r.instances for r in reports)} instances over {len(reports)} checks)")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_report(args, run, ids, key) -> int:
    """An axioms or theorems run: ``run(system, ids or None, **options)`` over the model."""
    if args.samples < 0 or args.exhaustive_dim < 0:
        raise ParseError("--samples and --exhaustive-dim must not be negative")
    options = dict(exhaustive_dim=args.exhaustive_dim, samples=args.samples, seed=args.seed)
    system = build_system(args.model, args.cat, args.dim, args.base_dim)
    reports = run(system, ids or None, max_dim=args.dim, **options)
    config = {"model": args.model, "cat": args.cat, "dim": args.dim, key: ids or "all", **options}
    if args.base_dim != 1:
        config["base_dim"] = args.base_dim
    return _emit_reports(args.command, config, reports, args.format)


def cmd_fold(args) -> int:
    system = build_system(args.model, args.cat, args.dim, args.base_dim)
    x = system.parse(_read_json(args.cube))
    n = system.dim(x)
    steps = [{"direction": n - k, "result": system.describe(y)}
             for k, y in enumerate(folding.fold_chain(system, x)[1:], 1)]
    result = folding.big_psi(system, x)
    doc = {
        "input": system.describe(x),
        "steps": steps,
        "folded": system.describe(result.folded),
        "n": system.describe(result.n_face),
        "p": system.describe(result.p_face),
        "thin": folding.is_thin(system, x),
    }
    if args.format == "json":
        print(_dump(doc))
    else:
        print(f"dimension: {n}")
        print(f"thin: {str(doc['thin']).lower()}")
        print(f"N: {json.dumps(doc['n'], sort_keys=True)}")
        print(f"P: {json.dumps(doc['p'], sort_keys=True)}")
        for step in steps:
            print(f"after folding direction {step['direction']}: "
                  f"{json.dumps(step['result'], sort_keys=True)}")
    return 0


def _expression_tree(doc, indent: str = "") -> str:
    kind = doc["kind"]
    if kind == "compose":
        own = f"{indent}compose dir={doc['dir']}\n"
        return (own + _expression_tree(doc["left"], indent + "  ")
                + _expression_tree(doc["right"], indent + "  "))
    if kind == "eps":
        return f"{indent}eps dir={doc['dir']}\n"
    if kind == "gamma":
        return f"{indent}gamma dir={doc['dir']} sign={doc['sign']}\n"
    return f"{indent}base\n"


def cmd_decompose(args) -> int:
    system = build_system(args.model, args.cat, args.dim, args.base_dim)
    x = system.parse(_read_json(args.cube))
    try:
        expr = fillers.thin_decompose(system, x)
    except NotThin as exc:
        print(f"not thin: {exc}", file=sys.stderr)
        return 1
    doc = fillers.expression_to_doc(system, expr)
    out = {"input": system.describe(x), "expression": doc}
    if args.render:
        out["rendering"] = _expression_tree(doc)
    if args.format == "json":
        print(_dump(out))
    else:
        print(_dump(doc))
        if args.render:
            print(_expression_tree(doc), end="")
    return 0


def cmd_render(args) -> int:
    system = build_system(args.model, args.cat, args.dim, args.base_dim)
    doc = _read_json(args.cube)
    if args.kind == "transport":
        if not isinstance(doc, list) or len(doc) != 2:
            raise ParseError("transport rendering needs a two-element list of cubes")
        a, b = system.parse(doc[0]), system.parse(doc[1])
        n, i = system.dim(a), args.dir
        if system.dim(b) != n:
            raise ParseError(f"transport rendering needs two cubes of one dimension,"
                             f" not a {n}-cube and a {system.dim(b)}-cube")
        if n < 1:
            raise ParseError("a 0-cube has no direction; --kind transport needs"
                             " cubes of dimension 1 or more")
        if not 1 <= i <= n:
            raise ParseError(f"--dir must be between 1 and {n} for --kind transport"
                             f" on a pair of {n}-cubes, not {i}")
        if system.face(a, i, PLUS) != system.face(b, i, MINUS):
            raise ParseError(f"the pair does not compose in direction {i}: the upper"
                             f" {i}-face of the first cube is not the lower {i}-face of the second")
        grid = arrays.tile_grid(system, [
            [system.connection(a, i, PLUS), system.degeneracy(a, i + 1)],
            [system.degeneracy(a, i), system.connection(b, i, PLUS)],
        ], dir_v=i, dir_h=i + 1, labels=[["G+a", "e'a"], ["ea", "G+b"]])
        print(arrays.render_ascii(grid), end="")
        return 0
    x = system.parse(doc)
    n = system.dim(x)
    j = args.dir
    if n < 2:
        raise ParseError(f"a {n}-cube has no folding direction; --kind {args.kind} needs"
                         " a cube of dimension 2 or more")
    if not 1 <= j <= n - 1:
        raise ParseError(f"--dir must be between 1 and {n - 1} for --kind {args.kind}"
                         f" on a {n}-cube, not {j}")
    if args.kind == "psi":
        grid = arrays.resolve_symbols(system, [[
            arrays.SymbolicCell(arrays.GAMMA_PLUS),
            arrays.SymbolicCell.plain(x, "x"),
            arrays.SymbolicCell(arrays.GAMMA_MINUS),
        ]], dir_v=j, dir_h=j + 1)
    elif args.kind == "identity":
        # x padded by its units: degeneracies of its upper faces, a double one in the corner
        unit = system.degeneracy(system.face(x, j + 1, PLUS), j + 1)
        grid = arrays.tile_grid(system, [
            [x, unit],
            [system.degeneracy(system.face(x, j, PLUS), j),
             system.degeneracy(system.face(unit, j, PLUS), j)],
        ], dir_v=j, dir_h=j + 1, labels=[["x", "═"], ["║", "□"]])
    else:  # unfold
        grid = unfold_partition(system, x, j)
    print(arrays.render_ascii(grid), end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_model_args(sub, with_report_args: bool = True) -> None:
    sub.add_argument("--model", choices=FAMILIES, default="nerve",
                     help="model family (broken is the negative-control fixture)")
    sub.add_argument("--cat", required=True,
                     help="category document path, or a bundled name: "
                          + ", ".join(models.BUNDLED))
    sub.add_argument("--dim", type=int, default=4, help="top checked dimension")
    sub.add_argument("--base-dim", type=int, default=1,
                     help="tower base dimension (tower model only)")
    if with_report_args:
        sub.add_argument("--samples", type=int, default=500,
                         help="seeded sample count above the exhaustive cap")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--exhaustive-dim", type=int, default=3,
                         help="check exhaustively up to this dimension")
        sub.add_argument("--format", choices=("text", "json", "tap"), default="text")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls.

    Parsing leaves it unchanged: each ``parse_args`` returns a fresh
    namespace, and usage and errors go to the streams current at the call.
    """
    parser = argparse.ArgumentParser(
        prog="cubecat",
        description="verify cubical-category laws over finite models",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    axioms = commands.add_parser("axioms", help="run registry laws")
    _add_model_args(axioms)
    axioms.add_argument("--law", action="append", metavar="ID",
                        help="restrict to one or more law ids (repeatable); "
                             "known: " + ", ".join(REGISTRY))
    axioms.set_defaults(func=lambda args: cmd_report(args, run_axiom_suite, args.law, "laws"))

    theorems = commands.add_parser("theorems", help="run named theorem suites")
    _add_model_args(theorems)
    theorems.add_argument("--name", action="append", metavar="SUITE",
                          help="restrict to one or more suites (repeatable); "
                               "known: " + ", ".join(suites.SUITES))
    theorems.set_defaults(func=lambda args: cmd_report(args, suites.run_suites, args.name, "names"))

    fold = commands.add_parser("fold", help="fold a cube and report N, P, thinness")
    _add_model_args(fold, with_report_args=False)
    fold.add_argument("--format", choices=("text", "json"), default="text")
    fold.add_argument("cube", help="cube document path, or - for stdin")
    fold.set_defaults(func=cmd_fold)

    decomp = commands.add_parser(
        "decompose", help="write a thin cube as degeneracies and connections"
    )
    _add_model_args(decomp, with_report_args=False)
    decomp.add_argument("--format", choices=("text", "json"), default="text")
    decomp.add_argument("--render", action="store_true",
                        help="also print the expression tree")
    decomp.add_argument("cube", help="cube document path, or - for stdin")
    decomp.set_defaults(func=cmd_decompose)

    render = commands.add_parser("render", help="draw folding diagrams for a cube")
    _add_model_args(render, with_report_args=False)
    render.add_argument("--kind", choices=("psi", "unfold", "identity", "transport"),
                        default="psi")
    render.add_argument("--dir", type=int, default=1, help="folding direction")
    render.add_argument("cube", help="cube document path, or - for stdin")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout is met here even by a report that fits the buffer
    except BrokenPipeError:
        # the reader left: what is still buffered goes nowhere at the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        return 130
    except (ParseError, UnknownLaw, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CubicalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
