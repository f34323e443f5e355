"""Command-line behavior: formats, exit codes, determinism, re-checkable output."""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cubecat import PLUS, bundled_category, is_thin, nerve, shell_tower
from cubecat.cli import _dump, main, make_parser
from conftest import tower_of

GOLDEN = pathlib.Path(__file__).parent / "golden"

SQUARE_DOC = {
    "dim": 2,
    "vertices": {"00": "00", "10": "10", "01": "01", "11": "11"},
    "edges": {"*0": "00->10", "*1": "01->11", "0*": "00->01", "1*": "10->11"},
}


def run_cli(*args, stdin=None, timeout=300, preexec_fn=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "cubecat.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=timeout,
        preexec_fn=preexec_fn,
        env=env,
    )


def _limit_memory():
    """Cap the child's address space at about 1 GB, so a runaway allocation fails fast."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_in_process(*args):
    """(exit code, stdout) of one ``main`` call in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(args))
    return code, out.getvalue()


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_DOC), encoding="utf-8")
    return str(path)


def test_help():
    result = run_cli("--help")
    assert result.returncode == 0
    for sub in ("axioms", "theorems", "fold", "decompose", "render"):
        assert sub in result.stdout


def test_axioms_pass_text():
    result = run_cli("axioms", "--model", "nerve", "--cat", "terminal",
                     "--dim", "2", "--exhaustive-dim", "2")
    assert result.returncode == 0
    assert "all passed" in result.stdout
    assert result.stdout.count("PASS") == 15


def test_axioms_fail_exit_code_and_counterexample():
    result = run_cli("axioms", "--model", "broken", "--cat", "poset22",
                     "--dim", "2", "--exhaustive-dim", "2", "--format", "json")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["passed"] is False
    failed = [r for r in doc["results"] if not r["passed"]]
    assert failed and failed[0]["counterexample"] is not None


GOLDEN_REPORTS = {
    "axioms_broken_poset22_d2": ("axioms", "--model", "broken", "--cat", "poset22", "--dim", "2"),
    # the sampled tower paths: shells assembled at the top, pools below it
    "theorems_tower_poset22_d3": ("theorems", "--model", "tower", "--cat", "poset22", "--dim", "3",
                                  "--exhaustive-dim", "2", "--seed", "5"),
    "axioms_tower_poset22_d3": ("axioms", "--model", "tower", "--cat", "poset22", "--dim", "3",
                                "--exhaustive-dim", "1", "--seed", "3"),
    "theorems_tower_parallel_pair_d3": ("theorems", "--model", "tower", "--cat", "parallel_pair",
                                        "--dim", "3", "--exhaustive-dim", "2", "--samples", "40",
                                        "--seed", "11"),
    # sampled nerve runs: the enumerated dimension-4 pool and its composable-mate index
    "theorems_nerve_parallel_pair_d4": ("theorems", "--model", "nerve", "--cat", "parallel_pair",
                                        "--dim", "4", "--exhaustive-dim", "2", "--samples", "50",
                                        "--seed", "0"),
    "axioms_nerve_parallel_pair_d4": ("axioms", "--model", "nerve", "--cat", "parallel_pair",
                                      "--dim", "4", "--exhaustive-dim", "2", "--seed", "3"),
}


@pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
def test_broken_report_matches_golden(name):
    # pins the reports, counterexample documents and bindings included, byte for byte
    result = run_cli(*GOLDEN_REPORTS[name], "--format", "json")
    assert result.stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    doc = json.loads(result.stdout)
    failed = [r["id"] for r in doc["results"] if not r["passed"]]
    assert result.returncode == (1 if failed else 0)
    assert ("EPS-FACE" in failed) == ("broken" in name)


def test_counterexample_feeds_back_as_failure():
    result = run_cli("axioms", "--model", "broken", "--cat", "poset22",
                     "--dim", "2", "--exhaustive-dim", "2", "--format", "json",
                     "--law", "EPS-FACE")
    doc = json.loads(result.stdout)
    payload = doc["results"][0]["counterexample"]["binding"]["x"]

    from cubecat import BrokenNerveSystem, bundled_category, check_axiom

    broken = BrokenNerveSystem(bundled_category("poset22"), 2)
    again = check_axiom(broken, "EPS-FACE", [broken.parse(payload)])
    assert not again.passed


def test_reports_are_seed_deterministic():
    args = ("axioms", "--model", "nerve", "--cat", "parallel_pair", "--dim", "3",
            "--exhaustive-dim", "2", "--samples", "40", "--seed", "11",
            "--format", "json")
    first, second = run_cli(*args), run_cli(*args)
    assert first.stdout == second.stdout
    different = run_cli(*args[:-3], "12", "--format", "json")
    assert different.returncode == 0


def test_reports_are_identical_across_hash_seeds(tmp_path):
    # a tower 3-shell: a connection on a 2-shell that does not commute
    tower = tower_of("free_square", 3)
    square = next(x for x in tower.cubes(2) if not is_thin(tower, x))
    path = tmp_path / "shell.json"
    path.write_text(json.dumps(tower.describe(tower.connection(square, 1, PLUS))),
                    encoding="utf-8")
    tower_args = ("--model", "tower", "--cat", "free_square", "--dim", "3",
                  "--format", "json", str(path))
    for argv in (
        ("fold", *tower_args),
        ("decompose", *tower_args),
        ("theorems", "--model", "nerve", "--cat", "poset22", "--dim", "2", "--format", "json"),
        # a sampled tower report: shells hash their faces' recorded hashes
        ("theorems", "--model", "tower", "--cat", "poset22", "--dim", "3", "--exhaustive-dim", "2",
         "--samples", "20", "--seed", "5", "--format", "json"),
    ):
        first, second = (run_cli(*argv, env={**os.environ, "PYTHONHASHSEED": seed})
                         for seed in ("1", "2"))
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout.encode() == second.stdout.encode(), argv


def test_tap_output_shape():
    result = run_cli("theorems", "--model", "nerve", "--cat", "terminal",
                     "--dim", "2", "--name", "lemma-1.1", "--name", "prop-1.2",
                     "--format", "tap")
    lines = result.stdout.splitlines()
    assert lines[0] == "TAP version 13"
    assert lines[1] == "1..2"
    assert lines[2].startswith("ok 1 - lemma-1.1")
    assert result.returncode == 0


def test_theorems_all_suites_small_model():
    result = run_cli("theorems", "--model", "tower", "--cat", "parallel_pair",
                     "--dim", "2", "--samples", "30")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("PASS") == 15


def test_unknown_suite_is_config_error():
    result = run_cli("theorems", "--model", "nerve", "--cat", "terminal",
                     "--dim", "2", "--name", "thm-9.9")
    assert result.returncode == 2
    # the message names the unknown id and lists the known ones
    assert "unknown suite thm-9.9" in result.stderr and "thm-3.1" in result.stderr
    result = run_cli("axioms", "--model", "nerve", "--cat", "terminal",
                     "--dim", "2", "--law", "NOPE")
    assert result.returncode == 2
    assert "unknown law NOPE" in result.stderr and "INTERCHANGE" in result.stderr


def test_missing_category_is_config_error(tmp_path):
    result = run_cli("axioms", "--model", "nerve",
                     "--cat", str(tmp_path / "none.json"), "--dim", "2")
    assert result.returncode == 2
    # dimensions below 1 and negative sampling flags are rejected the same way
    for argv in (
        ("axioms", "--model", "nerve", "--cat", "poset22", "--dim", "0"),
        ("axioms", "--model", "tower", "--cat", "poset22", "--base-dim", "0", "--dim", "2"),
        ("axioms", "--cat", "terminal", "--dim", "2", "--exhaustive-dim", "0",
         "--samples", "-1"),
        ("axioms", "--cat", "terminal", "--dim", "2", "--exhaustive-dim", "-3"),
        ("theorems", "--cat", "terminal", "--dim", "2", "--exhaustive-dim", "0",
         "--samples", "-1"),
        ("theorems", "--cat", "terminal", "--dim", "2", "--exhaustive-dim", "-3"),
    ):
        result = run_cli(*argv)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr


ONE_OBJECT = {
    "objects": ["A"],
    "morphisms": [{"name": "1", "src": "A", "tgt": "A"}],
    "identities": {"A": "1"},
    "compose": [["1", "1", "1"]],
}
ONE_EDGE = {"vertices": ["a", "b"], "edges": [{"name": "f", "src": "a", "tgt": "b"}]}


def test_category_document_from_path(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(ONE_OBJECT), encoding="utf-8")
    result = run_cli("axioms", "--cat", str(path), "--dim", "2",
                     "--exhaustive-dim", "2")
    assert result.returncode == 0


BAD_CATEGORIES = {
    "compose-entry-of-two": {**ONE_OBJECT, "compose": [["1", "1"]]},
    "compose-string": {**ONE_OBJECT, "compose": "111"},
    "object-list": {**ONE_OBJECT, "objects": [["A"]]},
    "objects-string": {**ONE_OBJECT, "objects": "A"},
    "identity-list": {**ONE_OBJECT, "identities": {"A": ["1"]}},
    "morphism-src-list": {
        **ONE_OBJECT, "morphisms": [{"name": "1", "src": ["A"], "tgt": "A"}]},
    "graph-vertex-list": {"graph": {**ONE_EDGE, "vertices": [["a"], "b"]}},
    "graph-vertices-string": {"graph": {**ONE_EDGE, "vertices": "ab"}},
    "graph-edge-name-list": {"graph": {
        **ONE_EDGE, "edges": [{"name": ["f"], "src": "a", "tgt": "b"}]}},
    "morphism-named-twice": {
        "objects": ["A", "B"],
        "morphisms": [{"name": "1A", "src": "A", "tgt": "A"},
                      {"name": "1B", "src": "B", "tgt": "B"},
                      {"name": "f", "src": "A", "tgt": "B"},
                      {"name": "f", "src": "B", "tgt": "A"}],
        "identities": {"A": "1A", "B": "1B"},
    },
    "edge-named-twice": {"graph": {
        "vertices": ["a", "b", "c"],
        "edges": [{"name": "f", "src": "a", "tgt": "b"}, {"name": "f", "src": "c", "tgt": "b"}]}},
    "edge-named-like-a-path": {"graph": {
        "vertices": ["a", "b", "c"],
        "edges": [{"name": "f", "src": "a", "tgt": "b"}, {"name": "g", "src": "b", "tgt": "c"},
                  {"name": "g∘f", "src": "a", "tgt": "c"}]}},
    "identity-of-unknown-object": {**ONE_OBJECT, "identities": {"A": "1", "Z": "1A"}},
    "compose-entries-disagree": {
        "objects": ["A", "B", "C"],
        "morphisms": [{"name": f"1{o}", "src": o, "tgt": o} for o in "ABC"] + [
            {"name": "f", "src": "A", "tgt": "B"}, {"name": "g", "src": "B", "tgt": "C"},
            {"name": "h", "src": "A", "tgt": "C"}, {"name": "k", "src": "A", "tgt": "C"}],
        "identities": {o: f"1{o}" for o in "ABC"},
        "compose": [["g", "f", "h"], ["g", "f", "k"]],
    },
}
# what the message of a refused name must quote
CULPRITS = {
    "morphism-named-twice": "'f'",
    "edge-named-twice": "'f'",
    "edge-named-like-a-path": "'g∘f'",
    "identity-of-unknown-object": "'Z'",
    "compose-entries-disagree": "(g, f)",
}


@pytest.mark.parametrize("name", list(BAD_CATEGORIES))
def test_invalid_category_document_is_config_error(tmp_path, name):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(BAD_CATEGORIES[name]), encoding="utf-8")
    result = run_cli("axioms", "--cat", str(path), "--dim", "2")
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert CULPRITS.get(name, "") in result.stderr
    assert "Traceback" not in result.stderr


def test_fold_square(square_file):
    result = run_cli("fold", "--cat", "poset22", "--dim", "2",
                     "--format", "json", square_file)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["thin"] is True
    assert doc["n"] == doc["p"]
    assert doc["n"]["edges"]["*"] == "00->11"
    assert len(doc["steps"]) == 1


def test_fold_degenerate_edge():
    doc = {
        "dim": 1,
        "vertices": {"0": "00", "1": "00"},
        "edges": {"*": "00->00"},
    }
    result = run_cli("fold", "--cat", "poset22", "--dim", "2", "--format",
                     "json", "-", stdin=json.dumps(doc))
    out = json.loads(result.stdout)
    assert out["thin"] is True and out["n"] == out["p"]


def test_fold_nonthin_tower_element():
    shell_doc = {
        "dim": 2,
        "faces": {
            "1-": {"dim": 1, "vertices": {"0": "A", "1": "B"}, "edges": {"*": "f"}},
            "1+": {"dim": 1, "vertices": {"0": "C", "1": "D"}, "edges": {"*": "k"}},
            "2-": {"dim": 1, "vertices": {"0": "A", "1": "C"}, "edges": {"*": "h"}},
            "2+": {"dim": 1, "vertices": {"0": "B", "1": "D"}, "edges": {"*": "g"}},
        },
    }
    result = run_cli("fold", "--model", "tower", "--cat", "free_square",
                     "--dim", "2", "--format", "json", "-",
                     stdin=json.dumps(shell_doc))
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["thin"] is False
    assert doc["n"] != doc["p"]  # the two path composites disagree


def test_decompose_square(square_file):
    result = run_cli("decompose", "--cat", "poset22", "--dim", "2",
                     "--format", "json", square_file)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    kinds = set()

    def walk(node):
        kinds.add(node["kind"])
        if node["kind"] == "compose":
            walk(node["left"])
            walk(node["right"])

    walk(doc["expression"])
    assert "base" not in kinds
    assert {"eps", "gamma", "compose"} <= kinds


def test_decompose_rejects_non_thin():
    doc = {"dim": 1, "vertices": {"0": "00", "1": "01"}, "edges": {"*": "00->01"}}
    result = run_cli("decompose", "--cat", "poset22", "--dim", "2", "-",
                     stdin=json.dumps(doc))
    assert result.returncode == 1
    assert "not thin" in result.stderr


def test_decompose_rendering_flag(square_file):
    result = run_cli("decompose", "--cat", "poset22", "--dim", "2",
                     "--render", square_file)
    assert result.returncode == 0
    assert "compose dir=1" in result.stdout


def test_render_matches_golden(square_file):
    result = run_cli("render", "--cat", "poset22", "--dim", "2",
                     "--kind", "psi", "--dir", "1", square_file)
    assert result.stdout == (GOLDEN / "psi_row.txt").read_text(encoding="utf-8")
    result = run_cli("render", "--cat", "poset22", "--dim", "2",
                     "--kind", "identity", "--dir", "1", square_file)
    assert result.stdout == (GOLDEN / "identity_array.txt").read_text(encoding="utf-8")


EDGE_DOC = {"dim": 1, "vertices": {"0": "00", "1": "01"}, "edges": {"*": "00->01"}}
POINT_DOC = {"dim": 0, "vertices": {"": "00"}}
EDGE_PAIR = [EDGE_DOC, {"dim": 1, "vertices": {"0": "01", "1": "11"}, "edges": {"*": "01->11"}}]
TRANSPORT = "--dir must be between 1 and 1 for --kind transport on a pair of 1-cubes, not {}"


@pytest.mark.parametrize("kind, doc, direction, message", [
    pytest.param(kind, doc, direction, message, id=f"{name}-{kind}")
    for kind in ("psi", "identity", "unfold")
    for name, doc, direction, message in [
        ("dir-0", SQUARE_DOC, 0,
         "--dir must be between 1 and 1 for --kind {} on a 2-cube, not 0"),
        ("dir-n", SQUARE_DOC, 2,
         "--dir must be between 1 and 1 for --kind {} on a 2-cube, not 2"),
        ("1-cube", EDGE_DOC, 1, "a 1-cube has no folding direction; --kind {} needs"),
        ("0-cube", POINT_DOC, 1, "a 0-cube has no folding direction; --kind {} needs"),
    ]
] + [
    pytest.param("transport", EDGE_PAIR, 0, TRANSPORT.format(0), id="dir-0-transport"),
    pytest.param("transport", EDGE_PAIR, 2, TRANSPORT.format(2), id="dir-n-transport"),
    pytest.param("transport", EDGE_PAIR, 5, TRANSPORT.format(5), id="dir-5-transport"),
    pytest.param("transport", EDGE_PAIR[::-1], 1,
                 "the pair does not compose in direction 1: the upper 1-face of the first cube"
                 " is not the lower 1-face of the second\n", id="not-composable-transport"),
    pytest.param("transport", [EDGE_DOC, SQUARE_DOC], 1,
                 "transport rendering needs two cubes of one dimension, not a 1-cube and a 2-cube",
                 id="mixed-dims-transport"),
    pytest.param("transport", [POINT_DOC, POINT_DOC], 1,
                 "a 0-cube has no direction; --kind transport needs", id="0-cube-transport"),
])
def test_render_checks_dir_up_front(tmp_path, kind, doc, direction, message):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["render", "--cat", "poset22", "--dim", "2", "--kind", kind,
                     "--dir", str(direction), str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: {message.format(kind)}"), err.getvalue()


def test_render_unfold(square_file):
    result = run_cli("render", "--cat", "poset22", "--dim", "2",
                     "--kind", "unfold", "--dir", "1", square_file)
    assert result.returncode == 0
    assert "fold" in result.stdout
    assert "h: direction 2, v: direction 1" in result.stdout


def _poset22_four_cube() -> bytes:
    """A valid 4-cube of the poset22 nerve, built without enumerating dimension 4."""
    system = nerve(bundled_category("poset22"), 4)
    x = system.cubes(1)[-1]
    x = system.connection(system.connection(x, 1, PLUS), 2, PLUS)
    return json.dumps(system.describe(system.degeneracy(x, 4))).encode()


def _two_shell_with_face_seven() -> bytes:
    """A 2-shell of the poset22 tower with an extra face entry "7+"."""
    tower = shell_tower(bundled_category("poset22"), 1, 2)
    doc = tower.describe(tower.cubes(2)[0])
    doc["faces"]["7+"] = doc["faces"]["1-"]
    return json.dumps(doc).encode()


BAD_DOCUMENTS = {
    "missing-vertices": b'{"dim": 2, "vertices": {"00": "A"}, "edges": {}}',
    "null": b"null",
    "non-object-face": b'{"dim": 2, "faces": {"1-": 5}}',
    "empty-face-key": b'{"dim": 2, "faces": {"": 5}}',
    "infinite-dim": b'{"dim": 1e400, "faces": {}}',
    "huge-nerve-dim": b'{"dim": 99999999999, "vertices": {}}',
    "huge-shell-dim": b'{"dim": 99999999999, "faces": {}}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "undecodable": b"\xff\xfe{",
    "nerve-dim-above-model": _poset22_four_cube(),
    # a 1-shell over the nerve's 0-cubes is not an element of the model
    "shell-below-top": json.dumps({"dim": 1, "faces": {
        "1-": {"dim": 0, "vertices": {"": "00"}},
        "1+": {"dim": 0, "vertices": {"": "00"}},
    }}).encode(),
    "shell-face-out-of-range": _two_shell_with_face_seven(),
    # too many digits for int(): a ValueError, not a bad key, at the parent
    "shell-face-huge-index": b'{"dim": 3, "faces": {"' + b"9" * 5000 + b'-": 5}}',
    "unknown-object": b'{"dim": 0, "vertices": {"": "NOPE"}}',
    "list-edge-entry": b'{"dim": 1, "vertices": {"0": "00", "1": "10"}, "edges": {"*": ["x"]}}',
    "extra-vertex": json.dumps(
        {**SQUARE_DOC, "vertices": {**SQUARE_DOC["vertices"], "111": "11"}}).encode(),
}
# name -> (document, the model families that must reject it); a tower's
# nerve leaves stop at its base dimension 1
REJECTED_BY = {name: (doc, ("nerve", "tower")) for name, doc in BAD_DOCUMENTS.items()}
REJECTED_BY["nerve-square-in-tower"] = (json.dumps(SQUARE_DOC).encode(), ("tower",))
INVALID_CASES = [
    pytest.param(doc, command, model, id=f"{name}-{command}-{model}")
    for name, (doc, models) in REJECTED_BY.items()
    for command in ("fold", "decompose", "render")
    for model in models
]


@pytest.mark.parametrize("doc, command, model", INVALID_CASES)
def test_invalid_cube_document_is_config_error(tmp_path, doc, command, model):
    path = tmp_path / "cube.json"
    path.write_bytes(doc)
    result = run_cli(command, "--model", model, "--cat", "poset22", "--dim", "3",
                     str(path), timeout=60, preexec_fn=_limit_memory)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")
    elapsed = re.search(r"elapsed: ([0-9.]+)s", result.stderr)
    assert elapsed and float(elapsed.group(1)) < 1.0, result.stderr


def test_repeated_in_process_calls_are_independent(square_file):
    assert make_parser() is make_parser()
    laws = ("axioms", "--cat", "terminal", "--dim", "2", "--format", "json")
    for law in ("EPS-FACE", "FACE-FACE"):
        code, out = run_in_process(*laws, "--law", law)
        assert code == 0
        doc = json.loads(out)
        assert [r["id"] for r in doc["results"]] == [law]
        assert doc["config"]["laws"] == [law]
    suites = ("theorems", "--cat", "terminal", "--dim", "2", "--format", "json")
    for name in ("lemma-1.1", "prop-1.2"):
        code, out = run_in_process(*suites, "--name", name)
        assert code == 0
        assert json.loads(out)["config"]["names"] == [name]
    code, all_laws = run_in_process(*laws)
    assert json.loads(all_laws)["config"]["laws"] == "all"
    # usage and help go to the streams current at the call
    err = io.StringIO()
    with pytest.raises(SystemExit) as rejected, contextlib.redirect_stderr(err):
        main(["axioms", "--model", "no-such-model", "--cat", "terminal"])
    assert rejected.value.code == 2
    assert err.getvalue().startswith("usage: cubecat axioms")
    assert run_in_process(*laws) == (code, all_laws)
    out = io.StringIO()
    with pytest.raises(SystemExit) as helped, contextlib.redirect_stdout(out):
        main(["--help"])
    assert helped.value.code == 0
    assert "decompose" in out.getvalue()
    # each in-process report is byte-identical to a fresh process's
    for argv in (
        ("axioms", "--model", "broken", "--cat", "poset22", "--dim", "2"),
        ("theorems", "--cat", "terminal", "--dim", "2", "--format", "tap"),
        ("fold", "--cat", "poset22", "--dim", "2", "--format", "json", square_file),
        ("render", "--cat", "poset22", "--dim", "2", "--kind", "unfold", square_file),
    ):
        code, out = run_in_process(*argv)
        result = run_cli(*argv)
        assert (code, out) == (result.returncode, result.stdout), argv


def test_render_transport_pair(tmp_path):
    pair = [
        {"dim": 1, "vertices": {"0": "00", "1": "01"}, "edges": {"*": "00->01"}},
        {"dim": 1, "vertices": {"0": "01", "1": "11"}, "edges": {"*": "01->11"}},
    ]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair), encoding="utf-8")
    result = run_cli("render", "--cat", "poset22", "--dim", "2",
                     "--kind", "transport", "--dir", "1", str(path))
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "transport.txt").read_text(encoding="utf-8")


def test_render_transport_rejects_single_cube(square_file):
    result = run_cli("render", "--cat", "poset22", "--dim", "2",
                     "--kind", "transport", square_file)
    assert result.returncode == 2


# Strings that need escaping in JSON: quotes, backslashes, control and
# non-ASCII characters (lone surrogates included), mixed with any others.
_JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
    st.characters(exclude_categories=()),
))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 300),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]), _JSON_TEXT,
)
_JSON_TREES = st.recursive(_JSON_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(_JSON_TEXT, kids, max_size=4),
), max_leaves=30)


@settings(deadline=None)
@given(_JSON_TREES)
def test_dump_is_json_dumps_byte_for_byte(doc):
    assert _dump(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    {"a": {1, 2}},
    [{"x": object()}],
    {1: "int key"},
    {"a": {"b": 1, 2: "mixed keys"}},
])
def test_dump_refuses_what_is_not_json(doc):
    with pytest.raises(TypeError):
        _dump(doc)
