"""Category presentation loading and validation."""

import itertools

import pytest

from cubecat import bundled_category, load_fincat
from cubecat.errors import CategoryLawViolation, ParseError
from cubecat.models import MAX_ARROWS


def count_paths(graph):
    """Independent oracle: DFS path count on an acyclic graph, identities included."""
    out = {v: [] for v in graph["vertices"]}
    for e in graph["edges"]:
        out[e["src"]].append(e["tgt"])
    total = 0

    def walk(v):
        nonlocal total
        total += 1
        for w in out[v]:
            walk(w)

    for v in graph["vertices"]:
        walk(v)
    return total


FREE_SQUARE_GRAPH = {
    "vertices": ["A", "B", "C", "D"],
    "edges": [
        {"name": "f", "src": "A", "tgt": "B"},
        {"name": "g", "src": "B", "tgt": "D"},
        {"name": "h", "src": "A", "tgt": "C"},
        {"name": "k", "src": "C", "tgt": "D"},
    ],
}


def test_poset22_counts():
    cat = bundled_category("poset22")
    assert len(cat.objects) == 4
    # 4 identities, 4 covers, 1 diagonal
    assert len(cat.morphisms) == 9
    identities = [m for m in cat.morphisms if cat.is_identity(m)]
    assert len(identities) == 4


def test_free_square_counts_match_path_enumeration():
    cat = load_fincat({"graph": FREE_SQUARE_GRAPH})
    # oracle: path enumeration, frozen value 10 (4 identities + 4 generators
    # + two length-2 paths through B and through C)
    assert count_paths(FREE_SQUARE_GRAPH) == 10
    assert len(cat.morphisms) == 10
    assert cat.compose("g", "f") != cat.compose("k", "h")
    assert cat.morphisms[cat.compose("g", "f")] == ("A", "D")


# five edges; f, g, h is a path of three
DAG_GRAPH = {
    "vertices": ["A", "B", "C", "D", "E"],
    "edges": [
        {"name": "f", "src": "A", "tgt": "B"},
        {"name": "g", "src": "B", "tgt": "C"},
        {"name": "h", "src": "C", "tgt": "D"},
        {"name": "k", "src": "A", "tgt": "C"},
        {"name": "m", "src": "B", "tgt": "E"},
    ],
}


def test_free_category_composites_are_named_by_their_paths():
    # oracle: every path as (source, edge names in order), composed by concatenation
    out = {v: [] for v in DAG_GRAPH["vertices"]}
    for e in DAG_GRAPH["edges"]:
        out[e["src"]].append((e["name"], e["tgt"]))
    paths = []  # (source, target, names)

    def walk(source, v, names):
        paths.append((source, v, names))
        for name, w in out[v]:
            walk(source, w, names + (name,))

    for v in DAG_GRAPH["vertices"]:
        walk(v, v, ())

    def name(source, names):
        return "∘".join(reversed(names)) if names else f"id:{source}"

    expected = {
        (name(mid, second), name(src, first)): name(src, first + second)
        for src, mid, first in paths
        for start, _, second in paths if start == mid
    }
    cat = load_fincat({"graph": DAG_GRAPH})
    assert max(len(names) for _, _, names in paths) == 3
    assert len(cat.morphisms) == len(paths) == count_paths(DAG_GRAPH)
    assert set(cat.table) == set(expected)
    for key, composite in expected.items():
        assert cat.table[key] == composite, key
    assert cat.compose("h", cat.compose("g", "f")) == "h∘g∘f"


def test_parallel_pair_counts():
    cat = bundled_category("parallel_pair")
    assert len(cat.morphisms) == 4
    assert sorted(cat.hom("A", "B")) == ["a", "b"]


def test_identity_compositions_filled_in():
    cat = bundled_category("poset22")
    assert cat.compose("00->01", "00->00") == "00->01"
    assert cat.compose("01->01", "00->01") == "00->01"


def test_free_category_rejects_cycles():
    graph = {
        "vertices": ["A", "B"],
        "edges": [
            {"name": "u", "src": "A", "tgt": "B"},
            {"name": "v", "src": "B", "tgt": "A"},
        ],
    }
    with pytest.raises(ParseError):
        load_fincat({"graph": graph})


def test_broken_associativity_rejected():
    doc = {
        "objects": ["x", "y", "z", "w"],
        "morphisms": [
            {"name": "ix", "src": "x", "tgt": "x"},
            {"name": "iy", "src": "y", "tgt": "y"},
            {"name": "iz", "src": "z", "tgt": "z"},
            {"name": "iw", "src": "w", "tgt": "w"},
            {"name": "xy", "src": "x", "tgt": "y"},
            {"name": "yz", "src": "y", "tgt": "z"},
            {"name": "zw", "src": "z", "tgt": "w"},
            {"name": "xz", "src": "x", "tgt": "z"},
            {"name": "yw", "src": "y", "tgt": "w"},
            {"name": "xw", "src": "x", "tgt": "w"},
            {"name": "xw2", "src": "x", "tgt": "w"},
        ],
        "identities": {"x": "ix", "y": "iy", "z": "iz", "w": "iw"},
        "compose": [
            ["yz", "xy", "xz"],
            ["zw", "yz", "yw"],
            ["zw", "xz", "xw"],
            ["yw", "xy", "xw2"],
        ],
    }
    with pytest.raises(CategoryLawViolation, match="associativity"):
        load_fincat(doc)


def test_missing_table_entry_rejected():
    doc = {
        "objects": ["x", "y", "z"],
        "morphisms": [
            {"name": "ix", "src": "x", "tgt": "x"},
            {"name": "iy", "src": "y", "tgt": "y"},
            {"name": "iz", "src": "z", "tgt": "z"},
            {"name": "xy", "src": "x", "tgt": "y"},
            {"name": "yz", "src": "y", "tgt": "z"},
        ],
        "identities": {"x": "ix", "y": "iy", "z": "iz"},
        "compose": [],
    }
    with pytest.raises(CategoryLawViolation, match="misses"):
        load_fincat(doc)


def test_malformed_document_rejected():
    with pytest.raises(ParseError):
        load_fincat({"objects": ["A"]})
    with pytest.raises(ParseError):
        load_fincat([1, 2, 3])


# objects A, B and C; f: A -> B, g: B -> C, h: A -> C, and g o f = h
BASE = {
    "objects": ["A", "B", "C"],
    "morphisms": [{"name": f"1{o}", "src": o, "tgt": o} for o in "ABC"] + [
        {"name": "f", "src": "A", "tgt": "B"}, {"name": "g", "src": "B", "tgt": "C"},
        {"name": "h", "src": "A", "tgt": "C"}],
    "identities": {o: f"1{o}" for o in "ABC"},
    "compose": [["g", "f", "h"]],
}


def edited(**changes):
    return {**BASE, **changes}


def arrow(name, src, tgt):
    return {"name": name, "src": src, "tgt": tgt}


@pytest.mark.parametrize("doc, error, culprit", [
    pytest.param(edited(objects=["A", "B", "C", "A"]), ParseError, "duplicate object names",
                 id="duplicate-object"),
    pytest.param(edited(identities={"A": "1A", "B": "1B"}), ParseError,
                 "object 'C' lacks an identity", id="no-identity"),
    pytest.param(edited(identities={"A": "1A", "B": "1B", "C": "g"}), ParseError,
                 "identity of 'C' is not an endomorphism", id="identity-not-endo"),
    pytest.param(edited(morphisms=BASE["morphisms"] + [arrow("k", "A", "Z")]), ParseError,
                 "morphism 'k' has unknown endpoint", id="unknown-endpoint"),
    pytest.param(edited(compose=[["g", "f", "h"], ["g", "x", "h"]]), ParseError,
                 r"\(g, x\) -> h names unknown", id="unknown-arrow-in-entry"),
    pytest.param(edited(compose=[["g", "f", "h"], ["f", "f", "f"]]), CategoryLawViolation,
                 r"entry \(f, f\) is not composable", id="not-composable"),
    pytest.param(edited(compose=[["g", "f", "f"]]), CategoryLawViolation,
                 r"composite f of \(g, f\) has wrong endpoints", id="wrong-endpoints"),
    pytest.param(edited(compose=[]), CategoryLawViolation,
                 r"misses \(g, f\)", id="missing-entry"),
    pytest.param(edited(morphisms=BASE["morphisms"] + [arrow("f2", "A", "B")],
                        compose=[["g", "f", "h"], ["g", "f2", "h"], ["1B", "f", "f2"]]),
                 CategoryLawViolation, "identity law broken: 1B o f = f2, expected f",
                 id="identity-composite"),
    pytest.param(edited(identities=["1A", "1B", "1C"]), ParseError,
                 "identities must be an object", id="identities-list"),
    pytest.param({"graph": {"vertices": ["A", "B"]}}, ParseError,
                 "malformed graph document: 'edges'", id="graph-without-edges"),
    pytest.param({"graph": {"vertices": ["A"], "edges": [arrow("e", "A", "Z")]}}, ParseError,
                 "edge 'e' has unknown endpoint", id="graph-unknown-vertex"),
])
def test_category_refusals_name_the_culprit(doc, error, culprit):
    load_fincat(BASE)  # the unedited document is a category
    with pytest.raises(error, match=culprit):
        load_fincat(doc)


def grid_poset(d):
    """[1]^d as a presentation document: bit strings under the product order."""
    objects = ["".join(bits) for bits in itertools.product("01", repeat=d)]
    below = [(x, y) for x in objects for y in objects if all(map(str.__le__, x, y))]
    up = {x: [y for w, y in below if w == x] for x in objects}
    return {
        "objects": objects,
        "morphisms": [arrow(f"{x}<{y}", x, y) for x, y in below],
        "identities": {x: f"{x}<{x}" for x in objects},
        "compose": [[f"{y}<{z}", f"{x}<{y}", f"{x}<{z}"] for x, y in below for z in up[y]],
    }


def test_the_limits_admit_the_grid_poset_of_dimension_7():
    # 5**7 composable triples: a coordinate of w <= x <= y <= z reads 0000, 0001, 0011, 0111 or 1111
    cat = load_fincat(grid_poset(7))
    assert len(cat.morphisms) == 3 ** 7 and len(cat.table) == 4 ** 7


def test_the_arrow_limit_counts_identities_and_paths():
    vertices = [f"v{i}" for i in range(MAX_ARROWS - 3)]
    edges = [arrow("e", "v0", "v1"), arrow("f", "v1", "v2")]  # e, f and f∘e
    assert len(load_fincat({"graph": {"vertices": vertices, "edges": edges}}).morphisms) == MAX_ARROWS
    edges.append(arrow("g", "v2", "v3"))  # g, g∘f and g∘f∘e
    with pytest.raises(ParseError, match=f"{MAX_ARROWS + 3} arrows; the limit is {MAX_ARROWS}"):
        load_fincat({"graph": {"vertices": vertices, "edges": edges}})
