"""The category loader against the recursive closure and all-pairs checks it replaced.

The reference below is the loader as it stood before it indexed arrows by
source and target: a recursive walk lists every path, the composition table
comes from every pair of paths, and validation scans every pair of morphisms
and, for each composable pair, every morphism again.  On seeded random graph
documents and on explicit presentations, valid ones and one-fault mutants,
the loader must give the reference's presentation (the same ``morphisms``,
``table`` and ``_hom``, in the same order) or the reference's refusal (the
same type and message).  The inputs stay far below the loader's limits.
"""

import json
import random
from importlib import resources

import pytest

from cubecat import models
from cubecat.errors import CategoryLawViolation, CubicalError, ParseError


def reference_validate(objects, morphisms, identities, table):
    """Validate a presentation as the all-pairs loader did; return its table and hom-sets."""
    if len(set(objects)) != len(objects):
        raise ParseError("duplicate object names")
    for obj in identities:
        if obj not in objects:
            raise ParseError(f"identity given for unknown object {obj!r}")
    for obj in objects:
        ident = identities.get(obj)
        if ident is None or ident not in morphisms:
            raise ParseError(f"object {obj!r} lacks an identity morphism")
        if morphisms[ident] != (obj, obj):
            raise ParseError(f"identity of {obj!r} is not an endomorphism")
    for name, (s, t) in morphisms.items():
        if s not in objects or t not in objects:
            raise ParseError(f"morphism {name!r} has unknown endpoint")
    for (g, f), gf in table.items():
        if g not in morphisms or f not in morphisms or gf not in morphisms:
            raise ParseError(f"composition entry ({g}, {f}) -> {gf} names unknown morphisms")
        if morphisms[f][1] != morphisms[g][0]:
            raise CategoryLawViolation(f"entry ({g}, {f}) is not composable")
        if morphisms[gf] != (morphisms[f][0], morphisms[g][1]):
            raise CategoryLawViolation(f"composite {gf} of ({g}, {f}) has wrong endpoints")
    for g, (sg, _) in morphisms.items():
        for f, (_, tf) in morphisms.items():
            if tf != sg:
                continue
            unit = f if g == identities[sg] else g if f == identities[sg] else None
            gf = table.setdefault((g, f), unit)
            if gf is None:
                raise CategoryLawViolation(f"composition table misses ({g}, {f})")
            if unit is not None and gf != unit:
                raise CategoryLawViolation(
                    f"identity law broken: {g} o {f} = {gf}, expected {unit}")
    for f in morphisms:
        for g in morphisms:
            if morphisms[f][1] != morphisms[g][0]:
                continue
            gf = table[(g, f)]
            for h in morphisms:
                if morphisms[g][1] != morphisms[h][0]:
                    continue
                if table[(h, gf)] != table[(table[(h, g)], f)]:
                    raise CategoryLawViolation(f"associativity fails on ({h}, {g}, {f})")
    hom: dict = {}
    for name, (s, t) in morphisms.items():
        hom.setdefault((s, t), []).append(name)
    return table, hom


def reference_free_category(graph):
    """The presentation of the free category on a graph, closed by a recursive path walk."""
    try:
        vertices = models._listed(graph["vertices"], str, "vertices must be a list of string names")
        edges = models._arrows(graph["edges"], "edge")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc
    outgoing: dict = {v: [] for v in vertices}
    for name, (s, t) in edges.items():
        if s not in outgoing or t not in outgoing:
            raise ParseError(f"edge {name!r} has unknown endpoint")
        outgoing[s].append((name, t))
    paths = []  # each a tuple of (edge name, vertex reached), after (None, start)

    def walk(v, trail, seen):
        for name, t in outgoing[v]:
            if t in seen:
                raise ParseError("graph has a cycle; free category would be infinite")
            paths.append(trail + ((name, t),))
            walk(t, trail + ((name, t),), seen | {t})

    for v in vertices:
        walk(v, ((None, v),), frozenset({v}))

    def path_name(p):
        return "∘".join(reversed([name for name, _ in p[1:]]))

    morphisms, identities = {}, {}
    for v in vertices:
        morphisms[f"id:{v}"] = (v, v)
        identities[v] = f"id:{v}"
    for p in paths:
        name = path_name(p)
        if name in morphisms:
            raise ParseError(f"the free category would name two morphisms {name!r}")
        morphisms[name] = (p[0][1], p[-1][1])
    table = {}
    for p in paths:
        for q in paths:
            if p[-1][1] == q[0][1]:
                table[(path_name(q), path_name(p))] = path_name(p + q[1:])
    return vertices, morphisms, identities, table


def presented(objects, morphisms, identities, table):
    """What the reference makes of a presentation: its entries in order, or its refusal."""
    morphisms, identities, table = dict(morphisms), dict(identities), dict(table)
    try:
        table, hom = reference_validate(tuple(objects), morphisms, identities, table)
    except CubicalError as exc:
        return type(exc), str(exc)
    return list(morphisms.items()), list(table.items()), list(hom.items())


def expected_from_graph(graph):
    try:
        parts = reference_free_category(graph)
    except CubicalError as exc:
        return type(exc), str(exc)
    return presented(*parts)


def loaded(build):
    """What the loader makes of it: the same entries in order, or its refusal."""
    try:
        cat = build()
    except CubicalError as exc:
        return type(exc), str(exc)
    return list(cat.morphisms.items()), list(cat.table.items()), list(cat._hom.items())


# ---------------------------------------------------------------------------
# inputs


def random_graph(rng):
    """A small graph document: a DAG, or with cycles, self-loops, duplicate vertices
    and edges named like paths or identities."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 6))]
    acyclic = rng.random() < 0.6
    edges = []
    for k in range(rng.randint(0, 9)):
        s, t = rng.choice(vertices), rng.choice(vertices)
        if acyclic and vertices.index(s) >= vertices.index(t):
            s, t = sorted((s, t), key=vertices.index)
            if s == t:
                continue
        edges.append({"name": f"e{k}", "src": s, "tgt": t})
    if edges and rng.random() < 0.3:  # a parallel edge
        edges.append({**rng.choice(edges), "name": "p"})
    if rng.random() < 0.2:
        vertices.append(rng.choice(vertices))
    if rng.random() < 0.2:
        v = rng.choice(vertices)
        edges.append({"name": f"id:{rng.choice(vertices)}", "src": v, "tgt": rng.choice(vertices)})
    pairs = [(e, d) for e in edges for d in edges if e["tgt"] == d["src"]]
    if pairs and rng.random() < 0.3:  # an edge named like a composite path, along it or not
        e, d = rng.choice(pairs)
        edges.append({"name": f"{d['name']}∘{e['name']}", "src": e["src"],
                      "tgt": d["tgt"] if rng.random() < 0.7 else e["tgt"]})
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}


def as_presentation(cat, identity_entries=True):
    """The parts of a loaded category, with or without its identity composites."""
    table = {key: gf for key, gf in cat.table.items()
             if identity_entries or not (cat.is_identity(key[0]) or cat.is_identity(key[1]))}
    return list(cat.objects), dict(cat.morphisms), dict(cat.identities), table


def monoid(elements, op):
    """A one-object category: the arrows are the elements, the first is the unit."""
    return (["*"], {a: ("*", "*") for a in elements}, {"*": elements[0]},
            {(g, f): op(g, f) for g in elements for f in elements})


def random_poset(rng):
    """A random poset as a category: the order relation of random covers, closed."""
    objects = [f"x{i}" for i in range(rng.randint(1, 5))]
    below = {(x, x) for x in objects}
    for i, x in enumerate(objects):
        for y in objects[i + 1:]:
            if rng.random() < 0.4:
                below.add((x, y))
    changed = True
    while changed:
        closed = {(x, z) for x, y in below for w, z in below if y == w}
        changed, below = not closed <= below, below | closed
    morphisms = {f"{x}<{y}": (x, y) for x in objects for y in objects if (x, y) in below}
    table = {(f"{y}<{z}", f"{x}<{y}"): f"{x}<{z}"
             for (x, y) in sorted(below) for (w, z) in sorted(below) if y == w}
    return objects, morphisms, {x: f"{x}<{x}" for x in objects}, table


def valid_presentations(rng):
    for name in models.BUNDLED:
        yield as_presentation(models.bundled_category(name), identity_entries=False)
    for n in (2, 3, 4):
        yield monoid([f"a{k}" for k in range(n)], lambda g, f, n=n: f"a{(int(g[1:]) + int(f[1:])) % n}")
    yield monoid(["1", "e"], lambda g, f: "e" if "e" in (g, f) else "1")
    yield monoid(["0", "1", "2"], max)
    for _ in range(30):
        yield random_poset(rng)
    for _ in range(30):
        graph = random_graph(rng)
        if not isinstance(expected_from_graph(graph)[0], type):
            yield as_presentation(models.load_fincat({"graph": graph}), rng.random() < 0.5)


def mutants(parts, rng):
    """One-fault copies of a valid presentation: its compose table or identities changed."""
    objects, morphisms, identities, table = parts
    arrows = list(morphisms)
    keys = list(table)
    if keys:
        key = rng.choice(keys)
        yield objects, morphisms, identities, {**table, key: rng.choice(arrows)}
        yield objects, morphisms, identities, {k: v for k, v in table.items() if k != key}
        g, f = key
        parallel = [m for m in arrows if morphisms[m] == morphisms[table[key]]]
        yield objects, morphisms, identities, {**table, key: rng.choice(parallel)}
        yield objects, morphisms, identities, {**table, (g, f): "nowhere"}
    g, f = rng.choice(arrows), rng.choice(arrows)
    yield objects, morphisms, identities, {**table, (g, f): rng.choice(arrows)}
    obj = rng.choice(objects)
    yield objects, morphisms, {**identities, obj: rng.choice(arrows)}, table
    yield objects, morphisms, {k: v for k, v in identities.items() if k != obj}, table
    yield objects, morphisms, {**identities, "stranger": identities[obj]}, table
    yield objects + [obj], morphisms, identities, table


# ---------------------------------------------------------------------------
# the comparisons


@pytest.mark.parametrize("seed", range(4))
def test_graph_documents_close_as_the_recursive_walk_does(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(150):
        graph = random_graph(rng)
        expected = expected_from_graph(graph)
        assert loaded(lambda: models.load_fincat({"graph": graph})) == expected, graph
        outcomes.add(expected[0].__name__ if isinstance(expected[0], type) else "ok")
    assert outcomes == {"ok", "ParseError"}


def test_chains_and_bundled_graphs_close_as_the_recursive_walk_does():
    text = resources.files("cubecat.data").joinpath("free_square.json").read_text("utf-8")
    graphs = [json.loads(text)["graph"]] + [
        {"vertices": [f"c{i}" for i in range(n)],
         "edges": [{"name": f"s{i}", "src": f"c{i}", "tgt": f"c{i + 1}"} for i in range(n - 1)]}
        for n in (1, 2, 5, 12)]
    for graph in graphs:
        expected = expected_from_graph(graph)
        assert not isinstance(expected[0], type)
        assert loaded(lambda: models.load_fincat({"graph": graph})) == expected


@pytest.mark.parametrize("seed", range(3))
def test_presentations_and_their_mutants_validate_as_the_all_pairs_scan_does(seed):
    rng = random.Random(100 + seed)
    refusals = set()
    for parts in valid_presentations(rng):
        expected = presented(*parts)
        assert not isinstance(expected[0], type), expected
        assert loaded(lambda: models.FinCatPresentation(*parts)) == expected
        for mutant in mutants(parts, rng):
            expected = presented(*mutant)
            assert loaded(lambda: models.FinCatPresentation(*mutant)) == expected, mutant
            if isinstance(expected[0], type):
                refusals.add(expected[1].split(" ")[0])
    # the mutants meet the refusals of every pass
    assert {"associativity", "composition", "composite", "entry", "identity",
            "duplicate", "object"} <= refusals
