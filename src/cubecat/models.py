"""Finite executable models: category presentations and their cubical nerves.

A nerve n-cube is a functor from the n-fold product of the arrow poset into
a finite category: an assignment of objects to lattice vertices and
morphisms to lattice edges with every square face commuting.  Lattice
vertices are bitmasks (bit k is coordinate k+1); lattice edges are a base
vertex plus a 0-based direction whose bit is unset.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from operator import itemgetter
from typing import Callable, Iterator, Optional

from . import core
from .core import MINUS, PLUS, CubeSystem, Sign
from .errors import (
    CategoryLawViolation,
    NotComposable,
    ParseError,
)


# ---------------------------------------------------------------------------
# finite category presentations

# A category document asking for more work than this is refused at load:
MAX_ARROWS = 5_000  # arrows of a free category, counted before any is named
MAX_TRIPLES = 1_000_000  # composable triples the associativity check visits


class FinCatPresentation:
    """Finite category given by object list, morphism table and composition table.

    ``compose(g, f)`` is "g after f" (f applied first); the composition
    table is validated eagerly for closure, units and associativity.
    """

    def __init__(self, objects, morphisms, identities, compose_table):
        self.objects = tuple(objects)
        self.morphisms = dict(morphisms)  # name -> (src, tgt)
        self.identities = dict(identities)  # object -> name
        self.table = dict(compose_table)  # (g, f) -> name
        self._hom: dict = {}  # (src, tgt) -> names, in morphism order
        self._validate()

    def src(self, m: str) -> str:
        return self.morphisms[m][0]

    def tgt(self, m: str) -> str:
        return self.morphisms[m][1]

    def is_identity(self, m: str) -> bool:
        s, t = self.morphisms[m]
        return s == t and self.identities[s] == m

    def hom(self, a: str, b: str) -> tuple:
        return tuple(self._hom.get((a, b), ()))

    def compose(self, g: str, f: str) -> str:
        return self.table[(g, f)]

    def _validate(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise ParseError("duplicate object names")
        # arrows by source and by target, each in morphism order
        out, into = {o: [] for o in self.objects}, {o: [] for o in self.objects}
        for obj in self.identities:
            if obj not in out:
                raise ParseError(f"identity given for unknown object {obj!r}")
        for obj in self.objects:
            ident = self.identities.get(obj)
            if ident is None or ident not in self.morphisms:
                raise ParseError(f"object {obj!r} lacks an identity morphism")
            if self.morphisms[ident] != (obj, obj):
                raise ParseError(f"identity of {obj!r} is not an endomorphism")
        for name, (s, t) in self.morphisms.items():
            if s not in out or t not in out:
                raise ParseError(f"morphism {name!r} has unknown endpoint")
            out[s].append(name)
            into[t].append(name)
            self._hom.setdefault((s, t), []).append(name)
        for (g, f), gf in self.table.items():
            if g not in self.morphisms or f not in self.morphisms or gf not in self.morphisms:
                raise ParseError(f"composition entry ({g}, {f}) -> {gf} names unknown morphisms")
            if self.tgt(f) != self.src(g):
                raise CategoryLawViolation(f"entry ({g}, {f}) is not composable")
            if self.morphisms[gf] != (self.src(f), self.tgt(g)):
                raise CategoryLawViolation(
                    f"composite {gf} of ({g}, {f}) has wrong endpoints"
                )
        for g, (sg, _) in self.morphisms.items():
            for f in into[sg]:
                # a composite with an identity is the other arrow, entered here if not given
                unit = f if g == self.identities[sg] else g if f == self.identities[sg] else None
                gf = self.table.setdefault((g, f), unit)
                if gf is None:
                    raise CategoryLawViolation(f"composition table misses ({g}, {f})")
                if unit is not None and gf != unit:
                    raise CategoryLawViolation(
                        f"identity law broken: {g} o {f} = {gf}, expected {unit}")
        triples = sum(len(into[s]) * len(out[t]) for s, t in self.morphisms.values())
        if triples > MAX_TRIPLES:
            raise ParseError(f"associativity would check {triples} triples; the limit is {MAX_TRIPLES}")
        for f, (_, tf) in self.morphisms.items():
            for g in out[tf]:
                gf = self.table[(g, f)]
                for h in out[self.tgt(g)]:
                    if self.table[(h, gf)] != self.table[(self.table[(h, g)], f)]:
                        raise CategoryLawViolation(
                            f"associativity fails on ({h}, {g}, {f})"
                        )


def _listed(value, kind: type, error: str, length: Optional[int] = None) -> list:
    """value, if it is a list of ``kind`` items (``length`` of them, if given)."""
    if (isinstance(value, list) and all(isinstance(v, kind) for v in value)
            and length in (None, len(value))):
        return value
    raise ParseError(error)


def _arrows(records, what: str) -> dict:
    """name -> (src, tgt) of {"name", "src", "tgt"} records of string names, each name once."""
    error = f"{what} name, src and tgt must be strings"
    arrows: dict = {}
    for r in _listed(records, dict, f"{what}s must be a list of objects"):
        name, s, t = _listed([r["name"], r["src"], r["tgt"]], str, error)
        if name in arrows:
            raise ParseError(f"two {what}s are named {name!r}")
        arrows[name] = (s, t)
    return arrows


def _free_category(graph: dict) -> FinCatPresentation:
    """Close a finite acyclic graph under path composition."""
    try:
        vertices = _listed(graph["vertices"], str, "vertices must be a list of string names")
        edges = _arrows(graph["edges"], "edge")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc
    outgoing: dict = {v: [] for v in vertices}
    sources: dict = {v: [] for v in vertices}  # a source for each edge into v
    for name, (s, t) in edges.items():
        if s not in outgoing or t not in outgoing:
            raise ParseError(f"edge {name!r} has unknown endpoint")
        outgoing[s].append((name, t))
        sources[t].append(s)
    # list a vertex once every vertex it points to is listed, counting its paths
    waiting = {v: len(out) for v, out in outgoing.items()}
    order, count = [v for v, n in waiting.items() if n == 0], {}
    for v in order:
        count[v] = sum(1 + count[t] for _, t in outgoing[v])
        for s in sources[v]:
            waiting[s] -= 1
            if waiting[s] == 0:
                order.append(s)
    if len(order) < len(outgoing):  # a vertex on a cycle is never listed
        raise ParseError("graph has a cycle; free category would be infinite")
    arrows = len(outgoing) + sum(count[v] for v in vertices)
    if arrows > MAX_ARROWS:
        raise ParseError(f"the free category would have {arrows} arrows; the limit is {MAX_ARROWS}")
    # each vertex's non-empty paths as (name, end), depth first; "g∘f" means f first
    paths: dict = {}
    for v in order:
        paths[v] = [path for name, t in outgoing[v] for path in
                    [(name, t), *((f"{q}∘{name}", end) for q, end in paths[t])]]
    identities = {v: f"id:{v}" for v in vertices}
    morphisms = {ident: (v, v) for v, ident in identities.items()}
    for v in vertices:
        for name, end in paths[v]:
            if name in morphisms:  # an edge named like an identity or a composite path
                raise ParseError(f"the free category would name two morphisms {name!r}")
            morphisms[name] = (v, end)
    # p then a path q from its end is the path q∘p; the presentation enters identity composites
    table = {(q, p): f"{q}∘{p}" for v in outgoing for p, end in paths[v] for q, _ in paths[end]}
    return FinCatPresentation(vertices, morphisms, identities, table)


def load_fincat(document: dict) -> FinCatPresentation:
    """Build a validated presentation from a parsed JSON document.

    Two document shapes are accepted: an explicit presentation with
    "objects"/"morphisms"/"identities"/"compose" keys, or {"graph": ...}
    for the free category on a finite acyclic graph.
    """
    if not isinstance(document, dict):
        raise ParseError("category document must be a JSON object")
    if "graph" in document:
        return _free_category(document["graph"])
    try:
        objects = _listed(document["objects"], str, "objects must be a list of string names")
        morphisms = _arrows(document["morphisms"], "morphism")
        identities = document["identities"]
        if not isinstance(identities, dict):
            raise ParseError("identities must be an object from object names to morphism names")
        _listed(list(identities.values()), str, "identities must name morphisms")
        entries = _listed(document.get("compose", []), list, "compose must be a list of entries")
        table: dict = {}
        error = "a compose entry must be [g, f, g o f], three morphism names"
        for e in entries:
            g, f, gf = _listed(e, str, error, 3)
            if table.setdefault((g, f), gf) != gf:
                raise ParseError(f"two compose entries for ({g}, {f}) disagree")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed category document: {exc}") from exc
    return FinCatPresentation(objects, morphisms, identities, table)


BUNDLED = ("terminal", "poset22", "free_square", "parallel_pair")


@lru_cache(maxsize=None)
def bundled_category(name: str) -> FinCatPresentation:
    if name not in BUNDLED:
        raise ParseError(f"unknown bundled category {name!r}; have {BUNDLED}")
    text = resources.files("cubecat.data").joinpath(f"{name}.json").read_text("utf-8")
    return load_fincat(json.loads(text))


# ---------------------------------------------------------------------------
# lattice bit helpers


def insert_bit(mask: int, pos: int, value: int) -> int:
    low = mask & ((1 << pos) - 1)
    high = mask >> pos
    return low | (value << pos) | (high << (pos + 1))


def remove_bit(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    high = mask >> (pos + 1)
    return low | (high << pos)


def edge_slot(n: int, base: int, k: int) -> int:
    """Canonical index of the lattice edge at ``base`` in 0-based direction ``k``."""
    return k * (1 << (n - 1)) + remove_bit(base, k)


def edge_bases(n: int) -> Iterator[tuple]:
    """(base, direction) pairs in canonical slot order."""
    for k in range(n):
        for compact in range(1 << (n - 1)):
            yield insert_bit(compact, k, 0), k


# Pickers shared by all nerve systems: each operation gathers its source
# entries (and for lifts the identities, for composites the category
# composites) into one tuple and reindexes it with one precompiled
# ``itemgetter``, built once per dimension and direction.


def _picker(indexes) -> itemgetter:
    """A function taking a tuple to the tuple of its entries at ``indexes``."""
    if len(indexes) > 1:
        return itemgetter(*indexes)
    # one index: a slice keeps the result a tuple; no index picks ()
    k = indexes[0] if indexes else 0
    return itemgetter(slice(k, k + len(indexes)))


@lru_cache(maxsize=None)
def _face_pickers(n: int, pos: int, bit: int) -> tuple:
    vmap = [insert_bit(v, pos, bit) for v in range(1 << (n - 1))]
    emap = []
    for base, k in edge_bases(n - 1):
        old_k = k if k < pos else k + 1
        emap.append(edge_slot(n, insert_bit(base, pos, bit), old_k))
    return _picker(vmap), _picker(emap)


def _collapse_pickers(n: int, collapse: Callable[[int], int]) -> tuple:
    """Pickers of the (n+1)-cube lifted from an n-cube x along ``collapse``.

    ``collapse`` sends each vertex of the lift to the vertex of x it copies.
    A lift edge whose endpoints collapse to one vertex is that vertex's
    identity; any other copies the edge of x between the collapsed
    endpoints.  The pickers take x's vertices to the lift's, x's vertices
    to those whose identities it uses, and x's edges followed by those
    identities to the lift's edges.
    """
    vmap = [collapse(v) for v in range(1 << (n + 1))]
    sources = []
    for base, k in edge_bases(n + 1):
        a, b = vmap[base], vmap[base | (1 << k)]
        sources.append(("v", a) if a == b else ("e", edge_slot(n, a, (a ^ b).bit_length() - 1)))
    copied = n * (1 << n) // 2
    idents = sorted({m for tag, m in sources if tag == "v"})
    at = {m: copied + k for k, m in enumerate(idents)}
    emap = [m if tag == "e" else at[m] for tag, m in sources]
    return _picker(vmap), _picker(idents), _picker(emap)


@lru_cache(maxsize=None)
def _degeneracy_pickers(n: int, pos: int) -> tuple:
    return _collapse_pickers(n, lambda v: remove_bit(v, pos))


@lru_cache(maxsize=None)
def _connection_pickers(n: int, pos: int, sign: Sign) -> tuple:
    pick = min if sign == PLUS else max

    def collapse(v: int) -> int:  # bits pos and pos + 1 merge into bit pos
        merged = pick((v >> pos) & 1, (v >> (pos + 1)) & 1)
        return insert_bit(remove_bit(remove_bit(v, pos + 1), pos), pos, merged)

    return _collapse_pickers(n, collapse)


@lru_cache(maxsize=None)
def _compose_pickers(n: int, pos: int) -> tuple:
    """Pickers of the direction-pos composite of n-cubes x and y.

    They take x's vertices followed by y's to the composite's, an n-cube's
    edges to its direction-pos edges (those the composite joins), and x's
    edges, y's edges and the joined composites to the composite's edges.
    """
    size, edges = 1 << n, n * (1 << n) // 2
    vmap = [v + size * ((v >> pos) & 1) for v in range(size)]
    joined, emap = [], []
    for base, k in edge_bases(n):
        slot = edge_slot(n, base, k)
        if k == pos:
            emap.append(2 * edges + len(joined))
            joined.append(slot)
        else:
            emap.append(slot + edges * ((base >> pos) & 1))
    return _picker(vmap), _picker(joined), _picker(emap)


@lru_cache(maxsize=None)
def _stack_plan(n: int) -> tuple:
    """How an n-cube stacks on its direction-n lower and upper faces.

    For each vertex v of an (n-1)-cube, the naturality checks of the
    component at v: an (edge slot, vertex u) pair for each edge from an
    earlier vertex u to v.  And the picker taking the bottom's edges, the
    top's and the component to the stacked cube's edges.  Its vertices are
    the bottom's followed by the top's, direction n being the highest bit.
    """
    m = n - 1
    half = m * (1 << m) // 2
    checks = tuple(
        tuple((edge_slot(m, v ^ (1 << k), k), v ^ (1 << k)) for k in range(m) if v >> k & 1)
        for v in range(1 << m)
    )
    emap = [
        2 * half + remove_bit(base, m) if k == m
        else half * (base >> m) + edge_slot(m, remove_bit(base, m), k)
        for base, k in edge_bases(n)
    ]
    return checks, _picker(emap)


def mask_to_bits(mask: int, n: int) -> str:
    return "".join("1" if mask & (1 << k) else "0" for k in range(n))


# Document labels, built once per dimension: a cube document keys its
# vertices and edges by these strings.


@lru_cache(maxsize=None)
def vertex_labels(n: int) -> tuple:
    """Document labels of the vertices ("01" and so on) in mask order."""
    return tuple(mask_to_bits(v, n) for v in range(1 << n))


@lru_cache(maxsize=None)
def edge_labels(n: int) -> tuple:
    """Document labels of the edges ("0*1" and so on) in canonical slot order."""
    labels = vertex_labels(n)
    return tuple(f"{labels[base][:k]}*{labels[base][k + 1:]}" for base, k in edge_bases(n))


class NerveCube:
    """An n-cube of the nerve: vertex objects plus edge morphisms, immutable.

    The full assignment is stored (not just generating data) so equality,
    hashing and face extraction are direct.
    """

    __slots__ = ("n", "vertices", "edges", "_hash")

    def __init__(self, n: int, vertices: tuple, edges: tuple):
        self.n = n
        self.vertices = vertices
        self.edges = edges
        self._hash = hash((n, vertices, edges))

    def vertex(self, mask: int) -> str:
        return self.vertices[mask]

    def edge(self, base: int, k: int) -> str:
        return self.edges[edge_slot(self.n, base, k)]

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, NerveCube)
            and self._hash == other._hash
            and self.n == other.n
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NerveCube(dim={self.n}, vertices={self.vertices})"


@core.tabulated
class NerveSystem(CubeSystem):
    """Cube system of functors from the arrow-poset powers into a finite category.

    Connections reparametrize by min (positive) or max (negative) of two
    adjacent coordinates; the orientation is pinned by the face laws, which
    the law suite re-validates on every bundled category.
    """

    def __init__(self, cat: FinCatPresentation, max_dim: int = 4):
        if max_dim < 1:
            raise ValueError("max_dim must be at least 1")
        self.cat = cat
        self.max_dim = max_dim
        super().__init__()

    # -- signature ----------------------------------------------------

    def dim(self, x: NerveCube) -> int:
        return x.n

    def _face(self, x: NerveCube, i: int, sign: Sign) -> NerveCube:
        n = x.n
        vertices, edges = _face_pickers(n, i - 1, 0 if sign == MINUS else 1)
        return NerveCube(n - 1, vertices(x.vertices), edges(x.edges))

    def _degeneracy(self, x: NerveCube, i: int) -> NerveCube:
        return self._lift(x, *_degeneracy_pickers(x.n, i - 1))

    def _connection(self, x: NerveCube, i: int, sign: Sign) -> NerveCube:
        return self._lift(x, *_connection_pickers(x.n, i - 1, sign))

    def _lift(self, x: NerveCube, vertices, idents, edges) -> NerveCube:
        """The (n+1)-cube reindexing x's vertices, and its edges followed by identities."""
        xv = x.vertices
        ident = self.cat.identities.__getitem__
        return NerveCube(x.n + 1, vertices(xv), edges(x.edges + tuple(map(ident, idents(xv)))))

    def _compose(self, x: NerveCube, y: NerveCube, i: int) -> NerveCube:
        n = x.n
        # x's upper i-face against y's lower one, compared as picked entries
        (upper_v, upper_e), (lower_v, lower_e) = (
            _face_pickers(n, i - 1, 1), _face_pickers(n, i - 1, 0))
        if upper_v(x.vertices) != lower_v(y.vertices) or upper_e(x.edges) != lower_e(y.edges):
            left, right = self._face(x, i, PLUS), self._face(y, i, MINUS)
            raise NotComposable(i, self.describe(left), self.describe(right), "compose")
        vertices, joined, edges = _compose_pickers(n, i - 1)
        xe, ye = x.edges, y.edges
        composites = tuple(map(self.cat.table.__getitem__, zip(joined(ye), joined(xe))))
        return NerveCube(n, vertices(x.vertices + y.vertices), edges(xe + ye + composites))

    # -- enumeration ----------------------------------------------------

    def _cubes(self, n: int) -> Iterator[NerveCube]:
        if n == 0:
            for obj in self.cat.objects:
                yield NerveCube(0, (obj,), ())
            return
        lower, hom = self.cubes(n - 1), self.cat._hom
        for bottom in lower:
            for top in lower:
                if all(map(hom.__contains__, zip(bottom.vertices, top.vertices))):
                    yield from self._stacks(bottom, top, n)

    def _stacks(self, bottom: NerveCube, top: NerveCube, n: int) -> list:
        """All cubes whose direction-n lower/upper faces are bottom/top;
        bottom and top must have a hom-set at each pair of vertices.

        The components run through each vertex's hom-set in ``cat.hom``
        order, the earlier vertices varying slowest.
        """
        homs = tuple(map(self.cat._hom.__getitem__, zip(bottom.vertices, top.vertices)))
        checks, edges = _stack_plan(n)
        table, below, above = self.cat.table, bottom.edges, top.edges
        components: list = [()]
        for cands, check in zip(homs, checks):
            grown = []
            for component in components:
                for cand in cands:
                    for slot, u in check:
                        if table[cand, below[slot]] != table[above[slot], component[u]]:
                            break
                    else:
                        grown.append(component + (cand,))
            components = grown
        vertices, edge_run = bottom.vertices + top.vertices, below + above
        return [NerveCube(n, vertices, edges(edge_run + c)) for c in components]

    # -- serialization ----------------------------------------------------

    def describe(self, x) -> dict:
        if not isinstance(x, NerveCube):
            raise TypeError(f"not an element of this nerve: {x!r}")
        n = x.n
        return {
            "dim": n,
            "vertices": dict(zip(vertex_labels(n), x.vertices)),
            "edges": dict(zip(edge_labels(n), x.edges)),
        }

    def parse(self, doc: dict) -> NerveCube:
        if isinstance(doc, dict) and "faces" in doc:
            raise ParseError("a cube of the nerve has vertices and edges, not faces")
        try:
            n = core.integer_entry(doc, "dim")
            vdoc = dict(doc["vertices"])
            edoc = dict(doc.get("edges", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed cube document: {exc}") from exc
        if not 0 <= n <= self.max_dim:
            raise ParseError(f"cube dimension {n} is outside 0..{self.max_dim}")
        if len(vdoc) != 1 << n or len(edoc) != n * (1 << n) // 2:
            raise ParseError(
                f"a {n}-cube has 2^{n} vertex and {n}*2^{n - 1} edge entries,"
                f" not {len(vdoc)} and {len(edoc)}"
            )
        try:
            vertices = tuple(map(vdoc.__getitem__, vertex_labels(n)))
        except KeyError as exc:
            raise ParseError(f"missing vertex entry {exc}") from exc
        try:
            edges = tuple(map(edoc.__getitem__, edge_labels(n)))
        except KeyError as exc:
            raise ParseError(f"missing edge entry {exc}") from exc
        if not all(isinstance(name, str) for name in vertices + edges):
            raise ParseError("vertex and edge entries must be string names")
        self._check(n, vertices, edges, edge_labels(n))
        return NerveCube(n, vertices, edges)

    def _check(self, n: int, vertices: tuple, edges: tuple, keys: tuple) -> None:
        """Refuse entries that are no n-cube, naming their document edge ``keys``.

        As ``_stacks`` builds it: both direction-n faces, then each component
        against its endpoints and the naturality squares of ``_stack_plan(n)``.
        """
        if n == 0:
            if vertices[0] not in self.cat.objects:
                raise ParseError(f"unknown object {vertices[0]!r}")
            return
        start = (n - 1) << (n - 1)  # the last edges, direction n's, are the components
        (bottom, below), (top, above) = _face_pickers(n, n - 1, 0), _face_pickers(n, n - 1, 1)
        below_keys, above_keys = below(keys), above(keys)
        bottom, below, top, above = bottom(vertices), below(edges), top(vertices), above(edges)
        self._check(n - 1, bottom, below, below_keys)
        self._check(n - 1, top, above, above_keys)
        arrows, table, components = self.cat.morphisms, self.cat.table, edges[start:]
        for v, check in enumerate(_stack_plan(n)[0]):
            c, ends = components[v], (bottom[v], top[v])
            if arrows.get(c) != ends:
                raise ParseError(f"edge {keys[start + v]!r}: {c!r} is not an arrow"
                                 f" from {ends[0]!r} to {ends[1]!r}")
            for slot, u in check:
                one, two = table[c, below[slot]], table[above[slot], components[u]]
                if one != two:
                    raise ParseError(
                        f"square of edges {below_keys[slot]!r} then {keys[start + v]!r},"
                        f" {keys[start + u]!r} then {above_keys[slot]!r}"
                        f" does not commute: {one} != {two}")


class BrokenNerveSystem(NerveSystem):
    """Negative-control fixture: the second degeneracy of an edge is wired wrong.

    Every operation still returns well-formed cubes, but the degeneracy
    retraction law fails, so the law suite must flag it.
    """

    def _degeneracy(self, x: NerveCube, i: int) -> NerveCube:
        return super()._degeneracy(x, 1 if x.n == 1 and i == 2 else i)


def nerve(cat: FinCatPresentation, max_dim: int = 4) -> NerveSystem:
    return NerveSystem(cat, max_dim)
