"""Abstract cube-system signature and the registry of checkable laws.

A cube system packages indexed sets of elements ("cubes") of dimensions
0..max_dim together with faces, degeneracies, connections and partial
compositions.  Everything downstream (folding, shells, fillers) is written
against this signature, so finite models and the shell extension plug in
interchangeably.

Direction indices are 1-based everywhere.  Signs are the two strings "-"
and "+".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import (
    CubicalError,
    DimensionTooLarge,
    IndexOutOfRange,
    MalformedSample,
    UnknownLaw,
)

MINUS = "-"
PLUS = "+"
SIGNS = (MINUS, PLUS)

Sign = str


def check_sign(sign: Sign) -> None:
    if sign not in SIGNS:
        raise ValueError(f"sign must be '-' or '+', got {sign!r}")


def integer_entry(doc: dict, key: str) -> int:
    """``doc[key]`` if it is a JSON integer; a float, a string or a bool raises ValueError.

    Nothing is converted: the document parsers report the error as a ParseError.
    """
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return value


class CubeSystem:
    """Signature every model provides.

    ``max_dim`` bounds enumeration; ``op_ceiling`` bounds the dimension of
    elements an operation may construct (None means unbounded).  The shell
    extension cannot represent anything above its top dimension, so its
    ceiling equals its top; nerve models can build cubes of any dimension
    on demand.

    All elements are immutable values with structural (decidable) equality,
    and every operation is a pure function of its inputs.

    A model writes each operation once, as a plain definition that only
    builds the result (its id view checks directions, signs and ceiling):
    ``_face(x, i, sign)``, ``_degeneracy(x, i)``, ``_connection(x, i, sign)``
    and ``_compose(x, y, i)``.  The class decorator :func:`tabulated` gives it
    each of the public ``face``, ``degeneracy``, ``connection`` and
    ``compose`` it lacks, answered from ``id_view``, and the public
    ``cubes(n)``, whose elements the id view of the enumerating system
    stores from one run of the plain generator ``_cubes(n)``.  A system
    built on another passes it as ``base`` and says with :meth:`owns_from`
    which calls and which dimensions of ``cubes`` it hands down; a root
    system defines ``dim``, ``_cubes``, ``describe`` and ``parse`` itself.
    A system and every system stacked on it share one id space, whose
    ``ids``, ``elements``, ``dims`` and ``hashes`` stores the id views hold.
    """

    max_dim: int
    op_ceiling: Optional[int] = None
    base: Optional["CubeSystem"] = None

    def __init__(self, base: Optional["CubeSystem"] = None):
        self.base = base
        self.shell_systems: dict = {}  # top -> extension, filled by ``shells.shell_system``
        self.id_view = IdView(self, None if base is None else base.id_view)

    def dim(self, x) -> int:
        return self.base.dim(x)

    def describe(self, x) -> Any:
        """JSON-serializable rendering of an element, for reports."""
        return self.base.describe(x)

    def parse(self, doc: dict):
        return self.base.parse(doc)

    def _native(self, x):
        """x as this system's id space stores it; a root system's elements are values."""
        return x

    def owns_from(self, op: str) -> float:
        """Lowest first-argument dimension it answers ``op`` on, or for ``"cubes"``
        the lowest dimension it enumerates; the base answers below."""
        return 0

    def within_ceiling(self, n: int) -> bool:
        return self.op_ceiling is None or n <= self.op_ceiling

    # -- seeded sampling hooks, written once over one draw ---------------

    def _draw(self, n: int, rng, pins: tuple = ()):
        """A seeded dimension-n element whose (i, sign) face is id f for each
        (i, sign, f) of ``pins``, or None if there is none; the default draws
        from the pool, through the face index of the first pin."""
        if not pins:
            elements = self.cubes(n)
            return rng.choice(elements) if elements else None
        view = self.id_view
        (i, sign, f), *rest = pins
        found = view.index(n, ((i, sign),)).get((f,), ())
        for j, b, g in rest:
            column = view.faces[j, b]
            found = [k for k in found if column[k] == g]
        return view.elements[rng.choice(found)] if found else None

    def _after(self, x, i: int) -> tuple:
        """The pin of an element that composes after x in direction i."""
        view = self.id_view
        return i, MINUS, view.faces[i, PLUS][view.id(x)]

    def sample_element(self, n: int, rng):
        return self._draw(n, rng)

    def sample_pair(self, n: int, i: int, rng):
        x = self._draw(n, rng)
        y = None if x is None else self._draw(n, rng, (self._after(x, i),))
        return None if y is None else (x, y)

    def sample_triple(self, n: int, i: int, rng):
        pair = self.sample_pair(n, i, rng)
        z = None if pair is None else self._draw(n, rng, (self._after(pair[1], i),))
        return None if z is None else pair + (z,)

    def sample_grid(self, n: int, i: int, j: int, rng):
        pair = self.sample_pair(n, i, rng)
        z = None if pair is None else self._draw(n, rng, (self._after(pair[0], j),))
        if z is None:
            return None
        w = self._draw(n, rng, (self._after(z, i), self._after(pair[1], j)))
        return None if w is None else pair + (z, w)


def degenerate_at(view: "IdView", k: int, i: int) -> bool:
    """True iff id k lies in the image of the i-th degeneracy.

    Uses the retraction test k == eps_i(face_i^- k), which avoids asking
    models for a degeneracy-image oracle.
    """
    return k == view.degeneracies[i, None][view.faces[i, MINUS][k]]


# ---------------------------------------------------------------------------
# the face laws, written once
#
# Each formula below gives one face of a degeneracy, a connection or a
# composite from the faces of its arguments, on element ids.  It is the
# right side of a registry law (EPS-FACE, GAMMA-FACE, COMP-FACE; FACE-FACE
# is ``incidences``), and the face of the matching formal operation of the
# shell extension (``shells``), which Lemma 1.3 compares with the model's
# own boundaries.  Each is asked for one face at a time, so a law computes
# a right side only when the runner reaches its statement.


@lru_cache(maxsize=None)
def slots(n: int) -> tuple:
    """The (direction, sign) of each face of an n-cube, in slot order (1,-), (1,+), (2,-), ..."""
    return tuple((i, sign) for i in range(1, n + 1) for sign in SIGNS)


def slot(i: int, sign: Sign) -> int:
    """The position of face (i, sign) in :func:`slots`."""
    return 2 * (i - 1) + (0 if sign == MINUS else 1)


@lru_cache(maxsize=None)
def incidences(n: int) -> tuple:
    """FACE-FACE on an n-cube: ((i, a), (j, b), (i - 1, a)) for j < i, meaning

    d^b_j d^a_i x = d^a_{i-1} d^b_j x, in the order (i, j, a, b) ascending.
    """
    return tuple(
        ((i, a), (j, b), (i - 1, a))
        for i in range(2, n + 1) for j in range(1, i) for a in SIGNS for b in SIGNS
    )


def degeneracy_face(view: "IdView", k: int, j: int, i: int, sign: Sign) -> int:
    """Face (i, sign) of the j-th degeneracy of id k (EPS-FACE)."""
    if i == j:
        return k
    if i < j:
        return view.degeneracies[j - 1, None][view.faces[i, sign][k]]
    return view.degeneracies[j, None][view.faces[i - 1, sign][k]]


def connection_face(view: "IdView", k: int, j: int, g: Sign, i: int, sign: Sign) -> int:
    """Face (i, sign) of the connection G^g_j of id k (GAMMA-FACE)."""
    if i == j or i == j + 1:
        return k if sign == g else view.degeneracies[j, None][view.faces[j, sign][k]]
    if i < j:
        return view.connections[j - 1, g][view.faces[i, sign][k]]
    return view.connections[j, g][view.faces[i - 1, sign][k]]


def composite_face(view: "IdView", x_face: int, y_face: int, i: int, j: int, sign: Sign) -> int:
    """Face (j, sign) of x o_i y, given the (j, sign) faces of x and y (COMP-FACE)."""
    if j == i:
        return x_face if sign == MINUS else y_face
    return view.composites[x_face, y_face, i - 1 if j < i else i]


# ---------------------------------------------------------------------------
# interning and tabulation

OPS = ("face", "degeneracy", "connection", "compose")
ALL = float("inf")  # owns_from of an operation handed down whole


class _Table(dict):
    """One operation table of a view: a hit is a plain dict lookup, a miss runs ``__missing__``.

    ``below`` is the lowest first-argument dimension the view answers
    itself; a call below it reads ``lower``, the base's table of the same
    operation, and stores nothing.  ``plain`` is the owner's plain
    definition of the operation.
    """

    __slots__ = ("view", "op", "below", "lower", "plain")

    def __init__(self, view: "IdView", op: str, below: float, lower: Optional["_Table"], plain):
        self.view, self.op, self.below, self.lower, self.plain = view, op, below, lower, plain


class Composites(_Table):
    """(x, y, i) -> the id of x o_i y."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> int:
        x, y, i = key
        view = self.view
        d = view.dims[x]
        if d < self.below:
            return self.lower[key]
        if view.dims[y] != d or not 1 <= i <= d:
            raise IndexOutOfRange("compose", i, d)
        out = self[key] = view.id(self.plain(view.elements[x], view.elements[y], i))
        return out


class Columns(_Table):
    """(i, sign) -> the :class:`Column` of a face, degeneracy or connection.

    A degeneracy's sign is None.  A miss hands out a new column and stores
    nothing: the column keeps itself here once it has answered a read, so
    a refused call leaves no column behind.
    """

    __slots__ = ()

    def __missing__(self, key: tuple) -> "Column":
        column = Column()
        column.columns, column.key = self, key
        return column


class Column(dict):
    """Element id -> result id, for the (direction, sign) ``key`` of one operation."""

    __slots__ = ("columns", "key")

    def __missing__(self, k: int) -> int:
        columns, key = self.columns, self.key
        view, op = columns.view, columns.op
        d = view.dims[k]
        if d < columns.below:
            out = columns.lower[key][k]
            columns.setdefault(key, self)  # answered, though stored by the base
            return out
        i, sign = key
        # the signature's rules, the same in every model
        if not 1 <= i <= (d + 1 if op == "degeneracy" else d):
            raise IndexOutOfRange(op, i, d)
        if op != "face" and not view.system.within_ceiling(d + 1):
            raise DimensionTooLarge(
                f"{op} from dimension {d} exceeds the ceiling {view.system.op_ceiling}")
        if op == "degeneracy":
            got = columns.plain(view.elements[k], i)
        else:
            check_sign(sign)
            got = columns.plain(view.elements[k], i, sign)
        out = self[k] = view.id(got)
        columns.setdefault(key, self)[k] = out
        return out


class IdView:
    """The signature of one system on dense integer element ids.

    A system and every system stacked on it share one id space: ids are
    handed out in first-seen order, ``elements[k]`` is the one canonical
    object of id k, ``dims[k]`` its dimension and ``hashes[k]`` its hash,
    taken once when it is interned (a shell hashes the hashes of its face
    ids, so no face is hashed again).  ``id`` interns an element.  The four
    operations are tables read by subscript, on ids: ``composites[x, y, i]``,
    ``faces[i, sign][x]``, ``degeneracies[i, None][x]`` and
    ``connections[i, g][x]``, where the outer table holds one
    :class:`Column` per (direction, sign); ``tables`` maps each operation's
    name to its table.  A hit returns the stored id with no Python frame.
    A miss runs the table's ``__missing__``.  A call whose first argument
    lies below the system's ``owns_from(op)`` dimension reads the base's
    table and stores nothing, so a result is stored once, by its owner,
    however many systems are stacked on it; an operation handed down whole
    (``ALL``) is the base's table itself.  Otherwise the miss checks the
    direction, the sign and, for a degeneracy or connection, the ceiling,
    which a view enforces on what it hands down too, and then runs the
    owner's plain definition, which may raise as well; only what it returns
    is interned and stored.  Nothing is tabulated before it is asked for.

    Three operations derived from these four are stored the same way, on
    first use, by the view whose operations computed them, never by the id
    space it shares: ψ_i in ``psis[i]`` by id, the checked full folding in
    ``folds`` (ids of the folded cube and its two direction-1 faces, stored
    once its postconditions hold) and the boundary of a non-shell element in
    ``boundaries``.  They live as long as the view.

    A pool is stored the same way: a view hands a dimension below its
    system's ``owns_from("cubes")`` to its base, so the view of the system
    that enumerates the dimension keeps it, in ``pools[n]``, as its ids and
    its elements, both in enumeration order.  That view also keeps every
    face index of the pool, in ``indexes[n, keys]``: ``index(n, keys)``
    lists the pool's ids by the tuple of their face ids at ``keys``, a
    tuple of (direction, sign), each list in pool order.  The exhaustive
    enumerators, the sampling hooks, the shell search and the suites that
    look an element up by its boundary all read these, and
    :func:`face_index` is their one builder.
    """

    def __init__(self, system: "CubeSystem", base: Optional["IdView"] = None):
        self.system = system
        self.base = base
        if base is None:
            self.ids, self.elements, self.dims, self.hashes = {}, [], [], []
        else:
            self.ids, self.elements, self.dims, self.hashes = (
                base.ids, base.elements, base.dims, base.hashes)
        self.tables = {op: self._table(op) for op in OPS}
        self.faces, self.degeneracies, self.connections, self.composites = self.tables.values()
        self.psis: dict = {}
        self.folds: dict = {}
        self.boundaries: dict = {}
        self.pools: dict = {}
        self.indexes: dict = {}
        self.dim = self.dims.__getitem__

    def _table(self, op: str) -> _Table:
        system, base = self.system, self.base
        below = system.owns_from(op)
        if op in ("degeneracy", "connection") and system.op_ceiling is not None:
            below = min(below, system.op_ceiling)  # from the ceiling up, this view refuses the call
        if below == ALL:
            return base.tables[op]
        lower = None if base is None else base.tables[op]
        kind = Composites if op == "compose" else Columns
        return kind(self, op, below, lower, getattr(system, "_" + op, None))

    def id(self, x) -> int:
        """The id of element x, interned on first sight."""
        k = self.ids.get(x)
        if k is None:
            system = self.system
            d = system.dim(x)  # may raise on a non-element: nothing is stored before it returns
            x = system._native(x)  # a shell of another id space gets this space's face ids
            k = self.ids[x] = len(self.elements)
            self.elements.append(x)
            self.dims.append(d)
            self.hashes.append(hash(x))
        return k

    def canonical(self, x):
        """The one stored object equal to x."""
        return self.elements[self.id(x)]

    def describe(self, k: int) -> Any:
        return self.system.describe(self.elements[k])

    def pool(self, n: int) -> tuple:
        """Ids of the dimension-n elements, in enumeration order."""
        return self._stored_pool(n)[0]

    def cubes(self, n: int) -> tuple:
        """The dimension-n elements, in enumeration order."""
        return self._stored_pool(n)[1]

    def index(self, n: int, keys: tuple) -> dict:
        """Ids of ``pool(n)`` by the tuple of their face ids at ``keys``, each list in pool order."""
        if n < self.system.owns_from("cubes"):
            return self.base.index(n, keys)
        got = self.indexes.get((n, keys))
        if got is None:
            got = self.indexes[n, keys] = face_index(self, self.pool(n), keys)
        return got

    def _stored_pool(self, n: int) -> tuple:
        system = self.system
        if not 0 <= n <= system.max_dim:
            raise DimensionTooLarge(f"dimension {n} exceeds cap {system.max_dim}")
        if n < system.owns_from("cubes"):
            return self.base._stored_pool(n)
        got = self.pools.get(n)
        if got is None:
            ids = tuple(map(self.id, system._cubes(n)))
            got = self.pools[n] = ids, tuple(map(self.elements.__getitem__, ids))
        return got


def _object_forms() -> dict:
    """Fresh object-level operations, so that each class owns the ones in its dict.

    Each answers through the id view, translating elements to and from ids.
    """

    def face(self, x, i: int, sign: Sign):
        view = self.id_view
        return view.elements[view.faces[i, sign][view.id(x)]]

    def degeneracy(self, x, i: int):
        view = self.id_view
        return view.elements[view.degeneracies[i, None][view.id(x)]]

    def connection(self, x, i: int, sign: Sign):
        view = self.id_view
        return view.elements[view.connections[i, sign][view.id(x)]]

    def compose(self, x, y, i: int):
        view = self.id_view
        return view.elements[view.composites[view.id(x), view.id(y), i]]

    def cubes(self, n: int) -> tuple:
        """Exhaustive, duplicate-free, deterministically ordered dimension-n elements."""
        return self.id_view.cubes(n)

    return {
        "face": face, "degeneracy": degeneracy, "connection": connection, "compose": compose,
        "cubes": cubes,
    }


def tabulated(cls: type) -> type:
    """Class decorator: install in ``cls``'s own dict each public operation it lacks.

    Each takes and returns elements; the misses of the system's id view run
    the plain ``_face``, ``_degeneracy``, ``_connection``, ``_compose`` or
    ``_cubes`` of the owning system.
    """
    for op, method in _object_forms().items():
        if op not in vars(cls):
            method.__qualname__ = f"{cls.__qualname__}.{op}"
            setattr(cls, op, method)
    return cls


# ---------------------------------------------------------------------------
# face indexes


def face_index(view: IdView, ids: Iterable[int], keys: tuple) -> dict:
    """The ids by the tuple of their face ids at ``keys``, each list in the given order."""
    columns = [view.faces[key] for key in keys]
    index: dict = {}
    for x in ids:
        index.setdefault(tuple([column[x] for column in columns]), []).append(x)
    return index


def _pairs(plus: dict, minus: dict) -> Iterator[tuple]:
    """(x, y) for each key of ``plus``, in its order: x listed under it there, y in ``minus``."""
    for f, xs in plus.items():
        ys = minus.get(f, ())
        for x in xs:
            for y in ys:
                yield x, y


def composable_pairs(view: IdView, ids, i: int) -> Iterator[tuple]:
    """(x, y) of ids with x's upper i-face y's lower one, grouped by that face, first seen first."""
    return _pairs(face_index(view, ids, ((i, PLUS),)), face_index(view, ids, ((i, MINUS),)))


# ---------------------------------------------------------------------------
# law registry


@dataclass(frozen=True)
class Law:
    """One checked statement: a registry law, or one part of a theorem suite.

    A suite is one or more parts under its id; :func:`run_law` and
    ``suites.run_suite`` hand their parts to one runner.  ``kind`` fixes how
    a part is bound, and with it the shape of its statements, on the id
    view.  An "element", "pair", "triple" or "grid" part is bound:
    ``equations(view, bindings)`` consumes the runner's stream of binding
    tuples of element ids, laid out per kind as in :data:`LAYOUTS`: (x,),
    (x, y, i) for a composable pair in direction i, (x, y, z, i) for a
    composable triple, and (x, y, z, w, i, j) for a 2x2 grid composable in
    directions i and j.  It yields each binding's statements lazily as
    (label, lhs, rhs); the runner knows which binding they belong to, so
    a bound part yields all of a binding's statements before it asks for
    the next binding.  A "pool" part is handed a whole dimension:
    ``equations(view, n, stream)`` draws what it needs from the check's
    :class:`Stream` and yields (binding, label, lhs, rhs), naming its own
    bindings as dicts; a "top" part is a pool part run only at the highest
    dimension the run reaches.  A statement holds when lhs == rhs (a
    predicate is yielded with rhs True); a label is a function naming it,
    called only for a counterexample.

    ``min_dim`` is the lowest dimension the part is checked at, ``lift``
    how far above it its terms climb (used to skip instantiations a bounded
    model cannot represent), and ``exhaustive_only`` keeps it off sampled
    dimensions.  ``note`` records which routine in this package leans on a
    law, or for a suite part what the suite states.
    """

    law_id: str
    kind: str
    min_dim: int
    lift: int
    note: str
    equations: Callable
    exhaustive_only: bool = False


def _eq_face_face(sys: IdView, bindings) -> Iterator:
    faces = sys.faces
    for x, in bindings:
        for (i, a), (j, b), (k, c) in incidences(sys.dim(x)):
            yield lambda: f"d{b}{j} d{a}{i}", faces[j, b][faces[i, a][x]], faces[k, c][faces[j, b][x]]


def _eq_eps_face(sys: IdView, bindings) -> Iterator:
    for x, in bindings:
        n = sys.dim(x)
        for j in range(1, n + 2):
            ex = sys.degeneracies[j, None][x]
            for i, a in slots(n + 1):
                yield lambda: f"d{a}{i} e{j}", sys.faces[i, a][ex], degeneracy_face(sys, x, j, i, a)


def _eq_eps_eps(sys: IdView, bindings) -> Iterator:
    for x, in bindings:
        for j in range(1, sys.dim(x) + 2):
            for i in range(1, j + 1):
                yield (lambda: f"e{i} e{j}",
                       sys.degeneracies[i, None][sys.degeneracies[j, None][x]],
                       sys.degeneracies[j + 1, None][sys.degeneracies[i, None][x]])


def _eq_eps_unit(sys: IdView, bindings) -> Iterator:
    for x, in bindings:
        for i in range(1, sys.dim(x) + 1):
            left = sys.degeneracies[i, None][sys.faces[i, MINUS][x]]
            right = sys.degeneracies[i, None][sys.faces[i, PLUS][x]]
            yield lambda: f"left unit o{i}", sys.composites[left, x, i], x
            yield lambda: f"right unit o{i}", sys.composites[x, right, i], x


def _eq_comp_face(sys: IdView, bindings) -> Iterator:
    faces, compose = sys.faces, sys.composites
    for x, y, i in bindings:
        z = compose[x, y, i]
        # the two i-faces first, then the others in slot order
        for j, a in ((i, MINUS), (i, PLUS), *(key for key in slots(sys.dim(x)) if key[0] != i)):
            face = faces[j, a]
            yield (lambda: f"d{a}{j} (x o{i} y)", face[z],
                   composite_face(sys, face[x], face[y], i, j, a))


def _eq_assoc(sys: IdView, bindings) -> Iterator:
    compose = sys.composites
    for x, y, z, i in bindings:
        yield (lambda: f"assoc o{i}",
               compose[compose[x, y, i], z, i], compose[x, compose[y, z, i], i])


def _eq_interchange(sys: IdView, bindings) -> Iterator:
    compose = sys.composites
    for x, y, z, w, i, j in bindings:
        yield (lambda: f"interchange o{i}/o{j}",
               compose[compose[x, y, i], compose[z, w, i], j],
               compose[compose[x, z, j], compose[y, w, j], i])


def _eq_eps_comp(sys: IdView, bindings) -> Iterator:
    for x, y, i in bindings:
        z = sys.composites[x, y, i]
        for j in range(1, sys.dim(x) + 2):
            i2 = i + 1 if j <= i else i
            yield (lambda: f"e{j} (x o{i} y)", sys.degeneracies[j, None][z],
                   sys.composites[sys.degeneracies[j, None][x], sys.degeneracies[j, None][y], i2])


def _eq_gamma_face(sys: IdView, bindings) -> Iterator:
    for x, in bindings:
        n = sys.dim(x)
        for i in range(1, n + 1):
            for g in SIGNS:
                cx = sys.connections[i, g][x]
                for m, a in slots(n + 1):
                    yield (lambda: f"d{a}{m} G{g}{i}", sys.faces[m, a][cx],
                           connection_face(sys, x, i, g, m, a))


def _eq_gamma_eps(sys: IdView, bindings) -> Iterator:
    for x, in bindings:
        n = sys.dim(x)
        for j in range(1, n + 2):
            ex = sys.degeneracies[j, None][x]
            for i in range(1, n + 2):
                for g in SIGNS:
                    lhs = sys.connections[i, g][ex]
                    if j == i:
                        rhs = sys.degeneracies[i, None][sys.degeneracies[i, None][x]]
                    elif j < i:
                        rhs = sys.degeneracies[j, None][sys.connections[i - 1, g][x]]
                    else:
                        rhs = sys.degeneracies[j + 1, None][sys.connections[i, g][x]]
                    yield lambda: f"G{g}{i} e{j}", lhs, rhs


def _eq_gamma_gamma(sys: IdView, bindings) -> Iterator:
    for x, in bindings:
        n = sys.dim(x)
        for j in range(1, n + 1):
            for b in SIGNS:
                cx = sys.connections[j, b][x]
                for i in range(1, n + 2):
                    for a in SIGNS:
                        # mixed signs at equal or upper-adjacent index have no plain law
                        if i in (j, j + 1) and a != b:
                            continue
                        lhs = sys.connections[i, a][cx]
                        if i == j:
                            rhs = sys.connections[i + 1, a][cx]
                        elif i == j + 1:
                            rhs = sys.connections[j, b][cx]
                        elif i < j:
                            rhs = sys.connections[j + 1, b][sys.connections[i, a][x]]
                        else:
                            rhs = sys.connections[j, b][sys.connections[i - 1, a][x]]
                        yield lambda: f"G{a}{i} G{b}{j}", lhs, rhs


def _eq_gamma_comp(sys: IdView, bindings) -> Iterator:
    for x, y, i in bindings:
        z = sys.composites[x, y, i]
        for j in range(1, sys.dim(x) + 1):
            if j == i:
                continue
            i2 = i + 1 if j < i else i
            for g in SIGNS:
                yield (lambda: f"G{g}{j} (x o{i} y)", sys.connections[j, g][z],
                       sys.composites[sys.connections[j, g][x], sys.connections[j, g][y], i2])


def _eq_transport(sys: IdView, bindings) -> Iterator:
    for a, b, i in bindings:
        top = sys.composites[sys.connections[i, PLUS][a], sys.degeneracies[i + 1, None][a], i + 1]
        bottom = sys.composites[sys.degeneracies[i, None][a], sys.connections[i, PLUS][b], i + 1]
        yield (lambda: f"G+{i} of o{i}-composite",
               sys.connections[i, PLUS][sys.composites[a, b, i]], sys.composites[top, bottom, i])


def _eq_transport_minus(sys: IdView, bindings) -> Iterator:
    for a, b, i in bindings:
        top = sys.composites[sys.connections[i, MINUS][a], sys.degeneracies[i, None][b], i + 1]
        bottom = sys.composites[sys.degeneracies[i + 1, None][b], sys.connections[i, MINUS][b], i + 1]
        yield (lambda: f"G-{i} of o{i}-composite",
               sys.connections[i, MINUS][sys.composites[a, b, i]], sys.composites[top, bottom, i])


def _eq_gamma_cancel(sys: IdView, bindings) -> Iterator:
    for x, in bindings:
        for i in range(1, sys.dim(x) + 1):
            plus = sys.connections[i, PLUS][x]
            minus = sys.connections[i, MINUS][x]
            yield (lambda: f"G+{i} o{i+1} G-{i}",
                   sys.composites[plus, minus, i + 1], sys.degeneracies[i, None][x])
            yield (lambda: f"G+{i} o{i} G-{i}",
                   sys.composites[plus, minus, i], sys.degeneracies[i + 1, None][x])


REGISTRY = {law.law_id: law for law in (
    Law("FACE-FACE", "element", 2, 0,
        "shell incidence and boundary extraction assume faces commute",
        _eq_face_face),
    Law("EPS-FACE", "element", 0, 1,
        "unit rows of the unfold partition need faces of degeneracies",
        _eq_eps_face),
    Law("EPS-EPS", "element", 0, 2,
        "doubly degenerate corner cells of identity arrays",
        _eq_eps_eps),
    Law("EPS-UNIT", "element", 1, 0,
        "spanning cells in partitions absorb their unit paddings",
        _eq_eps_unit),
    Law("COMP-FACE", "pair", 1, 0,
        "shell composition transcribes these face formulas",
        _eq_comp_face),
    Law("ASSOC", "triple", 1, 0,
        "triple rows in folding composites are written without brackets",
        _eq_assoc),
    Law("INTERCHANGE", "grid", 2, 0,
        "row-first and column-first array evaluation agree",
        _eq_interchange),
    Law("EPS-COMP", "pair", 1, 1,
        "thinness closure pushes degeneracies through composites",
        _eq_eps_comp),
    Law("GAMMA-FACE", "element", 1, 1,
        "composability of the elementary folding row",
        _eq_gamma_face),
    Law("GAMMA-EPS", "element", 0, 2,
        "folding a degenerate cube collapses to a double degeneracy",
        _eq_gamma_eps),
    Law("GAMMA-GAMMA", "element", 1, 2,
        "folding a connection twice, as in nested thinness checks",
        _eq_gamma_gamma),
    Law("GAMMA-COMP", "pair", 1, 1,
        "connections distribute over composites in other directions",
        _eq_gamma_comp),
    Law("TRANSPORT", "pair", 1, 1,
        "expands a connection of a composite into a 2x2 array",
        _eq_transport),
    Law("TRANSPORT-MINUS", "pair", 1, 1,
        "mirror form fixed by model validation, used for symmetry checks",
        _eq_transport_minus),
    Law("GAMMA-CANCEL", "element", 1, 1,
        "collapses the folded row around a cube to a degeneracy",
        _eq_gamma_cancel),
)}


@dataclass
class LawReport:
    """Outcome of checking one law or theorem suite over a sample."""

    law_id: str
    instances: int = 0
    passed: bool = True
    counterexample: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "id": self.law_id,
            "instances": self.instances,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


class Layout(NamedTuple):
    """How a bound kind lays out its binding tuple."""

    names: tuple  # the name of each position: the elements, then the directions
    arity: int  # how many elements lead the tuple
    mates: tuple  # (left, right, direction) positions of each pair that must compose


LAYOUTS = {
    "element": Layout(("x",), 1, ()),
    "pair": Layout(("x", "y", "i"), 2, ((0, 1, 2),)),
    "triple": Layout(("x", "y", "z", "i"), 3, ((0, 1, 3), (1, 2, 3))),
    "grid": Layout(("x", "y", "z", "w", "i", "j"), 4,
                   ((0, 1, 4), (2, 3, 4), (0, 2, 5), (1, 3, 5))),
}


def _binding(kind: str, elements, i: Optional[int], j: Optional[int]) -> tuple:
    """The binding tuple of ``kind``: the elements, then as many of i, j as it has."""
    return (*elements, i, j)[:len(LAYOUTS[kind].names)]


def _describe_binding(describe: Callable, kind: str, binding) -> dict:
    # a bound part's tuple is named by its layout; a pool part names its own
    if kind in LAYOUTS:
        binding = dict(zip(LAYOUTS[kind].names, binding))
    # the slots i and j hold directions; every other slot holds an element
    return {k: v if k in ("i", "j") else describe(v) for k, v in binding.items()}


def _evaluate(law_id: str, groups: Callable, describe: Callable, per_statement: bool) -> LawReport:
    """Check statements up to the first failing one.

    ``groups(follow)`` yields (kind, statements) for each part and
    dimension.  A bound part, whose kind is in :data:`LAYOUTS`, draws its
    bindings through ``follow``, which counts each one, so a binding that
    yields no statement counts too, and holds it until the part asks for
    the next.  Its statements are (label, lhs, rhs), each of the binding
    ``follow`` holds, so the part yields all of a binding's statements
    before it asks for the next binding.  A pool or top part's statements
    are (binding, label, lhs, rhs), with a binding dict of its own.  An
    instance is one binding of a bound part, or with ``per_statement`` one
    statement.  A failure reports the statement's binding described, its
    label, and lhs and rhs unless they are truth values; a
    :class:`CubicalError`, which a law-abiding model never raises, reports
    its type and message, and the binding being checked when it was
    raised, if any.
    """
    report = LawReport(law_id=law_id)
    bound = checked = 0
    current = None  # the binding a bound part is checking

    def follow(bindings: Iterable) -> Iterator:
        nonlocal bound, current
        for current in bindings:
            bound += 1
            yield current
            current = None  # an error from here on is not this binding's

    try:
        for kind, statements in groups(follow):
            if kind in LAYOUTS:
                for label, lhs, rhs in statements:
                    checked += 1
                    if lhs != rhs:
                        binding = current
                        break
                else:
                    continue
            else:
                for binding, label, lhs, rhs in statements:
                    checked += 1
                    if lhs != rhs:
                        break
                else:
                    continue
            report.passed = False
            report.counterexample = {
                "binding": _describe_binding(describe, kind, binding),
                "equation": label(),
            }
            if not isinstance(lhs, bool):
                report.counterexample.update(lhs=describe(lhs), rhs=describe(rhs))
            break
    except CubicalError as exc:
        report.passed = False
        report.counterexample = {"error": type(exc).__name__, "message": str(exc)}
        if current is not None:
            report.counterexample["binding"] = _describe_binding(describe, kind, current)
    report.instances = checked if per_statement else bound
    return report


def _exhaustive_bindings(view: IdView, kind: str, n: int) -> Iterator[tuple]:
    """Every pair, triple or grid binding at dimension n, read off the view's stored face indexes.

    Directions ascend, i before j.  Pairs and triples are grouped by x's
    upper i-face, the faces in the order ``pool(n)`` first shows them; grids
    run over x in pool order; every other element comes in pool order.
    """
    faces = view.faces
    for i in range(1, n + 1):
        minus = view.index(n, ((i, MINUS),))
        upper_i = faces[i, PLUS]
        if kind == "pair":
            for x, y in _pairs(view.index(n, ((i, PLUS),)), minus):
                yield x, y, i
        elif kind == "triple":
            for x, y in _pairs(view.index(n, ((i, PLUS),)), minus):
                for z in minus.get((upper_i[y],), ()):
                    yield x, y, z, i
        else:
            for j in range(1, n + 1):
                if i == j:
                    continue
                j_minus = view.index(n, ((j, MINUS),))
                by_both = view.index(n, ((i, MINUS), (j, MINUS)))
                upper_j = faces[j, PLUS]
                for x in view.pool(n):
                    ys = minus.get((upper_i[x],), ())
                    # each z's face is looked up once per x, not once per (y, z)
                    z_faces = [(z, upper_i[z]) for z in j_minus.get((upper_j[x],), ())]
                    for y in ys:
                        fy = upper_j[y]
                        for z, fz in z_faces:
                            for w in by_both.get((fz, fy), ()):
                                yield x, y, z, w, i, j


class Stream:
    """The seeded draws of one check: one stream for all its dimensions and parts.

    Dimensions up to ``exhaustive_dim`` are enumerated; above it each
    draw comes from ``rng``, seeded by the seed and the check's id, in the
    order the check asks for them.  A draw the system cannot make (a hook
    returns None) is skipped, so a report counts the instances achieved.
    """

    def __init__(self, law_id: str, *, exhaustive_dim: int, samples: int, seed: int):
        self.rng = random.Random(repr((seed, law_id)))
        self.exhaustive_dim = exhaustive_dim
        self.samples = samples

    def elements(self, system: CubeSystem, n: int):
        """Ids of the dimension-n pool, or of ``samples`` seeded draws."""
        view = system.id_view
        if n <= self.exhaustive_dim:
            return view.pool(n)
        draws = (system.sample_element(n, self.rng) for _ in range(self.samples))
        return [view.id(x) for x in draws if x is not None]

    def bindings(self, system: CubeSystem, kind: str, n: int) -> Iterator[tuple]:
        """Element, pair, triple or grid binding tuples of ids at dimension n."""
        if kind == "element":
            return zip(self.elements(system, n))
        if n <= self.exhaustive_dim:
            return _exhaustive_bindings(system.id_view, kind, n)
        return self._sampled_bindings(system, kind, n)

    def _sampled_bindings(self, system: CubeSystem, kind: str, n: int) -> Iterator[tuple]:
        # composable mates may be scarce: at most 20 attempts per binding
        rng, view = self.rng, system.id_view
        hook = {"pair": system.sample_pair, "triple": system.sample_triple}.get(kind)
        produced, attempts = 0, 0
        while produced < self.samples and attempts < self.samples * 20:
            attempts += 1
            i, j = rng.randint(1, n), None
            if kind == "grid":
                j = rng.choice([d for d in range(1, n + 1) if d != i])
                got = system.sample_grid(n, i, j, rng)
            else:
                got = hook(n, i, rng)
            if got is not None:
                yield _binding(kind, map(view.id, got), i, j)
                produced += 1


def dim_range(system: CubeSystem, lowest: int, lift: int, max_dim: int) -> Iterator[int]:
    """Dimensions ``lowest``..``max_dim`` of the system whose terms, ``lift`` above, it can build."""
    for n in range(lowest, min(max_dim, system.max_dim) + 1):
        if system.within_ceiling(n + lift):
            yield n


def _run(
    system: CubeSystem,
    law_id: str,
    parts: tuple,
    describe: Callable,
    per_statement: bool,
    *,
    max_dim: Optional[int] = None,
    exhaustive_dim: int = 3,
    samples: int = 500,
    seed: int = 0,
) -> LawReport:
    """The one runner: every part of a check, dimension by dimension.

    It holds the run options and their defaults for every check; ``max_dim``
    None means the system's own.  Dimensions ascend; within one, parts run
    in their declared order, all drawing from one :class:`Stream`.
    """
    view = system.id_view
    stream = Stream(law_id, exhaustive_dim=exhaustive_dim, samples=samples, seed=seed)
    top = system.max_dim if max_dim is None else min(max_dim, system.max_dim)
    plan = sorted(
        (n, k)
        for k, part in enumerate(parts)
        for n in dim_range(system, part.min_dim, part.lift,
                           exhaustive_dim if part.exhaustive_only else top)
        if part.kind != "top" or n == top
    )

    def groups(follow):
        for n, k in plan:
            part = parts[k]
            if part.kind in LAYOUTS:
                bindings = follow(stream.bindings(system, part.kind, n))
                yield part.kind, part.equations(view, bindings)
            else:
                yield part.kind, part.equations(view, n, stream)

    return _evaluate(law_id, groups, describe, per_statement)


def run_law(system: CubeSystem, law: Law, **options) -> LawReport:
    """Check one law: on every binding up to ``exhaustive_dim``, on seeded samples above."""
    return _run(system, law.law_id, (law,), system.id_view.describe, False, **options)


def select(registry: dict, ids: Optional[Iterable[str]], what: str = "law") -> list[str]:
    """The requested ids (all if None) in registry order; unknown ones are refused by name."""
    if ids is None:
        return list(registry)
    wanted = set(ids)
    unknown = wanted - set(registry)
    if unknown:
        raise UnknownLaw(f"unknown {what} {', '.join(sorted(unknown))}; "
                         f"known: {', '.join(registry)}")
    return [k for k in registry if k in wanted]


def run_axiom_suite(system: CubeSystem, law_ids=None, **options) -> list[LawReport]:
    """Registry laws over the system, in registry order."""
    return [run_law(system, REGISTRY[k], **options) for k in select(REGISTRY, law_ids)]


def _bind_sample(system: CubeSystem, law: Law, sample: list) -> list[tuple]:
    layout = LAYOUTS[law.kind]
    arity = layout.arity
    if len(sample) != arity:
        raise MalformedSample(
            f"{law.law_id} binds {arity} element(s), got {len(sample)}"
        )
    dims = {system.dim(x) for x in sample}
    if len(dims) != 1:
        raise MalformedSample(f"{law.law_id}: sample elements have mixed dimensions {dims}")
    n = dims.pop()
    if n < law.min_dim:
        raise MalformedSample(f"{law.law_id} needs dimension >= {law.min_dim}, got {n}")
    view = system.id_view
    sample = [view.id(x) for x in sample]
    if law.kind == "element":
        return [tuple(sample)]
    seconds = range(1, n + 1) if law.kind == "grid" else (None,)
    candidates = (
        _binding(law.kind, sample, i, j) for i in range(1, n + 1) for j in seconds if i != j
    )
    bindings = [
        b for b in candidates
        if all(view.faces[b[d], PLUS][b[x]] == view.faces[b[d], MINUS][b[y]]
               for x, y, d in layout.mates)
    ]
    if not bindings:
        raise MalformedSample(f"{law.law_id}: sample admits no composable instantiation")
    return bindings


def check_axiom(system: CubeSystem, law_id: str, sample: list) -> LawReport:
    """Check one named law against user-supplied bound elements."""
    select(REGISTRY, [law_id])  # refuses an unknown id by name
    law = REGISTRY[law_id]
    bindings = _bind_sample(system, law, list(sample))
    if not system.within_ceiling(system.dim(sample[0]) + law.lift):
        raise MalformedSample(
            f"{law_id}: instantiation would exceed the model's dimension ceiling"
        )
    view = system.id_view

    def groups(follow):
        return [(law.kind, law.equations(view, follow(bindings)))]

    return _evaluate(law_id, groups, view.describe, False)
