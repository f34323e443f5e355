"""Shells (cube boundaries without fillers) and the shell extension system.

An n-shell over a system is a family of 2n elements of dimension n-1
satisfying the incidence relations.  Attaching the set of all n-shells on
top of dimensions 0..n-1 yields a new cube system whose top-dimensional
operations are the face laws: the incidence relations, the slot order and
the face of a degeneracy, a connection or a composite are the ones
``core`` writes once (``incidences``, ``slots``, ``degeneracy_face``,
``connection_face``, ``composite_face``) and its registry laws check.
Iterating this construction above a nerve gives the tower models.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterator, Optional

from . import folding
from .core import (
    MINUS, PLUS, CubeSystem, Sign, composite_face, connection_face, degeneracy_face, incidences,
    slot, slots, tabulated,
)
from .errors import (
    BoundaryMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    NotComposable,
    ParseError,
)
from .models import FinCatPresentation, nerve


NODE_BUDGET = 4000  # search nodes a random top shell may visit


class Shell:
    """Immutable family of faces indexed by (direction, sign).

    The faces are held as element ids, in slot order (1,-), (1,+), (2,-),
    (2,+), ..., of one id space: ``space`` is its shared ``IdView.elements``
    list, which turns an id back into its element when a face is asked for.
    Equality stays structural.  The hash is taken from the faces' recorded
    hashes, two shells of one id space compare their face ids, and shells
    of two spaces (two separately built towers) compare their faces.
    """

    __slots__ = ("dim", "ids", "space", "_hash")

    def __init__(self, view, dim: int, ids: tuple):
        self.dim = dim
        self.ids = ids
        self.space = view.elements
        self._hash = hash((dim, tuple(map(view.hashes.__getitem__, ids))))

    @property
    def faces(self) -> tuple:
        return tuple(map(self.space.__getitem__, self.ids))

    def face(self, i: int, sign: Sign):
        if not 1 <= i <= self.dim:
            raise IndexOutOfRange("shell face", i, self.dim)
        return self.space[self.ids[slot(i, sign)]]

    def __eq__(self, other):
        if self is other:
            return True
        if not (isinstance(other, Shell) and self._hash == other._hash and self.dim == other.dim):
            return False
        if self.space is other.space:
            return self.ids == other.ids
        return self.faces == other.faces

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Shell(dim={self.dim})"


@lru_cache(maxsize=None)
def face_keys(n: int) -> MappingProxyType:
    """Document key ("1-" .. f"{n}+") of each (direction, sign) of an n-shell, in slot order."""
    return MappingProxyType({f"{i}{sign}": (i, sign) for i, sign in slots(n)})


def check_incidence(system: CubeSystem, shell: Shell) -> None:
    """Faces of faces must agree across the shell."""
    view = system.id_view
    faces, face = tuple(map(view.id, shell.faces)), view.face
    for (i, a), (j, b), (k, c) in incidences(shell.dim):
        if face(faces[slot(i, a)], j, b) != face(faces[slot(j, b)], k, c):
            raise BoundaryMismatch(
                f"incidence fails between faces ({i},{a}) and ({j},{b})"
            )


def make_shell(system: CubeSystem, dim: int, faces: dict) -> Shell:
    """Validating constructor from a {(direction, sign): element} mapping."""
    if dim < 1:
        raise IndexOutOfRange("make_shell", dim, dim)
    missing = [key for key in slots(dim) if key not in faces]
    if missing:
        raise BoundaryMismatch(f"shell misses faces {missing}")
    for (i, s), f in faces.items():
        if system.dim(f) != dim - 1:
            raise BoundaryMismatch(f"face ({i},{s}) has dimension {system.dim(f)}")
    view = system.id_view
    shell = Shell(view, dim, tuple(view.id(faces[key]) for key in slots(dim)))
    check_incidence(system, shell)
    return shell


def boundary(system: CubeSystem, x) -> Shell:
    """The shell of all faces of x (incidence holds automatically).

    An element that is a shell holds its faces, so it is its own boundary;
    the view stores the boundary of any other element (``IdView.boundaries``).
    """
    if isinstance(x, Shell):
        return x
    n = system.dim(x)
    if n < 1:
        raise IndexOutOfRange("boundary", 1, n)
    view = system.id_view
    k = view.id(x)
    out = view.boundaries.get(k)
    if out is None:
        face = view.face
        out = view.boundaries[k] = Shell(view, n, tuple([face(k, i, s) for i, s in slots(n)]))
    return out


# ---------------------------------------------------------------------------
# the extension system


@tabulated
class ShellExtension(CubeSystem):
    """Cube system whose top dimension is the set of shells over the base.

    Dimensions below ``top`` delegate to the base system; the base is only
    consulted up to dimension top-1, so a taller base is silently truncated.
    Nothing above ``top`` is representable, hence the operation ceiling.
    """

    def __init__(self, base: CubeSystem, top: int):
        if top < 1:
            raise ValueError("shell extension needs top >= 1")
        self.top = top
        self.max_dim = top
        self.op_ceiling = top
        super().__init__(base)

    def owns_from(self, op: str) -> int:
        # ``cubes`` too: the base enumerates every dimension below the top
        return self.top - 1 if op in ("degeneracy", "connection") else self.top

    def dim(self, x) -> int:
        return x.dim if isinstance(x, Shell) else self.base.dim(x)

    def _native(self, x):
        # a shell of another id space (another tower) is stored with this space's face ids
        if not isinstance(x, Shell) or x.space is self.id_view.elements:
            return x
        view = self.base.id_view
        return Shell(view, x.dim, tuple(map(view.id, x.faces)))

    def _face(self, x, i: int, sign: Sign):
        if isinstance(x, Shell):
            return x.face(i, sign)
        return self.base.face(x, i, sign)  # a base element of the top dimension

    # The formal shell operations, whose results the id view stores: each
    # face is a face law of ``core``, on ids.

    def _degeneracy(self, x, j: int) -> Shell:
        n = self._below_top(x, "degeneracy") + 1
        if not 1 <= j <= n:
            raise IndexOutOfRange("shell_degeneracy", j, n - 1)
        view = self.base.id_view
        k = view.id(x)
        return Shell(view, n, tuple([degeneracy_face(view, k, j, i, s) for i, s in slots(n)]))

    def _connection(self, x, j: int, sign: Sign) -> Shell:
        n = self._below_top(x, "connection") + 1
        if n == 1 or not 1 <= j <= n - 1:
            raise IndexOutOfRange("shell_connection", j, n - 1)
        view = self.base.id_view
        k = view.id(x)
        return Shell(view, n, tuple([connection_face(view, k, j, sign, i, s) for i, s in slots(n)]))

    def _below_top(self, x, op: str) -> int:
        d = self.dim(x)
        if d >= self.top:
            raise DimensionTooLarge(f"{op} from dimension {d} exceeds the extension top {self.top}")
        return d

    def _compose(self, s, t, i: int) -> Shell:
        if not (isinstance(s, Shell) and isinstance(t, Shell) and s.dim == self.top):
            raise DimensionTooLarge(
                f"dimension-{self.dim(s)} base elements are not part of this extension"
            )
        n = s.dim
        if t.dim != n or not 1 <= i <= n:
            raise IndexOutOfRange("shell_compose", i, n)
        view = self.base.id_view
        sf, tf = s.ids, t.ids
        upper, lower = sf[slot(i, PLUS)], tf[slot(i, MINUS)]
        if upper != lower:
            raise NotComposable(i, view.describe(upper), view.describe(lower), "shell_compose")
        return Shell(view, n, tuple([
            composite_face(view, x, y, i, j, sign) for x, y, (j, sign) in zip(sf, tf, slots(n))
        ]))

    def _cubes(self, n: int) -> Iterator[Shell]:
        return self._shells()  # n is the top; the base enumerates below it

    def describe(self, x):
        if isinstance(x, Shell):
            return {
                "dim": x.dim,
                "faces": dict(zip(face_keys(x.dim), map(self.describe, x.faces))),
            }
        return self.base.describe(x)

    # -- the top shells, listed or drawn at random ----------------------
    #
    # The top dimension of a tall tower can be far too large to enumerate,
    # so its seeded samples are assembled by the same search that lists it,
    # with shuffled candidates; pinned faces support building composable
    # mates.

    @cached_property
    def _incidence_plan(self) -> tuple:
        """FACE-FACE read for the search: face q of the face placed at slot p
        is face r of the face placed earlier at slot q.  ``needs[p]`` lists
        (slot of q, *r) in the order of the index key, and ``meet[p, q]`` is r.
        """
        needs: list = [[] for _ in slots(self.top)]
        meet: dict = {}
        for p, q, r in incidences(self.top):
            needs[slot(*p)].append((slot(*q), *r))
            meet[p, q] = r
        return needs, meet

    def _shells(self, rng=None, pins: Optional[dict] = None) -> Iterator[Shell]:
        """Top shells, assembled face pair by face pair with backtracking.

        When face (i, sign) is placed, its first i-1 face pairs are pinned by
        incidence with the faces already chosen, so its candidates are one
        list of the base's ``index(top - 1, slots(i - 1))``, in pool order.
        With an ``rng`` the candidates of each face are shuffled and the
        search gives up after ``NODE_BUDGET`` nodes; ``pins`` maps some
        (i, sign) to the base element id that face must be.
        """
        view, n = self.base.id_view, self.top
        face, keys = view.face, slots(n)
        by_profile = [view.index(n - 1, slots(d)) for d in range(n)]
        needs, meet = self._incidence_plan
        chosen: list = []  # ids of the faces placed so far, in slot order
        budget = NODE_BUDGET if rng is not None else math.inf

        # per slot, what the pinned faces ask of its candidate: face (j, b) is f
        pin_checks = [
            [(*meet[pinned, key], face(pv, *key)) for pinned, pv in pins.items()
             if (pinned, key) in meet]
            for key in keys
        ] if pins else None

        def place(at: int) -> Iterator[Shell]:
            nonlocal budget
            if budget <= 0:
                return
            budget -= 1
            if at == len(keys):
                yield Shell(view, n, tuple(chosen))
                return
            key = keys[at]
            req = tuple([face(chosen[q], j, b) for q, j, b in needs[at]])
            if pins and key in pins:
                pv = pins[key]
                cands = [pv] if req == tuple([face(pv, j, b) for j, b in slots(key[0] - 1)]) else []
            else:
                cands = by_profile[key[0] - 1].get(req, ())
                if pins:
                    for j, b, f in pin_checks[at]:
                        cands = [c for c in cands if face(c, j, b) == f]
                if rng is not None and len(cands) > 1:  # a shorter list draws no number
                    cands = list(cands)
                    rng.shuffle(cands)
            for c in cands:
                chosen.append(c)
                yield from place(at + 1)
                chosen.pop()

        return place(0)

    def random_top_shell(self, rng, pinned: Optional[dict] = None) -> Optional[Shell]:
        """A seeded random top shell, or None past the node budget; ``pinned``
        maps some (i, sign) to the base id that face must be."""
        shell = next(self._shells(rng, pinned), None)
        return None if shell is None else self.id_view.canonical(shell)

    def _draw(self, n, rng, pins=()):
        if n == self.top:
            return self.random_top_shell(rng, {(i, sign): f for i, sign, f in pins})
        return super()._draw(n, rng, pins)

    # CubeSystem's samplers over ``_draw``, named here too: perfbench/tracing.py
    # wraps ShellExtension.__dict__[hook] and raises KeyError without them
    sample_element, sample_pair, sample_triple, sample_grid = (
        CubeSystem.sample_element, CubeSystem.sample_pair,
        CubeSystem.sample_triple, CubeSystem.sample_grid)

    def parse(self, doc: dict):
        if not isinstance(doc, dict):
            raise ParseError(f"a cube document must be a JSON object, not {type(doc).__name__}")
        if "faces" not in doc:
            return self.base.parse(doc)
        try:
            n = int(doc["dim"])
            raw = dict(doc["faces"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed shell document: {exc}") from exc
        if n < self.top:  # the base's own elements, whatever their form
            return self.base.parse(doc)
        if n > self.top:
            raise ParseError(f"shell dimension {n} is outside 1..{self.top}")
        keys = face_keys(n)
        faces = {}
        for key, sub in raw.items():
            if key not in keys:
                raise ParseError(f"bad face key {key!r}; use '1-' .. '{n}+'")
            faces[keys[key]] = self.parse(sub)
        return make_shell(self, n, faces)


def enumerate_shells(system: CubeSystem, n: int) -> Iterator[Shell]:
    """All n-shells over the system: the top pool of its n-shell extension."""
    yield from shell_system(system, n).cubes(n)


def shell_system(base: CubeSystem, n: int) -> ShellExtension:
    """Memoized extension of ``base`` by its n-shells (base used below n only).

    An extension whose top already is n is its own shell system: its
    dimension-n elements are exactly the n-shells over its lower part.  The
    memo lives on the base, so it is freed together with the base.
    """
    if isinstance(base, ShellExtension) and base.top == n:
        return base
    cache = getattr(base, "_shell_system_cache", None)
    if cache is None:
        cache = base._shell_system_cache = {}
    if n not in cache:
        cache[n] = ShellExtension(base, n)
    return cache[n]


def shell_tower(cat: FinCatPresentation, base_dim: int = 1, height: int = 1) -> CubeSystem:
    """Iterate the shell extension ``height`` times above a nerve base."""
    if height < 1:
        raise ValueError("height must be at least 1")
    system: CubeSystem = nerve(cat, base_dim)
    for top in range(base_dim + 1, base_dim + height + 1):
        system = ShellExtension(system, top)
    return system


# ---------------------------------------------------------------------------
# folding shells, commutativity


def is_commutative(system: CubeSystem, s: Shell) -> bool:
    """A shell commutes when its two folded boundary composites agree."""
    if s.dim == 1:
        return s.face(1, MINUS) == s.face(1, PLUS)
    folded = folding.big_psi(shell_system(system, s.dim), s)
    return folded.n_face == folded.p_face
