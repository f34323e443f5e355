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
    MINUS, PLUS, CubeSystem, Sign, check_sign, composite_face, connection_face, degeneracy_face,
    incidences, integer_entry, slot, slots, tabulated,
)
from .errors import (
    BoundaryMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    NotComposable,
    ParseError,
)


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
        check_sign(sign)
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
    extra = [key for key in faces if key not in slots(dim)]
    if extra:
        raise BoundaryMismatch(f"faces {extra} lie outside a {dim}-shell")
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


@lru_cache(maxsize=None)
def _shuffle_plan(size: int) -> tuple:
    """(i, i + 1, (i + 1).bit_length()) for i from size - 1 down to 1."""
    return tuple((i, i + 1, (i + 1).bit_length()) for i in range(size - 1, 0, -1))


def shuffle(x: list, getrandbits) -> None:
    """Shuffle x in place exactly as ``random.Random.shuffle`` does.

    It is that Fisher-Yates written out over the generator's ``getrandbits``,
    with ``_randbelow_with_getrandbits`` inline: the swap partner of x[i] is
    the first draw of ``(i + 1).bit_length()`` bits below i + 1.  So it reads
    the same 32-bit words in the same order and gives the same list, without
    a Python-level call per element.  The steps of each list length are
    worked out once (``_shuffle_plan``).
    """
    for i, m, k in _shuffle_plan(len(x)):
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


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
        view, n = self.base.id_view, self.dim(x) + 1
        k = view.id(x)
        return Shell(view, n, tuple([degeneracy_face(view, k, j, i, s) for i, s in slots(n)]))

    def _connection(self, x, j: int, sign: Sign) -> Shell:
        view, n = self.base.id_view, self.dim(x) + 1
        k = view.id(x)
        return Shell(view, n, tuple([connection_face(view, k, j, sign, i, s) for i, s in slots(n)]))

    def _compose(self, s, t, i: int) -> Shell:
        if not (isinstance(s, Shell) and isinstance(t, Shell) and s.dim == self.top):
            raise DimensionTooLarge(
                f"dimension-{self.dim(s)} base elements are not part of this extension"
            )
        view, n = self.base.id_view, s.dim
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
    def _search_plan(self) -> tuple:
        """What the search reads, built once per extension.

        ``rows[c]`` is the row of a candidate c, the tuple of its face ids in
        slot order: the key c is listed under in the base's full-profile index
        ``index(top - 1, slots(top - 1))``, inverted, so no face is computed.
        ``reads[p]`` is what slot p reads: the index of its profile (the face
        pairs 1 .. i-1 of a face (i, sign)), its needs and its row width.  The
        needs are FACE-FACE in slot positions, in the order of the index key:
        (q, r) says that face q of the face placed at slot p is face r of the
        face placed earlier at slot q.
        """
        view, n = self.base.id_view, self.top
        needs: list = [[] for _ in slots(n)]
        for p, q, r in incidences(n):
            needs[slot(*p)].append((slot(*q), slot(*r)))
        reads = [(view.index(n - 1, slots(i - 1)), tuple(needs[p]), 2 * (i - 1))
                 for p, (i, _) in enumerate(slots(n))]
        full = view.index(n - 1, slots(n - 1))
        rows = {c: row for row, cs in full.items() for c in cs}
        return rows, reads

    def _shells(self, rng=None, pins: Optional[dict] = None) -> Iterator[Shell]:
        """Top shells, assembled face pair by face pair with backtracking.

        When face (i, sign) is placed, its first i-1 face pairs are pinned by
        incidence with the faces already chosen, so its candidates are one
        list of the base's ``index(top - 1, slots(i - 1))``, in pool order.
        ``pins`` maps some (i, sign) to the base element id that face must be;
        a pin outside the base's top - 1 pool allows no shell.  Every face a
        node compares is read from the rows of ``_search_plan``.

        The search is one flat loop over the slots: ``tried[at]`` is an
        iterator over the candidates of slot ``at``, ``chosen[at]`` the one
        placed and ``placed[at]`` its row, and an exhausted slot steps back to
        the one before.  Each node entered, a full shell included, costs one
        unit of budget, checked before the node's candidates are listed.
        With an ``rng`` the search gives up after ``NODE_BUDGET`` nodes, and
        a list of two or more candidates is put in ``shuffle``'s order, which
        is the order ``rng.shuffle`` gives from the same words of the
        generator.
        """
        view, n = self.base.id_view, self.top
        keys = slots(n)
        rows, reads = self._search_plan
        size = len(keys)
        chosen, placed, tried = [0] * size, [None] * size, [None] * size
        budget = NODE_BUDGET if rng is not None else math.inf
        getrandbits = None if rng is None else rng.getrandbits

        pinned = pin_checks = None
        if pins:
            pinned = [pins.get(key) for key in keys]
            if any(pv is not None and pv not in rows for pv in pinned):
                return
            # per slot q, what the pinned faces ask of its candidate: face r is f
            pin_checks = [[] for _ in keys]
            for p, pv in enumerate(pinned):
                if pv is not None:
                    for q, r in reads[p][1]:
                        pin_checks[q].append((r, rows[pv][q]))

        at = 0
        while budget > 0:  # enter the node that places slot ``at``
            budget -= 1
            if at == size:
                yield Shell(view, n, tuple(chosen))
                at -= 1
            else:
                index, need, width = reads[at]
                req = tuple([placed[q][r] for q, r in need])
                if pinned and pinned[at] is not None:
                    pv = pinned[at]
                    cands = (pv,) if req == rows[pv][:width] else ()
                else:
                    cands = index.get(req, ())
                    if pinned:
                        for r, f in pin_checks[at]:
                            cands = [c for c in cands if rows[c][r] == f]
                    if getrandbits is not None and len(cands) > 1:  # a shorter list draws no number
                        cands = list(cands)
                        shuffle(cands, getrandbits)
                tried[at] = iter(cands)
            c = next(tried[at], None)
            while c is None:  # slot ``at`` is exhausted: step back
                at -= 1
                if at < 0:
                    return
                c = next(tried[at], None)
            chosen[at] = c
            placed[at] = rows[c]
            at += 1

    def random_top_shell(self, rng, pinned: Optional[dict] = None) -> Optional[Shell]:
        """A seeded random top shell: the first shell of the shuffled search,
        or None if it has none or runs out of ``NODE_BUDGET``; ``pinned``
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
            n = integer_entry(doc, "dim")
            raw = dict(doc["faces"])
        except (KeyError, TypeError, ValueError) as exc:
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
    dimension-n elements are exactly the n-shells over its lower part.  A
    system that answers nothing an n-shell reads (faces, composites and
    pools below n, degeneracies and connections below n - 1) has the shell
    system of its base, so each id space holds one extension per top.  The
    memo lives on the system where the walk stops, so it is freed with it.
    """
    reads = {"face": n, "compose": n, "cubes": n, "degeneracy": n - 1, "connection": n - 1}
    while not (isinstance(base, ShellExtension) and base.top == n):
        if base.base is None or any(base.owns_from(op) < d for op, d in reads.items()):
            memo = base.shell_systems
            if n not in memo:
                memo[n] = ShellExtension(base, n)
            return memo[n]
        base = base.base
    return base


def shell_tower(root: CubeSystem, height: int = 1) -> CubeSystem:
    """Stack the shell systems of dimensions root.max_dim + 1 .. root.max_dim + height on root."""
    if height < 1:
        raise ValueError("height must be at least 1")
    system = root
    for top in range(root.max_dim + 1, root.max_dim + height + 1):
        system = shell_system(system, top)
    return system


# ---------------------------------------------------------------------------
# folding shells, commutativity


def is_commutative(system: CubeSystem, s: Shell) -> bool:
    """A shell commutes when its two folded boundary composites agree."""
    folded = folding.big_psi(shell_system(system, s.dim), s)
    return folded.n_face == folded.p_face
