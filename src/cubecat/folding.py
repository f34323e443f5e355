"""Elementary and partial folding, and the thinness predicates.

The elementary folding in direction i bends the two faces transverse to
direction i+1 around so they abut the direction-i faces, and composes:

    psi_i(x) = G+_i(d-_{i+1} x)  o_{i+1}  x  o_{i+1}  G-_i(d+_{i+1} x)

Applying psi_{n-1} first and psi_1 last accumulates all negative (and all
positive) faces of x into the two direction-1 faces of the result; every
other face of the folded cube is degenerate in direction 1.

An id view stores each fold it makes (``IdView.psis``, ``folds``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MINUS, PLUS, SIGNS, CubeSystem, degenerate_at, degeneracy_face, slots
from .errors import BoundaryMismatch, IndexOutOfRange, PostconditionViolated


_NONE: dict = {}  # the ψ table of a direction not folded yet; never filled


def psi(system: CubeSystem, x, i: int):
    """Fold x in direction i (valid for 1 <= i <= dim-1)."""
    view = system.id_view
    return view.elements[_psi(view, view.id(x), i)]


def _psi(view, x: int, i: int) -> int:
    # on element ids: a stored fold, or six table lookups with no translation in between
    out = view.psis.get(i, _NONE).get(x)
    if out is None:
        n = view.dim(x)
        if n < 2 or not 1 <= i <= n - 1:
            raise IndexOutOfRange("psi", i, n)
        left = view.connections[i, PLUS][view.faces[i + 1, MINUS][x]]
        right = view.connections[i, MINUS][view.faces[i + 1, PLUS][x]]
        compose = view.composites[i + 1]
        out = view.psis.setdefault(i, {})[x] = compose[compose[left][x]][right]
    return out


def _fold_through(view, x: int, j: int) -> int:
    """psi_1 psi_2 ... psi_j applied to id x (the j-fold partial folding)."""
    for i in range(j, 0, -1):
        x = _psi(view, x, i)
    return x


def fold_chain(system: CubeSystem, x) -> list:
    """[x, psi_{n-1} x, psi_{n-2} psi_{n-1} x, ..., the full folding of x]: n entries."""
    view = system.id_view
    chain = [view.id(x)]
    for i in range(system.dim(x) - 1, 0, -1):
        chain.append(_psi(view, chain[-1], i))
    return [view.elements[k] for k in chain]


@dataclass(frozen=True)
class FoldResult:
    """Fully folded cube with its two embodied boundary composites."""

    folded: object
    n_face: object
    p_face: object


def big_psi(system: CubeSystem, x) -> FoldResult:
    """Apply the full chain psi_1 ... psi_{n-1}; the identity at dimension 1.

    Postconditions are checked on the first call: every face of the folded
    cube beyond direction 1 must be degenerate in direction 1, and the two
    direction-1 faces must share their whole boundary.  Only a fold that
    passes is stored, so one that fails raises on every call.
    """
    n = system.dim(x)
    if n < 1:
        raise IndexOutOfRange("big_psi", 1, n)
    view = system.id_view
    k = view.id(x)
    got = view.folds.get(k)
    if got is None:
        folded = _fold_through(view, k, n - 1)
        n_face = view.faces[1, MINUS][folded]
        p_face = view.faces[1, PLUS][folded]
        for i in range(2, n + 1):
            for sign in SIGNS:
                if not degenerate_at(view, view.faces[i, sign][folded], 1):
                    raise PostconditionViolated(
                        f"face ({i},{sign}) of the folded cube is not degenerate"
                    )
        for i, sign in slots(n - 1):
            if view.faces[i, sign][n_face] != view.faces[i, sign][p_face]:
                raise PostconditionViolated(
                    f"folded boundary composites disagree at face ({i},{sign})"
                )
        got = view.folds[k] = (folded, n_face, p_face)
    return FoldResult(*map(view.elements.__getitem__, got))


def reconstruct_folded_shell(system: CubeSystem, n_face, p_face):
    """The boundary a fully folded cube must have, given its two main faces.

    It is the boundary of the first degeneracy of ``n_face`` with face (1,+)
    replaced by ``p_face``: the faces beyond direction 1 are forced.
    """
    from .shells import make_shell  # local import; shells builds on folding

    d = system.dim(n_face)
    if system.dim(p_face) != d:
        raise BoundaryMismatch("main faces have different dimensions")
    view = system.id_view
    n, p = view.id(n_face), view.id(p_face)
    for i, sign in slots(d):
        if view.faces[i, sign][n] != view.faces[i, sign][p]:
            raise BoundaryMismatch(
                f"main faces disagree on their ({i},{sign}) face"
            )
    faces = {key: view.elements[degeneracy_face(view, n, 1, *key)] for key in slots(d + 1)}
    faces[1, PLUS] = p_face
    return make_shell(system, d + 1, faces)


def is_thin(system: CubeSystem, x) -> bool:
    """Thin elements fold to a first-direction degeneracy."""
    n = system.dim(x)
    if n < 1:
        raise IndexOutOfRange("is_thin", 1, n)
    return is_j_thin(system, x, n - 1)


def is_j_thin(system: CubeSystem, x, j: int) -> bool:
    """Partial thinness: the j-fold partial folding is already degenerate.

    j = 0 asks whether x itself is a first degeneracy; j = dim-1 is full
    thinness.
    """
    n = system.dim(x)
    if not 0 <= j <= n - 1:
        raise IndexOutOfRange("is_j_thin", j, n)
    view = system.id_view
    return degenerate_at(view, _fold_through(view, view.id(x), j), 1)
