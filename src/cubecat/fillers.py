"""Unique fillers, thin fillers, thin decompositions, and thin structures.

The central mechanism: a cube is recoverable from its boundary together
with any of its elementary foldings, as the rows-first composite of a
three-row partition whose outer rows are degeneracies and connections of
the boundary faces.  Iterating that step inverts the full folding, yields
the unique thin filler of a commutative shell, and rewrites any thin
element as a composite of degeneracies and connections only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from . import folding
from .core import (
    ALL, MINUS, PLUS, CubeSystem, Sign, integer_entry, run_axiom_suite, slots, tabulated,
)
from .errors import (
    MorphismViolation,
    NotCommutative,
    NotThin,
    ParseError,
    PreconditionFailed,
    PostconditionViolated,
)
from .shells import (
    Shell,
    boundary,
    enumerate_shells,
    is_commutative,
    shell_system,
)

SIGN_CHARS = {MINUS: "−", PLUS: "+"}  # emitted sign strings
SIGN_PARSE = {"-": MINUS, "−": MINUS, "minus": MINUS, "+": PLUS, "plus": PLUS}


def _first_mismatch(s: Shell, t: Shell):
    """The first (direction, sign), in slot order, at which the faces of s and t differ."""
    sf, tf = s.faces, t.faces
    if sf == tf:  # tuples compare by identity first: equal canonical faces call no __eq__
        return None
    return next(key for key, f, g in zip(slots(s.dim), sf, tf) if f != g)


def unfold_step(system: CubeSystem, a, s: Shell, j: int):
    """The unique x with boundary s whose direction-j folding is a.

    Evaluates ``unfold_expression(s, j, Base(a))``; the result is re-checked
    against both defining equations before being returned.
    """
    n = system.dim(a)
    if s.dim != n or not 1 <= j <= n - 1:
        raise PreconditionFailed(f"unfold_step needs dim(a) = dim(s) and 1 <= j < {n}")
    folded_shell = folding.psi(shell_system(system, n), s, j)
    mismatch = _first_mismatch(boundary(system, a), folded_shell)
    if mismatch is not None:
        raise PreconditionFailed(
            f"boundary of a differs from the folded shell at face {mismatch}"
        )
    x = evaluate(system, unfold_expression(s, j, Base(a)))
    if folding.psi(system, x, j) != a:
        raise PostconditionViolated("unfold_step: folding the result does not give a")
    if boundary(system, x) != s:
        raise PostconditionViolated("unfold_step: result has the wrong boundary")
    return x


def filler_from_fold(system: CubeSystem, a, s: Shell):
    """The unique x with boundary s and full folding a; exists iff the
    folded shell of s equals the boundary of a."""
    n = s.dim
    if system.dim(a) != n:
        raise PreconditionFailed("filler_from_fold needs dim(a) = dim(s)")
    # sigma[j] is s folded through directions n-1 .. j+1
    sigma = folding.fold_chain(shell_system(system, n), s)[::-1]
    mismatch = _first_mismatch(boundary(system, a), sigma[0])
    if mismatch is not None:
        raise PreconditionFailed(
            f"boundary of a differs from the fully folded shell at face {mismatch}"
        )
    x = a
    for j in range(1, n):
        x = unfold_step(system, x, sigma[j], j)
    if boundary(system, x) != s:
        raise PostconditionViolated("filler_from_fold: result has the wrong boundary")
    if folding.big_psi(system, x).folded != a:
        raise PostconditionViolated("filler_from_fold: result folds to the wrong cube")
    return x


def thin_filler(system: CubeSystem, s: Shell):
    """The unique thin element whose boundary is the commutative shell s."""
    if not is_commutative(system, s):
        raise NotCommutative(f"shell of dimension {s.dim} has distinct folded composites")
    u = folding.big_psi(shell_system(system, s.dim), s).n_face
    x = filler_from_fold(system, system.degeneracy(u, 1), s)
    if not folding.is_thin(system, x):
        raise PostconditionViolated("thin_filler produced a non-thin element")
    return x


# ---------------------------------------------------------------------------
# generator expressions


@dataclass(frozen=True)
class Eps:
    dir: int
    cube: object


@dataclass(frozen=True)
class Gamma:
    dir: int
    sign: Sign
    cube: object


@dataclass(frozen=True)
class Base:
    cube: object


@dataclass(frozen=True)
class Compose:
    dir: int
    left: "GeneratorExpression"
    right: "GeneratorExpression"


GeneratorExpression = Union[Eps, Gamma, Base, Compose]


def unfold_expression(s: Shell, j: int, core: GeneratorExpression) -> Compose:
    """The three-row partition that unfolds a direction-j folding (Lemma 1.5).

    The rows-first composite of

        [ eps_j s(j,-)    | G+_j s(j+1,+) ]
        [       core  (spanning)          ]
        [ G-_j s(j+1,-)   | eps_j s(j,+)  ]

    with direction j vertical and j+1 horizontal.  Its leaves, in order,
    are the five cells e-, G+, core, G-, e+.
    """
    top = Compose(
        j + 1,
        Eps(j, s.face(j, MINUS)),
        Gamma(j, PLUS, s.face(j + 1, PLUS)),
    )
    bottom = Compose(
        j + 1,
        Gamma(j, MINUS, s.face(j + 1, MINUS)),
        Eps(j, s.face(j, PLUS)),
    )
    return Compose(j, Compose(j, top, core), bottom)


def evaluate(system: CubeSystem, expr: GeneratorExpression):
    """The element the term denotes, computed on ids in the system's id view."""
    view = system.id_view

    def value(expr: GeneratorExpression) -> int:
        if isinstance(expr, Compose):
            return view.composites[value(expr.left), value(expr.right), expr.dir]
        if isinstance(expr, Eps):
            return view.degeneracies[expr.dir, None][view.id(expr.cube)]
        if isinstance(expr, Gamma):
            return view.connections[expr.dir, expr.sign][view.id(expr.cube)]
        return view.id(expr.cube)

    return view.elements[value(expr)]


def leaves(expr: GeneratorExpression):
    if isinstance(expr, Compose):
        yield from leaves(expr.left)
        yield from leaves(expr.right)
    else:
        yield expr


def is_base_free(expr: GeneratorExpression) -> bool:
    return not any(isinstance(leaf, Base) for leaf in leaves(expr))


def expression_to_doc(system: CubeSystem, expr: GeneratorExpression) -> dict:
    if isinstance(expr, Eps):
        return {"kind": "eps", "dir": expr.dir, "cube": system.describe(expr.cube)}
    if isinstance(expr, Gamma):
        return {
            "kind": "gamma",
            "dir": expr.dir,
            "sign": SIGN_CHARS[expr.sign],
            "cube": system.describe(expr.cube),
        }
    if isinstance(expr, Base):
        return {"kind": "base", "cube": system.describe(expr.cube)}
    return {
        "kind": "compose",
        "dir": expr.dir,
        "left": expression_to_doc(system, expr.left),
        "right": expression_to_doc(system, expr.right),
    }


def expression_from_doc(system: CubeSystem, doc: dict) -> GeneratorExpression:
    try:
        kind = doc["kind"]
        if kind == "eps":
            return Eps(integer_entry(doc, "dir"), system.parse(doc["cube"]))
        if kind == "gamma":
            sign = SIGN_PARSE.get(doc["sign"])
            if sign is None:
                raise ParseError(f"bad sign {doc['sign']!r}")
            return Gamma(integer_entry(doc, "dir"), sign, system.parse(doc["cube"]))
        if kind == "base":
            return Base(system.parse(doc["cube"]))
        if kind == "compose":
            return Compose(
                integer_entry(doc, "dir"),
                expression_from_doc(system, doc["left"]),
                expression_from_doc(system, doc["right"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed expression document: {exc}") from exc
    raise ParseError(f"unknown expression node kind {doc.get('kind')!r}")


def thin_decompose(system: CubeSystem, x) -> GeneratorExpression:
    """Rewrite a thin element as a composite of degeneracies and connections.

    Folding x step by step records each boundary; unfolding symbolically
    replaces every step with its three-row partition, whose outer cells are
    generator leaves.  The core that remains after full folding is itself a
    first degeneracy, so the result has no base leaf.
    """
    if not folding.is_thin(system, x):
        raise NotThin("only thin elements decompose into generators")
    # chain[k] is x folded through directions n-1 .. k+1
    chain = folding.fold_chain(system, x)[::-1]
    expr: GeneratorExpression = Eps(1, system.face(chain[0], 1, MINUS))
    for k in range(1, len(chain)):
        expr = unfold_expression(boundary(system, chain[k]), k, expr)
    if evaluate(system, expr) != x:
        raise PostconditionViolated("thin decomposition does not evaluate back")
    return expr


# ---------------------------------------------------------------------------
# thin structures


@tabulated
class ThinStructure(CubeSystem):
    """Filler assignment on the commutative shells of one dimension, and
    the cube system of the connections it induces (Theorem 3.1): the
    connection of an a one below the top is theta of the formal connection
    shell of a, nothing is built above the top, and every other operation
    is the base's.  theta is materialized on demand and memoized, so
    repeated queries for the same shell return the identical element.
    """

    def __init__(self, system: CubeSystem, top: int, fill: Callable[[Shell], object]):
        self.top = top
        self.max_dim = top
        self.op_ceiling = top
        self._fill = fill
        self._memo: dict = {}
        super().__init__(system)

    def owns_from(self, op: str) -> float:
        return self.top - 1 if op == "connection" else ALL

    def _connection(self, a, i, sign):
        return self(shell_system(self.base, self.top).connection(a, i, sign))

    def __call__(self, s: Shell):
        filler = self._memo.get(s)
        if filler is None:  # the memo holds only shells that passed these checks
            if s.dim != self.top:
                raise PreconditionFailed(
                    f"thin structure is defined at dimension {self.top}, got {s.dim}"
                )
            if not is_commutative(self.base, s):
                raise NotCommutative("thin structures are defined on commutative shells only")
            filler = self._memo[s] = self._fill(s)
        return filler

    def domain(self) -> tuple:
        """All commutative shells at the structure's dimension (enumerable models)."""
        return tuple(
            s
            for s in enumerate_shells(self.base, self.top)
            if is_commutative(self.base, s)
        )


def theta_from_connections(system: CubeSystem, top: int) -> ThinStructure:
    """The thin structure induced by the system's own connections.

    Sends every commutative shell to its unique thin filler; in particular
    degenerate shells map to degeneracies and connection shells map to
    connections.  Each filler passes ``thin_filler``'s checks, and a model
    whose connections break their laws is refused where
    :func:`connections_from_theta` reads them back.
    """
    return ThinStructure(system, top, lambda s: thin_filler(system, s))


def connections_from_theta(theta: ThinStructure) -> ThinStructure:
    """Read connections off a thin structure and re-validate their laws.

    The induced map sends a to the filler of the formal connection shell on
    a, which is theta's own connection.  The registry's face, transport and
    cancellation laws are checked exhaustively over the enumerable model; a
    violation means theta was not a morphism.
    """
    for report in run_axiom_suite(
        theta,
        max_dim=theta.top,
        exhaustive_dim=theta.top,
        law_ids=("GAMMA-FACE", "TRANSPORT", "GAMMA-CANCEL"),
    ):
        if not report.passed:
            raise MorphismViolation(
                f"induced connections break {report.law_id}: {report.counterexample}"
            )
    return theta
