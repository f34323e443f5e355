"""Named theorem suites runnable over any enumerable model.

Each suite turns one statement about folding, shells, fillers or thin
structures into one or more parts of the registry's entry type
(:class:`cubecat.core.Law`), run by the same runner as the registry laws:
the runner owns the dimensions, the exhaustive or seeded bindings, the
instance count and the first failure.  An instance of a suite is one
checked statement.  A failing suite reports the law counterexample shape:
its binding's elements described, a label naming the failing part, and
``lhs``/``rhs`` where two elements are compared.  ``SUITES`` maps each
suite id, a stable string used by the command line and the acceptance
tests, to its parts.
"""

from __future__ import annotations

from . import fillers, folding
from .core import (
    MINUS,
    PLUS,
    SIGNS,
    CubeSystem,
    Law,
    LawReport,
    _run,
    composable_pairs,
    degenerate_at,
    select,
    slots,
)
from .folding import _fold_through, _psi
from .shells import (
    Shell,
    boundary,
    is_commutative,
    shell_system,
)


def _retraction(view, k: int, i: int) -> tuple:
    """(k, e_i d-_i k): equal exactly when k is degenerate in direction i."""
    return k, view.degeneracies[i, None][view.faces[i, MINUS][k]]


def _folded(view, k: int) -> int:
    """The full folding of id k; k is thin when it is 1-degenerate."""
    return _fold_through(view, k, view.dim(k) - 1)


# ---------------------------------------------------------------------------
# folding suites


def _lemma_1_1(view, bindings):
    for y, in bindings:
        n = view.dim(y) + 1
        for r in range(1, n):
            yield (lambda: f"i: psi_1..psi_{r - 1} e{r} x = e1 x",
                   _fold_through(view, view.degeneracies[r, None][y], r - 1),
                   view.degeneracies[1, None][y])
        for j in range(1, n):
            folded = _fold_through(view, view.degeneracies[j, None][y], n - 1)
            yield (lambda: f"ii: the full folding of e{j} x is 1-degenerate",
                   *_retraction(view, folded, 1))


def _prop_1_2(view, bindings):
    sys = view.system
    for x, in bindings:
        folded = _folded(view, x)
        for i in range(2, view.dim(x) + 1):
            for sign in SIGNS:
                yield (lambda: f"i: d{sign}{i} of the folded x is 1-degenerate",
                       *_retraction(view, view.faces[i, sign][folded], 1))
        n_face, p_face = (view.elements[view.faces[1, s][folded]] for s in SIGNS)
        yield (lambda: "ii: N and P share their boundary",
               boundary(sys, n_face), boundary(sys, p_face))
        yield (lambda: "iii: N and P force the folded boundary",
               folding.reconstruct_folded_shell(sys, n_face, p_face),
               boundary(sys, view.elements[folded]))


def _lemma_1_3(view, bindings):
    """Taking boundaries is a morphism into the shell extension."""
    sys = view.system
    for k, in bindings:
        x, d = view.elements[k], view.dim(k)
        if sys.within_ceiling(d + 1):
            lifts = shell_system(sys, d + 1)
            for j in range(1, d + 2):
                yield (lambda: f"eps: boundary of e{j} x", lifts.degeneracy(x, j),
                       boundary(sys, view.elements[view.degeneracies[j, None][k]]))
            for i in range(1, d + 1):
                for sign in SIGNS:
                    yield (lambda: f"gamma: boundary of G{sign}{i} x", lifts.connection(x, i, sign),
                           boundary(sys, view.elements[view.connections[i, sign][k]]))
        if d >= 2:
            shells, s = shell_system(sys, d), boundary(sys, x)
            for j in range(1, d):
                yield (lambda: f"psi: boundary of psi{j} x",
                       folding.psi(shells, s, j), boundary(sys, view.elements[_psi(view, k, j)]))
            fold = folding.big_psi(shells, s)
            folded = _folded(view, k)
            yield (lambda: "Psi: boundary of the folded x",
                   fold.folded, boundary(sys, view.elements[folded]))
            yield lambda: "N: N of the boundary", view.id(fold.n_face), view.faces[1, MINUS][folded]
            yield lambda: "P: P of the boundary", view.id(fold.p_face), view.faces[1, PLUS][folded]


def _lemma_1_3_compose(view, n, stream):
    sys, elements = view.system, view.elements
    shells = shell_system(sys, n)
    drawn = stream.elements(sys, n)
    for i in range(1, n + 1):
        for x, y in composable_pairs(view, drawn, i):
            yield ({"x": x, "y": y, "i": i}, lambda: f"compose: boundary of x o{i} y",
                   shells.compose(boundary(sys, elements[x]), boundary(sys, elements[y]), i),
                   boundary(sys, elements[view.composites[x, y, i]]))


def _thm_1_4(view, n, stream):
    """Unique reconstruction from boundary and full folding, by enumeration."""
    sys, elements = view.system, view.elements
    realized: dict = {}
    for x in view.pool(n):
        s = boundary(sys, elements[x])
        folded = _folded(view, x)
        back = fillers.filler_from_fold(sys, elements[folded], s)
        yield {"x": x}, lambda: "roundtrip: the filler of boundary and folding", view.id(back), x
        other = realized.setdefault((s, folded), x)
        yield ({"x": x, "y": other}, lambda: "uniqueness: y has the boundary and folding of x",
               other, x)
    by_boundary = view.index(n, slots(n))
    shells = shell_system(sys, n)
    for t in shells.id_view.pool(n):
        shell = elements[t]
        folded_shell = folding.big_psi(shells, shell).folded
        for a in by_boundary.get(folded_shell.ids, ()):
            yield ({"s": t, "x": a}, lambda: "existence: an element has boundary s and folding x",
                   (shell, a) in realized, True)
    for (shell, a) in realized:
        folded_shell = folding.big_psi(shells, shell).folded
        yield ({"s": shell, "x": a}, lambda: "necessity: x fits the folded s",
               boundary(sys, elements[a]), folded_shell)


def _lemma_1_5(view, bindings):
    sys = view.system
    for k, in bindings:
        x = view.elements[k]
        s = boundary(sys, x)
        for j in range(1, view.dim(k)):
            back = fillers.unfold_step(sys, view.elements[_psi(view, k, j)], s, j)
            yield lambda: f"unfold psi{j} x along the boundary of x", back, x


# ---------------------------------------------------------------------------
# thinness suites


def _lemma_2_3(view, bindings):
    for c, in bindings:
        d = view.dim(c)
        for i in range(1, d + 1):
            for sign in SIGNS:
                g = view.connections[i, sign][c]
                yield (lambda: f"i: psi{i} G{sign}{i} x = e{i} x",
                       _psi(view, g, i), view.degeneracies[i, None][c])
                for j in range(i + 2, d + 1):
                    yield (lambda: f"ii: psi{j} G{sign}{i} x = G{sign}{i} psi{j - 1} x",
                           _psi(view, g, j), view.connections[i, sign][_psi(view, c, j - 1)])
        for i in range(1, d):
            plus = _psi(view, _psi(view, view.connections[i, PLUS][c], i + 1), i)
            gamma = view.connections[i, PLUS][view.faces[i + 1, MINUS][c]]
            yield (lambda: f"iii+: psi{i} psi{i + 1} G+{i} x",
                   plus, view.degeneracies[i, None][view.composites[gamma, c, i + 1]])
            minus = _psi(view, _psi(view, view.connections[i, MINUS][c], i + 1), i)
            gamma = view.connections[i, MINUS][view.faces[i + 1, PLUS][c]]
            yield (lambda: f"iii-: psi{i} psi{i + 1} G-{i} x",
                   minus, view.degeneracies[i, None][view.composites[c, gamma, i + 1]])


def _lemma_2_4(view, bindings):
    sys = view.system
    for k, in bindings:
        x = view.elements[k]
        for j in range(1, view.dim(k)):
            yield (lambda: f"x is {j}-thin iff psi{j} x is {j - 1}-thin",
                   folding.is_j_thin(sys, x, j),
                   folding.is_j_thin(sys, view.elements[_psi(view, k, j)], j - 1))


def _lemma_2_5(view, n, stream):
    drawn = stream.elements(view.system, n)
    for j in range(1, n + 1):
        degenerate = [y for y in drawn if degenerate_at(view, y, j)]
        for i in range(1, n + 1):
            for y, z in composable_pairs(view, degenerate, i):
                yield ({"x": y, "y": z, "i": i},
                       lambda: f"the o{i} composite of {j}-degenerate x, y is {j}-degenerate",
                       *_retraction(view, view.composites[y, z, i], j))


def _lemma_2_6(view, bindings):
    for y, in bindings:
        for k in range(1, view.dim(y) + 2):
            folded = _fold_through(view, view.degeneracies[k, None][y], k - 1)
            yield lambda: f"e{k} x is {k - 1}-thin", *_retraction(view, folded, 1)


def _prop_2_1_thin(view, bindings):
    sys = view.system
    for k, in bindings:
        x = view.elements[k]
        if folding.is_thin(sys, x):
            yield (lambda: "i: the boundary of a thin x commutes",
                   is_commutative(sys, boundary(sys, x)), True)


def _prop_2_1_shells(view, n, stream):
    sys = view.system
    ext = shell_system(sys, n)
    for s in stream.elements(ext, n):
        shell = view.elements[s]
        yield ({"s": s}, lambda: "ii: s commutes iff s is thin",
               is_commutative(sys, shell), folding.is_thin(ext, shell))


def _prop_2_1_fillers(view, n, stream):
    sys, elements = view.system, view.elements
    by_boundary = view.index(n, slots(n))
    for s in shell_system(sys, n).id_view.pool(n):
        shell = elements[s]
        found = [x for x in by_boundary.get(shell.ids, ()) if folding.is_thin(sys, elements[x])]
        if is_commutative(sys, shell):
            filler = fillers.thin_filler(sys, shell)
            k = view.id(filler)
            yield ({"s": s, "x": k}, lambda: "iii-exists: x is a thin filler of s",
                   boundary(sys, filler) == shell and folding.is_thin(sys, filler), True)
            yield ({"s": s, "x": k},
                   lambda: f"iii-unique: {len(found)} thin fillers of s enumerated, not only x",
                   found == [k], True)
        else:
            yield ({"s": s}, lambda: f"iii-none: {len(found)} thin fillers of a non-commutative s",
                   not found, True)


def _prop_2_2_thin(view, bindings):
    for c, in bindings:
        d = view.dim(c)
        for i in range(1, d + 2):
            yield (lambda: f"i-eps: e{i} x is thin",
                   *_retraction(view, _folded(view, view.degeneracies[i, None][c]), 1))
        for i in range(1, d + 1):
            for sign in SIGNS:
                yield (lambda: f"i-gamma: G{sign}{i} x is thin",
                       *_retraction(view, _folded(view, view.connections[i, sign][c]), 1))


def _prop_2_2_closure(view, n, stream):
    # seeded random thin pairs at the top dimension; a pair that is not thin
    # spends one of at most 30 attempts per instance
    sys, rng, samples = view.system, stream.rng, stream.samples
    produced, attempts = 0, 0
    while produced < samples and attempts < samples * 30:
        attempts += 1
        i = rng.randint(1, n)
        got = sys.sample_pair(n, i, rng)
        if got is None or not all(folding.is_thin(sys, x) for x in got):
            continue
        a, b = map(view.id, got)
        yield ({"x": a, "y": b, "i": i}, lambda: f"ii: the o{i} composite of thin x, y is thin",
               *_retraction(view, _folded(view, view.composites[a, b, i]), 1))
        produced += 1


def _cor_2_7_lifts(view, bindings):
    sys = view.system
    for c, in bindings:
        x, d = view.elements[c], view.dim(c)
        lifts = shell_system(sys, d + 1)
        for i in range(1, d + 2):
            yield (lambda: f"i-eps: the e{i} shell of x commutes",
                   is_commutative(sys, lifts.degeneracy(x, i)), True)
        for i in range(1, d + 1):
            for sign in SIGNS:
                yield (lambda: f"i-gamma: the G{sign}{i} shell of x commutes",
                       is_commutative(sys, lifts.connection(x, i, sign)), True)


def _cor_2_7_composites(view, n, stream):
    sys, elements = view.system, view.elements
    shells = shell_system(sys, n).id_view
    commutative = [s for s in shells.pool(n) if is_commutative(sys, elements[s])]
    for i in range(1, n + 1):
        for s, t in composable_pairs(shells, commutative, i):
            yield ({"s": s, "t": t, "i": i}, lambda: f"ii: s o{i} t commutes",
                   is_commutative(sys, elements[shells.composites[s, t, i]]), True)


def _thm_2_8(view, bindings):
    sys = view.system
    for k, in bindings:
        x = view.elements[k]
        if not folding.is_thin(sys, x):
            continue
        expr = fillers.thin_decompose(sys, x)
        yield lambda: "base-free: the decomposition of x", fillers.is_base_free(expr), True
        yield lambda: "evaluates: the decomposition of x", fillers.evaluate(sys, expr), x


def _cor_2_9(view, n, stream):
    sys = view.system
    ext = shell_system(sys, n)
    for s in ext.id_view.pool(n):
        shell = view.elements[s]
        if not is_commutative(sys, shell):
            continue
        expr = fillers.thin_decompose(ext, shell)
        yield {"s": s}, lambda: "base-free: the decomposition of s", fillers.is_base_free(expr), True
        yield {"s": s}, lambda: "evaluates: the decomposition of s", fillers.evaluate(ext, expr), shell


def _thm_3_1(view, n, stream):
    """theta from the connections sends degenerate and connection shells back to them.

    Where ``n`` is enumerated, theta is also a morphism on the commutative
    shells, and the round trip closes; one theta serves both.
    """
    sys, elements = view.system, view.elements
    theta = fillers.theta_from_connections(sys, n)
    shells = shell_system(sys, n).id_view
    for k in view.pool(n - 1):
        a = elements[k]
        for i in range(1, n + 1):
            yield ({"x": k}, lambda: f"eps: theta of the e{i} shell of x is e{i} x",
                   theta(elements[shells.degeneracies[i, None][k]]), sys.degeneracy(a, i))
        for i in range(1, n):
            for sign in SIGNS:
                yield ({"x": k}, lambda: f"gamma: theta of the G{sign}{i} shell of x is G{sign}{i} x",
                       theta(elements[shells.connections[i, sign][k]]), sys.connection(a, i, sign))
    if n > stream.exhaustive_dim:
        return
    domain = [shells.id(s) for s in theta.domain()]
    for s in domain:
        yield {"s": s}, lambda: "faces: theta(s) fills s", boundary(sys, theta(elements[s])), elements[s]
    for i in range(1, n + 1):
        for s, t in composable_pairs(shells, domain, i):
            yield ({"s": s, "t": t, "i": i}, lambda: f"compose: theta(s o{i} t)",
                   theta(elements[shells.composites[s, t, i]]),
                   sys.compose(theta(elements[s]), theta(elements[t]), i))
    # the connections read back off theta agree with the model's own,
    # and re-deriving theta from them closes the loop
    fillers.connections_from_theta(theta)
    for k in view.pool(n - 1):
        a = elements[k]
        for i in range(1, n):
            for sign in SIGNS:
                yield ({"x": k}, lambda: f"roundtrip-gamma: G{sign}{i} x read off theta",
                       theta.connection(a, i, sign), sys.connection(a, i, sign))
    theta2 = fillers.theta_from_connections(theta, n)
    for s in domain:
        yield ({"s": s}, lambda: "roundtrip-theta: theta re-derived from its connections",
               theta2(elements[s]), theta(elements[s]))
    # thin classes coincide element for element
    images = {view.id(theta(elements[s])) for s in domain}
    for x in view.pool(n):
        native = folding.is_thin(sys, elements[x])
        yield {"x": x}, lambda: "thin-class: x is thin iff x is a theta image", native, x in images
        yield ({"x": x}, lambda: "thin-class-override: x is thin under theta's connections",
               native, folding.is_thin(theta, elements[x]))


def _suite(suite_id: str, description: str, *parts) -> tuple:
    """(suite_id, its parts in running order), each given as (kind, min_dim, lift,
    equations[, exhaustive_only]) and made a registry entry under ``suite_id``."""
    return suite_id, tuple(
        Law(suite_id, kind, lowest, lift, description, equations, exhaustive_only=any(only))
        for kind, lowest, lift, equations, *only in parts
    )


SUITES = dict((
    _suite("lemma-1.1", "folding a degeneracy collapses to the first degeneracy",
           ("element", 1, 1, _lemma_1_1)),
    _suite("prop-1.2", "folded cubes are degenerate beyond direction 1 and their"
           " two main faces share a boundary", ("element", 2, 0, _prop_1_2)),
    _suite("lemma-1.3", "taking boundaries commutes with every operation and fold",
           ("element", 1, 0, _lemma_1_3), ("pool", 1, 0, _lemma_1_3_compose)),
    _suite("thm-1.4", "an element is uniquely determined by boundary plus full fold,"
           " and every compatible pair is realized", ("pool", 1, 0, _thm_1_4, True)),
    _suite("lemma-1.5", "one folding step is invertible given the boundary",
           ("element", 2, 0, _lemma_1_5)),
    _suite("lemma-2.3", "foldings of connections reduce to degeneracies",
           ("element", 1, 1, _lemma_2_3)),
    _suite("lemma-2.4", "partial thinness transfers along one folding step",
           ("element", 2, 0, _lemma_2_4)),
    _suite("lemma-2.5", "composites of j-degenerate elements are j-degenerate",
           ("pool", 1, 0, _lemma_2_5)),
    _suite("lemma-2.6", "a k-th degeneracy is (k-1)-fold partially thin",
           ("element", 1, 1, _lemma_2_6)),
    _suite("prop-2.1", "commutative shells are exactly the thin shells and have"
           " unique thin fillers", ("element", 1, 0, _prop_2_1_thin),
           ("pool", 1, 0, _prop_2_1_shells), ("pool", 1, 0, _prop_2_1_fillers, True)),
    _suite("prop-2.2", "degeneracies and connections are thin; thinness is closed"
           " under composition", ("element", 1, 1, _prop_2_2_thin),
           ("top", 1, 0, _prop_2_2_closure)),
    _suite("cor-2.7", "degenerate and connection shells commute; composites of"
           " commutative shells commute", ("element", 1, 1, _cor_2_7_lifts),
           ("pool", 2, 0, _cor_2_7_composites, True)),
    _suite("thm-2.8", "thin elements decompose into degeneracies and connections",
           ("element", 1, 0, _thm_2_8, True)),
    _suite("cor-2.9", "commutative shells decompose into degenerate and connection"
           " shells", ("pool", 1, 0, _cor_2_9, True)),
    _suite("thm-3.1", "thin structures and connection sets determine each other"
           " with the same thin class", ("top", 2, 0, _thm_3_1)),
))


def _describer(system: CubeSystem):
    """Describe an element id, or a shell or element object a statement compares."""
    elements = system.id_view.elements

    def describe(v):
        x = elements[v] if type(v) is int else v
        if isinstance(x, Shell):
            return shell_system(system, x.dim).describe(x)
        return system.describe(x)

    return describe


def run_suite(system: CubeSystem, suite_id: str, **options) -> LawReport:
    """Check every part of one suite: exhaustive up to ``exhaustive_dim``, seeded above."""
    select(SUITES, [suite_id], "suite")  # refuses an unknown id by name
    return _run(system, suite_id, SUITES[suite_id], _describer(system), True, **options)


def run_suites(system: CubeSystem, suite_ids=None, **options) -> list[LawReport]:
    return [run_suite(system, k, **options) for k in select(SUITES, suite_ids, "suite")]
