"""One-line mutants of the face-law helpers, each caught by the law that states it.

``core`` writes the face of a degeneracy, a connection and a composite
once, as ``degeneracy_face``, ``connection_face`` and ``composite_face``.
The nerve builds its faces on its own, so a mutant helper makes the right
side of EPS-FACE, GAMMA-FACE or COMP-FACE disagree with the model.  Each
mutant below differs from the helper in one line, marked; it is patched
into every module that binds the helper, on a fresh nerve(poset22) checked
exhaustively up to dimension 2.  A mutant its law does not kill fails the
test under its own name, so a survivor is reported, not hidden.
"""

import sys

import pytest

from cubecat import MINUS, bundled_category, core, nerve
from cubecat.core import REGISTRY, run_law


def degeneracy_face(view, k, j, i, sign):
    if i == j:
        return k
    if i < j:
        return view.degeneracies[j, None][view.faces[i, sign][k]]  # mutant: j for j - 1
    return view.degeneracies[j, None][view.faces[i - 1, sign][k]]


def connection_face(view, k, j, g, i, sign):
    if i == j or i == j + 1:
        return k if sign != g else view.degeneracies[j, None][view.faces[j, sign][k]]  # mutant: !=
    if i < j:
        return view.connections[j - 1, g][view.faces[i, sign][k]]
    return view.connections[j, g][view.faces[i - 1, sign][k]]


def composite_face(view, x_face, y_face, i, j, sign):
    if j == i:
        return y_face if sign == MINUS else x_face  # mutant: the two sides swapped
    return view.composites[x_face, y_face, i - 1 if j < i else i]


MUTANTS = {"EPS-FACE": degeneracy_face, "GAMMA-FACE": connection_face,
           "COMP-FACE": composite_face}
OPTIONS = dict(max_dim=2, exhaustive_dim=2, samples=0)


def patch_everywhere(monkeypatch, mutant) -> int:
    """Bind the mutant wherever the package binds the helper it mutates; how many places."""
    original, places = getattr(core, mutant.__name__), 0
    for name, module in list(sys.modules.items()):
        if name == "cubecat" or name.startswith("cubecat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, mutant)
                    places += 1
    return places


@pytest.mark.parametrize("law_id", list(MUTANTS))
def test_each_face_law_helper_mutant_fails_its_law(monkeypatch, law_id):
    law = REGISTRY[law_id]
    assert run_law(nerve(bundled_category("poset22"), 2), law, **OPTIONS).passed
    assert patch_everywhere(monkeypatch, MUTANTS[law_id]) >= 2  # core and shells at least
    report = run_law(nerve(bundled_category("poset22"), 2), law, **OPTIONS)
    assert not report.passed, f"the {MUTANTS[law_id].__name__} mutant survives {law_id}"
    # a counterexample is a wrong value or a refused call, on a named binding
    assert report.counterexample.get("equation") or report.counterexample.get("error")
    assert report.counterexample["binding"]
