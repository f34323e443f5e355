"""One-line mutants of the face-law helpers and the nerve's connections, each
caught by the law that states it.

``core`` writes the face of a degeneracy, a connection and a composite
once, as ``degeneracy_face``, ``connection_face`` and ``composite_face``.
The nerve builds its faces on its own, so a mutant helper makes the right
side of EPS-FACE, GAMMA-FACE or COMP-FACE disagree with the model.  The
other way round, a mutant of the nerve's ``models._connection_pickers``
makes the model's connections disagree with the helper.  Each mutant below
differs from its original in one line, marked; it is patched into every
module that binds the original, on a fresh nerve(poset22) checked
exhaustively up to dimension 2.  A mutant its law does not kill fails the
test under its own name, so a survivor is reported, not hidden.
"""

import sys

import pytest

from cubecat import MINUS, PLUS, bundled_category, core, models, nerve
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


def composite_face_direction(view, x_face, y_face, i, j, sign):
    if j == i:
        return x_face if sign == MINUS else y_face
    return view.composites[x_face, y_face, i if j < i else i - 1]  # mutant: direction off by one


def connection_pickers(n, pos, sign):
    pick = max if sign == PLUS else min  # mutant: min and max swapped

    def collapse(v):
        merged = pick((v >> pos) & 1, (v >> (pos + 1)) & 1)
        return models.insert_bit(models.remove_bit(models.remove_bit(v, pos + 1), pos), pos, merged)

    return models._collapse_pickers(n, collapse)


# case: (law, original, mutant, the least number of modules binding the original)
MUTANTS = {
    "EPS-FACE": ("EPS-FACE", core.degeneracy_face, degeneracy_face, 2),
    "GAMMA-FACE": ("GAMMA-FACE", core.connection_face, connection_face, 2),
    "COMP-FACE": ("COMP-FACE", core.composite_face, composite_face, 2),
    "COMP-FACE-direction": ("COMP-FACE", core.composite_face, composite_face_direction, 2),
    "GAMMA-FACE-pickers": ("GAMMA-FACE", models._connection_pickers, connection_pickers, 1),
}
OPTIONS = dict(max_dim=2, exhaustive_dim=2, samples=0)


def patch_everywhere(monkeypatch, original, mutant) -> int:
    """Bind the mutant wherever the package binds the original; how many places."""
    places = 0
    for name, module in list(sys.modules.items()):
        if name == "cubecat" or name.startswith("cubecat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, mutant)
                    places += 1
    return places


@pytest.mark.parametrize("case", list(MUTANTS))
def test_each_face_law_helper_mutant_fails_its_law(monkeypatch, case):
    law_id, original, mutant, least = MUTANTS[case]
    law = REGISTRY[law_id]
    assert run_law(nerve(bundled_category("poset22"), 2), law, **OPTIONS).passed
    assert patch_everywhere(monkeypatch, original, mutant) >= least
    report = run_law(nerve(bundled_category("poset22"), 2), law, **OPTIONS)
    assert not report.passed, f"the {mutant.__name__} mutant survives {law_id}"
    # a counterexample is a wrong value or a refused call, on a named binding
    assert report.counterexample.get("equation") or report.counterexample.get("error")
    assert report.counterexample["binding"]
