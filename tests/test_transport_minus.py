"""Fix the mirrored transport orientation by elimination over the models.

The positive transport expansion is given; its negative counterpart is
pinned down here by trying every plausible 2x2 arrangement over all
bundled categories and keeping the single candidate that always composes
and always agrees.  The surviving form is the registry law TRANSPORT-MINUS.
"""

from cubecat import MINUS
from cubecat.errors import NotComposable
from conftest import element_pairs, nerve_of

# candidate cell layouts for the expansion of G-_i(a o_i b), as functions
# of (system, a, b, i); rows listed top first, composed h=i+1 then v=i
CANDIDATES = {
    "mirror-of-plus": lambda s, a, b, i: [
        [s.connection(a, i, MINUS), s.degeneracy(a, i)],
        [s.degeneracy(a, i + 1), s.connection(b, i, MINUS)],
    ],
    "b-padded": lambda s, a, b, i: [
        [s.connection(a, i, MINUS), s.degeneracy(b, i)],
        [s.degeneracy(b, i + 1), s.connection(b, i, MINUS)],
    ],
    "swapped": lambda s, a, b, i: [
        [s.connection(b, i, MINUS), s.degeneracy(a, i)],
        [s.degeneracy(a, i + 1), s.connection(a, i, MINUS)],
    ],
    "a-padded-swapped": lambda s, a, b, i: [
        [s.connection(b, i, MINUS), s.degeneracy(a, i)],
        [s.degeneracy(a, i + 1), s.connection(b, i, MINUS)],
    ],
}

VALIDATED = "b-padded"


def candidate_holds(system, layout, max_dim=2) -> bool:
    for n in range(1, max_dim + 1):
        elements = system.cubes(n)
        for i in range(1, n + 1):
            for a, b in element_pairs(system, elements, i):
                cells = layout(system, a, b, i)
                try:
                    top = system.compose(cells[0][0], cells[0][1], i + 1)
                    bottom = system.compose(cells[1][0], cells[1][1], i + 1)
                    got = system.compose(top, bottom, i)
                except NotComposable:
                    return False
                if got != system.connection(system.compose(a, b, i), i, MINUS):
                    return False
    return True


def test_exactly_one_orientation_validates_everywhere():
    survivors = set(CANDIDATES)
    for name in ("terminal", "poset22", "free_square", "parallel_pair"):
        system = nerve_of(name, 2)
        survivors &= {
            key for key, layout in CANDIDATES.items()
            if candidate_holds(system, layout)
        }
    assert survivors == {VALIDATED}


def test_validated_form_matches_registry_law():
    # the registry law must encode the surviving candidate verbatim
    from cubecat.core import REGISTRY, run_law

    for name in ("poset22", "free_square", "parallel_pair"):
        system = nerve_of(name, 2)
        report = run_law(
            system, REGISTRY["TRANSPORT-MINUS"], max_dim=2, exhaustive_dim=2
        )
        assert report.passed and report.instances > 0
