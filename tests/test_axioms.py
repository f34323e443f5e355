"""Registry laws: API contract, spot checks, and seeded properties."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from cubecat import (
    MINUS,
    PLUS,
    SIGNS,
    BrokenNerveSystem,
    bundled_category,
    check_axiom,
    core,
    nerve,
    run_axiom_suite,
    run_suite,
    shells,
)
from cubecat.core import REGISTRY, incidences, run_law, slots
from cubecat.errors import IndexOutOfRange, MalformedSample, NotComposable, UnknownLaw
from conftest import (
    CompositeSpy, Spy, composite, element_pairs, nerve_of, reference_bindings, tower_of,
)


def failing_ids(reports):
    return [r.law_id for r in reports if not r.passed]


@pytest.mark.parametrize("name", ["terminal", "poset22", "free_square", "parallel_pair"])
def test_nerve_axioms_low_dims(name):
    system = nerve_of(name, 2)
    assert failing_ids(run_axiom_suite(system, max_dim=2, exhaustive_dim=2)) == []


def test_tower_axioms_low_dims():
    system = tower_of("free_square", 2)
    assert failing_ids(run_axiom_suite(system, max_dim=2, exhaustive_dim=2)) == []


def test_double_degeneracy_exchange(poset_nerve):
    # eps_1 eps_1 = eps_2 eps_1, the smallest degeneracy exchange
    for x in poset_nerve.cubes(1):
        lhs = poset_nerve.degeneracy(poset_nerve.degeneracy(x, 1), 1)
        rhs = poset_nerve.degeneracy(poset_nerve.degeneracy(x, 1), 2)
        assert lhs == rhs


def test_connection_cancellations(poset_nerve):
    # both cancellation displays, at the bottom dimension
    for a in poset_nerve.cubes(1):
        plus = poset_nerve.connection(a, 1, PLUS)
        minus = poset_nerve.connection(a, 1, MINUS)
        assert poset_nerve.compose(plus, minus, 2) == poset_nerve.degeneracy(a, 1)
        assert poset_nerve.compose(plus, minus, 1) == poset_nerve.degeneracy(a, 2)


def test_check_axiom_transport_on_composable_pair(poset_nerve):
    pairs = list(element_pairs(poset_nerve, poset_nerve.cubes(1), 1))
    a, b = pairs[0]
    report = check_axiom(poset_nerve, "TRANSPORT", [a, b])
    assert report.passed and report.instances == 1


def test_check_axiom_unknown_law(poset_nerve):
    with pytest.raises(UnknownLaw):
        check_axiom(poset_nerve, "NO-SUCH-LAW", [poset_nerve.cubes(1)[0]])


def test_check_axiom_malformed_samples(poset_nerve):
    x = poset_nerve.cubes(1)[0]
    with pytest.raises(MalformedSample):
        check_axiom(poset_nerve, "FACE-FACE", [x, x])  # wrong arity
    with pytest.raises(MalformedSample):
        check_axiom(poset_nerve, "FACE-FACE", [x])  # below min dimension
    y = poset_nerve.cubes(0)[0]
    with pytest.raises(MalformedSample, match="mixed"):
        check_axiom(poset_nerve, "COMP-FACE", [x, y])


def test_check_axiom_rejects_uncomposable_pair(poset_nerve):
    ones = poset_nerve.cubes(1)
    x = next(c for c in ones if c.vertices == ("00", "01"))
    y = next(c for c in ones if c.vertices == ("10", "11"))
    with pytest.raises(MalformedSample, match="composable"):
        check_axiom(poset_nerve, "TRANSPORT", [x, y])


def test_broken_fixture_fails_with_recheckable_counterexample():
    broken = BrokenNerveSystem(bundled_category("poset22"), 2)
    edge = next(c for c in broken.cubes(1) if c.vertices[0] != c.vertices[1])
    report = check_axiom(broken, "EPS-FACE", [edge])
    assert not report.passed
    assert report.counterexample is not None
    # the counterexample must re-check as a failure on the same model
    again = broken.parse(report.counterexample["binding"]["x"])
    assert not check_axiom(broken, "EPS-FACE", [again]).passed
    # and the unbroken model passes the identical sample
    good = nerve_of("poset22", 2)
    assert check_axiom(good, "EPS-FACE", [good.parse(broken.describe(edge))]).passed


def test_broken_fixture_fails_suite():
    broken = BrokenNerveSystem(bundled_category("poset22"), 2)
    failing = failing_ids(run_axiom_suite(broken, max_dim=2, exhaustive_dim=2))
    assert "EPS-FACE" in failing


def test_law_reports_have_stable_shape(poset_nerve):
    reports = run_axiom_suite(poset_nerve, max_dim=1, exhaustive_dim=1)
    assert [r.law_id for r in reports] == [law.law_id for law in REGISTRY.values()]
    for r in reports:
        doc = r.as_dict()
        assert set(doc) == {"id", "instances", "passed", "counterexample"}


# seeded property checks over sampled elements


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_law_on_sampled_cubes(data):
    system = nerve_of("free_square", 3)
    n = data.draw(st.integers(min_value=1, max_value=3))
    x = data.draw(st.sampled_from(system.cubes(n)))
    i = data.draw(st.integers(min_value=1, max_value=n))
    left = system.degeneracy(system.face(x, i, MINUS), i)
    right = system.degeneracy(system.face(x, i, PLUS), i)
    assert system.compose(left, x, i) == x
    assert system.compose(x, right, i) == x


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_transport_law_on_sampled_pairs(data):
    system = nerve_of("poset22", 3)
    n = data.draw(st.integers(min_value=1, max_value=2))
    i = data.draw(st.integers(min_value=1, max_value=n))
    pairs = list(element_pairs(system, system.cubes(n), i))
    a, b = data.draw(st.sampled_from(pairs))
    lhs = system.connection(system.compose(a, b, i), i, PLUS)
    top = system.compose(system.connection(a, i, PLUS), system.degeneracy(a, i + 1), i + 1)
    bottom = system.compose(system.degeneracy(a, i), system.connection(b, i, PLUS), i + 1)
    assert lhs == system.compose(top, bottom, i)


def test_check_axiom_interchange_on_grid(square_nerve):
    view = square_nerve.id_view
    *grid, i, j = next(core._exhaustive_bindings(view, "grid", 2))
    assert (i, j) == (1, 2)
    report = check_axiom(square_nerve, "INTERCHANGE", [view.elements[k] for k in grid])
    assert report.passed and report.instances >= 1


@pytest.mark.parametrize("law_id, make, name, max_dim, bindings", [
    ("INTERCHANGE", tower_of, "poset22", 3, 184_550),
    ("INTERCHANGE", tower_of, "free_square", 3, 4_460_988),
    # a 1-cube has no direction besides the composite's, so at dimension 1
    # every GAMMA-COMP pair yields no statement; each still counts
    ("GAMMA-COMP", nerve_of, "poset22", 1, 16),
    ("GAMMA-COMP", nerve_of, "poset22", 2, 216),
], ids=["INTERCHANGE-tower-poset22", "INTERCHANGE-tower-free_square",
        "GAMMA-COMP-nerve-poset22-d1", "GAMMA-COMP-nerve-poset22-d2"])
def test_law_instance_counts_are_pinned(law_id, make, name, max_dim, bindings):
    # the exhaustive loops run on element ids; they must bind exactly what they always did
    report = run_law(make(name, 3), REGISTRY[law_id], max_dim=max_dim)
    assert report.passed and report.instances == bindings


@pytest.mark.parametrize("make, name, n, kinds", [
    (nerve_of, "poset22", 2, ("pair", "triple", "grid")),
    (tower_of, "poset22", 2, ("pair", "triple", "grid")),
    (nerve_of, "poset22", 3, ("pair",)),
    (tower_of, "poset22", 3, ("pair",)),
], ids=["nerve-poset22-d2", "tower-poset22-d2", "nerve-poset22-d3", "tower-poset22-d3"])
def test_exhaustive_bindings_come_in_the_reference_order(make, name, n, kinds):
    view = make(name, 3).id_view
    for kind in kinds:
        expected = list(reference_bindings(view, kind, n))
        assert expected and list(core._exhaustive_bindings(view, kind, n)) == expected


@pytest.mark.parametrize("k", [1, 6, 7, 100])
def test_an_error_names_the_grid_being_checked(monkeypatch, k):
    system = nerve(bundled_category("poset22"), 2)  # fresh: the patch sees every compose
    view = system.id_view
    composites = view.composites

    def fails_on_kth(key):
        if len(spy.calls) == k:
            raise NotComposable(key[2], "left", "right", "compose")
        return composite(composites, key)

    spy = CompositeSpy(fails_on_kth)
    monkeypatch.setattr(view, "composites", spy)
    report = run_law(system, REGISTRY["INTERCHANGE"], max_dim=2, exhaustive_dim=2)
    # INTERCHANGE composes six times per grid, and grids come in enumeration order
    grids = list(reference_bindings(view, "grid", 2))
    x, y, z, w, i, j = grids[(k - 1) // 6]
    assert report.counterexample["error"] == "NotComposable"
    assert report.counterexample["binding"] == {
        "x": view.describe(x), "y": view.describe(y), "z": view.describe(z),
        "w": view.describe(w), "i": i, "j": j,
    }
    assert report.instances == (k - 1) // 6 + 1


@pytest.mark.parametrize("k", [3, 6, 9, 102])
def test_a_failing_statement_names_the_grid_being_checked(monkeypatch, k):
    # a bound statement carries no binding: the runner names the one it handed out
    system = nerve(bundled_category("poset22"), 2)  # fresh: the patch sees every compose
    view = system.id_view
    composites = view.composites
    wrong = view.pool(0)[0]  # a 0-cube is never a composite of 2-cubes
    spy = CompositeSpy(lambda key: wrong if len(spy.calls) == k else composite(composites, key))
    monkeypatch.setattr(view, "composites", spy)
    report = run_law(system, REGISTRY["INTERCHANGE"], max_dim=2, exhaustive_dim=2)
    # the k-th compose, the last of one side, makes that side wrong without raising
    grids = list(reference_bindings(view, "grid", 2))
    x, y, z, w, i, j = grids[(k - 1) // 6]
    assert not report.passed and "error" not in report.counterexample
    assert report.counterexample["binding"] == {
        "x": view.describe(x), "y": view.describe(y), "z": view.describe(z),
        "w": view.describe(w), "i": i, "j": j,
    }
    assert report.counterexample["equation"] == f"interchange o{i}/o{j}"
    assert view.describe(wrong) in (report.counterexample["lhs"], report.counterexample["rhs"])
    assert report.instances == (k - 1) // 6 + 1


def test_an_error_while_drawing_a_binding_names_none(monkeypatch):
    system = nerve(bundled_category("poset22"), 2)
    law, options = REGISTRY["INTERCHANGE"], dict(max_dim=2, exhaustive_dim=2)
    assert run_law(system, law, **options).passed  # from now on every compose is a table hit
    view = system.id_view
    composites = view.composites
    faces, composed = view.faces, CompositeSpy(lambda key: composite(composites, key))

    def fails_once_grids_are_checked(key):
        # only the grid enumerator reads faces once composing has begun
        column = faces[key]

        def read(k):
            if composed.calls:
                raise IndexOutOfRange("face", key[0], view.dim(k))
            return column[k]

        return Spy(read)

    monkeypatch.setattr(view, "composites", composed)
    monkeypatch.setattr(view, "faces", Spy(fails_once_grids_are_checked))
    report = run_law(system, law, **options)
    assert report.counterexample["error"] == "IndexOutOfRange"
    assert "binding" not in report.counterexample
    assert composed.calls and len(composed.calls) == 6 * report.instances


def test_unavailable_draw_is_skipped(monkeypatch):
    # a top shell the search cannot assemble is one instance fewer, not the
    # end of the dimension's samples
    from cubecat.shells import ShellExtension

    options = dict(max_dim=3, exhaustive_dim=2, samples=10, seed=4)
    law = REGISTRY["FACE-FACE"]
    exhaustive = run_law(tower_of("poset22", 3), law, **dict(options, max_dim=2)).instances
    full = run_law(tower_of("poset22", 3), law, **options)
    assert full.passed and full.instances == exhaustive + 10
    draw = ShellExtension.random_top_shell
    misses = []

    def miss_once(self, rng, pinned=None):
        if not misses:
            misses.append(rng)
            return None
        return draw(self, rng, pinned)

    monkeypatch.setattr(ShellExtension, "random_top_shell", miss_once)
    report = run_law(tower_of("poset22", 3), law, **options)
    assert len(misses) == 1
    assert report.passed and report.instances == exhaustive + 9


def test_slot_order_and_incidences():
    assert slots(2) == ((1, MINUS), (1, PLUS), (2, MINUS), (2, PLUS))
    assert incidences(2) == tuple(
        ((2, a), (1, b), (1, a)) for a in SIGNS for b in SIGNS
    )
    # one incidence per pair of directions j < i and per choice of their two signs
    for n in range(5):
        assert len(incidences(n)) == 4 * n * (n - 1) // 2
        assert all(j < i and k == i - 1 for (i, _), (j, _), (k, _) in incidences(n))


def test_a_wrong_shared_face_formula_fails_its_law_and_lemma_1_3(monkeypatch):
    """The GAMMA-FACE law and the formal shell connection read one formula;
    the nerve builds its connections on its own, so an off-by-one in that
    formula fails both the law and Lemma 1.3 (boundaries are a morphism)."""
    assert shells.connection_face is core.connection_face
    right = core.connection_face

    def off_by_one(view, k, j, g, i, sign):
        if i < j:  # face i + 1 of k where face i belongs
            return view.connections[j - 1, g][view.faces[i + 1, sign][k]]
        return right(view, k, j, g, i, sign)

    for module in (core, shells):
        monkeypatch.setattr(module, "connection_face", off_by_one)
    system = nerve(bundled_category("poset22"), 3)  # fresh: its tables see only the mutant
    options = dict(max_dim=3, exhaustive_dim=3, samples=0)
    law = run_law(system, REGISTRY["GAMMA-FACE"], **options)
    lemma = run_suite(system, "lemma-1.3", **options)
    assert not law.passed and not lemma.passed
    # a mismatch of values, first met on a 2-cube, not an error
    assert re.fullmatch(r"d[-+]1 G[-+]2", law.counterexample["equation"])
    assert re.fullmatch(r"gamma: boundary of G[-+]2 x", lemma.counterexample["equation"])
