"""Shells, their formal operations, the extension system, and commutativity."""

import gc
import itertools
import math
import random
import re
import weakref

import pytest

from cubecat import (
    MINUS,
    PLUS,
    big_psi,
    boundary,
    bundled_category,
    enumerate_shells,
    is_commutative,
    is_thin,
    make_shell,
    nerve,
    psi,
    run_axiom_suite,
    run_suite,
    shell_system,
    shell_tower,
    theta_from_connections,
)
from cubecat import shells
from cubecat.core import composable_pairs, incidences, slot, slots
from cubecat.shells import Shell, check_incidence
from cubecat.errors import BoundaryMismatch, DimensionTooLarge, IndexOutOfRange, NotComposable
from conftest import edge_cube, nerve_of, tower_of


def square_shell(system, bottom, top, left, right):
    return make_shell(system, 2, {
        (1, MINUS): edge_cube(system, bottom),
        (1, PLUS): edge_cube(system, top),
        (2, MINUS): edge_cube(system, left),
        (2, PLUS): edge_cube(system, right),
    })


def test_boundary_of_degeneracy_is_formal_degeneracy(poset_nerve):
    ext = shell_system(poset_nerve, 2)
    for x in poset_nerve.cubes(1):
        for j in (1, 2):
            assert boundary(poset_nerve, poset_nerve.degeneracy(x, j)) == ext.degeneracy(x, j)


def test_boundary_of_connection_is_formal_connection(poset_nerve):
    ext = shell_system(poset_nerve, 2)
    for x in poset_nerve.cubes(1):
        for sign in (MINUS, PLUS):
            assert boundary(poset_nerve, poset_nerve.connection(x, 1, sign)) == \
                ext.connection(x, 1, sign)


def test_boundary_commutes_with_composition(poset_nerve):
    ext = shell_system(poset_nerve, 2)
    squares = poset_nerve.cubes(2)
    found = 0
    for x, y in itertools.product(squares, repeat=2):
        for i in (1, 2):
            if poset_nerve.face(x, i, PLUS) != poset_nerve.face(y, i, MINUS):
                continue
            lhs = ext.compose(boundary(poset_nerve, x), boundary(poset_nerve, y), i)
            assert lhs == boundary(poset_nerve, poset_nerve.compose(x, y, i))
            found += 1
            if found > 200:
                return
    assert found


def test_boundary_commutes_with_folding(square_nerve):
    squares = shell_system(square_nerve, 2)
    for x in square_nerve.cubes(2):
        assert psi(squares, boundary(square_nerve, x), 1) == \
            boundary(square_nerve, psi(square_nerve, x, 1))
    cubes = shell_system(square_nerve, 3)
    for x in square_nerve.cubes(3)[:40]:
        formal = big_psi(cubes, boundary(square_nerve, x))
        result = big_psi(square_nerve, x)
        assert formal.folded == boundary(square_nerve, result.folded)
        assert formal.n_face == result.n_face
        assert formal.p_face == result.p_face


def test_incidence_validation():
    system = nerve_of("free_square", 2)
    with pytest.raises(BoundaryMismatch):
        make_shell(system, 2, {
            (1, MINUS): edge_cube(system, "f"),
            (1, PLUS): edge_cube(system, "g"),
            (2, MINUS): edge_cube(system, "h"),
            (2, PLUS): edge_cube(system, "k"),
        })
    with pytest.raises(BoundaryMismatch):
        make_shell(system, 2, {(1, MINUS): edge_cube(system, "f")})
    # faces outside the shell are refused, not dropped
    square = system.cubes(2)[0]
    faces = {(i, sign): system.face(square, i, sign) for i in (1, 2) for sign in (MINUS, PLUS)}
    assert make_shell(system, 2, faces) == boundary(system, square)
    for extra in ((3, MINUS), (1, "x")):
        with pytest.raises(BoundaryMismatch, match=re.escape(repr([extra]))):
            make_shell(system, 2, {**faces, extra: system.face(square, 1, MINUS)})


def test_poset_shells_all_commutative(poset_nerve):
    shells = list(enumerate_shells(poset_nerve, 2))
    assert len(shells) == 36
    assert all(is_commutative(poset_nerve, s) for s in shells)


def test_free_square_shell_count_matches_quadruple_oracle(square_nerve):
    cat = square_nerve.cat
    count = 0
    for e1, e2, e3, e4 in itertools.product(cat.morphisms, repeat=4):
        if cat.src(e3) != cat.src(e1) or cat.src(e4) != cat.tgt(e1):
            continue
        if cat.tgt(e3) != cat.src(e2) or cat.tgt(e4) != cat.tgt(e2):
            continue
        count += 1  # no commutativity requirement for a bare shell
    shells = list(enumerate_shells(square_nerve, 2))
    assert count == len(shells) == 56


def test_noncommuting_square_detected(square_nerve):
    s = square_shell(square_nerve, "f", "k", "h", "g")
    assert not is_commutative(square_nerve, s)
    folded = big_psi(shell_system(square_nerve, 2), s)
    assert folded.n_face.edges[0] == "g∘f"
    assert folded.p_face.edges[0] == "k∘h"


def test_parallel_pair_noncommuting_shell(parallel_nerve):
    s = square_shell(parallel_nerve, "a", "b", "id:A", "id:B")
    assert not is_commutative(parallel_nerve, s)


def test_degenerate_and_connection_shells_commute(square_nerve):
    ext = shell_system(square_nerve, 2)
    for c in square_nerve.cubes(1):
        for j in (1, 2):
            assert is_commutative(square_nerve, ext.degeneracy(c, j))
        for sign in (MINUS, PLUS):
            assert is_commutative(square_nerve, ext.connection(c, 1, sign))


def test_commutative_composed_with_noncommutative(square_nerve):
    ext = shell_system(square_nerve, 2)
    bad = square_shell(square_nerve, "f", "k", "h", "g")
    pad = ext.degeneracy(bad.face(1, MINUS), 1)
    assert is_commutative(square_nerve, pad)
    combined = ext.compose(pad, bad, 1)
    assert not is_commutative(square_nerve, combined)


def test_shell_compose_requires_matching_faces(square_nerve):
    ext = shell_system(square_nerve, 2)
    s = ext.degeneracy(edge_cube(square_nerve, "f"), 1)
    t = ext.degeneracy(edge_cube(square_nerve, "k"), 1)
    with pytest.raises(NotComposable, match="shell_compose"):
        ext.compose(s, t, 1)


def test_shell_operations_check_their_directions(square_nerve):
    ext = shell_system(square_nerve, 2)
    f = edge_cube(square_nerve, "f")
    s = ext.degeneracy(f, 1)
    with pytest.raises(IndexOutOfRange, match="^degeneracy: direction 3 invalid at dimension 1"):
        ext.degeneracy(f, 3)
    with pytest.raises(IndexOutOfRange, match="^connection: direction 2 invalid at dimension 1"):
        ext.connection(f, 2, PLUS)
    with pytest.raises(IndexOutOfRange, match="^compose: direction 3 invalid at dimension 2"):
        ext.compose(s, s, 3)
    with pytest.raises(IndexOutOfRange, match="^connection: direction 1 invalid at dimension 0"):
        shell_system(square_nerve, 1).connection(square_nerve.cubes(0)[0], 1, PLUS)


def test_shell_faces_refuse_a_bad_sign():
    tower = shell_tower(nerve(bundled_category("poset22"), 1))
    s = tower.cubes(2)[0]
    assert s.face(1, PLUS) == tower.face(s, 1, PLUS)
    with pytest.raises(ValueError, match="sign must be"):
        s.face(1, "bogus")
    with pytest.raises(ValueError, match="sign must be"):
        boundary(tower, s).face(2, None)


def test_commutative_iff_thin_in_extension(square_nerve):
    ext = shell_system(square_nerve, 2)
    for s in ext.cubes(2):
        assert is_commutative(square_nerve, s) == is_thin(ext, s)


def test_extension_passes_axioms_at_top():
    ext = tower_of("parallel_pair", 2)
    reports = run_axiom_suite(ext, max_dim=2, exhaustive_dim=2)
    assert [r.law_id for r in reports if not r.passed] == []


def test_extension_rejects_operations_above_top():
    ext = tower_of("poset22", 2)
    top_element = ext.cubes(2)[0]
    with pytest.raises(DimensionTooLarge):
        ext.degeneracy(top_element, 1)
    with pytest.raises(DimensionTooLarge):
        ext.connection(top_element, 1, PLUS)


def test_extension_of_extension_is_itself():
    ext = tower_of("poset22", 3)
    assert shell_system(ext, 3) is ext


def test_a_system_that_reads_nothing_of_a_shell_shares_its_base_extension():
    tower = tower_of("poset22", 3)
    assert shell_system(tower, 2) is tower.base
    assert shell_system(tower, 1) is shell_system(tower.base.base, 1)
    base = nerve_of("poset22", 3)
    theta = theta_from_connections(base, 3)
    assert shell_system(theta, 3) is shell_system(base, 3)
    # a thin structure owns its connections one below its top, which a 4-shell reads
    assert shell_system(theta, 4).base is theta


def test_shell_serialization_round_trip():
    ext = tower_of("free_square", 2)
    for s in ext.cubes(2)[:8]:
        assert ext.parse(ext.describe(s)) == s
    deep = tower_of("free_square", 3)
    for n in (2, 3):
        for s in deep.cubes(n):
            assert deep.parse(deep.describe(s)) == s
    assert list(deep.describe(s)["faces"]) == ["1-", "1+", "2-", "2+", "3-", "3+"]


def test_tower_elements_are_their_own_boundaries():
    ext = tower_of("free_square", 2)
    for s in ext.cubes(2)[:10]:
        assert boundary(ext, s) == s


def test_connection_shell_on_identity_loop_is_degenerate():
    system = nerve_of("terminal", 2)
    loop = system.cubes(1)[0]
    point = system.cubes(0)[0]
    shell = shell_system(system, 2).connection(loop, 1, MINUS)
    assert all(f == system.degeneracy(point, 1) for f in shell.faces)


def test_commutativity_matches_path_oracle(square_nerve, parallel_nerve):
    # a 2-shell commutes exactly when its two edge paths compose equally
    for system in (square_nerve, parallel_nerve):
        cat = system.cat
        for s in enumerate_shells(system, 2):
            one = cat.compose(s.face(2, PLUS).edges[0], s.face(1, MINUS).edges[0])
            two = cat.compose(s.face(1, PLUS).edges[0], s.face(2, MINUS).edges[0])
            assert is_commutative(system, s) == (one == two)


def test_nerve_cubes_determined_by_boundary(square_nerve):
    # from dimension 2 up, every lattice edge lies inside a facet, so the
    # shell pins the cube down; at dimension 1 parallel morphisms share
    # their endpoint boundary
    for n in (2, 3):
        seen = {}
        for x in square_nerve.cubes(n):
            b = boundary(square_nerve, x)
            assert b not in seen, "two cubes share a boundary"
            seen[b] = x
    parallel = {}
    for x in square_nerve.cubes(1):
        parallel.setdefault(boundary(square_nerve, x), []).append(x)
    assert any(len(group) > 1 for group in parallel.values())


def test_big_fold_of_degenerate_shell(poset_nerve):
    ext = shell_system(poset_nerve, 2)
    for u in poset_nerve.cubes(1)[:6]:
        s = ext.degeneracy(u, 1)
        folded = big_psi(ext, s)
        assert folded.folded == s
        assert folded.n_face == u and folded.p_face == u


def test_shell_tower_helper_matches_manual_build():
    from cubecat import ShellExtension, shell_tower

    cat = bundled_category("free_square")
    root = nerve(cat, 1)
    tower = shell_tower(root, height=2)
    manual = ShellExtension(ShellExtension(nerve(cat, 1), 2), 3)
    for n in range(4):
        assert tower.cubes(n) == manual.cubes(n)
    assert tower.op_ceiling == 3
    # a tower stands on any root, a tower included: its levels are shared
    assert shell_tower(shell_tower(root)) is tower


def test_shell_system_does_not_keep_its_base_alive():
    system = nerve(bundled_category("poset22"), 2)
    s = boundary(system, system.cubes(2)[0])
    psi(shell_system(system, 2), s, 1)
    ref = weakref.ref(system)
    del system, s
    gc.collect()
    assert ref() is None


def _two_towers():
    """Two towers over poset22 whose id spaces number the same elements differently."""
    cat = bundled_category("poset22")
    one, two = shell_tower(nerve(cat, 1), 2), shell_tower(nerve(cat, 1), 2)
    # a degenerate edge and a degenerate 2-shell take early ids
    for system, n in ((two.base.base, 0), (two.base, 1)):
        system.degeneracy(system.cubes(n)[-1], 1)
    return one, two


def test_equal_shells_of_two_towers_are_equal_keys():
    one, two = _two_towers()
    for n in (2, 3):
        ours, theirs = one.cubes(n), two.cubes(n)
        assert all(s.space is not t.space for s, t in zip(ours, theirs))
        assert [s.ids for s in ours] != [t.ids for t in theirs]
        assert ours == theirs
        assert [hash(s) for s in ours] == [hash(t) for t in theirs]
        position = {s: k for k, s in enumerate(ours)}
        assert [position[t] for t in theirs] == list(range(len(ours)))


def test_a_shell_of_another_id_space_is_stored_as_a_native_one():
    cat = bundled_category("free_square")
    tower, other = shell_tower(nerve(cat, 1)), nerve(cat, 2)
    other.degeneracy(other.cubes(0)[0], 1)  # other numbers its elements differently
    foreign = boundary(other, other.cubes(2)[-1])
    is_thin(tower, foreign)  # interns the foreign shell before any native twin
    stored = tower.id_view.canonical(foreign)
    assert stored == foreign and stored.space is tower.id_view.elements
    assert stored.faces == foreign.faces
    assert run_suite(tower, "prop-2.1", max_dim=2, exhaustive_dim=2).passed


def test_a_shell_of_another_tower_is_used_as_a_native_one():
    one, two = _two_towers()
    for n, system in ((2, one.base.base), (3, one.base)):
        ext = shell_system(system, n)
        twin = {t: t for t in two.cubes(n)}  # this tower's shell -> the other's
        for i in range(1, n + 1):
            pairs = itertools.islice(composable_pairs(one, one.cubes(n), i), 40)
            for s, t in pairs:
                native = ext.compose(s, t, i)
                assert native.space is s.space
                for left, right in ((twin[s], twin[t]), (s, twin[t]), (twin[s], t)):
                    assert ext.compose(left, right, i) is native
                check_incidence(system, twin[s])
    # the other tower's shells that break incidence are refused as native ones are
    def swapped(tower, s):  # the shell with its two direction-1 faces exchanged
        (first, second), rest = s.ids[:2], s.ids[2:]
        return Shell(tower.id_view, 3, (second, first) + rest)

    def refused(system, shell) -> bool:
        try:
            check_incidence(system, shell)
        except BoundaryMismatch:
            return True
        return False

    twin = {t: t for t in two.cubes(3)}
    verdicts = [refused(one.base, swapped(one, s)) for s in one.cubes(3)]
    assert any(verdicts) and not all(verdicts)
    assert [refused(one.base, swapped(two, twin[s])) for s in one.cubes(3)] == verdicts


def test_recorded_hashes_are_the_elements_hashes():
    tower = shell_tower(nerve(bundled_category("parallel_pair"), 1), 2)
    reports = run_axiom_suite(tower, max_dim=3, exhaustive_dim=2, samples=20,
                              law_ids=["COMP-FACE", "GAMMA-FACE", "EPS-COMP"])
    assert all(r.passed for r in reports)
    view = tower.id_view
    assert 3 in view.dims
    assert len(view.hashes) == len(view.elements)
    assert all(h == hash(x) for h, x in zip(view.hashes, view.elements))


# ---------------------------------------------------------------------------
# the seeded top-shell search against the recursive search it replaced


def reference_shells(ext, rng=None, pins=None):
    """The recursive top-shell search with ``rng.shuffle``, as it was before
    the flat loop: the stream the flat loop must reproduce draw for draw."""
    view, n = ext.base.id_view, ext.top
    face, keys = view.face, slots(n)
    by_profile = [view.index(n - 1, slots(d)) for d in range(n)]
    # face q of the face placed at slot p is face r of the face placed at slot q
    needs, meet = [[] for _ in keys], {}
    for p, q, r in incidences(n):
        needs[slot(*p)].append((slot(*q), *r))
        meet[p, q] = r
    chosen = []
    budget = shells.NODE_BUDGET if rng is not None else math.inf
    pin_checks = [
        [(*meet[pinned, key], face(pv, *key)) for pinned, pv in pins.items()
         if (pinned, key) in meet]
        for key in keys
    ] if pins else None

    def place(at):
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
            if rng is not None and len(cands) > 1:
                cands = list(cands)
                rng.shuffle(cands)
        for c in cands:
            chosen.append(c)
            yield from place(at + 1)
            chosen.pop()

    return place(0)


def draw_both(ext, rngs, pins=None):
    """One draw by the flat loop and by the reference, from twin generators;
    asserts that they agree on the shell and on the generator's state."""
    new_rng, old_rng = rngs
    new = next(ext._shells(new_rng, pins), None)
    old = next(reference_shells(ext, old_rng, pins), None)
    assert (new and new.ids) == (old and old.ids)
    assert new_rng.getstate() == old_rng.getstate()
    return new


def draw_round(ext, rngs, i, j) -> list:
    """A pair drawn the way ``sample_pair`` draws it, then the rest of a grid
    the way ``sample_grid`` does, up to the first failed draw: the draws made."""
    def upper(s, d):
        return s.ids[slot(d, PLUS)]

    x = draw_both(ext, rngs)
    if x is None:
        return [x]
    y = draw_both(ext, rngs, {(i, MINUS): upper(x, i)})
    if y is None:
        return [x, y]
    z = draw_both(ext, rngs, {(j, MINUS): upper(x, j)})
    if z is None:
        return [x, y, z]
    return [x, y, z, draw_both(ext, rngs, {(i, MINUS): upper(z, i), (j, MINUS): upper(y, j)})]


def twin_rngs(seed):
    return random.Random(repr(seed)), random.Random(repr(seed))


def searched(model: str, name: str, top: int):
    """The extension whose top shells are drawn: a tower's top, or the
    top-``top`` shells over a nerve, whose rows are nerve cubes' faces."""
    if model == "tower":
        return tower_of(name, top)
    return shell_system(nerve_of(name, top), top)


SEARCHED = [("tower", "parallel_pair", 3), ("tower", "poset22", 3), ("tower", "parallel_pair", 4),
            ("nerve", "poset22", 3), ("nerve", "parallel_pair", 4)]


@pytest.mark.parametrize("model, name, top", SEARCHED, ids=[
    f"{name}-{top}" if model == "tower" else f"{model}-{name}-{top}" for model, name, top in SEARCHED])
def test_top_shell_draws_match_the_recursive_search(model, name, top):
    ext = searched(model, name, top)
    rngs, picks = twin_rngs(("draws", name, top)), random.Random(top)
    draws = grids = 0
    while draws < 300:
        drawn = draw_round(ext, rngs, *picks.sample(range(1, top + 1), 2))
        draws += len(drawn)
        grids += len(drawn) == 4 and drawn[-1] is not None
    assert grids
    # two pins that mostly disagree with each other: no shell has both
    pool = ext.base.id_view.pool(top - 1)
    drawn = [draw_both(ext, rngs, {(1, MINUS): picks.choice(pool), (2, MINUS): picks.choice(pool)})
             for _ in range(50)]
    assert 0 < drawn.count(None) < len(drawn)


def test_enumerated_shells_keep_the_recursive_order():
    ext = tower_of("free_square", 3)
    listed = [s.ids for s in enumerate_shells(ext.base, 3)]
    assert listed == [s.ids for s in reference_shells(ext)]
    assert listed == [s.ids for s in ext._shells()]
    for name, top in (("poset22", 3), ("parallel_pair", 4)):
        ext = searched("nerve", name, top)
        listed = [s.ids for s in ext.cubes(top)]
        assert listed == [s.ids for s in reference_shells(ext)]


@pytest.mark.parametrize("model", ["tower", "nerve"])
def test_draws_read_rows_not_faces(monkeypatch, model):
    ext, top = searched(model, "poset22", 3), 3
    view, rng, picks = ext.base.id_view, random.Random(repr(("rows", model))), random.Random(top)
    assert ext.random_top_shell(rng) is not None  # builds the indexes the search reads
    face, calls = view.face, []

    def counted(*args):
        calls.append(args)
        return face(*args)

    monkeypatch.setattr(view, "face", counted)
    pinned = 0
    for _ in range(100):
        x = ext.random_top_shell(rng)
        i, j = picks.sample(range(1, top + 1), 2)
        pins = {(i, MINUS): x.ids[slot(i, PLUS)], (j, PLUS): x.ids[slot(j, MINUS)]}
        pinned += ext.random_top_shell(rng, pins) is not None
    assert calls == []
    assert pinned


def test_a_pin_outside_the_base_pool_allows_no_shell():
    ext = tower_of("poset22", 3)
    view, rng = ext.base.id_view, random.Random(0)
    vertex, unknown = view.pool(0)[0], len(view.elements)
    for key in ((1, MINUS), (2, PLUS), (3, MINUS)):
        for pv in (vertex, unknown):
            assert ext.random_top_shell(rng, {key: pv}) is None


@pytest.mark.parametrize("budget", [1, 3, 7])
def test_node_budget_ends_draws_as_the_recursive_search_does(monkeypatch, budget):
    monkeypatch.setattr(shells, "NODE_BUDGET", budget)
    ext = tower_of("parallel_pair", 3)
    rngs, picks = twin_rngs(("budget", budget)), random.Random(budget)
    drawn = [s for _ in range(100) for s in draw_round(ext, rngs, *picks.sample((1, 2, 3), 2))]
    misses = drawn.count(None)
    # a shell takes one node per face and one for itself
    assert misses == len(drawn) if budget <= len(slots(3)) else 0 < misses < len(drawn)


def test_no_budget_draws_no_number(monkeypatch):
    monkeypatch.setattr(shells, "NODE_BUDGET", 0)
    ext = tower_of("parallel_pair", 3)
    rng = random.Random(0)
    state = rng.getstate()
    assert ext.random_top_shell(rng) is None
    assert rng.getstate() == state


@pytest.mark.parametrize("seed", [0, 1, 17, "shells", 2**70])
def test_written_out_shuffle_is_random_shuffle(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for length in [*range(81), 400, 1000]:
        mine, expected = list(range(length)), list(range(length))
        shells.shuffle(mine, ours.getrandbits)
        theirs.shuffle(expected)
        assert mine == expected
        assert ours.getstate() == theirs.getstate()
