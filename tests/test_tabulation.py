"""The id tables answer only what was validated, and store each result once.

Every system here has its tables warmed by exhaustive INTERCHANGE and
GAMMA-FACE runs first, so a lookup that skipped validation on a hit would
let the invalid calls below through.  Each pool is stored once too, by the
view of the system that enumerates it.
"""

import hashlib
import json
import random

import pytest

from cubecat import (
    MINUS,
    PLUS,
    NerveSystem,
    ShellExtension,
    big_psi,
    bundled_category,
    folding,
    nerve,
    psi,
    run_axiom_suite,
    shell_tower,
    theta_from_connections,
)
from cubecat.core import REGISTRY, run_law, slots
from cubecat.shells import boundary, enumerate_shells, make_shell, shell_system
from cubecat.errors import (
    DimensionTooLarge, IndexOutOfRange, NotComposable, PostconditionViolated,
)
from cubecat.fillers import ThinStructure
from cubecat.suites import run_suite
from conftest import Spy, element_pairs, nerve_of, tower_of


def warmed(system):
    for report in run_axiom_suite(system, max_dim=3, law_ids=["INTERCHANGE", "GAMMA-FACE"]):
        assert report.passed and report.instances > 0
    return system


def own(view, op: str) -> int:
    """Entries the view stores for one operation; 0 for one it reads whole from its base."""
    table = view.tables[op]
    if table.view is not view:
        return 0
    return len(table) if op == "compose" else sum(map(len, table.values()))


def stored(system) -> int:
    """Entries in the system's own tables."""
    return sum(own(system.id_view, op) for op in system.id_view.tables)


def composable_pairs_first(system, n: int):
    return next(iter(element_pairs(system, system.cubes(n), 1))) + (1,)


def uncomposable_pair(system, n: int):
    for x in system.cubes(n):
        for y in system.cubes(n):
            if system.face(x, 1, PLUS) != system.face(y, 1, MINUS):
                return x, y
    raise AssertionError("every pair composes")


def footprint(system) -> tuple:
    """The size of the shared id space and of every table of the system and its bases, columns by key too."""
    sizes = [len(system.id_view.ids)]
    while system is not None:
        view = system.id_view
        sizes.append(stored(system))
        sizes.append({(op, key) for op, table in view.tables.items()
                      if op != "compose" and table.view is view for key in table})
        system = system.base
    return tuple(sizes)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: nerve(bundled_category("poset22"), 3), id="nerve"),
    pytest.param(lambda: shell_tower(nerve(bundled_category("poset22"), 1), 2), id="tower"),
    pytest.param(lambda: theta_from_connections(nerve(bundled_category("poset22"), 3), 3),
                 id="theta"),
])
def test_invalid_calls_raise_on_warm_tables(make):
    system = make()
    view, top = system.id_view, system.op_ceiling  # the tower and theta build nothing above 3
    for warm in (False, True):
        if warm:
            warmed(system)
        for n in (1, 2, 3):
            x, y = uncomposable_pair(system, n)
            system.compose(*composable_pairs_first(system, n))  # a valid call is stored
            k, before = view.id(x), footprint(system)
            with pytest.raises(NotComposable):
                system.compose(x, y, 1)
            with pytest.raises(NotComposable):
                view.composites[k, view.id(y), 1]
            with pytest.raises(IndexOutOfRange):
                system.face(x, n + 1, MINUS)
            with pytest.raises(IndexOutOfRange):
                system.face(x, 0, PLUS)
            with pytest.raises(IndexOutOfRange):
                view.faces[n + 1, PLUS][k]
            with pytest.raises(ValueError):
                system.face(x, 1, "bogus")
            with pytest.raises(ValueError):
                view.faces[n, "bogus"][k]
            if n == top:
                for lift in (lambda: system.degeneracy(x, 1), lambda: view.degeneracies[n + 1, None][k],
                             lambda: system.connection(x, 1, PLUS), lambda: view.connections[n, MINUS][k]):
                    with pytest.raises(DimensionTooLarge):
                        lift()
            else:
                with pytest.raises(IndexOutOfRange):
                    system.connection(x, n + 1, PLUS)
                with pytest.raises(IndexOutOfRange):
                    view.connections[0, MINUS][k]
                with pytest.raises(IndexOutOfRange):
                    system.degeneracy(x, n + 2)
                with pytest.raises(IndexOutOfRange):
                    view.degeneracies[0, None][k]
                with pytest.raises(ValueError):
                    system.connection(x, 1, "bogus")
                with pytest.raises(ValueError):
                    view.connections[n, None][k]
            assert footprint(system) == before, "a refused call left an entry behind"


def test_extension_refuses_top_dimension_base_cubes_on_warm_tables():
    base = nerve(bundled_category("poset22"), 1)
    ext = warmed(ShellExtension(base, 2))
    edge = base.cubes(1)[4]
    square = base.degeneracy(edge, 1)  # a dimension-2 cube of the base, not a shell
    assert ext.dim(square) == 2
    with pytest.raises(DimensionTooLarge):
        ext.compose(square, square, 2)
    view = ext.id_view
    with pytest.raises(DimensionTooLarge):
        view.composites[view.id(square), view.id(square), 2]
    # the extension's own top-dimension composites still work
    s, t, i = composable_pairs_first(ext, 2)
    assert ext.dim(ext.compose(s, t, i)) == 2


def test_connection_override_sees_its_gamma_not_the_cached_connection():
    base = warmed(nerve(bundled_category("poset22"), 2))
    flipped = {PLUS: MINUS, MINUS: PLUS}
    shells = shell_system(base, 2)
    fill = {shells.connection(a, 1, sign): base.connection(a, 1, flipped[sign])
            for a in base.cubes(1) for sign in (MINUS, PLUS)}

    override = ThinStructure(base, 2, fill.__getitem__)
    view = override.id_view
    differ = 0
    for a in base.cubes(1):
        differ += base.connection(a, 1, PLUS) != base.connection(a, 1, MINUS)
        assert override.connection(a, 1, PLUS) == base.connection(a, 1, MINUS)
        got = view.connections[1, MINUS][view.id(a)]
        assert view.elements[got] == base.connection(a, 1, PLUS)
    assert differ, "the flipped gamma must be told apart from the base's connection"
    # the other operations are the base's, answered from its tables, below the ceiling
    for a in base.cubes(1):
        assert override.degeneracy(a, 2) is base.degeneracy(a, 2)
    for x in base.cubes(2):
        assert override.face(x, 1, MINUS) is base.face(x, 1, MINUS)
        with pytest.raises(DimensionTooLarge):
            override.degeneracy(x, 3)
    assert stored(override) == len(base.cubes(1)) * 2


def test_a_tower_stores_a_delegated_result_once():
    tower = tower_of("poset22", 3)
    inner, root = tower.base, tower.base.base
    view = tower.id_view
    x, y, i = composable_pairs_first(tower, 1)
    k = view.id(x)
    # (owner, where a view keeps the result, the key, the result asked of the tower);
    # a 1-cube's faces and composites are the root's, its lifts the inner extension's
    cases = [
        (root, lambda v: v.composites, (k, view.id(y), i), tower.compose(x, y, i)),
        (root, lambda v: v.faces[1, PLUS], k, tower.face(x, 1, PLUS)),
        (inner, lambda v: v.degeneracies[2, None], k, tower.degeneracy(x, 2)),
        (inner, lambda v: v.connections[1, MINUS], k, tower.connection(x, 1, MINUS)),
    ]
    for owner, table, key, result in cases:
        for system in (tower, inner, root):
            got = table(system.id_view)
            if system is owner:
                assert got.get(key) == view.id(result)
            else:
                assert key not in got


def test_a_warm_interchange_run_composes_nothing(monkeypatch):
    # each composite is computed once, by the owner's plain definition, and stored there
    calls = []
    for cls in (NerveSystem, ShellExtension):
        plain = cls._compose

        def counted(self, x, y, i, plain=plain):
            calls.append((x, y, i))
            return plain(self, x, y, i)

        monkeypatch.setattr(cls, "_compose", counted)
    tower = shell_tower(nerve(bundled_category("poset22"), 1), 2)  # its tables see the patch
    law, options = REGISTRY["INTERCHANGE"], dict(max_dim=3, exhaustive_dim=3)
    first = run_law(tower, law, **options)
    assert first.passed and first.instances == 184_550
    # own table sizes, top down: composites, then faces (read by the grid enumerator)
    systems = (tower, tower.base, tower.base.base)
    sizes = {op: [own(s.id_view, op) for s in systems] for op in ("compose", "face")}
    assert sizes == {"compose": [7_500, 200, 16], "face": [2_400, 144, 18]}
    assert len(tower.id_view.ids) == 449
    assert len(calls) == sum(sizes["compose"])
    again = run_law(tower, law, **options)
    assert again == first
    assert len(calls) == sum(sizes["compose"]), "a warm run composed again"
    assert [own(s.id_view, "compose") for s in systems] == sizes["compose"]


def test_nothing_is_tabulated_at_set_up():
    system = nerve(bundled_category("free_square"), 3)
    tower = ShellExtension(ShellExtension(nerve(bundled_category("poset22"), 1), 2), 3)
    for s in (system, tower, tower.base, tower.base.base):
        assert stored(s) == 0
        assert not s.id_view.elements
        assert not (s.id_view.psis or s.id_view.folds or s.id_view.boundaries)


def test_a_shell_is_its_own_boundary():
    tower = tower_of("poset22", 3)
    for n in (2, 3):
        for s in tower.cubes(n)[:50]:
            faces = {(i, sign): tower.face(s, i, sign) for i in range(1, n + 1) for sign in (MINUS, PLUS)}
            assert boundary(tower, s) == make_shell(tower, n, faces)


def test_a_tower_samples_its_top_the_same_whether_or_not_it_was_listed():
    def draws(tower):
        top = tower.top
        rng = random.Random(7)
        out = []
        for _ in range(15):
            out.append(tower.sample_element(top, rng))
            out.append(tower.sample_pair(top, 1, rng))
            out.append(tower.sample_triple(top, 2, rng))
            out.append(tower.sample_grid(top, 1, 3, rng))
        return out

    cat = bundled_category("parallel_pair")
    fresh, listed = shell_tower(nerve(cat, 1), 2), shell_tower(nerve(cat, 1), 2)
    assert listed.cubes(3)
    got = draws(fresh)
    assert sum(d is not None for d in got) > 30
    assert got == draws(listed)


def described_draws(system, hook: str, n: int, count: int = 40) -> str:
    """sha256 of ``count`` seeded draws of one sampling hook, each draw described."""
    rng, draw = random.Random(repr((hook, n))), getattr(system, hook)
    out = []
    for _ in range(count):
        i = rng.randint(1, n)
        j = rng.choice([d for d in range(1, n + 1) if d != i])
        got = draw(n, *{"sample_element": (), "sample_grid": (i, j)}.get(hook, (i,)), rng)
        if hook == "sample_element":
            got = (got,)
        out.append(None if got is None else [system.describe(x) for x in got])
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


# taken before the pair, triple and grid samplers were written once over
# ``_draw``; each of the 40 draws of every hook here succeeds
DRAW_DIGESTS = {
    ("nerve", "sample_element", 3):
        "1c5bf325db6aab96a90cf3074d948f16b09638f05a15f3633000d9ec32762c42",
    ("nerve", "sample_pair", 3):
        "8eb16146043a022c25248344401c17f71d544d08cd92b9fe1e6d72012ace9f27",
    ("nerve", "sample_triple", 3):
        "ef758c5b61815c701bb3569328b3badac67e91c9caff4e9f3723e3c4eaa177a8",
    ("nerve", "sample_grid", 3):
        "1325337f14d2fe0eb2fd4b52a57dd4e359bca182ccfee1175d17f6b14e53ed1e",
    ("nerve", "sample_element", 4):
        "25550fc3423f81b95ac8b61104b0061b914bc628114d2ca0795208b7a462fd3e",
    ("nerve", "sample_pair", 4):
        "17c40711f6c5da3ff90205b2a016d5499b25ff455390f7b541800b3cc4203f25",
    ("nerve", "sample_triple", 4):
        "55304c8e49ab356f7a9a5c355036eae3beb220c5948b7d429ec92922bea16058",
    ("nerve", "sample_grid", 4):
        "eac14a8d9131e1dc55ad547510b74030834515e31c690a8af5e6172bfe68f7fe",
    ("tower", "sample_element", 3):
        "4e4f2e01740e893e3764a999de2b66e2cae5fd7c97e7e10ad09ce09cdfadd020",
    ("tower", "sample_pair", 3):
        "e0b60daae22f9762409fe9e9de2bee09cc90e6307219d4eee154be39b56720ab",
}


@pytest.mark.parametrize("model, hook, n", list(DRAW_DIGESTS),
                         ids=[f"{m}-{h}-{n}" for m, h, n in DRAW_DIGESTS])
def test_seeded_draws_are_pinned(model, hook, n):
    # nerve(parallel_pair) below and at its top, and the top of tower(poset22)
    system = nerve_of("parallel_pair", 4) if model == "nerve" else tower_of("poset22", 3)
    assert described_draws(system, hook, n) == DRAW_DIGESTS[model, hook, n]


def test_each_pool_is_stored_by_the_view_that_enumerates_it():
    tower = shell_tower(nerve(bundled_category("poset22"), 1), 2)
    inner, root = tower.base, tower.base.base
    owners = {0: root, 1: root, 2: inner, 3: tower}
    for k, owner in owners.items():
        assert tower.id_view.pool(k) is owner.id_view.pool(k)
        assert tower.cubes(k) is owner.id_view.cubes(k)
    for system in (root, inner, tower):
        assert set(system.id_view.pools) == {k for k, o in owners.items() if o is system}
    # so is each face index of a pool, and a system that enumerates nothing keeps none
    override = ThinStructure(tower, 3, fill=None)
    for k, owner in owners.items():
        index = owner.id_view.index(k, slots(k))
        assert tower.id_view.index(k, slots(k)) is index
        assert override.id_view.index(k, slots(k)) is index
    for system in (root, inner, tower):
        assert {n for n, _ in system.id_view.indexes} == {k for k, o in owners.items() if o is system}
    assert not (override.id_view.indexes or override.id_view.pools)


def test_an_object_that_is_not_an_element_is_not_interned():
    system = nerve(bundled_category("poset22"), 2)
    view = system.id_view
    system.cubes(2)
    with pytest.raises(AttributeError):
        system.face(("bogus",), 1, MINUS)
    assert ("bogus",) not in view.ids
    assert len(view.ids) == len(view.elements) == len(view.dims) == len(view.hashes)
    x = system.degeneracy(system.cubes(2)[-1], 1)  # interned after the refused object
    assert view.dims[view.id(x)] == 3


def test_enumerate_shells_lists_the_extension_pool_once(monkeypatch):
    calls = []
    original = ShellExtension._cubes

    def counted(self, n):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(ShellExtension, "_cubes", counted)
    base = nerve(bundled_category("poset22"), 2)
    first, second = list(enumerate_shells(base, 2)), list(enumerate_shells(base, 2))
    pool = shell_system(base, 2).cubes(2)
    assert len(pool) > 0 and calls == [2]
    for shells in (first, second):
        assert len(shells) == len(pool)
        assert all(s is t for s, t in zip(shells, pool))


def test_a_fold_belongs_to_the_view_that_made_it():
    # the override shares the base's ids and faces but not its connections,
    # so a fold the base stored must not answer for the override
    base = nerve(bundled_category("poset22"), 3)
    shells = shell_system(base, 3)
    fill = {shells.connection(a, i, sign): base.degeneracy(a, i)
            for a in base.cubes(2) for i in (1, 2) for sign in (MINUS, PLUS)}

    override = ThinStructure(base, 3, fill.__getitem__)

    def own_psi(system, x, i):
        left = system.connection(system.face(x, i + 1, MINUS), i, PLUS)
        right = system.connection(system.face(x, i + 1, PLUS), i, MINUS)
        return system.compose(system.compose(left, x, i + 1), right, i + 1)

    refused = 0
    for x in base.cubes(3):
        for i in (1, 2):
            folded = psi(base, x, i)
            try:
                expected = own_psi(override, x, i)
            except NotComposable:
                with pytest.raises(NotComposable):
                    psi(override, x, i)
                refused += 1
            else:
                assert psi(override, x, i) == expected
            assert psi(base, x, i) == folded
    assert refused, "the override's connections must change some fold"
    assert override.id_view.psis is not base.id_view.psis


def test_a_failed_fold_is_not_stored_and_a_stored_one_is_reused(monkeypatch):
    system = nerve(bundled_category("poset22"), 3)
    view = system.id_view
    x = system.cubes(3)[-1]
    with monkeypatch.context() as m:
        m.setattr(folding, "degenerate_at", lambda view, k, i: False)
        with pytest.raises(PostconditionViolated):
            big_psi(system, x)
    assert not view.folds
    first = big_psi(system, x)
    assert first.folded == system.degeneracy(first.n_face, 1)
    answers = (first, psi(system, x, 1), psi(system, x, 2), boundary(system, x))
    spies = [Spy(table.__getitem__) for table in (view.composites, view.faces)]
    monkeypatch.setattr(view, "composites", spies[0])
    monkeypatch.setattr(view, "faces", spies[1])
    again = (big_psi(system, x), psi(system, x, 1), psi(system, x, 2), boundary(system, x))
    assert again == answers
    assert again[3] is answers[3]
    assert not any(spy.calls for spy in spies), "a stored fold or boundary was computed again"


def test_a_formal_shell_is_stored_once_by_its_extension():
    system = nerve(bundled_category("poset22"), 3)
    options = dict(max_dim=2, exhaustive_dim=2, samples=0)
    first = run_suite(system, "lemma-1.3", **options)
    assert first.passed and first.instances > 0
    lifts = shell_system(system, 2)
    squares = lifts.id_view
    degeneracies = squares.tables["degeneracy"]
    for a in system.cubes(1):
        for j in (1, 2):
            k = degeneracies[j, None][squares.id(a)]
            assert lifts.degeneracy(a, j) is squares.elements[k]
    assert squares.tables["connection"] and squares.tables["compose"]
    extensions = [shell_system(system, n) for n in (1, 2, 3)]
    counts = [stored(ext) for ext in extensions]
    elements = len(system.id_view.elements)
    again = run_suite(system, "lemma-1.3", **options)
    assert again.as_dict() == first.as_dict()
    assert [stored(ext) for ext in extensions] == counts
    assert len(system.id_view.elements) == elements
