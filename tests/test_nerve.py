"""Nerve construction, enumeration counts, and lattice-level operations."""

import hashlib
import itertools

import pytest

from cubecat import MINUS, PLUS, bundled_category, nerve
from cubecat.models import (
    NerveCube,
    edge_bases,
    edge_labels,
    edge_slot,
    insert_bit,
    mask_to_bits,
    remove_bit,
    vertex_labels,
)
from cubecat.errors import DimensionTooLarge, IndexOutOfRange, ParseError
from conftest import edge_cube, element_pairs, nerve_of


def identity_square(system):
    """The poset square whose vertex map is the identity on coordinates."""
    for c in system.cubes(2):
        if all(c.vertex(v) == f"{v & 1}{(v >> 1) & 1}" for v in range(4)):
            return c
    raise AssertionError("identity square not found")


def test_poset_cube_counts_are_dedekind_squares():
    # monotone maps {0,1}^n -> 2x2 poset factor through two independent
    # monotone maps to the chain, so counts are squared Dedekind numbers
    system = nerve_of("poset22", 4)
    assert [len(system.cubes(n)) for n in range(5)] == [4, 9, 36, 400, 28224]


def test_dim2_count_matches_commuting_square_oracle(poset_nerve, square_nerve):
    for system in (poset_nerve, square_nerve):
        cat = system.cat
        count = 0
        for e1, e2, e3, e4 in itertools.product(cat.morphisms, repeat=4):
            # e1: bottom (dir 1 at t2=0), e2: top, e3: left (dir 2 at t1=0), e4: right
            if cat.src(e3) != cat.src(e1) or cat.src(e4) != cat.tgt(e1):
                continue
            if cat.tgt(e3) != cat.src(e2) or cat.tgt(e4) != cat.tgt(e2):
                continue
            if cat.compose(e4, e1) == cat.compose(e2, e3):
                count += 1
        assert count == len(system.cubes(2))


def test_face_of_identity_square_is_lattice_restriction(poset_nerve):
    q = identity_square(poset_nerve)
    e = poset_nerve.face(q, 1, MINUS)
    assert e.vertices == ("00", "01")
    assert e.edges == ("00->01",)
    top = poset_nerve.face(q, 1, PLUS)
    assert top.vertices == ("10", "11")


def test_degeneracy_retracts(poset_nerve):
    for x in poset_nerve.cubes(1):
        for i in (1, 2):
            for sign in (MINUS, PLUS):
                assert poset_nerve.face(poset_nerve.degeneracy(x, i), i, sign) == x


def test_connection_orientation_min_plus(poset_nerve):
    # positive connections restrict to the identity on both upper faces
    for x in poset_nerve.cubes(1):
        g = poset_nerve.connection(x, 1, PLUS)
        assert poset_nerve.face(g, 1, PLUS) == x
        assert poset_nerve.face(g, 2, PLUS) == x
        h = poset_nerve.connection(x, 1, MINUS)
        assert poset_nerve.face(h, 1, MINUS) == x
        assert poset_nerve.face(h, 2, MINUS) == x


def test_compose_identity_loop():
    # one-object free category on nothing: composing a loop's degeneracies
    system = nerve_of("terminal", 3)
    f = system.cubes(1)[0]
    e = system.degeneracy(f, 1)
    assert system.compose(e, e, 2) == system.degeneracy(system.compose(f, f, 1), 1)


def test_terminal_nerve_is_a_point():
    system = nerve_of("terminal", 4)
    assert [len(system.cubes(n)) for n in range(5)] == [1, 1, 1, 1, 1]


def test_enumeration_is_deterministic_and_duplicate_free():
    a = nerve(bundled_category("free_square"), 3)
    b = nerve(bundled_category("free_square"), 3)
    for n in range(4):
        assert a.cubes(n) == b.cubes(n)
        assert len(set(a.cubes(n))) == len(a.cubes(n))


def test_enumerate_cubes_cap(poset_nerve):
    assert len(poset_nerve.cubes(1)) == 9
    for n in (-1, poset_nerve.max_dim + 1):
        with pytest.raises(DimensionTooLarge):
            poset_nerve.cubes(n)


def test_face_errors(poset_nerve):
    point = poset_nerve.cubes(0)[0]
    with pytest.raises(IndexOutOfRange):
        poset_nerve.face(point, 1, MINUS)
    edge = poset_nerve.cubes(1)[0]
    with pytest.raises(IndexOutOfRange):
        poset_nerve.face(edge, 2, MINUS)
    with pytest.raises(IndexOutOfRange):
        poset_nerve.connection(point, 1, PLUS)


def test_describe_parse_round_trip(poset_nerve, square_nerve):
    for n in range(4):
        for x in poset_nerve.cubes(n):
            assert poset_nerve.parse(poset_nerve.describe(x)) == x
    for n in range(3):
        for x in square_nerve.cubes(n)[:5]:
            assert square_nerve.parse(square_nerve.describe(x)) == x


def test_label_tables_keep_the_document_order():
    assert edge_labels(2) == ("*0", "*1", "0*", "1*")
    for n in range(5):
        # reference: the base vertex's bit-string with its direction-k bit starred
        starred = []
        for base, k in edge_bases(n):
            bits = list(mask_to_bits(base, n))
            bits[k] = "*"
            starred.append("".join(bits))
        assert edge_labels(n) == tuple(starred)
        assert vertex_labels(n) == tuple(mask_to_bits(v, n) for v in range(1 << n))


def test_parse_rejects_non_commuting_square(square_nerve):
    doc = {
        "dim": 2,
        "vertices": {"00": "A", "10": "B", "01": "C", "11": "D"},
        "edges": {"*0": "f", "*1": "k", "0*": "h", "1*": "g"},
    }
    with pytest.raises(ParseError, match="commute"):
        square_nerve.parse(doc)


def test_parse_rejects_mismatched_endpoints(poset_nerve):
    doc = {
        "dim": 1,
        "vertices": {"0": "00", "1": "11"},
        "edges": {"*": "00->01"},
    }
    with pytest.raises(ParseError):
        poset_nerve.parse(doc)


def test_parse_refusals_name_the_document_keys(poset_nerve, square_nerve):
    square = {
        "dim": 2,
        "vertices": {"00": "00", "10": "10", "01": "01", "11": "11"},
        "edges": {"*0": "00->10", "*1": "01->11", "0*": "00->01", "1*": "10->11"},
    }
    for arrow in ("nope", "00->01"):
        with pytest.raises(ParseError, match=f"edge '1\\*': '{arrow}' is not an arrow"):
            poset_nerve.parse({**square, "edges": {**square["edges"], "1*": arrow}})
    vertices = {**square["vertices"], "xx": "11"}
    del vertices["11"]
    with pytest.raises(ParseError, match="missing vertex entry '11'"):
        poset_nerve.parse({**square, "vertices": vertices})
    edges = {**square["edges"], "1?": "10->11"}
    del edges["1*"]
    with pytest.raises(ParseError, match="missing edge entry '1\\*'"):
        poset_nerve.parse({**square, "edges": edges})
    doc = {
        "dim": 2,
        "vertices": {"00": "A", "10": "B", "01": "C", "11": "D"},
        "edges": {"*0": "f", "*1": "k", "0*": "h", "1*": "g"},
    }
    with pytest.raises(ParseError, match="does not commute") as refusal:
        square_nerve.parse(doc)
    assert all(repr(key) in str(refusal.value) for key in doc["edges"])


@pytest.mark.parametrize("name, checked, refused", [
    ("terminal", 4, 0), ("poset22", 199, 19710), ("free_square", 202, 21772),
    ("parallel_pair", 54, 1850),
])
def test_parse_accepts_exactly_the_pool_cubes(name, checked, refused):
    # oracle: a document whose entries differ from a pool cube's in one
    # vertex object or one edge arrow parses if and only if it is a pool cube;
    # the first 150 cubes of each pool are checked
    system = nerve_of(name, 3)
    counts = [0, 0]
    for n in range(4):
        pool = system.cubes(n)
        known = {(x.vertices, x.edges) for x in pool}
        for x in pool[:150]:
            doc = system.describe(x)
            assert system.parse(doc) == x
            counts[0] += 1
            for part, names in (("vertices", system.cat.objects), ("edges", system.cat.morphisms)):
                for key, name in itertools.product(doc[part], names):
                    if doc[part][key] == name:
                        continue
                    mutant = {**doc, part: {**doc[part], key: name}}
                    entries = tuple(mutant["vertices"].values()), tuple(mutant["edges"].values())
                    if entries in known:
                        assert system.parse(mutant) == NerveCube(n, *entries)
                        continue
                    try:
                        system.parse(mutant)
                    except ParseError:
                        counts[1] += 1
                    else:
                        raise AssertionError(f"parsed a cube outside the pool: {mutant}")
    assert counts == [checked, refused]


def test_parse_rejects_unknown_and_non_string_entries(poset_nerve):
    with pytest.raises(ParseError, match="unknown object 'NOPE'"):
        poset_nerve.parse({"dim": 0, "vertices": {"": "NOPE"}})
    with pytest.raises(ParseError, match="string names"):
        poset_nerve.parse({"dim": 0, "vertices": {"": ["00"]}})
    with pytest.raises(ParseError, match="string names"):
        poset_nerve.parse({"dim": 1, "vertices": {"0": "00", "1": "10"}, "edges": {"*": ["x"]}})


def test_edge_cube_helper(square_nerve):
    f = edge_cube(square_nerve, "f")
    assert f.vertices == ("A", "B")


def test_compose_concatenates_direction_edges(square_nerve):
    # composing squares glues their shared face and composes the
    # direction-i edges as paths in the category
    cat = square_nerve.cat
    for i in (1, 2):
        for u, v in element_pairs(square_nerve, square_nerve.cubes(2), i):
            w = square_nerve.compose(u, v, i)
            pos = i - 1
            for base in range(4):
                if base & (1 << pos):
                    continue
                assert w.edge(base, pos) == cat.compose(v.edge(base, pos), u.edge(base, pos))


# The nerve operations as plain per-entry reindexing, before they were
# compiled into pickers; the pickers must agree with them everywhere.


def reference_face(x, i, sign):
    n, pos, bit = x.n, i - 1, 0 if sign == MINUS else 1
    vmap = tuple(insert_bit(v, pos, bit) for v in range(1 << (n - 1)))
    emap = []
    for base, k in edge_bases(n - 1):
        old_k = k if k < pos else k + 1
        emap.append(edge_slot(n, insert_bit(base, pos, bit), old_k))
    xv, xe = x.vertices, x.edges
    return NerveCube(n - 1, tuple(xv[m] for m in vmap), tuple(xe[m] for m in emap))


def reference_lift(cat, x, vmap, emap):
    xv, xe = x.vertices, x.edges
    return NerveCube(
        x.n + 1,
        tuple(xv[m] for m in vmap),
        tuple(xe[m] if tag == "e" else cat.identities[xv[m]] for tag, m in emap),
    )


def reference_degeneracy(cat, x, i):
    n, pos = x.n, i - 1
    big = n + 1
    vmap = tuple(remove_bit(v, pos) for v in range(1 << big))
    emap = []
    for base, k in edge_bases(big):
        if k == pos:
            emap.append(("v", remove_bit(base, pos)))
        else:
            old_k = k if k < pos else k - 1
            emap.append(("e", edge_slot(n, remove_bit(base, pos), old_k)))
    return reference_lift(cat, x, vmap, emap)


def reference_connection(cat, x, i, sign):
    n, pos = x.n, i - 1
    big = n + 1
    pick = min if sign == PLUS else max

    def collapse(v):
        merged = pick((v >> pos) & 1, (v >> (pos + 1)) & 1)
        return insert_bit(remove_bit(remove_bit(v, pos + 1), pos), pos, merged)

    vmap = tuple(collapse(v) for v in range(1 << big))
    emap = []
    for base, k in edge_bases(big):
        a, b = collapse(base), collapse(base | (1 << k))
        if a == b:
            emap.append(("v", a))
        else:
            d = (a ^ b).bit_length() - 1
            emap.append(("e", edge_slot(n, a, d)))
    return reference_lift(cat, x, vmap, emap)


def reference_compose(cat, x, y, i):
    n, pos = x.n, i - 1
    vmap = tuple((v >> pos) & 1 for v in range(1 << n))
    emap = []
    for base, k in edge_bases(n):
        if k == pos:
            emap.append(("j", edge_slot(n, base, pos)))
        else:
            emap.append(((base >> pos) & 1, edge_slot(n, base, k)))
    xv, xe = x.vertices, x.edges
    yv, ye = y.vertices, y.edges
    return NerveCube(
        n,
        tuple(yv[v] if side else xv[v] for v, side in enumerate(vmap)),
        tuple(cat.table[(ye[m], xe[m])] if tag == "j" else (ye[m] if tag else xe[m])
              for tag, m in emap),
    )


@pytest.mark.parametrize("name", ["poset22", "free_square", "parallel_pair"])
def test_pickers_agree_with_per_entry_reindexing(name):
    system = nerve_of(name, 3)
    cat = system.cat
    checked = 0
    for n in range(4):
        cubes = system.cubes(n)
        for x in cubes:
            for i in range(1, n + 1):
                for sign in (MINUS, PLUS):
                    assert system._face(x, i, sign) == reference_face(x, i, sign)
                    assert system._connection(x, i, sign) == reference_connection(cat, x, i, sign)
            for i in range(1, n + 2):
                assert system._degeneracy(x, i) == reference_degeneracy(cat, x, i)
        for i in range(1, n + 1):
            for x, y in element_pairs(system, cubes, i):
                assert system._compose(x, y, i) == reference_compose(cat, x, y, i)
                checked += 1
    assert checked > len(system.cubes(3))


# Nerve enumeration by brute force, the way it stacked cubes before it was
# compiled into per-dimension plans: the plans must list the same cubes in
# the same order.


def reference_assemble(bottom, top, component, n):
    pos = n - 1

    def half(v):
        return top if v & (1 << pos) else bottom

    vertices = tuple(half(v).vertex(remove_bit(v, pos)) for v in range(1 << n))
    edges = tuple(
        component[remove_bit(v, pos)] if k == pos else half(v).edge(remove_bit(v, pos), k)
        for v, k in edge_bases(n)
    )
    return NerveCube(n, vertices, edges)


def reference_cubes(cat, lower, n):
    """Every n-cube with (n-1)-cubes of ``lower`` as direction-n faces, in pool order."""
    m = n - 1
    squares = [(v, v ^ (1 << k), k) for v in range(1 << m) for k in range(m) if v >> k & 1]
    for bottom in lower:
        for top in lower:
            homs = [cat.hom(b, t) for b, t in zip(bottom.vertices, top.vertices)]
            for component in itertools.product(*homs):
                if all(
                    cat.compose(component[v], bottom.edge(u, k))
                    == cat.compose(top.edge(u, k), component[u])
                    for v, u, k in squares
                ):
                    yield reference_assemble(bottom, top, component, n)


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in ("terminal", "poset22", "free_square", "parallel_pair")
      for n in (1, 2, 3)),
    ("parallel_pair", 4),
])
def test_stacking_plans_enumerate_the_reference_pool(name, n):
    system = nerve_of(name, max(n, 3))
    assert list(system.cubes(n)) == list(reference_cubes(system.cat, system.cubes(n - 1), n))


@pytest.mark.parametrize("name, count, digest", [
    ("poset22", 28224, "325a455d6b0644819f676da9cf83e3ac47ebbf5abb54302b62b8f2d919fe2532"),
    ("free_square", 15160, "107899bad5a12f2b87d76c187240fc262dd8dd5503d232893c792a01ce30b79c"),
])
def test_dimension_four_pools_are_pinned(name, count, digest):
    # the digests were taken from the per-entry enumeration above
    pool = nerve_of(name, 4).cubes(4)
    assert len(pool) == count
    text = repr([(c.vertices, c.edges) for c in pool])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
