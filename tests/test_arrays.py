"""Composable partitions and grids, symbol resolution, and rendering."""

import pathlib

import pytest

from cubecat import (
    MINUS,
    PLUS,
    Base,
    Compose,
    ComposablePartition,
    NerveSystem,
    PartitionCell,
    SymbolicCell,
    boundary,
    bundled_category,
    compose_partition,
    evaluate,
    nerve,
    psi,
    render_ascii,
    resolve_symbols,
    tile_grid,
)
from cubecat.arrays import GAMMA_MINUS, GAMMA_PLUS
from cubecat.core import _exhaustive_bindings, composable_pairs
from cubecat.errors import BadTiling, InterchangeViolation, NotComposable, Unresolvable
GOLDEN = pathlib.Path(__file__).parent / "golden"


def square_grids(system):
    """The 2x2 grids of squares, rows joined in direction 2 and stacked in 1, in enumeration order."""
    view = system.id_view
    for *grid, i, j in _exhaustive_bindings(view, "grid", 2):
        if (i, j) == (2, 1):
            yield tuple(map(view.elements.__getitem__, grid))


def identity_square(system):
    for c in system.cubes(2):
        if all(c.vertex(v) == f"{v & 1}{(v >> 1) & 1}" for v in range(4)):
            return c
    raise AssertionError


def test_transport_array_composes_to_connection(poset_nerve):
    for a, b in list(composable_pairs(poset_nerve, poset_nerve.cubes(1), 1))[:20]:
        grid = tile_grid(poset_nerve, [
            [poset_nerve.connection(a, 1, PLUS), poset_nerve.degeneracy(a, 2)],
            [poset_nerve.degeneracy(a, 1), poset_nerve.connection(b, 1, PLUS)],
        ], dir_v=1, dir_h=2)
        expected = poset_nerve.connection(poset_nerve.compose(a, b, 1), 1, PLUS)
        assert compose_partition(grid) == expected


def test_psi_row_array(poset_nerve):
    for x in poset_nerve.cubes(2)[:10]:
        row = tile_grid(poset_nerve, [[
            poset_nerve.connection(poset_nerve.face(x, 2, MINUS), 1, PLUS),
            x,
            poset_nerve.connection(poset_nerve.face(x, 2, PLUS), 1, MINUS),
        ]], dir_v=1, dir_h=2)
        assert compose_partition(row) == psi(poset_nerve, x, 1)


def identity_grid(system, x):
    """The direction-1 identity array around the square x, labelled as the CLI draws it.

    x is padded by its units: degeneracies of its upper faces, and in the
    corner the double degeneracy of its last vertex.
    """
    corner = system.face(system.face(x, 1, PLUS), 1, PLUS)
    return tile_grid(system, [
        [x, system.degeneracy(system.face(x, 2, PLUS), 2)],
        [system.degeneracy(system.face(x, 1, PLUS), 1),
         system.degeneracy(system.degeneracy(corner, 1), 1)],
    ], dir_v=1, dir_h=2, labels=[["x", "═"], ["║", "□"]])


def test_identity_array_composes_to_its_cell(poset_nerve):
    x = identity_square(poset_nerve)
    grid = tile_grid(poset_nerve, [
        [x, poset_nerve.degeneracy(poset_nerve.face(x, 2, PLUS), 2)],
        [poset_nerve.degeneracy(poset_nerve.face(x, 1, PLUS), 1),
         poset_nerve.degeneracy(
             poset_nerve.face(poset_nerve.degeneracy(poset_nerve.face(x, 2, PLUS), 2), 1, PLUS), 1)],
    ], dir_v=1, dir_h=2)
    assert compose_partition(grid) == x


def test_array_construction_rejects_bad_adjacency(poset_nerve):
    squares = poset_nerve.cubes(2)
    x = next(c for c in squares if poset_nerve.face(c, 2, PLUS).edges[0] == "00->01")
    y = next(c for c in squares if poset_nerve.face(c, 2, MINUS).edges[0] == "10->11")
    with pytest.raises(NotComposable):
        tile_grid(poset_nerve, [[x, y]], dir_v=1, dir_h=2)
    with pytest.raises(BadTiling, match="rows have unequal lengths"):
        tile_grid(poset_nerve, [[x, y], [x]], dir_v=1, dir_h=2)
    with pytest.raises(NotComposable, match="cells have mixed dimensions"):
        tile_grid(poset_nerve, [[x, poset_nerve.face(x, 2, PLUS)]], dir_v=1, dir_h=2)
    with pytest.raises(NotComposable, match="directions must differ"):
        tile_grid(poset_nerve, [[x]], dir_v=2, dir_h=2)


def test_partition_face_mismatch_names_the_cells_or_bands(poset_nerve):
    # the two squares of the adjacency test above, as partitions: side by side
    # they form one row band, stacked they form two
    squares = poset_nerve.cubes(2)
    x = next(c for c in squares if poset_nerve.face(c, 2, PLUS).edges[0] == "00->01")
    y = next(c for c in squares if poset_nerve.face(c, 2, MINUS).edges[0] == "10->11")
    side = ComposablePartition(poset_nerve, [
        PartitionCell(0, 0, 1, 1, x), PartitionCell(0, 1, 1, 2, y),
    ], dir_v=1, dir_h=2)
    with pytest.raises(NotComposable, match=r"^cells \(0,0\)-\(0,1\): .* direction 2"):
        compose_partition(side)
    stacked = ComposablePartition(poset_nerve, [
        PartitionCell(0, 0, 1, 1, x), PartitionCell(1, 0, 2, 1, y),
    ], dir_v=2, dir_h=1)
    with pytest.raises(NotComposable, match=r"^rows \[0,1\)-\[1,2\): .* direction 2"):
        compose_partition(stacked)


def test_interchange_row_vs_column_exhaustive_2x2(poset_nerve):
    # every composable 2x2 array of squares evaluates identically both ways
    count = 0
    for x, y, z, w in square_grids(poset_nerve):
        grid = tile_grid(poset_nerve, [[x, y], [z, w]], dir_v=1, dir_h=2)
        compose_partition(grid)  # raises InterchangeViolation on disagreement
        count += 1
        if count >= 400:
            break
    assert count


def test_partition_simple_span(poset_nerve):
    pairs = composable_pairs(poset_nerve, poset_nerve.cubes(2), 2)
    for a, b in pairs:
        top = poset_nerve.compose(a, b, 2)
        mates = [c for c in poset_nerve.cubes(2)
                 if poset_nerve.face(c, 1, MINUS) == poset_nerve.face(top, 1, PLUS)]
        if mates:
            c = mates[0]
            break
    partition = ComposablePartition(poset_nerve, [
        PartitionCell(0, 0, 1, 1, a, "a"),
        PartitionCell(0, 1, 1, 2, b, "b"),
        PartitionCell(1, 0, 2, 2, c, "c"),
    ], dir_v=1, dir_h=2)
    expected = poset_nerve.compose(poset_nerve.compose(a, b, 2), c, 1)
    assert compose_partition(partition) == expected


def test_single_cell_partition(poset_nerve):
    x = poset_nerve.cubes(2)[0]
    partition = ComposablePartition(
        poset_nerve, [PartitionCell(0, 0, 1, 1, x, "x")], dir_v=1, dir_h=2
    )
    assert compose_partition(partition) == x


def test_unfold_partition_rows_first(poset_nerve):
    # the three-row reconstruction partition evaluates back to the cube
    for x in poset_nerve.cubes(2)[:10]:
        s = boundary(poset_nerve, x)
        a = psi(poset_nerve, x, 1)
        partition = ComposablePartition(poset_nerve, [
            PartitionCell(0, 0, 1, 1, poset_nerve.degeneracy(s.face(1, MINUS), 1)),
            PartitionCell(0, 1, 1, 2, poset_nerve.connection(s.face(2, PLUS), 1, PLUS)),
            PartitionCell(1, 0, 2, 2, a),
            PartitionCell(2, 0, 3, 1, poset_nerve.connection(s.face(2, MINUS), 1, MINUS)),
            PartitionCell(2, 1, 3, 2, poset_nerve.degeneracy(s.face(1, PLUS), 1)),
        ], dir_v=1, dir_h=2)
        assert compose_partition(partition) == x


def test_partition_tiling_validation(poset_nerve):
    x = poset_nerve.cubes(2)[0]
    with pytest.raises(BadTiling):
        ComposablePartition(poset_nerve, [
            PartitionCell(0, 0, 1, 1, x), PartitionCell(0, 0, 1, 1, x),
        ], dir_v=1, dir_h=2)
    with pytest.raises(BadTiling):
        ComposablePartition(poset_nerve, [
            PartitionCell(0, 0, 1, 1, x), PartitionCell(1, 1, 2, 2, x),
        ], dir_v=1, dir_h=2)


def test_pinwheel_partition_has_no_rows_first_term(poset_nerve):
    # four 1x2 and 2x1 cells turn around a unit centre, so no row band is
    # the full width of the square and the bands do not stack
    x = poset_nerve.cubes(2)[0]
    partition = ComposablePartition(poset_nerve, [
        PartitionCell(0, 0, 1, 2, x),
        PartitionCell(0, 2, 2, 3, x),
        PartitionCell(2, 1, 3, 3, x),
        PartitionCell(1, 0, 3, 1, x),
        PartitionCell(1, 1, 2, 2, x),
    ], dir_v=1, dir_h=2)
    with pytest.raises(BadTiling, match="row bands do not stack"):
        compose_partition(partition)


def test_interchange_violation_is_raised():
    # a nerve whose plain compose lies about the last step of the
    # columns-first evaluation: left column composed with right column
    honest = nerve(bundled_category("poset22"), 2)
    compose = honest.compose
    x, y, z, w = next(
        g for g in square_grids(honest)
        if compose(g[0], g[2], 1) not in (g[0], g[2])
    )
    columns = compose(x, z, 1), compose(y, w, 1)

    class LyingNerve(NerveSystem):
        def _compose(self, a, b, i):
            out = super()._compose(a, b, i)
            if i == 2 and (a, b) == columns:
                return next(c for c in self.cubes(2) if c != out)
            return out

    grid = tile_grid(honest, [[x, y], [z, w]], dir_v=1, dir_h=2)
    assert compose_partition(grid) == compose(compose(x, y, 2), compose(z, w, 2), 1)
    lying = LyingNerve(bundled_category("poset22"), 2)
    with pytest.raises(InterchangeViolation):
        compose_partition(tile_grid(lying, [[x, y], [z, w]], dir_v=1, dir_h=2))


def test_resolve_symbols_identity_grid(poset_nerve):
    # the corner is an identity for both directions: the degeneracy of the
    # upper face of either neighbouring unit, as well as of the last vertex
    face, degeneracy = poset_nerve.face, poset_nerve.degeneracy
    for x in poset_nerve.cubes(2):
        grid = identity_grid(poset_nerve, x)
        assert compose_partition(grid) == x
        cells = {(c.r0, c.c0): c.cube for c in grid.cells}
        assert cells[1, 1] == degeneracy(face(cells[0, 1], 1, PLUS), 1)
        assert cells[1, 1] == degeneracy(face(cells[1, 0], 2, PLUS), 2)


def test_resolve_symbols_full_reconstruction_array(poset_nerve):
    # the 3x3 array around x whose columns cancel to x: corners are double
    # identities, the middle row folds, and the off-cells are degeneracies
    face, degeneracy, connection = poset_nerve.face, poset_nerve.degeneracy, poset_nerve.connection
    for x in poset_nerve.cubes(2)[:8]:
        low, high = face(x, 2, MINUS), face(x, 2, PLUS)
        first, last = face(low, 1, MINUS), face(high, 1, PLUS)
        cells = [
            [degeneracy(degeneracy(first, 1), 1), degeneracy(face(x, 1, MINUS), 1),
             connection(high, 1, PLUS)],
            [connection(low, 1, PLUS), x, connection(high, 1, MINUS)],
            [connection(low, 1, MINUS), degeneracy(face(x, 1, PLUS), 1),
             degeneracy(degeneracy(last, 1), 1)],
        ]
        assert compose_partition(tile_grid(poset_nerve, cells, dir_v=1, dir_h=2)) == x
        # middle row alone is the elementary folding
        row = tile_grid(poset_nerve, [cells[1]], dir_v=1, dir_h=2)
        assert compose_partition(row) == psi(poset_nerve, x, 1)
        # with the connections left as placeholders, the outer two are
        # resolved from the inner two, on a second pass
        symbols = [[SymbolicCell.plain(cube) for cube in row] for row in cells]
        for (r, c), kind in {(0, 2): GAMMA_PLUS, (1, 0): GAMMA_PLUS,
                             (1, 2): GAMMA_MINUS, (2, 0): GAMMA_MINUS}.items():
            symbols[r][c] = SymbolicCell(kind)
        resolved = resolve_symbols(poset_nerve, symbols, dir_v=1, dir_h=2)
        assert [c.cube for c in resolved.cells] == [cube for row in cells for cube in row]


def test_resolve_symbols_psi_row(poset_nerve):
    for x in poset_nerve.cubes(2)[:6]:
        grid = [[SymbolicCell(GAMMA_PLUS), SymbolicCell.plain(x, "x"),
                 SymbolicCell(GAMMA_MINUS)]]
        resolved = resolve_symbols(poset_nerve, grid, dir_v=1, dir_h=2)
        assert compose_partition(resolved) == psi(poset_nerve, x, 1)


def test_resolve_symbols_needs_context(poset_nerve):
    with pytest.raises(Unresolvable, match="no concrete cell"):
        resolve_symbols(poset_nerve, [[SymbolicCell(GAMMA_PLUS)]], dir_v=1, dir_h=2)


def test_resolve_then_render_shows_kinds(poset_nerve):
    x = identity_square(poset_nerve)
    text = render_ascii(identity_grid(poset_nerve, x))
    for glyph in ("║", "═", "□", "x"):
        assert glyph in text
    # a resolved connection is labelled with its kind's glyph
    row = [[SymbolicCell(GAMMA_PLUS), SymbolicCell.plain(x, "x"), SymbolicCell(GAMMA_MINUS)]]
    text = render_ascii(resolve_symbols(poset_nerve, row, dir_v=1, dir_h=2))
    for glyph in ("┌", "┘", "x"):
        assert glyph in text


@pytest.mark.parametrize("name", ["psi_row", "identity_array", "unfold_partition"])
def test_render_golden(name, poset_nerve):
    x = identity_square(poset_nerve)
    if name == "psi_row":
        grid = [[SymbolicCell(GAMMA_PLUS), SymbolicCell.plain(x, "x"),
                 SymbolicCell(GAMMA_MINUS)]]
        text = render_ascii(resolve_symbols(poset_nerve, grid, dir_v=1, dir_h=2))
    elif name == "identity_array":
        text = render_ascii(identity_grid(poset_nerve, x))
    else:
        s = boundary(poset_nerve, x)
        a = psi(poset_nerve, x, 1)
        partition = ComposablePartition(poset_nerve, [
            PartitionCell(0, 0, 1, 1, poset_nerve.degeneracy(s.face(1, MINUS), 1), "eps-"),
            PartitionCell(0, 1, 1, 2, poset_nerve.connection(s.face(2, PLUS), 1, PLUS), "G+"),
            PartitionCell(1, 0, 2, 2, a, "fold"),
            PartitionCell(2, 0, 3, 1, poset_nerve.connection(s.face(2, MINUS), 1, MINUS), "G-"),
            PartitionCell(2, 1, 3, 2, poset_nerve.degeneracy(s.face(1, PLUS), 1), "eps+"),
        ], dir_v=1, dir_h=2)
        text = render_ascii(partition)
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_interchange_on_2x3_arrays(poset_nerve):
    # exhaustive 2x3 arrays of squares: row-first equals column-first
    squares = poset_nerve.cubes(2)
    count = 0
    for x, y, z, w in square_grids(poset_nerve):
        mates = [
            m for m in squares
            if poset_nerve.face(m, 2, MINUS) == poset_nerve.face(y, 2, PLUS)
        ]
        for m in mates[:2]:
            tail = [
                t for t in squares
                if poset_nerve.face(t, 2, MINUS) == poset_nerve.face(w, 2, PLUS)
                and poset_nerve.face(t, 1, MINUS) == poset_nerve.face(m, 1, PLUS)
            ]
            for t in tail[:2]:
                grid = tile_grid(
                    poset_nerve, [[x, y, m], [z, w, t]], dir_v=1, dir_h=2
                )
                compose_partition(grid)
                count += 1
        if count >= 300:
            break
    assert count


def test_unfold_partition_two_orders_agree(poset_nerve):
    # rows-first versus a term that stacks the fold on the bottom band first
    for x in poset_nerve.cubes(2)[:6]:
        s = boundary(poset_nerve, x)
        a = psi(poset_nerve, x, 1)
        partition = ComposablePartition(poset_nerve, [
            PartitionCell(0, 0, 1, 1, poset_nerve.degeneracy(s.face(1, MINUS), 1)),
            PartitionCell(0, 1, 1, 2, poset_nerve.connection(s.face(2, PLUS), 1, PLUS)),
            PartitionCell(1, 0, 2, 2, a),
            PartitionCell(2, 0, 3, 1, poset_nerve.connection(s.face(2, MINUS), 1, MINUS)),
            PartitionCell(2, 1, 3, 2, poset_nerve.degeneracy(s.face(1, PLUS), 1)),
        ], dir_v=1, dir_h=2)
        e_minus, g_plus, fold, g_minus, e_plus = (Base(c.cube) for c in partition.cells)
        bottom_first = Compose(
            1, Compose(2, e_minus, g_plus), Compose(1, fold, Compose(2, g_minus, e_plus)),
        )
        assert compose_partition(partition) == x
        assert evaluate(poset_nerve, bottom_first) == x


def test_folding_refinement_partition_two_orders(poset_nerve):
    # the folded cube as a 3x4 partition: outer connection columns expanded,
    # the fold spanning the middle; rows-first equals a column-band order
    j = 1
    for x in poset_nerve.cubes(2)[:8]:
        s = boundary(poset_nerve, x)
        a = psi(poset_nerve, x, j)
        eps, con = poset_nerve.degeneracy, poset_nerve.connection
        sm, sp = s.face(j, MINUS), s.face(j, PLUS)
        tm, tp = s.face(j + 1, MINUS), s.face(j + 1, PLUS)
        dd_low = eps(eps(poset_nerve.face(sm, j, MINUS), j), j + 1)
        dd_high = eps(eps(poset_nerve.face(sp, j, PLUS), j), j + 1)
        partition = ComposablePartition(poset_nerve, [
            PartitionCell(0, 0, 1, 1, dd_low),
            PartitionCell(0, 1, 1, 2, eps(sm, j)),
            PartitionCell(0, 2, 1, 3, con(tp, j, PLUS)),
            PartitionCell(0, 3, 1, 4, con(tp, j, MINUS)),
            PartitionCell(1, 0, 2, 1, dd_low),
            PartitionCell(1, 1, 2, 3, a),
            PartitionCell(1, 3, 2, 4, dd_high),
            PartitionCell(2, 0, 3, 1, con(tm, j, PLUS)),
            PartitionCell(2, 1, 3, 2, con(tm, j, MINUS)),
            PartitionCell(2, 2, 3, 3, eps(sp, j)),
            PartitionCell(2, 3, 3, 4, dd_high),
        ], dir_v=j, dir_h=j + 1)
        by_rows = compose_partition(partition)
        assert by_rows == a
        c = [Base(cell.cube) for cell in partition.cells]

        def v(lower, upper):
            return Compose(j, lower, upper)

        def h(left, right):
            return Compose(j + 1, left, right)

        column_bands = h(
            h(
                v(v(c[0], c[4]), c[7]),                      # left column
                v(v(h(c[1], c[2]), c[5]), h(c[8], c[9])),    # middle band
            ),
            v(v(c[3], c[6]), c[10]),                         # right column
        )
        assert evaluate(poset_nerve, column_bands) == a
