"""Two-dimensional composable arrays and rectangular composable partitions.

Arrays are full grids composed row-first or column-first (the two must
agree); partitions tile a rectangle with cells that may span several grid
units and are composed by an explicit sequence of pairwise merges.  The
renderer draws either as a box diagram with one label per cell and a
direction legend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import MINUS, PLUS, CubeSystem, degenerate_at
from .errors import (
    BadTiling,
    InterchangeViolation,
    NotComposable,
    Unresolvable,
)

PLAIN = "plain"
# in every glyph the drawn bars mark the degenerate faces, so two horizontal
# bars mean an identity for the horizontal composition, and so on
EPS_H = "eps_h"  # ═  identity for the horizontal composition
EPS_V = "eps_v"  # ║  identity for the vertical composition
GAMMA_PLUS = "gamma_plus"
GAMMA_MINUS = "gamma_minus"
DOUBLE = "double"  # identity for both compositions

KIND_GLYPHS = {
    EPS_H: "═",   # ═
    EPS_V: "║",   # ║
    GAMMA_PLUS: "┌",   # ┌  degenerate faces on top and left
    GAMMA_MINUS: "┘",  # ┘  degenerate faces on bottom and right
    DOUBLE: "□",  # □
}


@dataclass(frozen=True)
class SymbolicCell:
    """A cell that is either a concrete cube or a placeholder symbol.

    Placeholders resolve to the unique degenerate cube or connection that
    the composability of the surrounding array forces.
    """

    kind: str
    cube: object = None
    label: Optional[str] = None

    @staticmethod
    def plain(cube, label: Optional[str] = None) -> "SymbolicCell":
        return SymbolicCell(PLAIN, cube, label)


class ComposableArray:
    """An r x c grid of same-dimension cubes with matching inner faces.

    ``dir_h`` composes along rows, ``dir_v`` down columns.  Adjacency is
    validated eagerly so a constructed array is always composable.
    """

    def __init__(self, system: CubeSystem, rows, dir_v: int, dir_h: int, kinds=None):
        if dir_v == dir_h:
            raise NotComposable(dir_v, dir_v, dir_h, "array directions must differ")
        self.system = system
        self.rows = tuple(tuple(r) for r in rows)
        if not self.rows or not self.rows[0]:
            raise BadTiling("array must have at least one cell")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise BadTiling("array rows have unequal lengths")
        self.dir_v = dir_v
        self.dir_h = dir_h
        self.kinds = tuple(tuple(k) for k in kinds) if kinds else None
        dims = {system.dim(x) for row in self.rows for x in row}
        if len(dims) != 1:
            raise NotComposable(dir_h, None, None, "array cells have mixed dimensions")
        for r, row in enumerate(self.rows):
            for c, x in enumerate(row):
                if c + 1 < width:
                    left = system.face(x, dir_h, PLUS)
                    right = system.face(row[c + 1], dir_h, MINUS)
                    if left != right:
                        raise NotComposable(
                            dir_h, system.describe(left), system.describe(right),
                            f"cells ({r},{c})-({r},{c + 1})",
                        )
                if r + 1 < len(self.rows):
                    upper = system.face(x, dir_v, PLUS)
                    lower = system.face(self.rows[r + 1][c], dir_v, MINUS)
                    if upper != lower:
                        raise NotComposable(
                            dir_v, system.describe(upper), system.describe(lower),
                            f"cells ({r},{c})-({r + 1},{c})",
                        )

    @property
    def shape(self):
        return len(self.rows), len(self.rows[0])


def _fold_line(system, cells: Sequence, direction: int):
    out = cells[0]
    for x in cells[1:]:
        out = system.compose(out, x, direction)
    return out


def compose_array(array: ComposableArray):
    """Common value of row-first and column-first evaluation."""
    system = array.system
    by_rows = _fold_line(
        system,
        [_fold_line(system, row, array.dir_h) for row in array.rows],
        array.dir_v,
    )
    columns = list(zip(*array.rows))
    by_cols = _fold_line(
        system,
        [_fold_line(system, col, array.dir_v) for col in columns],
        array.dir_h,
    )
    if by_rows != by_cols:
        raise InterchangeViolation(
            "row-first and column-first composites differ; the model breaks interchange"
        )
    return by_rows


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class PartitionCell:
    """One tile: half-open unit-grid rectangle rows [r0,r1) x cols [c0,c1)."""

    r0: int
    c0: int
    r1: int
    c1: int
    cube: object
    label: Optional[str] = None


class ComposablePartition:
    """Rectangles tiling a bounding rectangle, merged pairwise in a fixed order.

    ``order`` lists merges as (cell_index_a, cell_index_b) over live cell
    ids; a merge of horizontally adjacent tiles composes in ``dir_h``,
    vertically adjacent tiles in ``dir_v``.  Merged cells receive fresh ids
    counting up from the initial cell count.  Without an explicit order the
    rows-first order is derived.
    """

    def __init__(self, system: CubeSystem, cells: Iterable[PartitionCell],
                 dir_v: int, dir_h: int, order: Optional[Sequence] = None):
        if dir_v == dir_h:
            raise NotComposable(dir_v, dir_v, dir_h, "partition directions must differ")
        self.system = system
        self.cells = tuple(cells)
        if not self.cells:
            raise BadTiling("partition has no cells")
        self.dir_v = dir_v
        self.dir_h = dir_h
        self.n_rows = max(c.r1 for c in self.cells)
        self.n_cols = max(c.c1 for c in self.cells)
        covered = {}
        for idx, cell in enumerate(self.cells):
            if cell.r0 >= cell.r1 or cell.c0 >= cell.c1 or cell.r0 < 0 or cell.c0 < 0:
                raise BadTiling(f"cell {idx} has an empty or negative rectangle")
            for r in range(cell.r0, cell.r1):
                for c in range(cell.c0, cell.c1):
                    if (r, c) in covered:
                        raise BadTiling(f"cells {covered[(r, c)]} and {idx} overlap")
                    covered[(r, c)] = idx
        for r in range(self.n_rows):
            for c in range(self.n_cols):
                if (r, c) not in covered:
                    raise BadTiling(f"unit square ({r},{c}) is uncovered")
        self.order = tuple(tuple(step) for step in order) if order is not None else None

    def rows_first_order(self):
        """Merge cells left-to-right within full-height row bands, then stack."""
        bands: dict = {}
        for idx, cell in enumerate(self.cells):
            bands.setdefault((cell.r0, cell.r1), []).append(idx)
        for (r0, r1), members in bands.items():
            for idx in members:
                if (self.cells[idx].r0, self.cells[idx].r1) != (r0, r1):
                    raise BadTiling("row band contains a partial-height cell")
        ordered_bands = sorted(bands.items(), key=lambda kv: kv[0][0])
        if any(a[0][1] != b[0][0] for a, b in zip(ordered_bands, ordered_bands[1:])):
            raise BadTiling("row bands do not stack; no rows-first order exists")
        steps = []
        next_id = len(self.cells)
        band_ids = []
        for (_, _), members in ordered_bands:
            members = sorted(members, key=lambda idx: self.cells[idx].c0)
            current = members[0]
            for idx in members[1:]:
                steps.append((current, idx))
                current = next_id
                next_id += 1
            band_ids.append(current)
        current = band_ids[0]
        for idx in band_ids[1:]:
            steps.append((current, idx))
            current = next_id
            next_id += 1
        return steps


def _merge_direction(a: PartitionCell, b: PartitionCell, dir_v, dir_h):
    if (a.r0, a.r1) == (b.r0, b.r1) and a.c1 == b.c0:
        return dir_h, a, b
    if (a.r0, a.r1) == (b.r0, b.r1) and b.c1 == a.c0:
        return dir_h, b, a
    if (a.c0, a.c1) == (b.c0, b.c1) and a.r1 == b.r0:
        return dir_v, a, b
    if (a.c0, a.c1) == (b.c0, b.c1) and b.r1 == a.r0:
        return dir_v, b, a
    return None, a, b


def _run_order(partition: ComposablePartition, order) -> object:
    system = partition.system
    live = {idx: cell for idx, cell in enumerate(partition.cells)}
    next_id = len(partition.cells)
    for step_no, (ia, ib) in enumerate(order):
        if ia not in live or ib not in live:
            raise BadTiling(f"step {step_no} names a dead or unknown cell")
        a, b = live.pop(ia), live.pop(ib)
        direction, first, second = _merge_direction(a, b, partition.dir_v, partition.dir_h)
        if direction is None:
            raise BadTiling(
                f"step {step_no}: rectangles do not merge into a rectangle"
            )
        try:
            cube = system.compose(first.cube, second.cube, direction)
        except NotComposable as exc:
            raise NotComposable(
                exc.direction, exc.left_face, exc.right_face, f"step {step_no}"
            ) from exc
        live[next_id] = PartitionCell(
            min(first.r0, second.r0), min(first.c0, second.c0),
            max(first.r1, second.r1), max(first.c1, second.c1), cube,
        )
        next_id += 1
    if len(live) != 1:
        raise BadTiling("evaluation order leaves more than one cell")
    final = next(iter(live.values()))
    if (final.r0, final.c0, final.r1, final.c1) != (
        0, 0, partition.n_rows, partition.n_cols,
    ):
        raise BadTiling("evaluation order did not cover the bounding rectangle")
    return final.cube


def compose_partition(partition: ComposablePartition, verify_order=None):
    """Composite along the partition's order (rows-first when unspecified).

    A second order, when supplied, must give the same composite.
    """
    order = partition.order
    if order is None:
        order = partition.rows_first_order()
    result = _run_order(partition, order)
    if verify_order is not None:
        other = _run_order(partition, verify_order)
        if other != result:
            raise InterchangeViolation(
                "two evaluation orders of the partition disagree"
            )
    return result


# ---------------------------------------------------------------------------
# symbolic cells


def resolve_symbols(system: CubeSystem, grid, dir_v: int, dir_h: int) -> ComposableArray:
    """Pin every placeholder cell down from its resolved neighbours.

    Degenerate placeholders copy a shared face from any resolved neighbour;
    connection placeholders additionally require dir_h = dir_v + 1, the only
    situation in which they are determined.  Repeats to a fixed point and
    fails if placeholders remain.
    """
    cells = [list(row) for row in grid]
    n_rows, n_cols = len(cells), len(cells[0]) if cells else 0
    if any(len(row) != n_cols for row in cells):
        raise Unresolvable("symbol grid is ragged")
    view = system.id_view

    def resolved(r, c):
        return 0 <= r < n_rows and 0 <= c < n_cols and cells[r][c].kind == PLAIN \
            and cells[r][c].cube is not None

    def neighbour_face(r, c, *sides):
        """Face shared with the first resolved neighbour among sides (left, right, up, down)."""
        for side in sides:
            dr, dc, direction, sign = {
                "left": (0, -1, dir_h, PLUS),
                "right": (0, 1, dir_h, MINUS),
                "up": (-1, 0, dir_v, PLUS),
                "down": (1, 0, dir_v, MINUS),
            }[side]
            if resolved(r + dr, c + dc):
                return system.face(cells[r + dr][c + dc].cube, direction, sign)
        return None

    def attempt(r, c):
        cell = cells[r][c]
        kind = cell.kind
        if kind == EPS_H:
            f = neighbour_face(r, c, "left", "right")
            return None if f is None else system.degeneracy(f, dir_h)
        if kind == EPS_V:
            f = neighbour_face(r, c, "up", "down")
            return None if f is None else system.degeneracy(f, dir_v)
        if kind in (GAMMA_PLUS, GAMMA_MINUS):
            if dir_h != dir_v + 1:
                raise Unresolvable(
                    "connection symbols need horizontal direction = vertical + 1"
                )
            if kind == GAMMA_PLUS:
                f = neighbour_face(r, c, "right", "down")
                return None if f is None else system.connection(f, dir_v, PLUS)
            f = neighbour_face(r, c, "left", "up")
            return None if f is None else system.connection(f, dir_v, MINUS)
        if kind == DOUBLE:
            for which, direction in (
                ("up", dir_v), ("down", dir_v), ("left", dir_h), ("right", dir_h),
            ):
                f = neighbour_face(r, c, which)
                if f is None:
                    continue
                out = system.degeneracy(f, direction)
                k = view.id(out)
                if not (degenerate_at(view, k, dir_v) and degenerate_at(view, k, dir_h)):
                    raise Unresolvable(
                        f"cell ({r},{c}) cannot be an identity for both directions"
                    )
                return out
            return None
        return None

    pending = [
        (r, c)
        for r in range(n_rows)
        for c in range(n_cols)
        if cells[r][c].kind != PLAIN
    ]
    if not any(resolved(r, c) for r in range(n_rows) for c in range(n_cols)):
        raise Unresolvable("no concrete cell to anchor resolution")
    while pending:
        progressed = False
        still = []
        for r, c in pending:
            cube = attempt(r, c)
            if cube is None:
                still.append((r, c))
                continue
            glyph = KIND_GLYPHS[cells[r][c].kind]
            cells[r][c] = SymbolicCell(PLAIN, cube, cells[r][c].label or glyph)
            progressed = True
        if not progressed:
            raise Unresolvable(f"cells {still} cannot be determined from context")
        pending = still
    return ComposableArray(
        system,
        [[cell.cube for cell in row] for row in cells],
        dir_v,
        dir_h,
        kinds=[[cell.label or _default_label(r, c) for c, cell in enumerate(row)]
               for r, row in enumerate(cells)],
    )


def _default_label(r: int, c: int) -> str:
    return chr(ord("a") + (r * 4 + c) % 26)


# ---------------------------------------------------------------------------
# rendering


_JUNCTIONS = {
    (0, 0, 0, 0): " ",
    (0, 0, 1, 1): "─", (0, 0, 1, 0): "╴", (0, 0, 0, 1): "╶",
    (1, 1, 0, 0): "│", (1, 0, 0, 0): "╵", (0, 1, 0, 0): "╷",
    (0, 1, 0, 1): "┌", (0, 1, 1, 0): "┐",
    (1, 0, 0, 1): "└", (1, 0, 1, 0): "┘",
    (1, 1, 0, 1): "├", (1, 1, 1, 0): "┤",
    (0, 1, 1, 1): "┬", (1, 0, 1, 1): "┴",
    (1, 1, 1, 1): "┼",
}


def _render_tiles(tiles, n_rows, n_cols, dir_v, dir_h) -> str:
    """tiles: (r0, c0, r1, c1, label); one box-drawing diagram, shared edges once."""
    width = max(3, max(len(t[4]) for t in tiles) + 2)
    hseg = set()
    vseg = set()
    for r0, c0, r1, c1, _ in tiles:
        for c in range(c0, c1):
            hseg.add((r0, c))
            hseg.add((r1, c))
        for r in range(r0, r1):
            vseg.add((r, c0))
            vseg.add((r, c1))
    lines = []
    for row in range(2 * n_rows + 1):
        if row % 2 == 0:
            r = row // 2
            parts = []
            for c in range(n_cols + 1):
                up = int((r - 1, c) in vseg)
                down = int((r, c) in vseg)
                left = int((r, c - 1) in hseg)
                right = int((r, c) in hseg)
                parts.append(_JUNCTIONS[(up, down, left, right)])
                if c < n_cols:
                    parts.append(("─" if (r, c) in hseg else " ") * width)
            lines.append("".join(parts))
        else:
            r = row // 2
            chars = []
            for c in range(n_cols + 1):
                chars.append("│" if (r, c) in vseg else " ")
                if c < n_cols:
                    chars.extend(" " * width)
            for r0, c0, r1, c1, label in tiles:
                if r0 <= r < r1 and r == (r0 + r1 - 1) // 2:
                    span = (c1 - c0) * (width + 1) - 1
                    start = c0 * (width + 1) + 1
                    text = label.center(span)
                    for k, ch in enumerate(text):
                        if ch != " ":
                            chars[start + k] = ch
            lines.append("".join(chars).rstrip())
    lines.append(f"h: direction {dir_h}, v: direction {dir_v}")
    return "\n".join(lines) + "\n"


def render_ascii(diagram) -> str:
    """Deterministic box diagram of an array or partition with a legend line."""
    if isinstance(diagram, ComposableArray):
        n_rows, n_cols = diagram.shape
        tiles = []
        for r in range(n_rows):
            for c in range(n_cols):
                label = diagram.kinds[r][c] if diagram.kinds is not None else _default_label(r, c)
                tiles.append((r, c, r + 1, c + 1, label))
        return _render_tiles(tiles, n_rows, n_cols, diagram.dir_v, diagram.dir_h)
    if isinstance(diagram, ComposablePartition):
        tiles = []
        for cell in diagram.cells:
            label = cell.label if cell.label is not None else _default_label(cell.r0, cell.c0)
            tiles.append((cell.r0, cell.c0, cell.r1, cell.c1, label))
        return _render_tiles(
            tiles, diagram.n_rows, diagram.n_cols, diagram.dir_v, diagram.dir_h
        )
    raise TypeError(f"cannot render {type(diagram).__name__}")
