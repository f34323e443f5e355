"""Rectangular composable partitions: tilings of a rectangle by cubes.

A partition tiles a rectangle with cells that may span several grid units;
an array is the partition of unit tiles that ``tile_grid`` builds once it
has checked that neighbouring cells share their faces.  A composite is
evaluated by ``fillers.evaluate`` from ``fillers`` terms, one per band and one
stacking the bands, after the faces they join are checked, so a mismatch
names its cells or bands: rows first always, and columns first as well when
the columns stack.  The two must agree, which is the interchange law for
arrays.  The renderer draws a partition as a box diagram with one label per
cell and a direction legend.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional

from .core import MINUS, PLUS, CubeSystem
from .errors import (
    BadTiling,
    InterchangeViolation,
    NotComposable,
    Unresolvable,
)
from .fillers import Base, Compose, evaluate

PLAIN = "plain"
GAMMA_PLUS = "gamma_plus"
GAMMA_MINUS = "gamma_minus"

# in each glyph the drawn bars mark the degenerate faces
KIND_GLYPHS = {
    GAMMA_PLUS: "┌",   # ┌  degenerate faces on top and left
    GAMMA_MINUS: "┘",  # ┘  degenerate faces on bottom and right
}


@dataclass(frozen=True)
class SymbolicCell:
    """A cell that is either a concrete cube or a placeholder symbol.

    Placeholders resolve to the unique connection that the composability of
    the surrounding array forces.
    """

    kind: str
    cube: object = None
    label: Optional[str] = None

    @staticmethod
    def plain(cube, label: Optional[str] = None) -> "SymbolicCell":
        return SymbolicCell(PLAIN, cube, label)


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
    """Rectangles tiling a bounding rectangle.

    ``dir_h`` composes along rows, ``dir_v`` down columns.  The tiling is
    validated eagerly; the faces the cells share are checked when the
    partition is composed.
    """

    def __init__(self, system: CubeSystem, cells: Iterable[PartitionCell],
                 dir_v: int, dir_h: int):
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


def tile_grid(system: CubeSystem, rows, dir_v: int, dir_h: int,
              labels=None) -> ComposablePartition:
    """The partition of unit tiles of an r x c grid of same-dimension cubes.

    ``labels``, when given, is a grid of the same shape.  Adjacency is
    validated eagerly so a constructed grid is always composable.
    """
    rows = tuple(tuple(r) for r in rows)
    if not rows or not rows[0]:
        raise BadTiling("array must have at least one cell")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise BadTiling("array rows have unequal lengths")
    # the partition refuses equal directions before any face is compared
    partition = ComposablePartition(system, [
        PartitionCell(r, c, r + 1, c + 1, x, labels[r][c] if labels else None)
        for r, row in enumerate(rows)
        for c, x in enumerate(row)
    ], dir_v, dir_h)
    dims = {system.dim(x) for row in rows for x in row}
    if len(dims) != 1:
        raise NotComposable(dir_h, None, None, "array cells have mixed dimensions")
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if c + 1 < width:
                _check_shared_face(system, x, row[c + 1], dir_h, f"cells ({r},{c})-({r},{c + 1})")
            if r + 1 < len(rows):
                _check_shared_face(system, x, rows[r + 1][c], dir_v, f"cells ({r},{c})-({r + 1},{c})")
    return partition


def _check_shared_face(system: CubeSystem, x, y, direction: int, where: str) -> None:
    """Raise ``NotComposable``, naming ``where``, unless x's upper face is y's lower one."""
    upper, lower = system.face(x, direction, PLUS), system.face(y, direction, MINUS)
    if upper != lower:
        raise NotComposable(direction, system.describe(upper), system.describe(lower), where)


def _banded_composite(system: CubeSystem, cells, band, place, along: int, across: int,
                      name: str):
    """Compose each band along ``along`` in ``place`` order, then the bands across.

    Returns None when the bands (the distinct ``band`` spans) do not stack.
    Each face joined is checked first: a mismatch names both cells or spans.
    """
    bands: dict = {}
    for cell in cells:
        bands.setdefault(band(cell), []).append(cell)
    spans = sorted(bands)
    if any(a[1] != b[0] for a, b in zip(spans, spans[1:])):
        return None
    lines = [sorted(bands[span], key=place) for span in spans]
    for line in lines:
        for a, b in zip(line, line[1:]):
            _check_shared_face(system, a.cube, b.cube, along,
                               f"cells ({a.r0},{a.c0})-({b.r0},{b.c0})")
    composites = [evaluate(system, _fold(along, [Base(cell.cube) for cell in line]))
                  for line in lines]
    for k in range(1, len(spans)):
        (a0, a1), (b0, b1) = spans[k - 1], spans[k]
        _check_shared_face(system, composites[k - 1], composites[k], across,
                           f"{name} [{a0},{a1})-[{b0},{b1})")
    return evaluate(system, _fold(across, list(map(Base, composites))))


def _fold(direction: int, terms):
    out = terms[0]
    for term in terms[1:]:
        out = Compose(direction, out, term)
    return out


def compose_partition(partition: ComposablePartition):
    """The rows-first composite, equal to the columns-first one when that exists.

    Each row band composes left to right in ``dir_h`` and the bands stack in
    ``dir_v``.  When the column bands stack too, as in every grid, the
    columns-first term must evaluate to the same cube (interchange).
    """
    system, cells = partition.system, partition.cells
    dir_v, dir_h = partition.dir_v, partition.dir_h
    result = _banded_composite(system, cells, attrgetter("r0", "r1"), attrgetter("c0"),
                               dir_h, dir_v, "rows")
    if result is None:
        raise BadTiling("row bands do not stack; no rows-first order exists")
    by_cols = _banded_composite(system, cells, attrgetter("c0", "c1"), attrgetter("r0"),
                                dir_v, dir_h, "columns")
    if by_cols is not None and by_cols != result:
        raise InterchangeViolation(
            "row-first and column-first composites differ; the model breaks interchange"
        )
    return result


# ---------------------------------------------------------------------------
# symbolic cells


def resolve_symbols(system: CubeSystem, grid, dir_v: int, dir_h: int) -> ComposablePartition:
    """Pin every connection placeholder down from its resolved neighbours.

    A connection is determined by the face it shares with a resolved
    neighbour, and only when dir_h = dir_v + 1.  Repeats to a fixed point
    and fails if placeholders remain.
    """
    cells = [list(row) for row in grid]
    n_rows, n_cols = len(cells), len(cells[0]) if cells else 0
    if any(len(row) != n_cols for row in cells):
        raise Unresolvable("symbol grid is ragged")

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
        kind = cells[r][c].kind
        if kind not in KIND_GLYPHS:
            return None
        if dir_h != dir_v + 1:
            raise Unresolvable("connection symbols need horizontal direction = vertical + 1")
        if kind == GAMMA_PLUS:
            f = neighbour_face(r, c, "right", "down")
            return None if f is None else system.connection(f, dir_v, PLUS)
        f = neighbour_face(r, c, "left", "up")
        return None if f is None else system.connection(f, dir_v, MINUS)

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
    return tile_grid(
        system,
        [[cell.cube for cell in row] for row in cells],
        dir_v,
        dir_h,
        labels=[[cell.label or _default_label(r, c) for c, cell in enumerate(row)]
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


def render_ascii(partition: ComposablePartition) -> str:
    """Deterministic box diagram of a partition with a legend line; shared edges once."""
    n_rows, n_cols = partition.n_rows, partition.n_cols
    tiles = [
        (cell.r0, cell.c0, cell.r1, cell.c1,
         cell.label if cell.label is not None else _default_label(cell.r0, cell.c0))
        for cell in partition.cells
    ]
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
    lines.append(f"h: direction {partition.dir_h}, v: direction {partition.dir_v}")
    return "\n".join(lines) + "\n"
