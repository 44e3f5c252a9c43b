"""Bump lattice geometry, potential-short adjacency, codeword coloring, and blocks.

The package I/O bumps sit on a rectangular or hexagonal (close-packed)
lattice.  Bumps that are close enough to short against each other form the
potential-short adjacency graph.  Because the lattice is regular, every
partner of a bump within the short radius lies in a small forward window of
row and column offsets, and whether a pair can short depends only on its
window offset and, on a hexagonal lattice, the lower bump's row parity.  So
each such offset class is decided once from the lattice geometry: all edges
or none, unless its distance is within a rounding tolerance (scaled by the
lattice extent) of the radius, where each pair is tested on its stored
positions when asked.  The graph keeps only those classes and answers
neighbours, degrees, edges and the edge count by arithmetic on (row,
column); no list over the map's edges or bumps is built.  A proper
4-coloring of the graph decides which of the four test codewords each bump
receives: greedy coloring runs row by row until its colors repeat with the
lattice's row period, and that period is tiled to the last row.  Contiguous
column bands split the map into sequentially tested blocks.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain, islice, repeat
from operator import add

from .errors import ColoringError, ParameterError

# Times pitch.  Captures the two close-packed rings of a hexagonal lattice
# (neighbor distances pitch and sqrt(3)*pitch, 12 bumps) while excluding the
# 2*pitch ring; any factor in [sqrt(3), 2) yields the same 12-neighborhood.
DEFAULT_SHORT_RADIUS_FACTOR = 1.9

# Largest lattice (rows * cols) accepted, checked before anything allocates;
# a typo such as 100000x100000 would otherwise exhaust memory.
MAX_BUMPS = 512 * 512


class LatticeKind(Enum):
    HEXAGONAL = "hexagonal"
    RECTANGULAR = "rectangular"


class Color(Enum):
    """Codeword color classes; the drive patterns live in the BIST engine."""

    GREEN = "green"
    BLUE = "blue"
    RED = "red"
    BLACK = "black"


COLOR_ORDER = (Color.GREEN, Color.BLUE, Color.RED, Color.BLACK)
COLOR_INDEX = {color: i for i, color in enumerate(COLOR_ORDER)}


@dataclass(frozen=True)
class Lattice:
    kind: LatticeKind
    rows: int
    cols: int
    pitch_um: float

    def __post_init__(self) -> None:
        if not isinstance(self.rows, int) or not isinstance(self.cols, int):
            raise ParameterError("lattice rows and cols must be integers")
        if self.rows < 1 or self.cols < 1:
            raise ParameterError(
                f"lattice needs rows >= 1 and cols >= 1, got {self.rows}x{self.cols}"
            )
        if self.rows * self.cols > MAX_BUMPS:
            raise ParameterError(
                f"lattice {self.rows}x{self.cols} has more than the {MAX_BUMPS} bumps allowed"
            )
        if not 0 < self.pitch_um < math.inf:
            raise ParameterError(
                f"lattice pitch must be positive and finite, got {self.pitch_um}"
            )
        if not math.isfinite(max(self.rows, self.cols) * self.pitch_um):
            raise ParameterError(
                f"lattice extent overflows: {self.rows}x{self.cols} bumps at pitch "
                f"{self.pitch_um} um"
            )

    @property
    def bump_count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class BumpMap:
    """Bump positions plus (once assigned) codeword coloring and block split.

    Bump ids are dense, 0..rows*cols-1, in row-major order.  ``coloring`` and
    ``blocks`` are tuples indexed by bump id; they are None until
    :func:`assign_codewords` / :func:`partition_blocks` produce them.
    """

    lattice: Lattice
    positions: tuple[tuple[float, float], ...]
    coloring: tuple[Color, ...] | None = None
    blocks: tuple[int, ...] | None = None
    block_count: int | None = None

    @property
    def bump_count(self) -> int:
        return len(self.positions)

    def row_col(self, bump: int) -> tuple[int, int]:
        return divmod(bump, self.lattice.cols)

    def bumps_in_block(self, block: int) -> tuple[int, ...]:
        if self.blocks is None:
            raise ParameterError("bump map has no block partition yet")
        return tuple(b for b, k in enumerate(self.blocks) if k == block)


class AdjacencyGraph:
    """Undirected potential-short graph over bump ids.

    Built from any edge iterable, it stores each bump's neighbour tuple,
    ascending, and ``sorted_edges``: every edge once, normalized (a < b),
    with no self-loops, in ascending order, which is the one edge order
    every consumer uses.  ``edges`` is not stored: each access builds a
    frozenset of ``sorted_edges``.  Every bump id in an edge lies below
    ``id_bound``.  :func:`potential_short_graph` returns a lattice graph
    instead, which stores none of this and answers the same queries by
    arithmetic on (row, column).
    """

    # None, or (shift, window): each bump b >= shift + window has the lower
    # neighbours of b - shift, moved up by shift, all within window below b.
    period: tuple[int, int] | None = None

    def __init__(
        self,
        edges: Iterable[tuple[int, int]],
        short_radius_um: float | None = None,
    ) -> None:
        higher: defaultdict[int, set[int]] = defaultdict(set)
        for a, b in edges:
            if a == b:
                raise ParameterError(f"self-loop edge on bump {a}")
            if a < 0 or b < 0:
                raise ParameterError(f"negative bump id in edge ({a}, {b})")
            if a < b:
                higher[a].add(b)
            else:
                higher[b].add(a)
        # One pass in bump order fills every neighbour tuple, since a bump
        # meets all its lower neighbours first.
        lower: defaultdict[int, list[int]] = defaultdict(list)
        neighbors: dict[int, tuple[int, ...]] = {}
        sorted_edges: list[tuple[int, int]] = []
        for a in sorted(higher):
            above = sorted(higher[a])
            for b in above:
                lower[b].append(a)
                sorted_edges.append((a, b))
            neighbors[a] = tuple(lower.pop(a, []) + above)
        for b, below in lower.items():
            neighbors[b] = tuple(below)
        self._neighbors = neighbors
        self.sorted_edges: Sequence[tuple[int, int]] = tuple(sorted_edges)
        self.short_radius_um = short_radius_um
        self.id_bound = max(neighbors, default=-1) + 1

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges)

    def neighbors(self, bump: int) -> tuple[int, ...]:
        return self._neighbors.get(bump, ())

    def degree(self, bump: int) -> int:
        return len(self.neighbors(bump))

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.neighbors(a)

    @property
    def edge_count(self) -> int:
        return len(self.sorted_edges)


class _LatticeGraph(AdjacencyGraph):
    """The potential-short graph of a lattice map, answered by arithmetic.

    It keeps the offset classes :func:`potential_short_graph` accepts, keyed
    (dr, dc, row parity of the lower bump), each exact (every pair is an
    edge) or borderline (each pair is tested on the stored positions when
    asked).  Bump (r, c) meets (r + dr, c + dc) through every accepted class
    that fits the map, so nothing is stored per bump or per edge.
    """

    def __init__(self, bump_map: BumpMap, short_radius_um: float, classes: dict) -> None:
        lattice = bump_map.lattice
        rows, cols = self._rows, self._cols = lattice.rows, lattice.cols
        self._positions = bump_map.positions
        self._limit = short_radius_um * short_radius_um
        self.short_radius_um = short_radius_um
        self.id_bound = rows * cols
        # Per parity of a bump's row, the classes it opens as the lower bump
        # and, reversed, those its lower partners open, in (dr, dc) order,
        # which is ascending id: (first, end) row and column it fits, id
        # offset, exact.
        offsets: tuple[list, list] = ([], [])
        for (dr, dc, parity), exact in classes.items():
            offsets[parity].append((dr, dc, exact))
            offsets[(parity + dr) % 2].append((-dr, -dc, exact))
        self._offsets = tuple(
            [
                (max(0, -dr), rows - max(0, dr), max(0, -dc), cols - max(0, dc), dr * cols + dc, exact)
                for dr, dc, exact in sorted(table)
            ]
            for table in offsets
        )
        self._above = tuple([o for o in table if o[4] > 0] for table in self._offsets)
        if all(classes.values()):
            # Rows of one parity open the same classes; the color tiling's
            # row period is 4 on a hexagonal lattice, 2 on a rectangular one.
            depth = max((dr for dr, _, _ in classes), default=0)
            row_period = 4 if lattice.kind is LatticeKind.HEXAGONAL else 2
            self.period = (row_period * cols, (depth + 1) * cols)
        self.sorted_edges = _LatticeEdges(self)

    def _close(self, a: int, b: int) -> bool:
        (xa, ya), (xb, yb) = self._positions[a], self._positions[b]
        return (xb - xa) * (xb - xa) + (yb - ya) * (yb - ya) <= self._limit

    def _partners(self, bump: int, tables: tuple[list, list]) -> tuple[int, ...]:
        """The bump's partners, ascending, through the offsets of its row's parity."""
        r, c = divmod(bump, self._cols)
        if not 0 <= r < self._rows:
            return ()
        return tuple(
            bump + delta
            for r_lo, r_end, c_lo, c_end, delta, exact in tables[r % 2]
            if r_lo <= r < r_end and c_lo <= c < c_end and (exact or self._close(bump, bump + delta))
        )

    def neighbors(self, bump: int) -> tuple[int, ...]:
        return self._partners(bump, self._offsets)


class _LatticeEdges(Sequence):
    """A lattice graph's ``sorted_edges``: read-only, computed on request.

    With exact classes only, a row's edges depend only on its parity and on
    how many rows below it a class can reach.  So the edges of one row of
    each such kind are found once, as id offsets from the row's first bump,
    and every row of that kind is those offsets moved to its own start.  A
    graph with a borderline class walks each row bump by bump instead.  The
    length and the k-th edge come from per-row edge counts, so
    ``random.sample`` draws exactly as from the materialized tuple.
    """

    def __init__(self, graph: _LatticeGraph) -> None:
        self._graph = graph

    def _kind(self, r: int) -> tuple[int, int]:
        graph = self._graph
        return r % 2, min(graph._rows - r, graph.period[1] // graph._cols)

    @cached_property
    def _patterns(self) -> dict[tuple[int, int], tuple[list[int], list[int]]]:
        """Each row kind's edges as (lower, upper) offsets from the row's first bump."""
        graph = self._graph
        rows, cols = graph._rows, graph._cols
        patterns: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        # The first two rows and the last rows a class reaches past cover every kind.
        for r in {*range(min(2, rows)), *range(max(0, rows - graph.period[1] // cols), rows)}:
            kind, start = self._kind(r), r * cols
            if kind not in patterns:
                row = list(self._walk(range(start, start + cols)))
                patterns[kind] = [a - start for a, _ in row], [b - start for _, b in row]
        return patterns

    @cached_property
    def _row_starts(self) -> list[int]:
        """The number of edges above each row, and in all (last)."""
        starts = [0]
        for r in range(self._graph._rows):
            row = self._patterns[self._kind(r)][0] if self._graph.period else list(self._row(r))
            starts.append(starts[-1] + len(row))
        return starts

    def __len__(self) -> int:
        return self._row_starts[-1]

    def __getitem__(self, index: int) -> tuple[int, int]:
        starts = self._row_starts
        if index < 0:
            index += starts[-1]
        if not 0 <= index < starts[-1]:
            raise IndexError("edge index out of range")
        r = bisect_right(starts, index) - 1
        return next(islice(self._row(r), index - starts[r], None))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return chain.from_iterable(map(self._row, range(self._graph._rows)))

    def _row(self, r: int) -> Iterator[tuple[int, int]]:
        start = r * self._graph._cols
        if self._graph.period is None:
            return self._walk(range(start, start + self._graph._cols))
        lower, upper = self._patterns[self._kind(r)]
        return zip(map(add, repeat(start), lower), map(add, repeat(start), upper))

    def _walk(self, bumps: range) -> Iterator[tuple[int, int]]:
        above = self._graph._above
        return ((a, b) for a in bumps for b in self._graph._partners(a, above))


def _row_step(lattice: Lattice) -> float:
    if lattice.kind is LatticeKind.HEXAGONAL:
        return lattice.pitch_um * math.sqrt(3.0) / 2.0
    return lattice.pitch_um


def build_bump_map(lattice: Lattice) -> BumpMap:
    """Realize lattice geometry: positions in micrometers, row-major ids.

    Hexagonal lattices offset odd rows by pitch/2 and space rows by
    pitch*sqrt(3)/2 (close packing); rectangular lattices are a plain grid.
    """
    pitch = lattice.pitch_um
    row_step = _row_step(lattice)
    xs = [c * pitch for c in range(lattice.cols)]
    odd_xs = [x + pitch / 2.0 for x in xs] if lattice.kind is LatticeKind.HEXAGONAL else xs
    positions: list[tuple[float, float]] = []
    for r in range(lattice.rows):
        y = r * row_step
        positions += [(x, y) for x in (odd_xs if r % 2 else xs)]
    return BumpMap(lattice=lattice, positions=tuple(positions))


def potential_short_graph(bump_map: BumpMap, short_radius_um: float) -> AdjacencyGraph:
    """Edges between every bump pair with Euclidean distance <= short_radius_um.

    The map must hold the positions :func:`build_bump_map` gives its lattice.
    Bumps on rows more than radius/row_step + 1 apart, or on columns more
    than radius/pitch + 1 apart, are always farther apart than the radius
    (the hexagonal row offset shifts columns by only half a pitch).  So each
    bump is paired only with the bumps in its forward window: row offsets
    0..floor(radius/row_step)+1 and column offsets within
    +-(floor(radius/pitch)+1), clipped to the map, with positive column
    offsets only on its own row.  A pair is an edge when
    dx*dx + dy*dy <= radius*radius, with dx and dy taken from the stored
    positions.  The radius must be positive with a normal, finite square.

    On a regular lattice that distance depends only on the window offset
    (dr, dc) and, on a hexagonal lattice, on the lower bump's row parity.
    So each such offset class is decided once, from the lattice geometry:
    dx = dc*pitch (plus or minus pitch/2 for an odd hexagonal dr) and
    dy = dr*row_step.  Stored positions round differently, but every pair's
    squared distance stays within tol = 64*eps*reach**2 of its class's
    (rounding moves it by at most about tol/4), where
    reach = max(rows, cols)*pitch + radius bounds every coordinate and
    window difference.  A class more than tol beyond radius**2 holds no
    edge, and one more than tol inside it is all edges, with no float work
    per pair.  Only a class within tol of radius**2 (at a borderline factor
    such as 1, sqrt(2) or 2, where rounding can split it) tests each pair on
    its stored positions, when a query reaches it.  The returned graph holds
    the decided classes, not the pairs, so building it costs the number of
    classes, not of edges.
    """
    limit = short_radius_um * short_radius_um
    if not short_radius_um > 0 or not sys.float_info.min <= limit <= sys.float_info.max:
        raise ParameterError(
            "short radius must be positive and finite, between about 1.5e-154 and "
            f"1.3e154 um, got {short_radius_um}"
        )
    lattice = bump_map.lattice
    if bump_map.bump_count != lattice.bump_count:
        raise ParameterError(
            f"bump map holds {bump_map.bump_count} positions for a "
            f"{lattice.rows}x{lattice.cols} lattice"
        )
    rows, cols, pitch = lattice.rows, lattice.cols, lattice.pitch_um
    row_step = _row_step(lattice)
    dr_max = int(min(rows - 1, short_radius_um // row_step + 1))
    dc_max = int(min(cols - 1, short_radius_um // pitch + 1))
    hexagonal = lattice.kind is LatticeKind.HEXAGONAL
    reach = max(rows, cols) * pitch + short_radius_um
    # Written as 32*eps*(2*reach**2): 2*reach**2 bounds every class's squared
    # distance, so if it overflows tol is inf and every pair is tested.
    tol = 32 * sys.float_info.epsilon * (2 * reach * reach)
    classes: dict[tuple[int, int, int], bool] = {}
    for dr in range(dr_max + 1):
        class_dy = dr * row_step
        for dc in range(-dc_max if dr else 1, dc_max + 1):
            for parity in (0, 1):
                # An odd hexagonal dr puts the partner half a pitch right of
                # an even row's bump and half a pitch left of an odd row's.
                shift = (0.5 - parity) * pitch if hexagonal and dr % 2 else 0.0
                class_dx = dc * pitch + shift
                gap = class_dx * class_dx + class_dy * class_dy - limit
                if gap <= tol:
                    classes[dr, dc, parity] = gap < -tol
    return _LatticeGraph(bump_map, short_radius_um, classes)


def periodic_tiling_coloring(lattice: Lattice) -> tuple[Color, ...]:
    """Structured 4-coloring with period 2 in columns and 4 (hex) / 2 (rect) in rows.

    For the hexagonal lattice the color class of bump (r, c) is
    (r mod 2, (c + r//2) mod 2); every same-class pair is >= 2*pitch apart, so
    the coloring is proper on the 12-neighborhood (both close-packed rings).
    The rectangular class is plain (r mod 2, c mod 2), proper for any short
    radius below 2*pitch.
    """
    colors = []
    for r in range(lattice.rows):
        for c in range(lattice.cols):
            if lattice.kind is LatticeKind.HEXAGONAL:
                idx = (r % 2) * 2 + (c + r // 2) % 2
            else:
                idx = (r % 2) * 2 + c % 2
            colors.append(COLOR_ORDER[idx])
    return tuple(colors)


def _greedy_coloring(bump_count: int, graph: AdjacencyGraph) -> tuple[Color, ...] | None:
    """Smallest-available color in bump-id order; None if a 5th color is needed.

    On a graph with a ``period`` (shift, window), a bump's color follows
    from the colors of the window below it as the color shift ids earlier
    follows from its window.  So once, at a multiple of shift, the last
    window of colors repeats the one shift earlier, every later color
    repeats too, and the last shift colors are tiled to the end.
    """
    shift, window = graph.period or (0, 0)
    assigned: list[Color] = []
    for b in range(bump_count):
        if shift and b % shift == 0 and b >= shift + window:
            if assigned[b - window :] == assigned[b - window - shift : b - shift]:
                whole, part = divmod(bump_count - b, shift)
                tile = assigned[b - shift :]
                return tuple(assigned + tile * whole + tile[:part])
        used = {assigned[n] for n in graph.neighbors(b) if n < b}
        for color in COLOR_ORDER:
            if color not in used:
                break
        else:
            return None
        assigned.append(color)
    return tuple(assigned)


def coloring_violations(
    coloring: tuple[Color, ...], graph: AdjacencyGraph
) -> tuple[tuple[int, int], ...]:
    """Edges whose endpoints share a color (empty iff the coloring is proper)."""
    return tuple(e for e in graph.sorted_edges if coloring[e[0]] is coloring[e[1]])


def assign_codewords(bump_map: BumpMap, graph: AdjacencyGraph) -> BumpMap:
    """Assign a proper coloring with at most 4 colors, or fail loudly.

    Greedy (smallest available color in bump-id order) runs first; when it
    would need a 5th color the periodic lattice tiling is used instead,
    provided it is proper on the given graph, which the first clash
    disproves.  A 5th color is never emitted silently.
    """
    bump_count = bump_map.bump_count
    if graph.id_bound > bump_count:
        foreign = next((e for e in graph.sorted_edges if e[1] >= bump_count), None)
        if foreign:
            raise ParameterError(f"edge {foreign} references a bump outside the map")
    coloring = _greedy_coloring(bump_count, graph)
    if coloring is None:
        tiling = periodic_tiling_coloring(bump_map.lattice)
        if any(tiling[a] is tiling[b] for a, b in graph.sorted_edges):
            raise ColoringError(
                "coloring failed: greedy needs a 5th color and the periodic "
                "tiling is not proper on this graph"
            )
        coloring = tiling
    return replace(bump_map, coloring=coloring)


def partition_blocks(bump_map: BumpMap, block_count: int) -> BumpMap:
    """Split the map into contiguous column bands of near-equal width.

    Band widths differ by at most one column, wider bands first.  Requires
    block_count <= cols so that every block is non-empty.
    """
    cols = bump_map.lattice.cols
    if not isinstance(block_count, int) or block_count < 1:
        raise ParameterError(f"block_count must be a positive integer, got {block_count}")
    if block_count > cols:
        raise ParameterError(
            f"block_count {block_count} exceeds the {cols} columns available "
            "for column-band partitioning"
        )
    base, extra = divmod(cols, block_count)
    col_to_block = []
    for k in range(block_count):
        width = base + (1 if k < extra else 0)
        col_to_block.extend([k] * width)
    blocks = tuple(col_to_block) * bump_map.lattice.rows
    return replace(bump_map, blocks=blocks, block_count=block_count)


def block_sizes(bump_map: BumpMap) -> list[int]:
    """The number of bumps in each block, from one pass over ``blocks``."""
    sizes = [0] * bump_map.block_count
    for k in bump_map.blocks:
        sizes[k] += 1
    return sizes
