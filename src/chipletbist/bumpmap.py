"""Bump lattice geometry, potential-short adjacency, codeword coloring, and blocks.

The package I/O bumps sit on a rectangular or hexagonal (close-packed)
lattice.  Bumps whose lattice distance is at most the short radius can
short against each other and form the potential-short adjacency graph.  On
a regular lattice that distance depends only on a pair's row and column
offsets and, on a hexagonal lattice, on the lower bump's row parity.  So
each such offset class is decided once, exactly, in integers, from the pitch
and the radius taken as the exact values of their doubles: a radius on a
ring of the lattice holds the whole ring, and no pair is ever tested on its
rounded positions.  The graph keeps only the accepted classes and
answers neighbours, degrees, edges and the edge count by arithmetic on (row,
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
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, repeat, starmap
from operator import add

from .errors import ColoringError, ParameterError
from .kinds import LatticeKind
from .record import Record

# Largest lattice (rows * cols) accepted, checked before anything allocates;
# a typo such as 100000x100000 would otherwise exhaust memory.
MAX_BUMPS = 512 * 512


# Rows in one period of the 4-color tiling, which the greedy coloring of a
# lattice graph repeats too.
_TILING_ROWS = {LatticeKind.HEXAGONAL: 4, LatticeKind.RECTANGULAR: 2}


class Color(Enum):
    """Codeword color classes; the drive patterns live in the BIST engine."""

    GREEN = "green"
    BLUE = "blue"
    RED = "red"
    BLACK = "black"


COLOR_ORDER = (Color.GREEN, Color.BLUE, Color.RED, Color.BLACK)
COLOR_INDEX = {color: i for i, color in enumerate(COLOR_ORDER)}


class Lattice(Record):
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


class BumpMap(Record):
    """A lattice plus (once assigned) codeword coloring and block split.

    Bump ids are dense, 0..rows*cols-1, in row-major order.  ``coloring`` and
    ``blocks`` are tuples indexed by bump id; they are None until
    :func:`assign_codewords` / :func:`partition_blocks` produce them.
    """

    __slots__ = ("__dict__",)  # where ``positions`` is kept

    lattice: Lattice
    coloring: tuple[Color, ...] | None = None
    blocks: tuple[int, ...] | None = None
    block_count: int | None = None

    @property
    def bump_count(self) -> int:
        return self.lattice.bump_count

    @cached_property
    def positions(self) -> tuple[tuple[float, float], ...]:
        """Each bump's (x, y) in micrometers, by id, from :func:`lattice_coordinates`."""
        xs, odd_xs, ys = lattice_coordinates(self.lattice)
        return tuple((x, y) for r, y in enumerate(ys) for x in (odd_xs if r % 2 else xs))

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
        pairs = set()
        for a, b in edges:
            if a == b:
                raise ParameterError(f"self-loop edge on bump {a}")
            if a < 0 or b < 0:
                raise ParameterError(f"negative bump id in edge ({a}, {b})")
            pairs.add((a, b) if a < b else (b, a))
        # In ascending edge order every neighbour list comes out ascending.
        self.sorted_edges: Sequence[tuple[int, int]] = tuple(sorted(pairs))
        neighbors: defaultdict[int, list[int]] = defaultdict(list)
        for a, b in self.sorted_edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        self._neighbors = {bump: tuple(partners) for bump, partners in neighbors.items()}
        self.short_radius_um = short_radius_um
        self.id_bound = max(self._neighbors, default=-1) + 1

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
    (dr, dc, row parity of the lower bump); every pair of an accepted class
    is an edge.  Bump (r, c) meets (r + dr, c + dc) through every accepted
    class that fits the map, so nothing is stored per bump or per edge.
    """

    def __init__(
        self, lattice: Lattice, short_radius_um: float, classes: list[tuple[int, int, int]]
    ) -> None:
        rows, cols = self._rows, self._cols = lattice.rows, lattice.cols
        self.short_radius_um = short_radius_um
        self.id_bound = rows * cols
        # Per parity of a bump's row, the classes it opens as the lower bump
        # and, reversed, those its lower partners open, in (dr, dc) order,
        # which is ascending id: (first, end) row and column it fits, and
        # id offset.
        offsets: tuple[list, list] = ([], [])
        for dr, dc, parity in classes:
            offsets[parity].append((dr, dc))
            offsets[(parity + dr) % 2].append((-dr, -dc))
        self._offsets = tuple(
            [
                (max(0, -dr), rows - max(0, dr), max(0, -dc), cols - max(0, dc), dr * cols + dc)
                for dr, dc in sorted(table)
            ]
            for table in offsets
        )
        self._above = tuple([o for o in table if o[4] > 0] for table in self._offsets)
        # Rows of one parity open the same classes, so greedy colors that
        # repeat over the tiling's row period repeat to the last row.
        depth = max((dr for dr, _, _ in classes), default=0)
        self.period = (_TILING_ROWS[lattice.kind] * cols, (depth + 1) * cols)
        self.sorted_edges = _LatticeEdges(self)

    def _partners(self, bump: int, tables: tuple[list, list]) -> tuple[int, ...]:
        """The bump's partners, ascending, through the offsets of its row's parity."""
        r, c = divmod(bump, self._cols)
        if not 0 <= r < self._rows:
            return ()
        return tuple(
            bump + delta
            for r_lo, r_end, c_lo, c_end, delta in tables[r % 2]
            if r_lo <= r < r_end and c_lo <= c < c_end
        )

    def neighbors(self, bump: int) -> tuple[int, ...]:
        return self._partners(bump, self._offsets)


class _LatticeEdges(Sequence):
    """A lattice graph's ``sorted_edges``: read-only, computed on request.

    A row's edges depend only on its parity and on how many rows below it a
    class can reach.  So the edges of a row of each such kind are found when
    a row of that kind is first asked for, as id offsets from the row's
    first bump, and every row of that kind is those offsets moved to its own
    start.  :meth:`row_patterns` yields each row as its first id and that
    pattern: iteration shifts it into edges, and gen-map writes it without
    an edge tuple.  The length and the k-th edge come from per-row edge
    counts, so ``random.sample`` draws exactly as from the materialized
    tuple.
    """

    def __init__(self, graph: _LatticeGraph) -> None:
        self._graph = graph
        self._patterns: dict[tuple[int, int], tuple[list[int], list[int]]] = {}

    def _pattern(self, r: int) -> tuple[list[int], list[int]]:
        """Row r's edges as (lower, upper) offsets from the row's first bump."""
        graph = self._graph
        kind = r % 2, min(graph._rows - r, graph.period[1] // graph._cols)
        if kind not in self._patterns:
            start, lower, upper = r * graph._cols, [], []
            for a in range(graph._cols):
                partners = graph._partners(start + a, graph._above)
                lower += [a] * len(partners)
                upper += [b - start for b in partners]
            self._patterns[kind] = lower, upper
        return self._patterns[kind]

    def row_patterns(self) -> Iterator[tuple[int, list[int], list[int]]]:
        """Each row's first id and its edges' (lower, upper) offsets from it,
        every one below the ``period`` window, (depth + 1) * cols."""
        cols = self._graph._cols
        return ((r * cols, *self._pattern(r)) for r in range(self._graph._rows))

    @cached_property
    def _row_starts(self) -> list[int]:
        """The number of edges above each row, and in all (last)."""
        rows = range(self._graph._rows)
        return list(accumulate((len(self._pattern(r)[0]) for r in rows), initial=0))

    def __len__(self) -> int:
        return self._row_starts[-1]

    def __getitem__(self, index: int) -> tuple[int, int]:
        starts = self._row_starts
        if index < 0:
            index += starts[-1]
        if not 0 <= index < starts[-1]:
            raise IndexError("edge index out of range")
        r = bisect_right(starts, index) - 1
        (lower, upper), k = self._pattern(r), index - starts[r]
        start = r * self._graph._cols
        return start + lower[k], start + upper[k]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return chain.from_iterable(starmap(_shifted, self.row_patterns()))


def _shifted(start: int, lower: list[int], upper: list[int]) -> Iterator[tuple[int, int]]:
    """A row's edges from its first id and its (lower, upper) offsets."""
    return zip(map(add, repeat(start), lower), map(add, repeat(start), upper))


def lattice_coordinates(lattice: Lattice) -> tuple[list[float], list[float], list[float]]:
    """The x of each column in even rows and in odd rows, and the y of each
    row, in micrometers.

    Hexagonal lattices offset odd rows by pitch/2 and space rows by
    pitch*sqrt(3)/2 (close packing); rectangular lattices are a plain grid.
    """
    pitch = lattice.pitch_um
    hexagonal = lattice.kind is LatticeKind.HEXAGONAL
    row_step = pitch * math.sqrt(3.0) / 2.0 if hexagonal else pitch
    xs = [c * pitch for c in range(lattice.cols)]
    odd_xs = [x + pitch / 2.0 for x in xs] if hexagonal else xs
    return xs, odd_xs, [r * row_step for r in range(lattice.rows)]


def build_bump_map(lattice: Lattice) -> BumpMap:
    """The lattice's map, with row-major ids and no coloring or blocks yet."""
    return BumpMap(lattice)


def potential_short_graph(bump_map: BumpMap, short_radius_um: float) -> AdjacencyGraph:
    """Edges between every bump pair whose lattice distance is <= short_radius_um.

    The distance is the lattice's own: the pitch and the radius are taken
    as the exact values of their doubles, and the hexagonal row step as
    exactly pitch*sqrt(3)/2, not as rounded positions.  In units
    of pitch**2/4, the squared distance of row offset dr and column offset
    dc is 4*(dc**2 + dr**2) on a rectangular lattice and
    (2*dc + s)**2 + 3*dr**2 on a hexagonal one, where s is 0 for an even dr
    and +1 or -1 for an odd dr from an even or an odd row.  So each offset
    class (dr, dc, lower row parity) is decided once, in integers: with
    pitch = pn/pd and radius = rn/rd, it is all edges when
    quarters*(pn*rd)**2 <= 4*(rn*pd)**2 and none otherwise.  A radius on a
    ring of the lattice (a factor of 1, 2 or 3, say) holds the whole ring.
    math.sqrt(3.0) lies just below sqrt(3), so that factor leaves the
    sqrt(3) ring out whole, unless its product with the pitch rounds up
    past sqrt(3)*pitch (it does at pitch 3, not at 20 or 7.3).

    The radius must be positive with a normal, finite square.
    The returned graph holds the accepted classes, not the pairs, so
    building it costs the number of classes within the radius, not of
    edges.
    """
    limit = short_radius_um * short_radius_um
    if not short_radius_um > 0 or not sys.float_info.min <= limit <= sys.float_info.max:
        raise ParameterError(
            "short radius must be positive and finite, between about 1.5e-154 and "
            f"1.3e154 um, got {short_radius_um}"
        )
    lattice = bump_map.lattice
    (pn, pd), (rn, rd) = lattice.pitch_um.as_integer_ratio(), short_radius_um.as_integer_ratio()
    # The largest squared distance within the radius, in units of pitch**2/4.
    quarters_max = 4 * (rn * pd) ** 2 // (pn * rd) ** 2
    # Every class within it has 3*dr**2 <= quarters_max and 2*|dc| - 1 <= isqrt(quarters_max).
    dr_max = min(lattice.rows - 1, math.isqrt(quarters_max // 3))
    dc_max = min(lattice.cols - 1, (math.isqrt(quarters_max) + 1) // 2)
    hexagonal = lattice.kind is LatticeKind.HEXAGONAL
    classes = []
    for dr in range(dr_max + 1):
        for dc in range(-dc_max if dr else 1, dc_max + 1):
            for parity in (0, 1):
                if hexagonal:
                    # An odd dr puts the partner half a pitch right of an
                    # even row's bump and half a pitch left of an odd row's.
                    quarters = (2 * dc + (1 - 2 * parity) * (dr % 2)) ** 2 + 3 * dr * dr
                else:
                    quarters = 4 * (dc * dc + dr * dr)
                if quarters <= quarters_max:
                    classes.append((dr, dc, parity))
    return _LatticeGraph(lattice, short_radius_um, classes)


def periodic_tiling_coloring(lattice: Lattice) -> tuple[Color, ...]:
    """Structured 4-coloring with period 2 in columns and 4 (hex) / 2 (rect) in rows.

    For the hexagonal lattice the color class of bump (r, c) is
    (r mod 2, (c + r//2) mod 2); every same-class pair is >= 2*pitch apart, so
    the coloring is proper on the 12-neighborhood (both close-packed rings).
    The rectangular class is plain (r mod 2, c mod 2), proper for any short
    radius below 2*pitch.
    """
    hexagonal = lattice.kind is LatticeKind.HEXAGONAL
    period = [
        COLOR_ORDER[(r % 2) * 2 + (c + (r // 2 if hexagonal else 0)) % 2]
        for r in range(min(lattice.rows, _TILING_ROWS[lattice.kind]))
        for c in range(lattice.cols)
    ]
    return _tiled([], period, lattice.bump_count)


def _tiled(head: list[Color], tile: list[Color], count: int) -> tuple[Color, ...]:
    """The head colors, then the tile repeated, cut to count colors in all."""
    whole, part = divmod(count - len(head), len(tile))
    return tuple(head + tile * whole + tile[:part])


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
                return _tiled(assigned, assigned[b - shift :], bump_count)
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
        if any(tiling[a] is tiling[b] for a in range(bump_count) for b in graph.neighbors(a)):
            raise ColoringError(
                "coloring failed: greedy needs a 5th color and the periodic "
                "tiling is not proper on this graph"
            )
        coloring = tiling
    return BumpMap(bump_map.lattice, coloring, bump_map.blocks, bump_map.block_count)


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
    return BumpMap(bump_map.lattice, bump_map.coloring, blocks, block_count)


def block_sizes(bump_map: BumpMap) -> list[int]:
    """The number of bumps in each block, from one pass over ``blocks``."""
    sizes = [0] * bump_map.block_count
    for k in bump_map.blocks:
        sizes[k] += 1
    return sizes
