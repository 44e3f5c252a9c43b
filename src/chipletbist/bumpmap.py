"""Bump lattice geometry, potential-short adjacency, codeword coloring, and blocks.

The package I/O bumps sit on a rectangular or hexagonal (close-packed)
lattice.  Bumps that are close enough to short against each other form the
potential-short adjacency graph.  Because the lattice is regular, every
partner of a bump within the short radius lies in a small forward window of
row and column offsets, so the graph is enumerated by scanning that window
per bump; no spatial index is needed.  Whether a pair can short depends only
on its window offset and, on a hexagonal lattice, the lower bump's row
parity, so each such offset class is decided once from the lattice geometry:
all edges or none, unless its distance is within a rounding tolerance (scaled
by the lattice extent) of the radius, where each pair is tested on its stored
positions.  The scan yields each bump's higher neighbours already ascending,
from which one pass builds the graph's whole state: every bump's ascending
neighbour tuple and the ascending edge tuple (the edge set is derived from it
on request).  A proper 4-coloring of the graph decides which of the four test
codewords each bump receives, and contiguous column bands split the map into
sequentially tested blocks.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

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

    The stored state is each bump's neighbour tuple, ascending, and
    ``sorted_edges``: every edge once, normalized (a < b), with no
    self-loops, in ascending order, which is the one edge order every
    consumer uses.  ``edges`` is not stored: each access builds a frozenset
    of ``sorted_edges``.  Any edge iterable is reduced to each bump's
    ascending higher neighbours; one pass over those in bump order fills
    every neighbour tuple, since a bump meets all its lower neighbours first.
    """

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
        self._fill(((a, sorted(higher[a])) for a in sorted(higher)), short_radius_um)

    def _fill(
        self,
        higher: Iterable[tuple[int, list[int]]],
        short_radius_um: float | None,
    ) -> None:
        """Set the whole state from (bump, ascending higher neighbours), bumps ascending."""
        lower: defaultdict[int, list[int]] = defaultdict(list)
        neighbors: dict[int, tuple[int, ...]] = {}
        edges: list[tuple[int, int]] = []
        for a, above in higher:
            for b in above:
                lower[b].append(a)
                edges.append((a, b))
            below = lower.pop(a, None)
            if below:
                below += above
                neighbors[a] = tuple(below)
            elif above:
                neighbors[a] = tuple(above)
        for b, below in lower.items():
            neighbors[b] = tuple(below)
        self._neighbors = neighbors
        self.sorted_edges: tuple[tuple[int, int], ...] = tuple(edges)
        self.short_radius_um = short_radius_um

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges)

    def neighbors(self, bump: int) -> tuple[int, ...]:
        return self._neighbors.get(bump, ())

    def degree(self, bump: int) -> int:
        return len(self._neighbors.get(bump, ()))

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._neighbors.get(a, ())

    @property
    def edge_count(self) -> int:
        return len(self.sorted_edges)


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
    its stored positions.
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
    xs = [x for x, _ in bump_map.positions]
    ys = [y for _, y in bump_map.positions]
    # Ids are row-major, so a bump's partners in (dr, dc) window order are
    # in ascending id order: each higher-neighbour list comes out ascending.
    higher: list[list[int]] = [[] for _ in range(rows * cols)]
    for dr in range(dr_max + 1):
        class_dy = dr * row_step
        for dc in range(-dc_max if dr else 1, dc_max + 1):
            offset = dr * cols + dc
            c_lo, c_hi = max(0, -dc), min(cols, cols - dc)
            for parity in (0, 1):
                # An odd hexagonal dr puts the partner half a pitch right of
                # an even row's bump and half a pitch left of an odd row's.
                shift = (0.5 - parity) * pitch if hexagonal and dr % 2 else 0.0
                class_dx = dc * pitch + shift
                gap = class_dx * class_dx + class_dy * class_dy - limit
                if gap > tol:
                    continue
                row_starts = range(parity * cols, (rows - dr) * cols, 2 * cols)
                if gap < -tol:
                    for row_start in row_starts:
                        for a in range(row_start + c_lo, row_start + c_hi):
                            higher[a].append(a + offset)
                    continue
                for row_start in row_starts:
                    for a in range(row_start + c_lo, row_start + c_hi):
                        dx = xs[a + offset] - xs[a]
                        dy = ys[a + offset] - ys[a]
                        if dx * dx + dy * dy <= limit:
                            higher[a].append(a + offset)
    # Past __init__: these lists need no normalizing, sorting or de-duplicating.
    graph = AdjacencyGraph.__new__(AdjacencyGraph)
    graph._fill(enumerate(higher), short_radius_um)
    return graph


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
    """Smallest-available-color in bump-id order; None if a 5th color is needed."""
    assigned: list[int] = []
    for b in range(bump_count):
        used = {assigned[n] for n in graph.neighbors(b) if n < b}
        color = 0
        while color in used:
            color += 1
        if color >= len(COLOR_ORDER):
            return None
        assigned.append(color)
    return tuple(COLOR_ORDER[i] for i in assigned)


def coloring_violations(
    coloring: tuple[Color, ...], graph: AdjacencyGraph
) -> tuple[tuple[int, int], ...]:
    """Edges whose endpoints share a color (empty iff the coloring is proper)."""
    return tuple(e for e in graph.sorted_edges if coloring[e[0]] is coloring[e[1]])


def assign_codewords(bump_map: BumpMap, graph: AdjacencyGraph) -> BumpMap:
    """Assign a proper coloring with at most 4 colors, or fail loudly.

    Greedy (smallest available color in bump-id order) runs first; when it
    would need a 5th color the periodic lattice tiling is used instead,
    provided it is proper on the given graph.  A 5th color is never emitted
    silently.
    """
    bump_count = bump_map.bump_count
    if max(graph._neighbors, default=-1) >= bump_count:
        a, b = next(e for e in graph.sorted_edges if e[1] >= bump_count)
        raise ParameterError(f"edge ({a}, {b}) references a bump outside the map")
    coloring = _greedy_coloring(bump_count, graph)
    if coloring is None:
        tiling = periodic_tiling_coloring(bump_map.lattice)
        if coloring_violations(tiling, graph):
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
