"""Tests for lattice geometry, adjacency, coloring, and block partitioning."""

import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from chipletbist.bist import NOMINAL_RESPONSE, Bridge, BridgeBehavior, run_block_test
from chipletbist.bumpmap import (
    AdjacencyGraph,
    BumpMap,
    COLOR_ORDER,
    Color,
    Lattice,
    LatticeKind,
    MAX_BUMPS,
    _greedy_coloring,
    assign_codewords,
    build_bump_map,
    coloring_violations,
    partition_blocks,
    periodic_tiling_coloring,
    potential_short_graph,
)
from chipletbist.errors import ColoringError, ParameterError
from chipletbist.kinds import DEFAULT_SHORT_RADIUS_FACTOR

PITCH = 20.0


def hex_lattice(rows, cols, pitch=PITCH):
    return Lattice(LatticeKind.HEXAGONAL, rows, cols, pitch)


def rect_lattice(rows, cols, pitch=PITCH):
    return Lattice(LatticeKind.RECTANGULAR, rows, cols, pitch)


@pytest.mark.parametrize(
    "rows,cols,pitch",
    [
        (0, 3, 20.0),
        (3, 0, 20.0),
        (-1, 3, 20.0),
        (3, 3, 0.0),
        (3, 3, -5.0),
        (3, 3, math.inf),
        (3, 3, math.nan),
        (16, 16, 1e308),  # the extent cols*pitch overflows
        (1, 2, 1e308),
        (2, 1, 1e308),
    ],
)
def test_lattice_rejects_invalid_dimensions(rows, cols, pitch):
    with pytest.raises(ParameterError):
        Lattice(LatticeKind.RECTANGULAR, rows, cols, pitch)


def test_lattice_bump_count_is_capped():
    assert Lattice(LatticeKind.HEXAGONAL, 512, 512, 20.0).bump_count == MAX_BUMPS
    for rows, cols in ((513, 512), (512, 513), (1, MAX_BUMPS + 1)):
        with pytest.raises(ParameterError, match="bumps allowed"):
            Lattice(LatticeKind.HEXAGONAL, rows, cols, 20.0)


def test_single_bump_map():
    bump_map = build_bump_map(rect_lattice(1, 1))
    assert bump_map.positions == ((0.0, 0.0),)


def test_rect_2x2_positions():
    bump_map = build_bump_map(rect_lattice(2, 2))
    assert bump_map.positions == ((0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0))


def test_hex_2x2_positions_offsets_odd_row():
    bump_map = build_bump_map(hex_lattice(2, 2))
    y1 = 20.0 * math.sqrt(3.0) / 2.0
    expected = ((0.0, 0.0), (20.0, 0.0), (10.0, y1), (30.0, y1))
    for got, want in zip(bump_map.positions, expected):
        assert got == pytest.approx(want, abs=1e-12)
    assert bump_map.positions[2][1] == pytest.approx(17.320508075688772)


@pytest.mark.parametrize("pitch", [20.0, 7.3, 1e-3])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 9])
@pytest.mark.parametrize("kind", list(LatticeKind))
def test_positions_follow_the_per_bump_formula(kind, rows, pitch):
    hexagonal = kind is LatticeKind.HEXAGONAL
    row_step = pitch * math.sqrt(3.0) / 2.0 if hexagonal else pitch
    for cols in (1, 2, 3, 4, 5, 9):
        want = tuple(
            (c * pitch + (pitch / 2.0 if hexagonal and r % 2 else 0.0), r * row_step)
            for r in range(rows)
            for c in range(cols)
        )
        assert build_bump_map(Lattice(kind, rows, cols, pitch)).positions == want, cols


def test_a_map_is_its_lattice_and_the_decisions_made_on_it():
    lattice = hex_lattice(3, 4)
    bump_map = build_bump_map(lattice)
    assert BumpMap._fields == ("lattice", "coloring", "blocks", "block_count")
    assert bump_map == BumpMap(lattice)
    assert bump_map.bump_count == 12
    # Computed on first read and kept.
    assert bump_map.positions is bump_map.positions


def test_row_major_bump_ids():
    bump_map = build_bump_map(rect_lattice(3, 4))
    assert bump_map.bump_count == 12
    assert bump_map.row_col(0) == (0, 0)
    assert bump_map.row_col(5) == (1, 1)
    assert bump_map.row_col(11) == (2, 3)


def test_short_radius_must_be_positive():
    bump_map = build_bump_map(rect_lattice(2, 2))
    # 1e300 and 1e-160 have squares that overflow or underflow.
    for radius in (0.0, -1.0, math.inf, math.nan, 1e300, 1e-160):
        with pytest.raises(ParameterError):
            potential_short_graph(bump_map, radius)


# Edge count and SHA-256 of repr(sorted(edges)) at pitch 20, as the k-d tree
# (scipy cKDTree.query_pairs) gave them before the lattice-window scan.  The
# hexagonal 1.0 and 2.0 radii lie on a ring, which the k-d tree split on the
# stored positions; their pins hold the whole ring, as the exact lattice
# distance decides (1.0 holds the first ring only, as 1.5 does).
EDGE_FINGERPRINTS = [
    ("hexagonal", 64, 1.0, 12033, "288dbce75b8d044c4a20f8e7fc9faeaed2b286dcbb380353b40230580af71bad"),
    ("hexagonal", 64, 1.5, 12033, "288dbce75b8d044c4a20f8e7fc9faeaed2b286dcbb380353b40230580af71bad"),
    ("hexagonal", 64, 1.9, 23876, "8f350864dab7337e3b53bc9e91ae93ab7aeeff443771f662cbc3a194d1987dc3"),
    ("hexagonal", 64, 2.0, 35656, "844cb4b1f19edb37750a6de172370308affed6bbf3305595f41c9f29155dee17"),
    ("rectangular", 64, 1.0, 8064, "4093194e86260f0137cd413d98eb3d1146bdf425a21d0142df274c483bf2505c"),
    ("rectangular", 64, 1.5, 16002, "c1baae32af6db2aa0981a496edf74fb6bc43587d29cd4e73205e9cf03f546a6c"),
    ("rectangular", 64, 1.9, 16002, "c1baae32af6db2aa0981a496edf74fb6bc43587d29cd4e73205e9cf03f546a6c"),
    ("rectangular", 64, 2.0, 23938, "3d91ff7c1003679b1622bbbcc13b75b74b9b5da749174216d5da059dd3fd0ca1"),
    ("hexagonal", 128, 1.9, 96900, "5bc60f455d1a2531d9206e185659147bffcfd8e0a4f9ff8c270265add240bb5c"),
]


@pytest.mark.parametrize(
    "kind,side,factor,count,digest",
    EDGE_FINGERPRINTS,
    ids=[f"{kind}-{side}-{factor}" for kind, side, factor, _, _ in EDGE_FINGERPRINTS],
)
def test_short_graph_edge_set_is_pinned(kind, side, factor, count, digest):
    lattice = Lattice(LatticeKind(kind), side, side, PITCH)
    graph = potential_short_graph(build_bump_map(lattice), factor * PITCH)
    assert graph.edge_count == count
    assert hashlib.sha256(repr(sorted(graph.edges)).encode()).hexdigest() == digest


def brute_force_edges(bump_map, radius):
    limit = radius * radius
    edges = set()
    for (a, (xa, ya)), (b, (xb, yb)) in itertools.combinations(enumerate(bump_map.positions), 2):
        if (xb - xa) * (xb - xa) + (yb - ya) * (yb - ya) <= limit:
            edges.add((a, b))
    return edges


def half_pitch_points(lattice):
    """Each bump's (x, row) with x in half pitches: 2*col, plus 1 on an odd hexagonal row."""
    odd_shift = 1 if lattice.kind is LatticeKind.HEXAGONAL else 0
    return [(2 * c + odd_shift * (r % 2), r) for r in range(lattice.rows) for c in range(lattice.cols)]


def quarters_within(lattice, radius):
    """The largest 4*d**2/pitch**2 within the radius, pitch and radius taken exactly."""
    return math.floor(4 * Fraction(radius) ** 2 / Fraction(lattice.pitch_um) ** 2)


def lattice_edges(lattice, radius, pairs=None):
    """The pairs (a < b; all of them by default) whose exact lattice distance is at most the radius.

    Each pair is tested from its (row, col): in quarter-pitch**2 units the
    squared distance is dx**2 + 3*dr**2 on a hexagonal lattice (rows
    pitch*sqrt(3)/2 apart) and dx**2 + 4*dr**2 on a rectangular one, dx in
    half pitches.
    """
    points = half_pitch_points(lattice)
    row_weight = 3 if lattice.kind is LatticeKind.HEXAGONAL else 4
    limit = quarters_within(lattice, radius)
    if pairs is None:
        pairs = itertools.combinations(range(len(points)), 2)
    return {
        (a, b)
        for a, b in pairs
        if (points[b][0] - points[a][0]) ** 2 + row_weight * (points[b][1] - points[a][1]) ** 2
        <= limit
    }


# Factors whose radius is not within rounding of any lattice ring at the
# pitches tested: there the stored positions decide every pair as the
# exact lattice distance does.
OFF_RING_FACTORS = (0.5, 1.5, 1.8, 1.9, 1.99, 2.5)


def reference_edges(bump_map, factor):
    """The exact lattice edges at factor * pitch, checked off the rings against the stored positions."""
    radius = factor * bump_map.lattice.pitch_um
    edges = lattice_edges(bump_map.lattice, radius)
    if factor in OFF_RING_FACTORS:
        assert edges == brute_force_edges(bump_map, radius)
    return edges


@pytest.mark.parametrize("kind", list(LatticeKind), ids=lambda k: k.value)
@pytest.mark.parametrize("pitch", [20.0, 1 / 3, 7.3])
@pytest.mark.parametrize(
    "factor", [0.5, 1.0, math.sqrt(2.0), 1.5, math.sqrt(3.0), 1.9, 2.0, 2.5, 3.0]
)
def test_short_graph_matches_all_pairs_scan(kind, pitch, factor):
    for rows, cols in [(1, 1), (1, 9), (9, 1), (6, 7), (20, 20)]:
        bump_map = build_bump_map(Lattice(kind, rows, cols, pitch))
        graph = potential_short_graph(bump_map, factor * pitch)
        assert graph.edges == reference_edges(bump_map, factor), (rows, cols)


@pytest.mark.parametrize("kind", list(LatticeKind), ids=lambda k: k.value)
@pytest.mark.parametrize("pitch", [20.0, 1 / 3, 7.3])
@pytest.mark.parametrize(
    "factor", [0.5, 1.0, math.sqrt(2.0), 1.5, math.sqrt(3.0), 1.9, 2.0, 2.5, 3.0]
)
def test_scan_built_graph_state_matches_all_pairs_scan(kind, pitch, factor):
    # The scan appends partners in window order and never sorts: row-major
    # ids make (dr, dc) order ascending for every bump, a column-first order
    # would not.  On the 3x2 and 2x3 maps adjacent rows' window offsets
    # coincide or interleave.
    for rows, cols in [(1, 1), (1, 9), (9, 1), (3, 2), (2, 3), (6, 7), (20, 20)]:
        bump_map = build_bump_map(Lattice(kind, rows, cols, pitch))
        graph = potential_short_graph(bump_map, factor * pitch)
        brute = sorted(reference_edges(bump_map, factor))
        assert tuple(graph.sorted_edges) == tuple(brute), (rows, cols)
        expected = {bump: [] for bump in range(bump_map.bump_count)}
        for a, b in brute:
            expected[a].append(b)
            expected[b].append(a)
        for bump, neighbors in expected.items():
            assert list(graph.neighbors(bump)) == sorted(neighbors), (rows, cols, bump)
        assert graph.edges == frozenset(graph.sorted_edges)


def window_scan(bump_map, radius):
    """Per-pair reference over each bump's forward lattice window.

    Returns the ascending edges and each bump's ascending neighbours by
    exact lattice distance, tested pair by pair, and the pairs of every
    offset class (dr, dc, lower row parity) that the stored positions split:
    some of its pairs lie within the radius on them and some do not.
    """
    lattice = bump_map.lattice
    rows, cols, pitch = lattice.rows, lattice.cols, lattice.pitch_um
    row_step = pitch * math.sqrt(3.0) / 2.0 if lattice.kind is LatticeKind.HEXAGONAL else pitch
    dr_max = int(min(rows - 1, radius // row_step + 1))
    dc_max = int(min(cols - 1, radius // pitch + 1))
    limit = radius * radius
    xs = [x for x, _ in bump_map.positions]
    ys = [y for _, y in bump_map.positions]
    points = half_pitch_points(lattice)
    row_weight = 3 if lattice.kind is LatticeKind.HEXAGONAL else 4
    quarters_max = quarters_within(lattice, radius)
    higher = [[] for _ in range(rows * cols)]
    splits = []
    for dr in range(dr_max + 1):
        for dc in range(-dc_max if dr else 1, dc_max + 1):
            offset = dr * cols + dc
            c_lo, c_hi = max(0, -dc), min(cols, cols - dc)
            for parity in (0, 1):
                pairs, hits = [], 0
                for row_start in range(parity * cols, (rows - dr) * cols, 2 * cols):
                    for a in range(row_start + c_lo, row_start + c_hi):
                        b = a + offset
                        dx, dy = xs[b] - xs[a], ys[b] - ys[a]
                        hits += dx * dx + dy * dy <= limit
                        pairs.append((a, b))
                        (xa, ra), (xb, rb) = points[a], points[b]
                        if (xb - xa) ** 2 + row_weight * (rb - ra) ** 2 <= quarters_max:
                            higher[a].append(b)
                if 0 < hits < len(pairs):
                    splits.append(pairs)
    neighbors = [[] for _ in range(rows * cols)]
    edges = []
    for a, above in enumerate(higher):
        for b in above:
            edges.append((a, b))
            neighbors[a].append(b)
            neighbors[b].append(a)
    return tuple(edges), [tuple(sorted(n)) for n in neighbors], splits


def test_offset_classes_match_the_per_pair_window_scan():
    factors = [1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0, 3.0]
    # Rounding of stored positions grows with the extent.  A factor a few
    # hundred ulps off a ring's puts the ring just inside or just outside
    # the radius while the stored positions of its pairs still split.
    nudges = [1 + 64 * sys.float_info.epsilon, 1 - 256 * sys.float_info.epsilon]
    thin = [(1, 4096), (4096, 1)]
    cases = [
        (kind, shape, pitch, factor)
        for kind in LatticeKind
        for shape in thin
        for pitch in [0.1, 1 / 3, 7.3, 1e6]
        for factor in factors
    ]
    cases += [
        (kind, shape, 7.3, factor * nudge)
        for kind in LatticeKind
        for shape, nudge in zip(thin, nudges)
        for factor in factors
    ]
    cases.append((LatticeKind.HEXAGONAL, (256, 256), 7.3, nudges[0]))
    held_whole = held_none = 0
    for kind, (rows, cols), pitch, factor in cases:
        bump_map = build_bump_map(Lattice(kind, rows, cols, pitch))
        graph = potential_short_graph(bump_map, factor * pitch)
        edges, neighbors, splits = window_scan(bump_map, factor * pitch)
        case = (kind.value, rows, cols, pitch, factor)
        assert tuple(graph.sorted_edges) == edges, case
        assert [graph.neighbors(b) for b in range(bump_map.bump_count)] == neighbors, case
        # Wherever the stored positions split a class, the graph holds the
        # whole class or none of it.
        for pairs in splits:
            held = sum(graph.has_edge(a, b) for a, b in pairs)
            assert held in (0, len(pairs)), (case, pairs[0], held, len(pairs))
            held_whole += held == len(pairs)
            held_none += held == 0
    # Both happen: a ring just inside the radius (1.0 at pitch 7.3) and one
    # just outside it (3.0 at pitch 7.3, where 3.0 * 7.3 rounds down).
    assert held_whole > 0 and held_none > 0


@pytest.mark.parametrize(
    "kind,side,pitch", [(LatticeKind.RECTANGULAR, 16, 7.3), (LatticeKind.HEXAGONAL, 64, PITCH)]
)
def test_touching_bumps_never_share_a_color(kind, side, pitch):
    # At a factor of 1.0 the radius lies on the nearest-neighbour ring, where
    # the rounded stored positions put some pairs just outside the radius.
    # Every pair within one pitch is at most one row and one column apart.
    lattice = Lattice(kind, side, side, pitch)
    bump_map = build_bump_map(lattice)
    bump_map = partition_blocks(assign_codewords(bump_map, potential_short_graph(bump_map, pitch)), 1)
    forward = ((a, a + d) for a in range(lattice.bump_count) for d in (1, side - 1, side, side + 1))
    touching = lattice_edges(lattice, pitch, ((a, b) for a, b in forward if b < lattice.bump_count))
    assert len(touching) == (side - 1) * (3 * side - 1 if kind is LatticeKind.HEXAGONAL else 2 * side)
    coloring = bump_map.coloring
    assert sorted((a, b) for a, b in touching if coloring[a] is coloring[b]) == []
    if kind is LatticeKind.RECTANGULAR:
        for behavior in BridgeBehavior:
            reports = run_block_test(bump_map, [Bridge(4, 5, behavior)])
            failing = [b for report in reports for b, r in report.responses.items() if r != NOMINAL_RESPONSE]
            assert failing, behavior


def test_radius_below_pitch_gives_empty_graph():
    for lattice in (hex_lattice(4, 4), rect_lattice(4, 4)):
        graph = potential_short_graph(build_bump_map(lattice), 0.5 * PITCH)
        assert graph.edge_count == 0


def test_hex_interior_bump_has_12_potential_shorts():
    # Default radius captures both close-packed rings: 6 at pitch, 6 at sqrt(3)*pitch.
    bump_map = build_bump_map(hex_lattice(7, 7))
    graph = potential_short_graph(bump_map, DEFAULT_SHORT_RADIUS_FACTOR * PITCH)
    center = 3 * 7 + 3
    assert graph.degree(center) == 12
    distances = sorted(
        math.dist(bump_map.positions[center], bump_map.positions[n]) / PITCH
        for n in graph.neighbors(center)
    )
    assert distances[:6] == pytest.approx([1.0] * 6)
    assert distances[6:] == pytest.approx([math.sqrt(3.0)] * 6)


def test_rect_center_degree_8_at_1p5_pitch():
    bump_map = build_bump_map(rect_lattice(3, 3))
    graph = potential_short_graph(bump_map, 1.5 * PITCH)
    assert graph.degree(4) == 8  # 4 orthogonal at pitch + 4 diagonal at sqrt(2)*pitch


def test_graph_is_symmetric_and_irreflexive():
    bump_map = build_bump_map(hex_lattice(5, 6))
    graph = potential_short_graph(bump_map, 1.9 * PITCH)
    for a, b in graph.edges:
        assert a < b
        assert a != b
        assert b in graph.neighbors(a)
        assert a in graph.neighbors(b)


def test_adjacency_rejects_self_loops():
    with pytest.raises(ParameterError):
        AdjacencyGraph([(2, 2)])


def test_adjacency_from_duplicated_reversed_shuffled_edges():
    rng = random.Random(7)
    base = {tuple(sorted(rng.sample(range(40), 2))) for _ in range(150)}
    edges = [*base, *((b, a) for a, b in base), *list(base)[::3]]
    rng.shuffle(edges)
    graph = AdjacencyGraph(edges)
    assert graph.edges == frozenset(base)
    assert graph.edge_count == len(base)
    for bump in range(41):
        expected = {b for a, b in base if a == bump} | {a for a, b in base if b == bump}
        neighbors = graph.neighbors(bump)
        assert list(neighbors) == sorted(expected)
        assert graph.degree(bump) == len(expected)
        assert all(graph.has_edge(bump, n) and graph.has_edge(n, bump) for n in neighbors)


def test_adjacency_keys_neighbours_by_id_not_by_position():
    # A list indexed by bump id would need 10**9 slots for this one edge.
    graph = AdjacencyGraph([(0, 10**9)])
    assert graph.has_edge(0, 10**9) and graph.has_edge(10**9, 0)
    assert not graph.has_edge(0, 1)
    assert graph.neighbors(10**9) == (0,)
    assert graph.sorted_edges == ((0, 10**9),)


def test_sorted_edges_are_the_edge_set_in_ascending_order():
    rng = random.Random(11)
    base = {tuple(sorted(rng.sample(range(30), 2))) for _ in range(100)}
    edges = [*base, *((b, a) for a, b in base)]
    rng.shuffle(edges)
    graph = AdjacencyGraph(edges)
    assert isinstance(graph.sorted_edges, tuple)
    assert graph.sorted_edges == tuple(sorted(base))
    assert AdjacencyGraph([]).sorted_edges == ()


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(1, 2), (5, 5), (3, -1), (4, 4)], "self-loop edge on bump 5"),
        ([(2, 1), (3, -1), (5, 5), (-4, 0)], "negative bump id in edge (3, -1)"),
        ([(0, 1), (-2, -2), (-3, 1)], "self-loop edge on bump -2"),
        ([(9, 8), (8, 9), (-3, 1), (3, -1)], "negative bump id in edge (-3, 1)"),
    ],
)
def test_adjacency_names_the_first_bad_edge_in_input_order(edges, message):
    with pytest.raises(ParameterError) as excinfo:
        AdjacencyGraph(edges)
    assert str(excinfo.value) == message


def test_empty_graph_colors_everything_green():
    bump_map = build_bump_map(hex_lattice(3, 3))
    colored = assign_codewords(bump_map, AdjacencyGraph([]))
    assert set(colored.coloring) == {Color.GREEN}


def test_single_edge_forces_distinct_colors():
    bump_map = build_bump_map(rect_lattice(1, 2))
    colored = assign_codewords(bump_map, AdjacencyGraph([(0, 1)]))
    assert colored.coloring[0] != colored.coloring[1]
    assert colored.coloring == (Color.GREEN, Color.BLUE)


def test_hex_8x8_coloring_proper_via_edge_scan():
    bump_map = build_bump_map(hex_lattice(8, 8))
    graph = potential_short_graph(bump_map, DEFAULT_SHORT_RADIUS_FACTOR * PITCH)
    colored = assign_codewords(bump_map, graph)
    assert coloring_violations(colored.coloring, graph) == ()
    assert len(set(colored.coloring)) <= 4


def test_periodic_tiling_proper_on_interior_12_neighborhoods():
    # Exhaustive scan at full 64x64 scale, including every interior bump's degree.
    bump_map = build_bump_map(hex_lattice(64, 64))
    graph = potential_short_graph(bump_map, DEFAULT_SHORT_RADIUS_FACTOR * PITCH)
    tiling = periodic_tiling_coloring(bump_map.lattice)
    assert coloring_violations(tiling, graph) == ()
    for r in range(2, 62):
        for c in range(2, 62):
            assert graph.degree(r * 64 + c) == 12


def test_periodic_tiling_is_the_per_bump_formula():
    # Bump (r, c) takes color class (r mod 2, (c + r//2) mod 2) on a
    # hexagonal lattice and (r mod 2, c mod 2) on a rectangular one.
    shapes = [(rows, cols) for rows in range(1, 10) for cols in range(1, 6)] + [(512, 512)]
    for kind in LatticeKind:
        shift = (lambda r: r // 2) if kind is LatticeKind.HEXAGONAL else (lambda r: 0)
        for rows, cols in shapes:
            expected = tuple(
                COLOR_ORDER[(r % 2) * 2 + (c + shift(r)) % 2]
                for r in range(rows)
                for c in range(cols)
            )
            lattice = Lattice(kind, rows, cols, PITCH)
            assert periodic_tiling_coloring(lattice) == expected, (kind, rows, cols)


def test_coloring_falls_back_to_periodic_tiling():
    # Crown graph between tiling classes 0 (even row, col 0) and 3 (odd row,
    # col 1) of a 10x2 rect lattice: a_i = 4i and b_i = 4i + 3 interleave in
    # id order, a_i ~ b_j for i != j.  Greedy gives a_i and b_i color i and
    # needs a 5th color at a_4; the tiling keeps the two classes apart.
    lattice = rect_lattice(10, 2)
    crown = AdjacencyGraph((4 * i, 4 * j + 3) for i in range(5) for j in range(5) if i != j)
    colored = assign_codewords(build_bump_map(lattice), crown)
    assert colored.coloring == periodic_tiling_coloring(lattice)
    assert coloring_violations(colored.coloring, crown) == ()
    assert colored.coloring[1] is Color.BLUE  # isolated; greedy would give GREEN


def test_coloring_failure_is_loud():
    # K5 is not 4-colorable: greedy needs a 5th color and the tiling has clashes.
    bump_map = build_bump_map(rect_lattice(1, 5))
    k5 = AdjacencyGraph([(a, b) for a in range(5) for b in range(a + 1, 5)])
    with pytest.raises(ColoringError):
        assign_codewords(bump_map, k5)


def test_coloring_rejects_foreign_edges():
    bump_map = build_bump_map(rect_lattice(1, 2))
    with pytest.raises(ParameterError):
        assign_codewords(bump_map, AdjacencyGraph([(0, 7)]))


def test_coloring_names_the_first_foreign_edge_in_ascending_order():
    bump_map = build_bump_map(rect_lattice(1, 2))
    with pytest.raises(ParameterError) as excinfo:
        assign_codewords(bump_map, AdjacencyGraph([(1, 9), (0, 7)]))
    assert str(excinfo.value) == "edge (0, 7) references a bump outside the map"


def test_single_block_partition():
    bump_map = partition_blocks(build_bump_map(rect_lattice(3, 3)), 1)
    assert set(bump_map.blocks) == {0}
    assert bump_map.block_count == 1


def test_even_column_band_split():
    bump_map = partition_blocks(build_bump_map(rect_lattice(4, 4)), 2)
    for bump in range(bump_map.bump_count):
        _, col = bump_map.row_col(bump)
        assert bump_map.blocks[bump] == (0 if col < 2 else 1)


def test_uneven_column_band_split_puts_wider_band_first():
    bump_map = partition_blocks(build_bump_map(rect_lattice(4, 3)), 2)
    widths = {}
    for bump in range(bump_map.bump_count):
        _, col = bump_map.row_col(bump)
        widths.setdefault(bump_map.blocks[bump], set()).add(col)
    assert sorted(len(cols) for cols in widths.values()) == [1, 2]
    assert widths[0] == {0, 1} and widths[1] == {2}


def test_partition_is_total_and_disjoint():
    bump_map = partition_blocks(build_bump_map(hex_lattice(5, 7)), 3)
    seen = {}
    for bump in range(bump_map.bump_count):
        seen.setdefault(bump_map.blocks[bump], []).append(bump)
    assert sorted(seen) == [0, 1, 2]
    assert sorted(b for bumps in seen.values() for b in bumps) == list(range(35))
    for block, members in seen.items():
        assert tuple(members) == bump_map.bumps_in_block(block)


@pytest.mark.parametrize("block_count", [0, -2, 5])
def test_partition_rejects_out_of_range_block_count(block_count):
    bump_map = build_bump_map(rect_lattice(4, 4))
    with pytest.raises(ParameterError):
        partition_blocks(bump_map, block_count)


# The lattice graph against the graph materialized from the exact lattice
# edges.  The nudged factors are those of
# test_offset_classes_match_the_per_pair_window_scan: a few hundred ulps off
# a ring's factor, where stored positions can split a class.
SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)
DIFFERENTIAL_FACTORS = [0.5, 1.0, SQRT2, 1.5, SQRT3, 1.8, 1.9, 1.99, 2.0, 2.5, 3.0] + [
    factor * nudge
    for factor in (1.0, SQRT2, SQRT3, 2.0, 3.0)
    for nudge in (1 + 64 * sys.float_info.epsilon, 1 - 256 * sys.float_info.epsilon)
]


def materialized(bump_map, factor):
    return AdjacencyGraph(reference_edges(bump_map, factor), factor * bump_map.lattice.pitch_um)


def coloring_or_error(bump_map, graph):
    try:
        return assign_codewords(bump_map, graph).coloring
    except ColoringError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", list(LatticeKind), ids=lambda k: k.value)
@pytest.mark.parametrize("factor", DIFFERENTIAL_FACTORS)
def test_lattice_graph_answers_as_the_materialized_graph(kind, factor):
    pitch = 7.3
    radius = factor * pitch
    for rows, cols in [(1, 1), (1, 11), (11, 1), (3, 2), (2, 3), (10, 10)]:
        bump_map = build_bump_map(Lattice(kind, rows, cols, pitch))
        graph = potential_short_graph(bump_map, radius)
        reference = materialized(bump_map, factor)
        case = (rows, cols)
        assert graph.edge_count == reference.edge_count, case
        assert len(graph.sorted_edges) == reference.edge_count, case
        assert list(graph.sorted_edges) == list(reference.sorted_edges), case
        assert [graph.sorted_edges[k] for k in range(graph.edge_count)] == list(
            reference.sorted_edges
        ), case
        if graph.edge_count:
            assert graph.sorted_edges[-1] == reference.sorted_edges[-1], case
        for index in (graph.edge_count, -graph.edge_count - 1):
            with pytest.raises(IndexError):
                graph.sorted_edges[index]
        assert graph.edges == reference.edges, case
        bumps = range(-1, bump_map.bump_count + 1)
        for a in bumps:
            assert graph.neighbors(a) == reference.neighbors(a), (case, a)
            assert graph.degree(a) == reference.degree(a), (case, a)
            for b in bumps:
                assert graph.has_edge(a, b) == reference.has_edge(a, b), (case, a, b)
        assert coloring_or_error(bump_map, graph) == coloring_or_error(bump_map, reference), case


@pytest.mark.parametrize("kind", list(LatticeKind), ids=lambda k: k.value)
@pytest.mark.parametrize("factor", DIFFERENTIAL_FACTORS)
def test_lattice_coloring_is_the_greedy_coloring(kind, factor):
    # Maps with enough rows for the greedy colors to settle into the row
    # period, where the lattice graph stops coloring and tiles (on 40x1 hex
    # at 1.8 to 1.99 they repeat every 3 rows instead, and greedy runs on).
    for rows, cols in [(40, 1), (33, 17), (17, 33), (24, 24)]:
        bump_map = build_bump_map(Lattice(kind, rows, cols, 7.3))
        graph = potential_short_graph(bump_map, factor * 7.3)
        reference = AdjacencyGraph(tuple(graph.sorted_edges))
        calls = []
        counted = graph.neighbors
        graph.neighbors = lambda bump: calls.append(bump) or counted(bump)
        greedy = _greedy_coloring(bump_map.bump_count, graph)
        if graph.period is not None and greedy is not None and cols > 1:
            # The tiling shortcut ran: not every bump was colored one by one.
            assert len(calls) < bump_map.bump_count, (rows, cols)
        assert greedy == _greedy_coloring(bump_map.bump_count, reference), (rows, cols)
        assert coloring_or_error(bump_map, graph) == coloring_or_error(bump_map, reference)


def test_default_factor_graphs_tile_their_colors():
    for kind in LatticeKind:
        bump_map = build_bump_map(Lattice(kind, 64, 64, PITCH))
        graph = potential_short_graph(bump_map, DEFAULT_SHORT_RADIUS_FACTOR * PITCH)
        assert graph.period is not None, kind
        colored = assign_codewords(bump_map, graph)
        assert colored.coloring == periodic_tiling_coloring(bump_map.lattice), kind


def test_coloring_rejects_foreign_edges_of_a_larger_lattice_graph():
    small = build_bump_map(rect_lattice(1, 2))
    larger = build_bump_map(rect_lattice(1, 3))
    with pytest.raises(ParameterError) as excinfo:
        assign_codewords(small, potential_short_graph(larger, 1.5 * PITCH))
    assert str(excinfo.value) == "edge (1, 2) references a bump outside the map"
    # Bumps beyond the map without an edge are no foreign edge.
    colored = assign_codewords(small, potential_short_graph(larger, 0.5 * PITCH))
    assert colored.coloring == (Color.GREEN, Color.GREEN)
