"""Tests for the fault dictionary, diagnosability, matching, and defect ranges."""

import itertools
import math
from fractions import Fraction

import pytest

from chipletbist.bist import (
    NOMINAL_RESPONSE,
    Bridge,
    BridgeBehavior,
    BlockTestReport,
    DetectorResponse,
    StuckAt,
    fault_local_failing,
    run_block_test,
)
from chipletbist.bumpmap import (
    AdjacencyGraph,
    BumpMap,
    COLOR_INDEX,
    COLOR_ORDER,
    Color,
    Lattice,
    LatticeKind,
    assign_codewords,
    build_bump_map,
    partition_blocks,
    potential_short_graph,
)
from chipletbist.curves import CurveFamily, SeverityCurve
from chipletbist.defects import ComponentKind, FunctionalFaultClass, MagnitudeKind
from chipletbist.diagnosis import (
    BridgeCandidate,
    BumpDiagnosis,
    FaultDictionary,
    QuadBridge,
    QuadStuckAt,
    build_fault_dictionary,
    diagnosability,
    diagnose,
    quad_fault_universe,
)
from chipletbist.errors import ParameterError
from chipletbist.ranges import MagnitudeBound, map_to_defect_range
from oracle import every_single_fault, names, quad_map

WA = BridgeBehavior.WIRED_AND
WO = BridgeBehavior.WIRED_OR

G, B, R, K = COLOR_ORDER


def quad_fixture():
    graph = AdjacencyGraph([(a, b) for a in range(4) for b in range(a + 1, 4)])
    return quad_map(), graph


def test_universe_has_14_faults():
    universe = quad_fault_universe()
    assert len(universe) == 14
    assert sum(isinstance(f, QuadStuckAt) for f in universe) == 8
    assert sum(isinstance(f, QuadBridge) for f in universe) == 6


def test_dictionary_covers_every_fault_and_no_empty_entries():
    dictionary = build_fault_dictionary()
    listed = {f for faults in dictionary.by_signature.values() for f in faults}
    assert listed == set(dictionary.universe)
    assert all(faults for faults in dictionary.by_signature.values())


def test_shipped_dictionary_models_every_failing_response():
    # Every failing (y = 0) response of every color has an entry, so with the
    # shipped dictionary no failing bump is ever unmodeled.
    failing = {(color, DetectorResponse(x, 0)) for color in Color for x in (0, 1)}
    assert len(failing) == 8
    assert failing <= build_fault_dictionary().by_response.keys()


def test_every_fault_fails_somewhere():
    # Full detection: each signature of each fault has y = 0 on >= 1 bump.
    dictionary = build_fault_dictionary()
    for fault in dictionary.universe:
        for signature in dictionary.signatures_of[fault]:
            assert any(resp.y == 0 for resp in signature)


def reference_signatures():
    """Each quad fault's signatures from ``run_block_test``, in universe order."""
    bump_map = quad_map()
    table = {}
    for fault in quad_fault_universe():
        if isinstance(fault, QuadStuckAt):
            realizations = [StuckAt(COLOR_INDEX[fault.color], fault.value)]
        else:
            a, b = COLOR_INDEX[fault.color_a], COLOR_INDEX[fault.color_b]
            realizations = [Bridge(a, b, behavior) for behavior in BridgeBehavior]
        table[fault] = tuple(
            tuple(run_block_test(bump_map, [realization])[0].responses[bump] for bump in range(4))
            for realization in realizations
        )
    return table


def test_dictionary_equals_the_reference_engine():
    # The dictionary is built by the single-fault rule; every one of the 20
    # quad realizations (8 stuck-at, 6 bridges x 2 behaviors) must give the
    # full-map engine's block-0 responses, and the table its order.
    bump_map = quad_map()
    realizations = [StuckAt(net, value) for net in range(4) for value in (0, 1)]
    realizations += [
        Bridge(a, b, behavior)
        for a, b in itertools.combinations(range(4), 2)
        for behavior in BridgeBehavior
    ]
    assert len(realizations) == 20
    for fault in realizations:
        listed = {bump: response for _, bump, response in fault_local_failing(bump_map, fault)}
        (report,) = run_block_test(bump_map, [fault])
        assert report.responses == {b: listed.get(b, NOMINAL_RESPONSE) for b in range(4)}, fault
    reference = reference_signatures()
    assert list(build_fault_dictionary().signatures_of.items()) == list(reference.items())


def test_an_edited_dictionary_reaches_no_later_call():
    edited = build_fault_dictionary()
    edited.signatures_of[QuadStuckAt(G, 0)] = ()
    del edited.signatures_of[QuadBridge(G, B)]
    later = build_fault_dictionary()
    assert later is not edited
    assert list(later.signatures_of.items()) == list(reference_signatures().items())
    assert diagnosability(later)[0] == Fraction(87, 91)


def test_green_sa0_signature():
    dictionary = build_fault_dictionary()
    (signature,) = dictionary.signatures_of[QuadStuckAt(G, 0)]
    assert signature == (
        DetectorResponse(0, 0),
        DetectorResponse(1, 1),
        DetectorResponse(1, 1),
        DetectorResponse(1, 1),
    )


def test_green_blue_bridge_detected_in_both_for_both_behaviors():
    dictionary = build_fault_dictionary()
    for signature in dictionary.signatures_of[QuadBridge(G, B)]:
        assert signature[0] == DetectorResponse(1, 0)
        assert signature[1] == DetectorResponse(1, 0)
        assert signature[2] == signature[3] == DetectorResponse(1, 1)


def test_ambiguous_pairs_identities():
    dictionary = build_fault_dictionary()
    expected = {
        frozenset({QuadStuckAt(G, 1), QuadBridge(G, R)}),
        frozenset({QuadStuckAt(R, 0), QuadBridge(G, R)}),
        frozenset({QuadStuckAt(B, 1), QuadBridge(B, K)}),
        frozenset({QuadStuckAt(K, 0), QuadBridge(B, K)}),
    }
    assert dictionary.ambiguous_pairs == expected
    for pair in dictionary.ambiguous_pairs:
        kinds = sorted(type(f).__name__ for f in pair)
        assert kinds == ["QuadBridge", "QuadStuckAt"]


def test_diagnosability_value():
    dictionary = build_fault_dictionary()
    fraction, decimal = diagnosability(dictionary)
    assert fraction.numerator == 87
    assert fraction.denominator == 91
    assert decimal == pytest.approx(0.95604, abs=5e-6)


def test_diagnosability_extremes():
    universe = quad_fault_universe()
    responses = [DetectorResponse(x, y) for x in (0, 1) for y in (0, 1)]
    distinct = itertools.product(responses, repeat=4)
    perfect = FaultDictionary({fault: (next(distinct),) for fault in universe})
    assert len(perfect.by_signature) == 14 and not perfect.ambiguous_pairs
    assert diagnosability(perfect)[0] == 1
    shared = (tuple(responses),)
    worst = FaultDictionary({fault: shared for fault in universe})
    assert len(worst.by_signature) == 1
    assert len(worst.ambiguous_pairs) == math.comb(14, 2)
    assert diagnosability(worst)[0] == 0


def test_dictionary_views_follow_its_one_table():
    dictionary = build_fault_dictionary()
    assert FaultDictionary._fields == ("signatures_of",)
    # The even-index half keeps one ambiguous pair: K sa-0 and the B+K bridge.
    half = FaultDictionary({f: dictionary.signatures_of[f] for f in dictionary.universe[::2]})
    assert half.universe == dictionary.universe[::2]
    assert {f for faults in half.by_signature.values() for f in faults} == set(half.universe)
    assert half.ambiguous_pairs == {frozenset({QuadStuckAt(K, 0), QuadBridge(B, K)})}
    assert diagnosability(half)[0] == Fraction(20, 21)


def test_diagnose_all_pass_is_empty():
    bump_map, graph = quad_fixture()
    report = run_block_test(bump_map, [])[0]
    assert diagnose(report, bump_map, graph) == []


def test_diagnose_green_black_wired_and():
    bump_map, graph = quad_fixture()
    report = run_block_test(bump_map, [Bridge(0, 3, WA)])[0]
    result = diagnose(report, bump_map, graph)
    assert [d.bump for d in result] == [0, 3]
    green = result[0]
    assert green.response == (0, 0)
    assert green.candidates == (StuckAt(0, 0), BridgeCandidate(0, 3))
    black = result[1]
    assert black.response == (1, 0)
    assert BridgeCandidate(0, 3) in black.candidates


def test_diagnose_lone_green_failure_is_the_ambiguous_case():
    # A lone (1, 0) on a green bump: green SA-1 or a green+red wired-AND bridge.
    bump_map, graph = quad_fixture()
    responses = {
        0: DetectorResponse(1, 0),
        1: DetectorResponse(1, 1),
        2: DetectorResponse(1, 1),
        3: DetectorResponse(1, 1),
    }
    report = BlockTestReport(block=0, responses=responses, received={})
    (entry,) = diagnose(report, bump_map, graph)
    assert entry.candidates == (StuckAt(0, 1), BridgeCandidate(0, 2))


def test_diagnose_orders_stuck_at_before_bridges():
    bump_map, graph = quad_fixture()
    report = run_block_test(bump_map, [Bridge(0, 1, WA)])[0]
    for entry in diagnose(report, bump_map, graph):
        kinds = [type(c).__name__ for c in entry.candidates]
        assert kinds == sorted(kinds, key=lambda k: k != "StuckAt")


def test_diagnosis_soundness_on_the_quad():
    bump_map, graph = quad_fixture()
    faults = every_single_fault(bump_map, graph)
    assert len(faults) == 20
    for fault in faults:
        report = run_block_test(bump_map, [fault])[0]
        candidates = [c for entry in diagnose(report, bump_map, graph) for c in entry.candidates]
        assert any(names(c, fault) for c in candidates), f"{fault} missing from its own diagnosis"


def test_diagnose_on_full_map_prunes_by_adjacency_and_color():
    lattice = Lattice(LatticeKind.HEXAGONAL, 8, 8, 20.0)
    bump_map = build_bump_map(lattice)
    graph = potential_short_graph(bump_map, 1.9 * 20.0)
    bump_map = partition_blocks(assign_codewords(bump_map, graph), 1)
    # pick an interior green bump and one of its red neighbors
    green = next(
        b
        for b in range(bump_map.bump_count)
        if bump_map.coloring[b] is Color.GREEN
        and 2 <= bump_map.row_col(b)[0] <= 5
        and 2 <= bump_map.row_col(b)[1] <= 5
    )
    red_neighbors = [n for n in graph.neighbors(green) if bump_map.coloring[n] is Color.RED]
    assert red_neighbors
    fault = Bridge(green, red_neighbors[0], WA)
    report = run_block_test(bump_map, [fault])[0]
    (entry,) = diagnose(report, bump_map, graph)
    assert entry.bump == green
    bridges = [c for c in entry.candidates if isinstance(c, BridgeCandidate)]
    assert all(
        bump_map.coloring[c.b if c.a == green else c.a] is Color.RED for c in bridges
    )
    assert all(graph.has_edge(c.a, c.b) for c in bridges)
    assert BridgeCandidate(min(green, red_neighbors[0]), max(green, red_neighbors[0])) in bridges
    assert StuckAt(green, 1) in entry.candidates


def test_diagnose_requires_colored_map():
    bump_map = build_bump_map(Lattice(LatticeKind.RECTANGULAR, 1, 4, 20.0))
    report = BlockTestReport(block=0, responses={0: DetectorResponse(0, 0)}, received={})
    # A blocked one too: whether an unlisted neighbor passed depends on its block.
    for unready in (bump_map, BumpMap(bump_map.lattice, COLOR_ORDER)):
        with pytest.raises(ParameterError, match="^bump map must be colored and blocked to diagnose"):
            diagnose(report, unready, AdjacencyGraph([]))


def scan_diagnose(report, bump_map, graph, dictionary):
    """The reference for ``diagnose``: scan the whole quad universe per failing bump."""
    diagnoses = []
    for bump in sorted(report.responses):
        response = report.responses[bump]
        if response.y == 1:
            continue
        color = bump_map.coloring[bump]
        own = COLOR_INDEX[color]
        stuck = [
            StuckAt(bump, fault.value)
            for fault in dictionary.universe
            if isinstance(fault, QuadStuckAt)
            and fault.color is color
            and dictionary.signatures_of[fault][0][own] == response
        ]
        modeled = bool(stuck)
        bridges = set()
        for fault in dictionary.universe:
            if not isinstance(fault, QuadBridge) or color not in (fault.color_a, fault.color_b):
                continue
            partner = fault.color_b if fault.color_a is color else fault.color_a
            for signature in dictionary.signatures_of[fault]:
                if signature[own] != response:
                    continue
                modeled = True
                for neighbor in graph.neighbors(bump):
                    # An unlisted bump of the block passed; another block's cannot be falsified.
                    observed = (
                        report.responses.get(neighbor, NOMINAL_RESPONSE)
                        if bump_map.blocks[neighbor] == report.block
                        else None
                    )
                    if bump_map.coloring[neighbor] is partner and (
                        observed is None or observed == signature[COLOR_INDEX[partner]]
                    ):
                        bridges.add((min(bump, neighbor), max(bump, neighbor)))
        candidates = sorted(stuck, key=lambda c: c.value)
        candidates += [BridgeCandidate(*pair) for pair in sorted(bridges)]
        diagnoses.append(
            BumpDiagnosis(bump, color, response, tuple(candidates), unmodeled=not modeled)
        )
    return diagnoses


def test_diagnose_matches_dictionary_scan():
    dictionary = build_fault_dictionary()
    # Every failing response of the full dictionary is modeled; half of the
    # universe leaves some unmodeled, which the lookup must report as such.
    half = dictionary.universe[::2]
    partial = FaultDictionary({f: dictionary.signatures_of[f] for f in half})
    # Every report over the all-adjacent quad: each bump absent or at any response.
    bump_map, graph = quad_fixture()
    choices = [None, *(DetectorResponse(x, y) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))]
    unmodeled = 0
    for assignment in itertools.product(choices, repeat=4):
        responses = {bump: r for bump, r in enumerate(assignment) if r is not None}
        report = BlockTestReport(block=0, responses=responses, received={})
        for d in (dictionary, partial):
            expected = scan_diagnose(report, bump_map, graph, d)
            assert diagnose(report, bump_map, graph, d) == expected
            unmodeled += sum(entry.unmodeled for entry in expected)
    assert unmodeled
    # Every block report of every single fault on small blocked maps.
    for kind in LatticeKind:
        bump_map = build_bump_map(Lattice(kind, 8, 8, 20.0))
        graph = potential_short_graph(bump_map, 1.9 * 20.0)
        colored = assign_codewords(bump_map, graph)
        for block_count in (1, 2, 3):
            blocked = partition_blocks(colored, block_count)
            for fault in every_single_fault(blocked, graph):
                for report in run_block_test(blocked, [fault]):
                    expected = scan_diagnose(report, blocked, graph, dictionary)
                    assert diagnose(report, blocked, graph) == expected, fault


def test_diagnose_reads_an_unlisted_bump_of_its_block_as_passed():
    # A lone green (0, 0) is green SA-0, or a green+black wired-AND bridge
    # whose black end reads (1, 0).  Unlisted in the same block, black passed.
    bump_map, graph = quad_fixture()
    report = BlockTestReport(block=0, responses={0: DetectorResponse(0, 0)}, received={})
    (entry,) = diagnose(report, bump_map, graph)
    assert entry.candidates == (StuckAt(0, 0),)
    # In another block, black cannot be falsified, so the bridge is kept.
    split = BumpMap(bump_map.lattice, bump_map.coloring, (0, 0, 0, 1), 2)
    (entry,) = diagnose(report, split, graph)
    assert entry.candidates == (StuckAt(0, 0), BridgeCandidate(0, 3))


def test_diagnose_reads_each_bump_block_from_the_map_not_the_report():
    # Every bump in block 1: whatever block the report names, black passed.
    bump_map, graph = quad_fixture()
    moved = BumpMap(bump_map.lattice, bump_map.coloring, (1, 1, 1, 1), 2)
    for block in (0, 1, 7):
        report = BlockTestReport(block=block, responses={0: DetectorResponse(0, 0)}, received={})
        (entry,) = diagnose(report, moved, graph)
        assert entry.candidates == (StuckAt(0, 0),), block


def test_one_diagnose_of_a_failing_list_across_blocks_equals_its_per_block_diagnoses():
    spanning = 0
    for kind in LatticeKind:
        bump_map = build_bump_map(Lattice(kind, 8, 8, 20.0))
        graph = potential_short_graph(bump_map, 1.9 * 20.0)
        colored = assign_codewords(bump_map, graph)
        for block_count in (2, 3, 4):
            blocked = partition_blocks(colored, block_count)
            for fault in every_single_fault(blocked, graph):
                failing = fault_local_failing(blocked, fault)
                blocks = sorted({block for block, _, _ in failing})
                if len(blocks) < 2:
                    continue
                spanning += 1
                per_block = sorted(
                    (
                        entry
                        for block in blocks
                        for entry in diagnose(
                            BlockTestReport(
                                block, {b: r for k, b, r in failing if k == block}, {}
                            ),
                            blocked,
                            graph,
                        )
                    ),
                    key=lambda entry: entry.bump,
                )
                listed = {bump: response for _, bump, response in failing}
                for block in (*blocks, 99):
                    report = BlockTestReport(block, listed, {})
                    assert diagnose(report, blocked, graph) == per_block, (fault, block)
    assert spanning == 348


def test_diagnose_of_the_failing_bumps_equals_diagnose_of_the_full_report():
    # Every block report of every single fault on small blocked maps.
    reports = 0
    for kind in LatticeKind:
        bump_map = build_bump_map(Lattice(kind, 8, 8, 20.0))
        graph = potential_short_graph(bump_map, 1.9 * 20.0)
        colored = assign_codewords(bump_map, graph)
        for block_count in (1, 2, 3, 4):
            blocked = partition_blocks(colored, block_count)
            for fault in every_single_fault(blocked, graph):
                for report in run_block_test(blocked, [fault]):
                    failing = {b: r for b, r in report.responses.items() if r.y == 0}
                    listed = BlockTestReport(report.block, failing, {})
                    full = diagnose(report, blocked, graph)
                    assert diagnose(listed, blocked, graph) == full, (fault, report.block)
                    reports += 1
    assert reports == 12760


def test_bridge_bound_for_diagnosed_short():
    estimate = map_to_defect_range(BridgeCandidate(3, 7), ComponentKind.CU_PILLAR)
    assert estimate.functional_class is FunctionalFaultClass.WIRED_AND
    assert estimate.magnitude_bound.kind is MagnitudeKind.RESISTANCE
    assert estimate.magnitude_bound.upper == 200.0
    assert estimate.magnitude_bound.lower is None
    assert estimate.geometry_bound is None
    assert "4 nm" in estimate.note


def test_stuck_at_bounds():
    sa1 = map_to_defect_range(StuckAt(0, 1), ComponentKind.CU_PILLAR)
    assert sa1.functional_class is FunctionalFaultClass.SIGNAL_SA1
    assert sa1.magnitude_bound.upper == 500.0
    sa0 = map_to_defect_range(StuckAt(0, 0), ComponentKind.RDL_SEGMENT)
    assert sa0.functional_class is FunctionalFaultClass.SIGNAL_SA0
    assert sa0.magnitude_bound.upper == 600.0


def test_power_open_interpretation_via_explicit_class():
    estimate = map_to_defect_range(
        StuckAt(0, 0),
        ComponentKind.CU_PILLAR,
        functional_class=FunctionalFaultClass.OUTPUT_SA0,
    )
    assert estimate.magnitude_bound.kind is MagnitudeKind.CAPACITANCE
    assert estimate.magnitude_bound.lower == 0.1e-15
    assert estimate.magnitude_bound.upper == 2e-6


C, RES = MagnitudeKind.CAPACITANCE, MagnitudeKind.RESISTANCE


@pytest.mark.parametrize(
    "fault_class,kind,lower,upper",
    [
        (FunctionalFaultClass.WIRED_AND, RES, None, 200.0),
        (FunctionalFaultClass.SIGNAL_SA1, RES, None, 500.0),
        (FunctionalFaultClass.SIGNAL_SA0, RES, None, 600.0),
        (FunctionalFaultClass.OUTPUT_SA0, C, 0.1e-15, 2e-6),
        (FunctionalFaultClass.OUTPUT_SA1, C, 0.1e-15, 2e-6),
        (FunctionalFaultClass.WIRED_AND_OR_WIRED_OR, C, None, 10e-15),
    ],
)
def test_every_class_bound_is_the_paper_bound(fault_class, kind, lower, upper):
    estimate = map_to_defect_range(
        StuckAt(0, 0), ComponentKind.CU_PILLAR, functional_class=fault_class
    )
    assert estimate.magnitude_bound == MagnitudeBound(kind, lower, upper)


@pytest.mark.parametrize(
    "fault_class", [FunctionalFaultClass.WIRED_OR, FunctionalFaultClass.NO_HARD_FAULT]
)
def test_classes_without_a_classifier_rule_have_no_bound(fault_class):
    with pytest.raises(ParameterError, match="no tabulated magnitude bound"):
        map_to_defect_range(StuckAt(0, 0), ComponentKind.CU_PILLAR, functional_class=fault_class)


def test_geometry_bound_from_decreasing_curve():
    # R_f(r) = 1000 * e^(-r): R < 200 inverts to r > ln 5.
    curve = SeverityCurve(CurveFamily.EXPONENTIAL, (1000.0, -1.0), 0.1, 5.0)
    estimate = map_to_defect_range(BridgeCandidate(0, 1), ComponentKind.CU_PILLAR, curve=curve)
    assert estimate.geometry_bound is not None
    assert estimate.geometry_bound.upper is None
    assert estimate.geometry_bound.lower == pytest.approx(math.log(5.0), rel=1e-9)
    assert estimate.warning is None


def test_geometry_bound_from_increasing_curve():
    curve = SeverityCurve(CurveFamily.LOG_LINEAR, (100.0, 50.0), 1.0, 100.0)
    estimate = map_to_defect_range(BridgeCandidate(0, 1), ComponentKind.RDL_SEGMENT, curve=curve)
    assert estimate.geometry_bound.lower is None
    expected = math.exp((200.0 - 100.0) / 50.0)
    assert estimate.geometry_bound.upper == pytest.approx(expected, rel=1e-9)


def test_non_monotone_curve_yields_warning_not_bound():
    hump = SeverityCurve(CurveFamily.POLYNOMIAL, (0.0, 0.0, 1.0), -1.0, 1.0)
    estimate = map_to_defect_range(BridgeCandidate(0, 1), ComponentKind.CU_PILLAR, curve=hump)
    assert estimate.geometry_bound is None
    assert "monotone" in estimate.warning


def test_bound_outside_curve_range_is_flagged():
    curve = SeverityCurve(CurveFamily.LOG_LINEAR, (1000.0, 1.0), 1.0, 2.0)  # range ~[1000, 1000.7]
    estimate = map_to_defect_range(BridgeCandidate(0, 1), ComponentKind.CU_PILLAR, curve=curve)
    assert estimate.geometry_bound is None
    assert estimate.warning is not None


def test_unbounded_class_rejected():
    with pytest.raises(ParameterError):
        map_to_defect_range(
            StuckAt(0, 0),
            ComponentKind.CU_PILLAR,
            functional_class=FunctionalFaultClass.NO_HARD_FAULT,
        )
