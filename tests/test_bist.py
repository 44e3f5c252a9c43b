"""Tests for the codeword table, detector, fault resolution, and FSM schedule."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chipletbist
from chipletbist.bist import (
    ACCEPTED_WORDS,
    Bridge,
    BridgeBehavior,
    CODEWORDS,
    DetectorResponse,
    FsmState,
    NOMINAL_RESPONSE,
    Pattern3,
    StuckAt,
    bump_response,
    detector_accepts,
    fsm_schedule,
    overhead_report,
    pattern_for,
    resolve_net_values,
    run_block_test,
)
from chipletbist.bumpmap import (
    BumpMap,
    Color,
    COLOR_ORDER,
    Lattice,
    LatticeKind,
    assign_codewords,
    build_bump_map,
    partition_blocks,
    potential_short_graph,
)
from chipletbist.errors import ParameterError, SimulationError
from oracle import quad_map

WA = BridgeBehavior.WIRED_AND
WO = BridgeBehavior.WIRED_OR

ALL_WORDS = [Pattern3(*bits) for bits in itertools.product((0, 1), repeat=3)]


def word(s):
    return Pattern3.from_string(s)


def test_codeword_table():
    assert pattern_for(Color.GREEN) == word("011")
    assert pattern_for(Color.BLUE) == word("101")
    assert pattern_for(Color.RED) == word("010")
    assert pattern_for(Color.BLACK) == word("100")


def test_codeword_complement_pairs():
    assert pattern_for(Color.GREEN) == pattern_for(Color.BLACK).complement()
    assert pattern_for(Color.BLUE) == pattern_for(Color.RED).complement()
    assert len(set(CODEWORDS.values())) == 4


def test_codewords_uniquely_determined_by_wired_word_table():
    # Brute-force solver: the four codewords are the only assignment that
    # reproduces every wired-AND/OR word of the pair table.
    constraints = {
        ("g", "b"): (0b001, 0b111),
        ("g", "r"): (0b010, 0b011),
        ("g", "k"): (0b000, 0b111),
        ("b", "r"): (0b000, 0b111),
        ("b", "k"): (0b100, 0b101),
        ("r", "k"): (0b000, 0b110),
    }
    solutions = []
    for g, b, r, k in itertools.product(range(8), repeat=4):
        values = {"g": g, "b": b, "r": r, "k": k}
        if all(
            (values[x] & values[y]) == wa and (values[x] | values[y]) == wo
            for (x, y), (wa, wo) in constraints.items()
        ):
            solutions.append((g, b, r, k))
    assert solutions == [(0b011, 0b101, 0b010, 0b100)]


def test_detector_accept_set():
    accepted = {w for w in ALL_WORDS if detector_accepts(w)}
    assert accepted == {word("011"), word("101"), word("110")}
    assert accepted == ACCEPTED_WORDS


def test_detector_rejects_all_zero_via_loopback():
    assert detector_accepts(word("000")) == 0
    assert detector_accepts(word("111")) == 0


def test_detector_cycle_accurate_equals_set_form_for_both_orientations():
    for w in ALL_WORDS:
        assert detector_accepts(w) == int(w in ACCEPTED_WORDS)
        inverted = w.complement()
        assert detector_accepts(inverted) == int(inverted in ACCEPTED_WORDS)


def test_nominal_response_every_color():
    for color in COLOR_ORDER:
        assert bump_response(pattern_for(color), color) == DetectorResponse(1, 1)


def test_bump_response_examples():
    assert bump_response(word("011"), Color.GREEN) == (1, 1)
    assert bump_response(word("000"), Color.GREEN) == (0, 0)
    assert bump_response(word("010"), Color.GREEN) == (1, 0)
    # Red/black pass through the inverter first.
    assert bump_response(word("000"), Color.RED) == (1, 0)
    assert bump_response(word("111"), Color.RED) == (0, 0)


# Pair table: wired word and per-bump (x, y) for both behaviors.
PAIR_TABLE = [
    (Color.GREEN, Color.BLUE, "001", (1, 0), (1, 0), "111", (1, 0), (1, 0)),
    (Color.GREEN, Color.RED, "010", (1, 0), (1, 1), "011", (1, 1), (1, 0)),
    (Color.GREEN, Color.BLACK, "000", (0, 0), (1, 0), "111", (1, 0), (0, 0)),
    (Color.BLUE, Color.RED, "000", (0, 0), (1, 0), "111", (1, 0), (0, 0)),
    (Color.BLUE, Color.BLACK, "100", (1, 0), (1, 1), "101", (1, 1), (1, 0)),
    (Color.RED, Color.BLACK, "000", (1, 0), (1, 0), "110", (1, 0), (1, 0)),
]


@pytest.mark.parametrize("c1,c2,wa_word,wa_r1,wa_r2,wo_word,wo_r1,wo_r2", PAIR_TABLE)
def test_bridge_pair_words_and_responses(c1, c2, wa_word, wa_r1, wa_r2, wo_word, wo_r1, wo_r2):
    bump_map = quad_map()
    a, b = COLOR_ORDER.index(c1), COLOR_ORDER.index(c2)
    for behavior, expected_word, r1, r2 in (
        (WA, wa_word, wa_r1, wa_r2),
        (WO, wo_word, wo_r1, wo_r2),
    ):
        report = run_block_test(bump_map, [Bridge(a, b, behavior)])[0]
        assert str(report.received[a]) == expected_word
        assert str(report.received[b]) == expected_word
        assert report.responses[a] == DetectorResponse(*r1)
        assert report.responses[b] == DetectorResponse(*r2)


def test_stuck_at_rows_on_quad():
    bump_map = quad_map()
    report = run_block_test(bump_map, [StuckAt(0, 0)])[0]
    assert report.responses[0] == (0, 0)  # green SA-0
    assert all(report.responses[i] == (1, 1) for i in (1, 2, 3))
    report = run_block_test(bump_map, [StuckAt(0, 1)])[0]
    assert report.responses[0] == (1, 0)  # green SA-1
    # Red/black orientation swaps the stuck-value labels through the inverter.
    assert run_block_test(bump_map, [StuckAt(2, 0)])[0].responses[2] == (1, 0)
    assert run_block_test(bump_map, [StuckAt(2, 1)])[0].responses[2] == (0, 0)


def test_fsm_schedule_shapes():
    one = fsm_schedule(1)
    assert one.total_cycles == 5
    assert [s.state for s in one.steps] == [
        FsmState.IDLE,
        FsmState.BLOCK_TEST,
        FsmState.BLOCK_TEST,
        FsmState.BLOCK_TEST,
        FsmState.DONE,
    ]
    two = fsm_schedule(2)
    assert two.total_cycles == 8
    blocks = [s.block for s in two.steps if s.state is FsmState.BLOCK_TEST]
    assert blocks == [0, 0, 0, 1, 1, 1]
    cycles = [s.cycle for s in two.steps if s.state is FsmState.BLOCK_TEST]
    assert cycles == [0, 1, 2, 0, 1, 2]


def test_fsm_block_enables_are_one_hot():
    schedule = fsm_schedule(3)
    for step in schedule.steps:
        if step.state is FsmState.BLOCK_TEST:
            assert sum(step.block_en) == 1
            assert step.block_en[step.block] == 1
            assert step.test_en == 1
        else:
            assert sum(step.block_en) == 0
        assert step.bist_en == 1


def test_test_time_grows_with_block_count():
    cycles = [fsm_schedule(n).total_cycles for n in range(1, 6)]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles)
    assert fsm_schedule(4).total_cycles > fsm_schedule(2).total_cycles


def full_map(rows=4, cols=6, blocks=2, kind=LatticeKind.HEXAGONAL):
    lattice = Lattice(kind, rows, cols, 20.0)
    bump_map = build_bump_map(lattice)
    graph = potential_short_graph(bump_map, 1.9 * 20.0)
    bump_map = assign_codewords(bump_map, graph)
    return partition_blocks(bump_map, blocks), graph


def test_resolve_drives_active_block_and_zeros_the_rest():
    bump_map, _ = full_map()
    for cycle in range(3):
        values = resolve_net_values(bump_map, 0, [], cycle)
        for bump in range(bump_map.bump_count):
            expected = (
                pattern_for(bump_map.coloring[bump])[cycle]
                if bump_map.blocks[bump] == 0
                else 0
            )
            assert values[bump] == expected


def test_resolve_requires_colored_blocked_map():
    bump_map = build_bump_map(Lattice(LatticeKind.RECTANGULAR, 2, 2, 20.0))
    with pytest.raises(ParameterError):
        resolve_net_values(bump_map, 0, [], 0)


def test_bridge_of_active_green_and_red_reads_wired_and_word():
    bump_map = quad_map()
    bits = [resolve_net_values(bump_map, 0, [Bridge(0, 2, WA)], cyc) for cyc in range(3)]
    assert [b[0] for b in bits] == [0, 1, 0]  # 011 AND 010
    assert [b[2] for b in bits] == [0, 1, 0]


def test_bridge_with_inactive_bump_pulls_wired_and_to_zero():
    bump_map, graph = full_map()
    cross = next(
        e for e in sorted(graph.edges) if bump_map.blocks[e[0]] != bump_map.blocks[e[1]]
    )
    a, b = cross
    active = bump_map.blocks[a]
    bits = [resolve_net_values(bump_map, active, [Bridge(a, b, WA)], cyc)[a] for cyc in range(3)]
    assert bits == [0, 0, 0]


def test_stuck_at_dominates_bridging():
    bump_map = quad_map()
    faults = [StuckAt(0, 1), Bridge(0, 3, WA)]  # wired-AND would pull the net low
    for cycle in range(3):
        assert resolve_net_values(bump_map, 0, faults, cycle)[0] == 1


def test_conflicting_stuck_values_rejected():
    bump_map = quad_map()
    with pytest.raises(SimulationError):
        resolve_net_values(bump_map, 0, [StuckAt(1, 0), StuckAt(1, 1)], 0)


def test_mixed_behavior_bridge_component_rejected():
    bump_map = quad_map()
    with pytest.raises(SimulationError):
        resolve_net_values(bump_map, 0, [Bridge(0, 1, WA), Bridge(1, 2, WO)], 0)


def test_bridge_component_merges_transitively():
    bump_map = quad_map()
    values = resolve_net_values(bump_map, 0, [Bridge(0, 1, WA), Bridge(1, 2, WA)], 1)
    # cycle 1 bits: green 1, blue 0, red 1 -> AND = 0 on all three
    assert values[0] == values[1] == values[2] == 0
    assert values[3] == pattern_for(Color.BLACK)[1]


def quad_words(faults):
    """The quad's received words as text, checked against every cycle of resolve_net_values."""
    bump_map = quad_map()
    received = run_block_test(bump_map, faults)[0].received
    bits = [resolve_net_values(bump_map, 0, faults, cycle) for cycle in range(3)]
    assert [tuple(received[b][cycle] for b in range(4)) for cycle in range(3)] == bits
    return [str(received[b]) for b in range(4)]


def test_wired_or_chain_merges_transitively():
    # green 011 | blue 101 | red 010 = 111; black stays unbridged.
    assert quad_words([Bridge(0, 1, WO), Bridge(1, 2, WO)]) == ["111", "111", "111", "100"]


def test_disjoint_wired_and_and_wired_or_components_resolve_separately():
    # green 011 & blue 101 = 001; red 010 | black 100 = 110.
    faults = [Bridge(0, 1, WA), Bridge(2, 3, WO)]
    assert quad_words(faults) == ["001", "001", "110", "110"]


def test_stuck_net_in_a_chain_keeps_its_word_and_joins_the_merge():
    # The stuck word enters the merge: 011 & 111 & 010 = 010, and 011 | 000 | 010 = 011.
    chain_and = [Bridge(0, 1, WA), StuckAt(1, 1), Bridge(1, 2, WA)]
    assert quad_words(chain_and) == ["010", "111", "010", "100"]
    chain_or = [Bridge(0, 1, WO), StuckAt(1, 0), Bridge(1, 2, WO)]
    assert quad_words(chain_or) == ["011", "000", "011", "100"]


def test_mixed_component_message_names_its_sorted_nets():
    message = "bridge component mixing wired-AND and wired-OR on nets [0, 1, 2] is unsupported"
    faults = [Bridge(2, 1, WO), Bridge(1, 0, WA)]
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        run_block_test(quad_map(), faults)
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        resolve_net_values(quad_map(), 0, faults, 2)


def test_mixed_component_named_is_the_one_with_the_earliest_bridge():
    # Both components mix behaviours; {0, 1, 5} holds the first bridge of the list.
    bump_map, _ = full_map()
    faults = [Bridge(0, 1, WA), Bridge(2, 3, WA), Bridge(3, 6, WO), Bridge(1, 5, WO)]
    for call in (lambda: run_block_test(bump_map, faults),
                 lambda: resolve_net_values(bump_map, 1, faults, 0)):
        with pytest.raises(SimulationError, match=re.escape("on nets [0, 1, 5] is")):
            call()
    faults = [faults[1], *faults[2:], faults[0]]
    with pytest.raises(SimulationError, match=re.escape("on nets [2, 3, 6] is")):
        run_block_test(bump_map, faults)


def test_resolve_is_independent_of_fault_order():
    bump_map, graph = full_map()
    rng = random.Random(7)
    edges = sorted(graph.edges)
    faults = [StuckAt(3, 1), Bridge(*edges[0], WA), Bridge(*edges[5], WA), StuckAt(11, 0)]
    baseline = [resolve_net_values(bump_map, 0, faults, cyc) for cyc in range(3)]
    for _ in range(5):
        shuffled = faults[:]
        rng.shuffle(shuffled)
        assert [resolve_net_values(bump_map, 0, shuffled, cyc) for cyc in range(3)] == baseline


def test_run_block_test_nominal_all_pass():
    bump_map, _ = full_map()
    reports = run_block_test(bump_map, [])
    covered = []
    for report in reports:
        assert set(report.responses) == set(bump_map.bumps_in_block(report.block))
        assert all(resp == (1, 1) for resp in report.responses.values())
        covered.extend(report.responses)
    assert sorted(covered) == list(range(bump_map.bump_count))


def test_run_block_test_sa0_flags_only_that_bump():
    bump_map, _ = full_map()
    green_bump = bump_map.coloring.index(Color.GREEN)
    reports = run_block_test(bump_map, [StuckAt(green_bump, 0)])
    for report in reports:
        for bump, resp in report.responses.items():
            if bump == green_bump:
                assert resp == (0, 0)
            else:
                assert resp == (1, 1)


def test_run_block_test_red_black_wired_or_detected_in_both():
    bump_map = quad_map()
    report = run_block_test(bump_map, [Bridge(2, 3, WO)])[0]
    assert report.responses[2] == (1, 0)
    assert report.responses[3] == (1, 0)


def test_same_color_bridge_is_undetectable_by_design():
    # Same codeword on both nets: wiring them together changes nothing.
    bump_map, _ = full_map(4, 6, 2)
    greens = [b for b, c in enumerate(bump_map.coloring) if c is Color.GREEN]
    same_block = [
        (a, b)
        for a, b in itertools.combinations(greens, 2)
        if bump_map.blocks[a] == bump_map.blocks[b]
    ]
    a, b = same_block[0]
    for behavior in (WA, WO):
        reports = run_block_test(bump_map, [Bridge(a, b, behavior)])
        assert all(resp == (1, 1) for r in reports for resp in r.responses.values())


def test_overhead_report_configurations():
    # 128 I/Os: 2 blocks -> 64 detectors / 2 TPGs, 4 blocks -> 32 / 4.
    lattice = Lattice(LatticeKind.RECTANGULAR, 16, 8, 20.0)
    bump_map = build_bump_map(lattice)
    graph = potential_short_graph(bump_map, 1.9 * 20.0)
    bump_map = assign_codewords(bump_map, graph)
    two = overhead_report(partition_blocks(bump_map, 2))
    assert (two.detector_count, two.tpg_count, two.mux_count) == (64, 2, 64)
    four = overhead_report(partition_blocks(bump_map, 4))
    assert (four.detector_count, four.tpg_count, four.mux_count) == (32, 4, 32)
    assert four.test_cycles > two.test_cycles


def test_overhead_single_block():
    bump_map, _ = full_map(3, 5, 1)
    report = overhead_report(partition_blocks(bump_map, 1))
    assert report.detector_count == 15
    assert report.tpg_count == 1


def test_overhead_test_length_is_the_fsm_length():
    # Every split of a 1x32 row, from one block to one bump per block.
    bump_map = build_bump_map(Lattice(LatticeKind.RECTANGULAR, 1, 32, 20.0))
    bump_map = assign_codewords(bump_map, potential_short_graph(bump_map, 1.9 * 20.0))
    for blocks in range(1, 33):
        blocked = partition_blocks(bump_map, blocks)
        report = overhead_report(blocked)
        assert report.test_cycles == fsm_schedule(blocks).total_cycles
        assert report.detector_count == max(blocked.block_sizes)


def test_simulate_one_block_per_column_fits_in_1_gib(tmp_path):
    # The report's test length is the FSM's closed form: its one-hot
    # schedule for 65536 blocks would take tens of gigabytes.
    resource = pytest.importorskip("resource")
    cap = 1 << 30
    config = {
        "version": 1,
        "map": {"kind": "rectangular", "rows": 1, "cols": 65536, "pitch_um": 20.0},
        "block_count": 65536,
        "sampler": {"n_faults": 10, "seed": 1},
        "output": {"report": "report.json"},
    }
    config_path, report_path = tmp_path / "config.json", tmp_path / "report.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    src = str(Path(chipletbist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chipletbist.cli", "simulate", "--config", str(config_path),
         "--out", str(report_path)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["overhead"]["test_cycles"] == 196610


def test_block_sizes_count_any_blocks_tuple():
    # A BumpMap takes any blocks tuple; only partition_blocks makes column
    # bands, so a size is not rows x band width (that would give [2, 2] here).
    lattice = Lattice(LatticeKind.RECTANGULAR, 2, 2, 20.0)
    bump_map = BumpMap(lattice, coloring=COLOR_ORDER, blocks=(0, 0, 0, 1), block_count=2)
    assert bump_map.block_sizes == (3, 1)
    assert overhead_report(bump_map).detector_count == 3
    assert bump_map.bumps_in_block(1) == (3,)


@pytest.mark.parametrize("bad", [-1, 2, 5])
def test_block_sizes_rejects_a_block_id_outside_block_count(bad):
    # bumps_in_block and run_block_test leave such a bump in no block, so a
    # size that counted it (-1 as the last block) would disagree with them.
    lattice = Lattice(LatticeKind.RECTANGULAR, 2, 3, 20.0)
    coloring = COLOR_ORDER + COLOR_ORDER[:2]
    bump_map = BumpMap(lattice, coloring=coloring, blocks=(1, 0, 1, bad, 1, 0), block_count=2)
    message = re.escape(f"block id {bad} is outside range(2)")
    with pytest.raises(ParameterError, match=message):
        bump_map.block_sizes
    with pytest.raises(ParameterError, match=message):
        overhead_report(bump_map)


def test_run_block_test_reports_no_bump_of_a_block_outside_block_count():
    # A hand-built blocks tuple may name ids outside range(block_count): no
    # tested block holds those bumps, so no report names them.
    lattice = Lattice(LatticeKind.RECTANGULAR, 2, 3, 20.0)
    coloring = COLOR_ORDER + COLOR_ORDER[:2]
    bump_map = BumpMap(lattice, coloring=coloring, blocks=(1, 0, 5, -1, 1, 0), block_count=2)
    reports = run_block_test(bump_map, [StuckAt(2, 0)])
    assert [(r.block, sorted(r.responses)) for r in reports] == [(0, [1, 5]), (1, [0, 4])]
    for report in reports:
        assert tuple(report.responses) == bump_map.bumps_in_block(report.block)
        assert set(report.responses.values()) == {NOMINAL_RESPONSE}


def test_fault_validation():
    with pytest.raises(ParameterError):
        StuckAt(0, 2)
    with pytest.raises(ParameterError):
        Bridge(3, 3, WA)
    assert Bridge(5, 2, WA) == Bridge(2, 5, WA)  # endpoints normalize
    bump_map = quad_map()
    with pytest.raises(ParameterError):
        run_block_test(bump_map, [StuckAt(99, 0)])
    with pytest.raises(ParameterError):
        run_block_test(bump_map, [Bridge(0, 99, WA)])
