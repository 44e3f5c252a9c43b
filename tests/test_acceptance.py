"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import json
import math
from contextlib import contextmanager

import pytest

from chipletbist.bist import (
    ACCEPTED_WORDS,
    Bridge,
    BridgeBehavior,
    DetectorResponse,
    Pattern3,
    StuckAt,
    detector_accepts,
    fsm_schedule,
    overhead_report,
    run_block_test,
)
from chipletbist.bumpmap import (
    COLOR_ORDER,
    Color,
    Lattice,
    LatticeKind,
    assign_codewords,
    build_bump_map,
    coloring_violations,
    partition_blocks,
    potential_short_graph,
)
from chipletbist.campaign import CampaignConfig, MapSpec, SamplerSpec, run_campaign
from chipletbist.canonical import canonical_json
from chipletbist.circuits import build_faulty_circuit, emit_netlist
from chipletbist.cli import main as cli_main
from chipletbist.curves import (
    CurveFamily,
    SeverityCurve,
    eval_severity,
    fit_severity_curve,
    invert_severity,
)
from chipletbist.defects import (
    ComponentKind,
    ElectricalScenario,
    FaultMagnitude,
    FunctionalFaultClass,
    PhysicalDefect,
    classify_defect,
    nominal_parasitics,
)
from chipletbist.diagnosis import build_fault_dictionary, diagnosability
from chipletbist.kinds import DEFAULT_SHORT_RADIUS_FACTOR
from oracle import quad_map

WA = BridgeBehavior.WIRED_AND
WO = BridgeBehavior.WIRED_OR


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    print(f"criterion {number:2d} ({description}): PASS")


def test_criterion_01_detector_truth_table():
    with criterion(1, "detector truth table, both orientations"):
        cases = 0
        for bits in itertools.product((0, 1), repeat=3):
            word = Pattern3(*bits)
            assert detector_accepts(word) == int(word in ACCEPTED_WORDS)
            cases += 1
            inverted = word.complement()
            assert detector_accepts(inverted) == int(inverted in ACCEPTED_WORDS)
            cases += 1
        assert cases == 16


PAIR_ROWS = [
    (Color.GREEN, Color.BLUE, WA, "001", (1, 0), (1, 0)),
    (Color.GREEN, Color.BLUE, WO, "111", (1, 0), (1, 0)),
    (Color.GREEN, Color.RED, WA, "010", (1, 0), (1, 1)),
    (Color.GREEN, Color.RED, WO, "011", (1, 1), (1, 0)),
    (Color.GREEN, Color.BLACK, WA, "000", (0, 0), (1, 0)),
    (Color.GREEN, Color.BLACK, WO, "111", (1, 0), (0, 0)),
    (Color.BLUE, Color.RED, WA, "000", (0, 0), (1, 0)),
    (Color.BLUE, Color.RED, WO, "111", (1, 0), (0, 0)),
    (Color.BLUE, Color.BLACK, WA, "100", (1, 0), (1, 1)),
    (Color.BLUE, Color.BLACK, WO, "101", (1, 1), (1, 0)),
    (Color.RED, Color.BLACK, WA, "000", (1, 0), (1, 0)),
    (Color.RED, Color.BLACK, WO, "110", (1, 0), (1, 0)),
]


def test_criterion_02_bridging_table_reproduction():
    with criterion(2, "bridging response table, 12 rows"):
        bump_map = quad_map()
        for c1, c2, behavior, word, r1, r2 in PAIR_ROWS:
            a, b = COLOR_ORDER.index(c1), COLOR_ORDER.index(c2)
            report = run_block_test(bump_map, [Bridge(a, b, behavior)])[0]
            assert str(report.received[a]) == word
            assert str(report.received[b]) == word
            assert report.responses[a] == DetectorResponse(*r1)
            assert report.responses[b] == DetectorResponse(*r2)


def test_criterion_03_full_single_fault_detection():
    with criterion(3, "all 14 single faults detected on the quad"):
        bump_map = quad_map()
        detected = 0
        for i in range(4):
            for value in (0, 1):
                report = run_block_test(bump_map, [StuckAt(i, value)])[0]
                assert any(resp.y == 0 for resp in report.responses.values())
                detected += 1
        for a, b in itertools.combinations(range(4), 2):
            for behavior in (WA, WO):
                report = run_block_test(bump_map, [Bridge(a, b, behavior)])[0]
                assert any(resp.y == 0 for resp in report.responses.values())
            detected += 1
        assert detected == 14


def test_criterion_04_diagnosability():
    with criterion(4, "diagnosability 87/91 with 4 ambiguous pairs"):
        dictionary = build_fault_dictionary()
        assert len(dictionary.ambiguous_pairs) == 4
        fraction, decimal = diagnosability(dictionary)
        assert (fraction.numerator, fraction.denominator) == (87, 91)
        assert abs(decimal * 100.0 - 95.61) <= 0.02  # percentage points
        assert decimal == pytest.approx(0.95604, abs=5e-6)


def test_criterion_05_hexagonal_coloring_e2e():
    with criterion(5, "proper 4-coloring on hexagonal maps up to 64x64"):
        for rows, cols in ((8, 8), (16, 16), (33, 47), (64, 64)):
            lattice = Lattice(LatticeKind.HEXAGONAL, rows, cols, 20.0)
            bump_map = build_bump_map(lattice)
            graph = potential_short_graph(
                bump_map, DEFAULT_SHORT_RADIUS_FACTOR * lattice.pitch_um
            )
            colored = assign_codewords(bump_map, graph)
            assert coloring_violations(colored.coloring, graph) == ()
            assert len(set(colored.coloring)) <= 4


def test_criterion_06_full_map_campaigns():
    with criterion(6, "16x16 hex campaigns: detection by fault category"):
        for block_count in (2, 4):
            config = CampaignConfig(
                map_spec=MapSpec(LatticeKind.HEXAGONAL, 16, 16, 20.0),
                block_count=block_count,
                sampler=SamplerSpec(n_faults=200, seed=42),
            )
            report = run_campaign(config)
            inter_or = 0
            for result in report["fault_results"]:
                fault = result["fault"]
                if fault["kind"] in ("sa0", "sa1"):
                    assert result["detected"], f"stuck-at escaped: {fault}"
                elif not result["inter_block"]:
                    assert result["detected"], f"intra-block bridge escaped: {fault}"
                elif fault["behavior"] == "wired-and":
                    assert result["detected"], f"inter-block wired-AND escaped: {fault}"
                else:
                    inter_or += 1
            metrics = report["metrics"]["inter_block_wired_or"]
            assert metrics["injected"] == inter_or
            assert inter_or > 0  # the seed exercises the documented escape path
            assert metrics["escape_rate"] > 0
            assert all(
                escape["kind"] == "bridge" and escape["behavior"] == "wired-or"
                for escape in report["metrics"]["escapes"]
            )


def test_criterion_07_component_parasitics():
    with criterion(7, "component parasitic formulas"):
        pillar = nominal_parasitics(ComponentKind.CU_PILLAR)
        assert pillar.resistance_ohm == 1.11e-3
        assert pillar.self_capacitance_f == 3.21e-15
        assert pillar.mutual_capacitance_f == 0.0
        for length in (5.0, 10.0, 100.0):
            rdl = nominal_parasitics(ComponentKind.RDL_SEGMENT, length)
            assert rdl.resistance_ohm == pytest.approx(4.31e-3 * length, rel=1e-9)
            assert rdl.self_capacitance_f == pytest.approx(
                (1.0 + (length / 5.0 - 1.0) * 0.72) * 0.7e-15, rel=1e-9
            )
            assert rdl.mutual_capacitance_f == pytest.approx(0.092e-15 * length, rel=1e-9)
        assert nominal_parasitics(ComponentKind.RDL_SEGMENT, 5.0).self_capacitance_f == 0.7e-15


def test_criterion_08_size_classifier():
    with criterion(8, "size classifier rows, strict bounds"):
        R, C = FaultMagnitude.resistance, FaultMagnitude.capacitance
        probes = [
            (ElectricalScenario.VDD_OPEN, C(1e-15), FunctionalFaultClass.OUTPUT_SA0),
            (ElectricalScenario.VDD_OPEN, C(3e-6), FunctionalFaultClass.NO_HARD_FAULT),
            (ElectricalScenario.VSS_OPEN, C(1e-12), FunctionalFaultClass.OUTPUT_SA1),
            (ElectricalScenario.VSS_OPEN, C(0.05e-15), FunctionalFaultClass.NO_HARD_FAULT),
            (ElectricalScenario.SIGNAL_OPEN, C(5e-15), FunctionalFaultClass.WIRED_AND_OR_WIRED_OR),
            (ElectricalScenario.SIGNAL_OPEN, C(11e-15), FunctionalFaultClass.NO_HARD_FAULT),
            (ElectricalScenario.SHORT_TO_VDD, R(499.0), FunctionalFaultClass.SIGNAL_SA1),
            (ElectricalScenario.SHORT_TO_VDD, R(501.0), FunctionalFaultClass.NO_HARD_FAULT),
            (ElectricalScenario.SHORT_TO_VSS, R(599.0), FunctionalFaultClass.SIGNAL_SA0),
            (ElectricalScenario.SHORT_TO_VSS, R(601.0), FunctionalFaultClass.NO_HARD_FAULT),
            (ElectricalScenario.SIGNAL_SHORT, R(150.0), FunctionalFaultClass.WIRED_AND),
            (ElectricalScenario.SIGNAL_SHORT, R(250.0), FunctionalFaultClass.NO_HARD_FAULT),
        ]
        assert len(probes) == 12
        for scenario, magnitude, expected in probes:
            assert classify_defect(scenario, magnitude) is expected
        # Strict inequality exactly at the printed bounds.
        for scenario, magnitude in [
            (ElectricalScenario.SIGNAL_SHORT, R(200.0)),
            (ElectricalScenario.SHORT_TO_VDD, R(500.0)),
            (ElectricalScenario.SHORT_TO_VSS, R(600.0)),
            (ElectricalScenario.SIGNAL_OPEN, C(10e-15)),
            (ElectricalScenario.VDD_OPEN, C(0.1e-15)),
            (ElectricalScenario.VDD_OPEN, C(2e-6)),
        ]:
            assert classify_defect(scenario, magnitude) is FunctionalFaultClass.NO_HARD_FAULT


def test_criterion_09_curve_fitting_and_inversion():
    with criterion(9, "curve fitting, round trips, worked inversion"):
        log_curve = fit_severity_curve(
            [(x, 2.0 + 3.0 * math.log(x)) for x in (1.0, math.e, math.e**2)],
            CurveFamily.LOG_LINEAR,
        )
        assert log_curve.coefficients[0] == pytest.approx(2.0, rel=1e-6, abs=1e-9)
        assert log_curve.coefficients[1] == pytest.approx(3.0, rel=1e-6)
        exp_curve = fit_severity_curve(
            [(x, 5.0 * math.exp(0.5 * x)) for x in (0.0, 1.0, 2.0, 3.0)],
            CurveFamily.EXPONENTIAL,
        )
        assert exp_curve.coefficients[0] == pytest.approx(5.0, rel=1e-6)
        assert exp_curve.coefficients[1] == pytest.approx(0.5, rel=1e-6)
        poly_curve = fit_severity_curve(
            [(x, 1.0 + 2.0 * x - x**2 + 0.5 * x**3) for x in (-2.0, -1.0, 0.5, 1.0, 2.0, 3.0)],
            CurveFamily.POLYNOMIAL,
            degree=3,
        )
        for got, want in zip(poly_curve.coefficients, (1.0, 2.0, -1.0, 0.5)):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

        import random

        rng = random.Random(2026)
        for curve in (
            SeverityCurve(CurveFamily.LOG_LINEAR, (2.0, 3.0), 0.5, 40.0),
            SeverityCurve(CurveFamily.EXPONENTIAL, (1000.0, -1.0), 0.1, 5.0),
            SeverityCurve(CurveFamily.POLYNOMIAL, (1.0, 2.0, 0.25, 0.125), 0.0, 3.0),
        ):
            lo = eval_severity(curve, curve.x_min)
            hi = eval_severity(curve, curve.x_max)
            lo, hi = min(lo, hi), max(lo, hi)
            for _ in range(100):
                y = rng.uniform(lo, hi)
                assert eval_severity(curve, invert_severity(curve, y)) == pytest.approx(
                    y, rel=1e-9
                )
        bridge_curve = SeverityCurve(CurveFamily.EXPONENTIAL, (1000.0, -1.0), 0.1, 5.0)
        assert invert_severity(bridge_curve, 200.0) == pytest.approx(math.log(5.0), rel=1e-9)


def test_criterion_10_netlist_golden_files():
    with criterion(10, "netlist golden decks, byte equality"):
        nominal = emit_netlist(build_faulty_circuit(ComponentKind.CU_PILLAR), "")
        assert nominal == "* \nR1 in out 1.110000e-3\nC1 out gnd 3.210000e-15\n.END"
        full_break = emit_netlist(
            build_faulty_circuit(
                ComponentKind.CU_PILLAR, PhysicalDefect.PILLAR_CRACK, c_fault_f=0.5e-15
            ),
            "full break",
        )
        assert full_break == (
            "* full break\nR1 in m1 5.550000e-4\nC1 m1 out 5.000000e-16\n"
            "C2 out gnd 3.210000e-15\n.END"
        )
        damaged = emit_netlist(
            build_faulty_circuit(
                ComponentKind.RDL_SEGMENT,
                PhysicalDefect.DAMAGED_RDL,
                r_fault_ohm=50e-3,
                length_um=10.0,
            ),
            "damaged rdl",
        )
        assert damaged == (
            "* damaged rdl\nR1 in m1 4.310000e-2\nR2 m1 out 5.000000e-2\n"
            "C1 out gnd 1.204000e-15\n.END"
        )


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "seeded simulate determinism and schedule growth"):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "map": {"kind": "hexagonal", "rows": 8, "cols": 8, "pitch_um": 20.0},
                    "block_count": 2,
                    "sampler": {"n_faults": 40, "seed": 7},
                }
            ),
            encoding="utf-8",
        )
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert cli_main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        # The API path must agree with the CLI path byte for byte as well.
        config = CampaignConfig(
            map_spec=MapSpec(LatticeKind.HEXAGONAL, 8, 8, 20.0),
            block_count=2,
            sampler=SamplerSpec(n_faults=40, seed=7),
        )
        assert canonical_json(run_campaign(config)).encode() == out_a.read_bytes()
        assert fsm_schedule(4).total_cycles > fsm_schedule(2).total_cycles


def test_criterion_12_overhead_configurations():
    with criterion(12, "overhead for a 128 I/O interface"):
        lattice = Lattice(LatticeKind.RECTANGULAR, 16, 8, 20.0)
        bump_map = build_bump_map(lattice)
        assert bump_map.bump_count == 128
        graph = potential_short_graph(bump_map, DEFAULT_SHORT_RADIUS_FACTOR * 20.0)
        bump_map = assign_codewords(bump_map, graph)
        two = overhead_report(partition_blocks(bump_map, 2))
        assert (two.detector_count, two.tpg_count) == (64, 2)
        four = overhead_report(partition_blocks(bump_map, 4))
        assert (four.detector_count, four.tpg_count) == (32, 4)
