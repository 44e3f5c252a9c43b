"""Tests for nominal parasitics, the defect taxonomy, and the size classifier."""

import logging
import math

import pytest

from chipletbist.defects import (
    ComponentKind,
    ElectricalScenario,
    FaultMagnitude,
    FunctionalFaultClass,
    NetClass,
    PhysicalDefect,
    classify_defect,
    geometry_note,
    nominal_parasitics,
    scenario_for,
)
from chipletbist.errors import ParameterError


def test_cu_pillar_parasitics():
    p = nominal_parasitics(ComponentKind.CU_PILLAR)
    assert p.resistance_ohm == 1.11e-3
    assert p.self_capacitance_f == 3.21e-15
    assert p.mutual_capacitance_f == 0.0


def test_rdl_self_capacitance_collapses_at_length_5():
    p = nominal_parasitics(ComponentKind.RDL_SEGMENT, length_um=5.0)
    assert p.self_capacitance_f == 0.7e-15  # (1 + 0*0.72) * 0.7 fF, exact


def test_rdl_parasitics_at_length_100():
    p = nominal_parasitics(ComponentKind.RDL_SEGMENT, length_um=100.0)
    assert p.resistance_ohm == pytest.approx(431e-3, rel=1e-9)
    assert p.self_capacitance_f == pytest.approx(10.276e-15, rel=1e-9)
    assert p.mutual_capacitance_f == pytest.approx(9.2e-15, rel=1e-9)


def test_rdl_scaling_is_affine_in_length():
    r10 = nominal_parasitics(ComponentKind.RDL_SEGMENT, 10.0)
    r20 = nominal_parasitics(ComponentKind.RDL_SEGMENT, 20.0)
    r30 = nominal_parasitics(ComponentKind.RDL_SEGMENT, 30.0)
    assert r30.resistance_ohm - r20.resistance_ohm == pytest.approx(
        r20.resistance_ohm - r10.resistance_ohm, rel=1e-12
    )
    assert r30.mutual_capacitance_f - r20.mutual_capacitance_f == pytest.approx(
        r20.mutual_capacitance_f - r10.mutual_capacitance_f, rel=1e-12
    )


# An infinite length, or one so short that its resistance underflows to 0,
# is rejected by name rather than as a deck element's value.
@pytest.mark.parametrize("length", [None, 0.0, -3.0, math.inf, 5e-324])
def test_rdl_requires_positive_length(length):
    with pytest.raises(ParameterError, match=f"length.*got {length}$"):
        nominal_parasitics(ComponentKind.RDL_SEGMENT, length)


def test_cu_pillar_ignores_length():
    assert nominal_parasitics(ComponentKind.CU_PILLAR, 42.0) == nominal_parasitics(
        ComponentKind.CU_PILLAR
    )


def test_magnitude_must_be_positive():
    with pytest.raises(ParameterError):
        FaultMagnitude.resistance(0.0)
    with pytest.raises(ParameterError):
        FaultMagnitude.capacitance(-1e-15)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "make,kind",
    [(FaultMagnitude.resistance, "resistance"), (FaultMagnitude.capacitance, "capacitance")],
)
def test_magnitude_must_be_finite(make, kind, value):
    with pytest.raises(ParameterError) as excinfo:
        make(value)
    assert str(excinfo.value) == f"fault {kind} must be positive and finite, got {value}"


def test_largest_finite_magnitude_is_accepted():
    assert FaultMagnitude.resistance(1.7976931348623157e308).value == 1.7976931348623157e308


# (scenario, in-bound magnitude, out-of-bound magnitude, class inside)
CLASSIFIER_ROWS = [
    (ElectricalScenario.VDD_OPEN, FaultMagnitude.capacitance(1e-15),
     FaultMagnitude.capacitance(3e-6), FunctionalFaultClass.OUTPUT_SA0),
    (ElectricalScenario.VSS_OPEN, FaultMagnitude.capacitance(1e-12),
     FaultMagnitude.capacitance(0.05e-15), FunctionalFaultClass.OUTPUT_SA1),
    (ElectricalScenario.SIGNAL_OPEN, FaultMagnitude.capacitance(5e-15),
     FaultMagnitude.capacitance(20e-15), FunctionalFaultClass.WIRED_AND_OR_WIRED_OR),
    (ElectricalScenario.SHORT_TO_VDD, FaultMagnitude.resistance(100.0),
     FaultMagnitude.resistance(700.0), FunctionalFaultClass.SIGNAL_SA1),
    (ElectricalScenario.SHORT_TO_VSS, FaultMagnitude.resistance(400.0),
     FaultMagnitude.resistance(900.0), FunctionalFaultClass.SIGNAL_SA0),
    (ElectricalScenario.SIGNAL_SHORT, FaultMagnitude.resistance(150.0),
     FaultMagnitude.resistance(250.0), FunctionalFaultClass.WIRED_AND),
]


@pytest.mark.parametrize("scenario,inside,outside,expected", CLASSIFIER_ROWS)
def test_classifier_rows(scenario, inside, outside, expected):
    assert classify_defect(scenario, inside) is expected
    assert classify_defect(scenario, outside) is FunctionalFaultClass.NO_HARD_FAULT


@pytest.mark.parametrize(
    "scenario,boundary",
    [
        (ElectricalScenario.SIGNAL_SHORT, FaultMagnitude.resistance(200.0)),
        (ElectricalScenario.SHORT_TO_VDD, FaultMagnitude.resistance(500.0)),
        (ElectricalScenario.SHORT_TO_VSS, FaultMagnitude.resistance(600.0)),
        (ElectricalScenario.SIGNAL_OPEN, FaultMagnitude.capacitance(10e-15)),
        (ElectricalScenario.VDD_OPEN, FaultMagnitude.capacitance(0.1e-15)),
        (ElectricalScenario.VDD_OPEN, FaultMagnitude.capacitance(2e-6)),
    ],
)
def test_bounds_are_strict(scenario, boundary):
    assert classify_defect(scenario, boundary) is FunctionalFaultClass.NO_HARD_FAULT


def test_classifier_monotone_for_shorts():
    # Decreasing a detected short resistance never loses the hard fault.
    last = FunctionalFaultClass.WIRED_AND
    for r in (199.0, 150.0, 50.0, 1.0, 1e-3):
        got = classify_defect(ElectricalScenario.SIGNAL_SHORT, FaultMagnitude.resistance(r))
        assert got is last


def test_every_open_capacitance_inside_interval_classifies():
    for c in (0.2e-15, 1e-15, 1e-9, 1.9e-6):
        assert (
            classify_defect(ElectricalScenario.VDD_OPEN, FaultMagnitude.capacitance(c))
            is FunctionalFaultClass.OUTPUT_SA0
        )


def test_mismatched_magnitude_kind_rejected():
    with pytest.raises(ParameterError):
        classify_defect(ElectricalScenario.VDD_OPEN, FaultMagnitude.resistance(100.0))
    with pytest.raises(ParameterError):
        classify_defect(ElectricalScenario.SIGNAL_SHORT, FaultMagnitude.capacitance(1e-15))


def test_below_floor_open_is_flagged(caplog):
    with caplog.at_level(logging.WARNING, logger="chipletbist.defects"):
        got = classify_defect(
            ElectricalScenario.VSS_OPEN, FaultMagnitude.capacitance(0.01e-15)
        )
    assert got is FunctionalFaultClass.NO_HARD_FAULT
    assert any("floor" in record.message for record in caplog.records)


def test_scenario_mapping():
    assert scenario_for(PhysicalDefect.PILLAR_CRACK, NetClass.POWER) is ElectricalScenario.VDD_OPEN
    assert scenario_for(PhysicalDefect.CAPACITIVE_MISALIGNMENT, NetClass.GROUND) is ElectricalScenario.VSS_OPEN
    assert scenario_for(PhysicalDefect.PILLAR_CRACK, NetClass.SIGNAL) is ElectricalScenario.SIGNAL_OPEN
    assert scenario_for(PhysicalDefect.PILLAR_BRIDGE, NetClass.POWER) is ElectricalScenario.SHORT_TO_VDD
    assert scenario_for(PhysicalDefect.RDL_BRIDGE, NetClass.SIGNAL) is ElectricalScenario.SIGNAL_SHORT
    with pytest.raises(ParameterError):
        scenario_for(PhysicalDefect.DAMAGED_RDL, NetClass.SIGNAL)


def test_geometry_notes_differ_by_component():
    cu = geometry_note(FunctionalFaultClass.WIRED_AND, ComponentKind.CU_PILLAR)
    rdl = geometry_note(FunctionalFaultClass.WIRED_AND, ComponentKind.RDL_SEGMENT)
    assert "4 nm" in cu and "3 nm" in rdl
    assert "20 nm" in geometry_note(FunctionalFaultClass.OUTPUT_SA0, ComponentKind.CU_PILLAR)
    assert geometry_note(FunctionalFaultClass.NO_HARD_FAULT, ComponentKind.CU_PILLAR) is None
