"""Interconnect component parasitics, hard-defect taxonomy, and the size classifier.

Nominal parasitics cover the two interconnect component kinds (Cu pillar and
RDL segment).  Physical defect kinds map, via the net they afflict, to
electrical scenarios, and the classifier turns an extracted fault magnitude
(open-gap capacitance or short resistance) into the functional fault class it
causes, if any.  The component kinds, defect kinds and scenarios are defined
in the shared vocabulary module ``chipletbist.kinds``.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import ParameterError
from .kinds import ComponentKind, ElectricalScenario, PhysicalDefect
from .record import Record

CU_PILLAR_DIAMETER_UM = 20.0
CU_PILLAR_HEIGHT_UM = 20.0
RDL_CROSS_SECTION_UM = 2.0  # 2 um x 2 um

CU_PILLAR_RESISTANCE_OHM = 1.11e-3
CU_PILLAR_SELF_CAPACITANCE_F = 3.21e-15
RDL_RESISTANCE_OHM_PER_UM = 4.31e-3
RDL_MUTUAL_CAPACITANCE_F_PER_UM = 0.092e-15


class NominalParasitics(Record):
    resistance_ohm: float
    self_capacitance_f: float
    mutual_capacitance_f: float


def nominal_parasitics(kind: ComponentKind, length_um: float | None = None) -> NominalParasitics:
    """Fault-free lumped parasitics of one interconnect component.

    The Cu pillar has fixed geometry, so ``length_um`` is ignored for it; an
    RDL segment requires its length.  RDL self-capacitance scales as
    (1 + (L/5 - 1) * 0.72) * 0.7 fF, collapsing to 0.7 fF at L = 5.
    """
    if kind is ComponentKind.CU_PILLAR:
        return NominalParasitics(
            resistance_ohm=CU_PILLAR_RESISTANCE_OHM,
            self_capacitance_f=CU_PILLAR_SELF_CAPACITANCE_F,
            mutual_capacitance_f=0.0,  # negligible at 20 um pitch
        )
    if length_um is None or not 0 < RDL_RESISTANCE_OHM_PER_UM * length_um < math.inf:
        raise ParameterError(
            f"RDL segment needs a positive, finite length with a nonzero resistance, got {length_um}"
        )
    return NominalParasitics(
        resistance_ohm=RDL_RESISTANCE_OHM_PER_UM * length_um,
        self_capacitance_f=(1.0 + (length_um / 5.0 - 1.0) * 0.72) * 0.7e-15,
        mutual_capacitance_f=RDL_MUTUAL_CAPACITANCE_F_PER_UM * length_um,
    )


class NetClass(Enum):
    POWER = "power"
    GROUND = "ground"
    SIGNAL = "signal"


_OPEN_DEFECTS = frozenset({PhysicalDefect.PILLAR_CRACK, PhysicalDefect.CAPACITIVE_MISALIGNMENT})
_SHORT_DEFECTS = frozenset({PhysicalDefect.PILLAR_BRIDGE, PhysicalDefect.RDL_BRIDGE})


def scenario_for(defect: PhysicalDefect, net: NetClass) -> ElectricalScenario:
    """Electrical scenario of a physical defect on a declared net class.

    Bridges take the class of the net they short to.  Series resistive kinds
    (resistive misalignment, damaged RDL) stay parametric below the hard-fault
    thresholds and have no scenario row.
    """
    if defect in _OPEN_DEFECTS:
        return {
            NetClass.POWER: ElectricalScenario.VDD_OPEN,
            NetClass.GROUND: ElectricalScenario.VSS_OPEN,
            NetClass.SIGNAL: ElectricalScenario.SIGNAL_OPEN,
        }[net]
    if defect in _SHORT_DEFECTS:
        return {
            NetClass.POWER: ElectricalScenario.SHORT_TO_VDD,
            NetClass.GROUND: ElectricalScenario.SHORT_TO_VSS,
            NetClass.SIGNAL: ElectricalScenario.SIGNAL_SHORT,
        }[net]
    raise ParameterError(
        f"{defect.value} is a series resistive defect with no hard-fault scenario"
    )


class MagnitudeKind(Enum):
    RESISTANCE = "resistance"
    CAPACITANCE = "capacitance"


class FaultMagnitude(Record):
    """Extracted electrical magnitude of a defect: R_f in ohm or C_f in farad."""

    kind: MagnitudeKind
    value: float

    def __post_init__(self) -> None:
        if not 0 < self.value < math.inf:
            raise ParameterError(
                f"fault {self.kind.value} must be positive and finite, got {self.value}"
            )

    @classmethod
    def resistance(cls, ohm: float) -> "FaultMagnitude":
        return cls(MagnitudeKind.RESISTANCE, ohm)

    @classmethod
    def capacitance(cls, farad: float) -> "FaultMagnitude":
        return cls(MagnitudeKind.CAPACITANCE, farad)


class FunctionalFaultClass(Enum):
    OUTPUT_SA0 = "output-sa0"
    OUTPUT_SA1 = "output-sa1"
    SIGNAL_SA0 = "signal-sa0"
    SIGNAL_SA1 = "signal-sa1"
    WIRED_AND = "wired-and"
    WIRED_OR = "wired-or"
    WIRED_AND_OR_WIRED_OR = "wired-and-or-wired-or"
    NO_HARD_FAULT = "no-hard-fault"


# scenario -> (magnitude kind, strict lower bound, strict upper bound, class inside)
_CLASSIFY_RULES = {
    ElectricalScenario.VDD_OPEN: (MagnitudeKind.CAPACITANCE, 0.1e-15, 2e-6, FunctionalFaultClass.OUTPUT_SA0),
    ElectricalScenario.VSS_OPEN: (MagnitudeKind.CAPACITANCE, 0.1e-15, 2e-6, FunctionalFaultClass.OUTPUT_SA1),
    ElectricalScenario.SIGNAL_OPEN: (MagnitudeKind.CAPACITANCE, None, 10e-15, FunctionalFaultClass.WIRED_AND_OR_WIRED_OR),
    ElectricalScenario.SHORT_TO_VDD: (MagnitudeKind.RESISTANCE, None, 500.0, FunctionalFaultClass.SIGNAL_SA1),
    ElectricalScenario.SHORT_TO_VSS: (MagnitudeKind.RESISTANCE, None, 600.0, FunctionalFaultClass.SIGNAL_SA0),
    ElectricalScenario.SIGNAL_SHORT: (MagnitudeKind.RESISTANCE, None, 200.0, FunctionalFaultClass.WIRED_AND),
}


def classify_defect(scenario: ElectricalScenario, magnitude: FaultMagnitude) -> FunctionalFaultClass:
    """Classify a defect magnitude into the functional fault it causes.

    Bounds are strict: a magnitude exactly on a boundary classifies as
    NO_HARD_FAULT.  Opens take C_open, shorts take R_short; a mismatched
    magnitude kind is rejected.
    """
    kind, lower, upper, fault_class = _CLASSIFY_RULES[scenario]
    if magnitude.kind is not kind:
        raise ParameterError(
            f"{scenario.value} expects a {kind.value} magnitude, got {magnitude.kind.value}"
        )
    if lower is not None and not magnitude.value > lower:
        # Semantics below the documented open-capacitance floor are unstated.
        # logging is imported only here: at module load it would cost every
        # CLI process several milliseconds for this one warning.
        import logging

        logging.getLogger(__name__).warning(
            "%s with C_open = %.3e F is at or below the %.1e F floor; "
            "classifying as no hard fault",
            scenario.value,
            magnitude.value,
            lower,
        )
        return FunctionalFaultClass.NO_HARD_FAULT
    if magnitude.value < upper:
        return fault_class
    return FunctionalFaultClass.NO_HARD_FAULT


def geometry_note(fault_class: FunctionalFaultClass, component: ComponentKind) -> str | None:
    """Reference geometry threshold behind a functional fault class, if any."""
    pillar = component is ComponentKind.CU_PILLAR
    if fault_class in (FunctionalFaultClass.SIGNAL_SA0, FunctionalFaultClass.SIGNAL_SA1):
        nm = 3 if pillar else 2
        return f"power/ground short path of ~{nm} nm suffices"
    if fault_class is FunctionalFaultClass.WIRED_AND:
        nm = 4 if pillar else 3
        return f"signal-signal short path of ~{nm} nm suffices for wired-AND"
    if fault_class in (
        FunctionalFaultClass.OUTPUT_SA0,
        FunctionalFaultClass.OUTPUT_SA1,
        FunctionalFaultClass.WIRED_AND_OR_WIRED_OR,
        FunctionalFaultClass.WIRED_OR,
    ):
        return "critical coupling-open gap is ~20 nm"
    return None
