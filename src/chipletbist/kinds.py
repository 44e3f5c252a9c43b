"""Shared vocabulary of the defect and curve modules.

The component kinds, physical defect kinds, electrical scenarios, curve
families and the polynomial degree cap are defined here once.  ``defects``
and ``curves`` re-export them, and the CLI builds its parser's choices from
them, so a command that never classifies, fits or emits a netlist does not
load those modules.  Standard library only.
"""

from enum import Enum

MAX_POLYNOMIAL_DEGREE = 3


class ComponentKind(Enum):
    CU_PILLAR = "cu-pillar"
    RDL_SEGMENT = "rdl"


class PhysicalDefect(Enum):
    """Hard-defect kinds observed in the two component kinds."""

    PILLAR_CRACK = "pillar-crack"
    RESISTIVE_MISALIGNMENT = "resistive-misalignment"
    CAPACITIVE_MISALIGNMENT = "capacitive-misalignment"
    PILLAR_BRIDGE = "pillar-bridge"
    RDL_BRIDGE = "rdl-bridge"
    DAMAGED_RDL = "damaged-rdl"


class ElectricalScenario(Enum):
    """Electrical role of a defect once the afflicted net is declared."""

    VDD_OPEN = "vdd-open"
    VSS_OPEN = "vss-open"
    SIGNAL_OPEN = "signal-open"
    SHORT_TO_VDD = "short-to-vdd"
    SHORT_TO_VSS = "short-to-vss"
    SIGNAL_SHORT = "signal-short"


class CurveFamily(Enum):
    LOG_LINEAR = "log-linear"
    EXPONENTIAL = "exponential"
    POLYNOMIAL = "polynomial"
