"""Shared vocabulary of the bump-map, defect and curve modules.

The lattice kinds, the default short radius, the component kinds, physical
defect kinds, electrical scenarios, curve families and the polynomial degree
cap are defined here once, and every module that uses them imports them
from here.  The CLI builds its parser's choices and defaults from them, so a
command loads none of the bump-map, defect or curve modules before it runs.
Standard library only.
"""

from enum import Enum

# Times pitch.  Captures the two close-packed rings of a hexagonal lattice
# (neighbor distances pitch and sqrt(3)*pitch, 12 bumps) while excluding the
# 2*pitch ring; any factor in [sqrt(3), 2) yields the same 12-neighborhood.
DEFAULT_SHORT_RADIUS_FACTOR = 1.9

MAX_POLYNOMIAL_DEGREE = 3


class LatticeKind(Enum):
    HEXAGONAL = "hexagonal"
    RECTANGULAR = "rectangular"


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
