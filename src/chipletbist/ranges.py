"""Defect-range estimates: from a diagnosed fault to bounds on the defect.

A diagnosed candidate maps to the magnitude bound of the functional fault
class it implies, read off the classifier's rule table, and, given a
strictly monotone severity curve, to a bound on the defect geometry.  No
command runs this, and ``diagnosis`` does not import it, so diagnosing loads
neither the curves nor the defects module.  The public names also resolve
from ``chipletbist``.
"""

from __future__ import annotations

from .bist import Bridge, StuckAt
from .curves import SeverityCurve, eval_severity, invert_severity, is_strictly_monotone
from .defects import _CLASSIFY_RULES, FunctionalFaultClass, MagnitudeKind, geometry_note
from .diagnosis import BridgeCandidate, Candidate
from .errors import InversionError, ParameterError
from .kinds import ComponentKind
from .record import Record


class MagnitudeBound(Record):
    """Open interval on the defect magnitude; None means unbounded on that side."""

    kind: MagnitudeKind
    lower: float | None
    upper: float | None


class GeometryBound(Record):
    lower: float | None
    upper: float | None


class DefectRangeEstimate(Record):
    functional_class: FunctionalFaultClass
    magnitude_bound: MagnitudeBound
    geometry_bound: GeometryBound | None
    note: str | None
    warning: str | None = None


# One bound per functional class, read off the classifier's rule table.
_CLASS_BOUNDS = {
    fault_class: MagnitudeBound(kind, lower, upper)
    for kind, lower, upper, fault_class in _CLASSIFY_RULES.values()
}


def _default_class(candidate: Candidate | Bridge) -> FunctionalFaultClass:
    if isinstance(candidate, (BridgeCandidate, Bridge)):
        return FunctionalFaultClass.WIRED_AND
    if isinstance(candidate, StuckAt):
        return (
            FunctionalFaultClass.SIGNAL_SA1
            if candidate.value == 1
            else FunctionalFaultClass.SIGNAL_SA0
        )
    raise ParameterError(f"cannot infer a functional class for {candidate!r}")


def map_to_defect_range(
    candidate: Candidate | Bridge,
    component: ComponentKind,
    curve: SeverityCurve | None = None,
    functional_class: FunctionalFaultClass | None = None,
) -> DefectRangeEstimate:
    """Attach the magnitude bound of a diagnosed fault, and a geometry bound.

    By default a bridge maps to the signal-signal short bound and a stuck-at
    fault to the short-to-power/ground bound of its stuck value; pass
    ``functional_class`` explicitly for the open-defect interpretations
    (e.g. an output SA-0 caused by a power open).  When a strictly monotone
    severity curve magnitude = f(geometry) is supplied, the magnitude bound
    is inverted into a bound on the defect geometry.
    """
    fault_class = functional_class or _default_class(candidate)
    if fault_class not in _CLASS_BOUNDS:
        raise ParameterError(f"{fault_class.value} has no tabulated magnitude bound")
    bound = _CLASS_BOUNDS[fault_class]
    geometry = None
    warning = None
    if curve is not None:
        if not is_strictly_monotone(curve):
            warning = "severity curve is not strictly monotone; geometry bound omitted"
        else:

            def invert(y: float | None) -> float | None:
                # A bound outside the curve's range leaves that side open.
                try:
                    return None if y is None else invert_severity(curve, y)
                except InversionError:
                    return None

            x_upper, x_lower = invert(bound.upper), invert(bound.lower)
            if eval_severity(curve, curve.x_max) > eval_severity(curve, curve.x_min):
                geometry = GeometryBound(lower=x_lower, upper=x_upper)
            else:
                geometry = GeometryBound(lower=x_upper, upper=x_lower)
            if geometry.lower is None and geometry.upper is None:
                geometry = None
                warning = "magnitude bound lies outside the curve's range"
    return DefectRangeEstimate(
        functional_class=fault_class,
        magnitude_bound=bound,
        geometry_bound=geometry,
        note=geometry_note(fault_class, component),
        warning=warning,
    )
