"""Single-fault dictionary over a color quad, diagnosability, and matching.

The single-fault universe over one quad (one bump per codeword color, all in
one block) holds 14 faults: 8 stuck-at (4 colors x SA-0/SA-1) and 6 bridges
(unordered color pairs).  Simulating each of them yields the dictionary of
response signatures; faults sharing a signature form the ambiguous pairs that
bound diagnosability.  A failing bump is diagnosed by one lookup in a table
keyed by (color, response) and derived from the signatures, pruning bridge
partners with the adjacency graph; a response with no entry is unmodeled.
The shipped dictionary has an entry for every failing response of every
color, so with it ``unmodeled`` is always false; only a dictionary built
over a smaller universe leaves responses unmodeled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .bist import (
    Bridge,
    BridgeBehavior,
    BlockTestReport,
    DetectorResponse,
    StuckAt,
    run_block_test,
)
from .bumpmap import (
    AdjacencyGraph,
    BumpMap,
    COLOR_INDEX,
    COLOR_ORDER,
    Color,
    Lattice,
    LatticeKind,
    build_bump_map,
)
from .curves import SeverityCurve, eval_severity, invert_severity, is_strictly_monotone
from .defects import (
    _CLASSIFY_RULES,
    ComponentKind,
    FunctionalFaultClass,
    MagnitudeKind,
    geometry_note,
)
from .errors import InversionError, ParameterError


@dataclass(frozen=True)
class QuadStuckAt:
    color: Color
    value: int


@dataclass(frozen=True)
class QuadBridge:
    color_a: Color
    color_b: Color  # ordered by color index, color_a before color_b


QuadFault = QuadStuckAt | QuadBridge

# A signature is the per-color response of the quad, in COLOR_ORDER.
Signature = tuple[DetectorResponse, DetectorResponse, DetectorResponse, DetectorResponse]


def quad_fault_universe() -> tuple[QuadFault, ...]:
    """The 14 single faults of a 4-color quad: 8 stuck-at plus 6 bridges."""
    faults: list[QuadFault] = [
        QuadStuckAt(color, value) for color in COLOR_ORDER for value in (0, 1)
    ]
    faults.extend(QuadBridge(a, b) for a, b in combinations(COLOR_ORDER, 2))
    return tuple(faults)


def _quad_map() -> BumpMap:
    # One bump per color in a single block; any pair may bridge.
    lattice = Lattice(LatticeKind.RECTANGULAR, rows=1, cols=4, pitch_um=20.0)
    return replace(
        build_bump_map(lattice),
        coloring=COLOR_ORDER,
        blocks=(0, 0, 0, 0),
        block_count=1,
    )


def _signature_of(report: BlockTestReport) -> Signature:
    return tuple(report.responses[i] for i in range(4))  # type: ignore[return-value]


@dataclass(frozen=True)
class FaultDictionary:
    """Signature -> candidate faults, with ambiguity accounting.

    ``signatures_of`` is the one stored table: each fault's realizations,
    one signature for a stuck-at fault, one per wired behavior (wired-AND
    first) for a bridge.  The universe, the signature index, the ambiguous
    pairs and the response table are read-only views derived from it, so
    they cannot disagree.
    """

    signatures_of: dict[QuadFault, tuple[Signature, ...]]

    @functools.cached_property
    def universe(self) -> tuple[QuadFault, ...]:
        """The dictionary's faults, in the order of ``signatures_of``."""
        return tuple(self.signatures_of)

    @functools.cached_property
    def by_signature(self) -> dict[Signature, frozenset[QuadFault]]:
        """Signature -> the faults with a realization that produces it."""
        table: dict[Signature, set[QuadFault]] = {}
        for fault, signatures in self.signatures_of.items():
            for signature in signatures:
                table.setdefault(signature, set()).add(fault)
        return {signature: frozenset(faults) for signature, faults in table.items()}

    @functools.cached_property
    def ambiguous_pairs(self) -> frozenset[frozenset[QuadFault]]:
        """Unordered fault pairs that share at least one signature."""
        return frozenset(
            frozenset(pair)
            for faults in self.by_signature.values()
            for pair in combinations(faults, 2)
        )

    @functools.cached_property
    def by_response(self) -> dict:
        """(color, response) -> (stuck values, {partner color: partner responses}).

        Read-only, and derived from ``signatures_of``: each signature files
        its fault under the response of each of the fault's colors, with the
        stuck value of a stuck-at fault, or the partner color's response of
        a bridge.  Stuck values ascend.  A response no quad fault explains
        has no entry.
        """
        table: dict = {}
        for fault, signatures in self.signatures_of.items():
            if isinstance(fault, QuadStuckAt):
                ends, values = (fault.color,), [fault.value]
            else:
                ends, values = (fault.color_a, fault.color_b), []
            for signature, own in product(signatures, ends):
                stuck, partners = table.setdefault((own, signature[COLOR_INDEX[own]]), ([], {}))
                stuck += values
                for partner in ends:
                    if partner is not own:
                        partners.setdefault(partner, set()).add(signature[COLOR_INDEX[partner]])
        return {
            key: (tuple(sorted(stuck)), {c: frozenset(r) for c, r in partners.items()})
            for key, (stuck, partners) in table.items()
        }


@functools.cache
def build_fault_dictionary() -> FaultDictionary:
    """Simulate all 14 quad faults and collect their response signatures."""
    bump_map = _quad_map()
    signatures_of: dict[QuadFault, tuple[Signature, ...]] = {}
    for fault in quad_fault_universe():
        if isinstance(fault, QuadStuckAt):
            realizations = [[StuckAt(COLOR_INDEX[fault.color], fault.value)]]
        else:
            a, b = COLOR_INDEX[fault.color_a], COLOR_INDEX[fault.color_b]
            realizations = [[Bridge(a, b, behavior)] for behavior in BridgeBehavior]
        signatures_of[fault] = tuple(
            _signature_of(run_block_test(bump_map, faults)[0]) for faults in realizations
        )
    return FaultDictionary(signatures_of)


def diagnosability(dictionary: FaultDictionary) -> tuple[Fraction, float]:
    """Fraction of unordered fault pairs told apart by their signatures."""
    total = comb(len(dictionary.universe), 2)
    d = Fraction(total - len(dictionary.ambiguous_pairs), total)
    return d, float(d)


@dataclass(frozen=True)
class BridgeCandidate:
    """A bridge hypothesis between two bumps; wired behavior is folded away."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise ParameterError("bridge candidate endpoints must be ordered and distinct")


Candidate = StuckAt | BridgeCandidate


@dataclass(frozen=True)
class BumpDiagnosis:
    """Candidate faults consistent with one failing bump's response."""

    bump: int
    color: Color
    response: DetectorResponse
    candidates: tuple[Candidate, ...]
    unmodeled: bool = False


def diagnose(
    report: BlockTestReport,
    bump_map: BumpMap,
    graph: AdjacencyGraph,
    dictionary: FaultDictionary | None = None,
) -> list[BumpDiagnosis]:
    """Match failing bumps (y = 0) against the single-fault dictionary.

    Each failing bump is matched through its color-local response.  Bridge
    candidates are limited to adjacency-graph neighbors of the partner color
    whose own observed response agrees with the signature (neighbors outside
    the report, e.g. in another block, cannot be falsified and are kept).
    Candidates list stuck-at hypotheses first, then bridges by ascending
    partner id.  An empty list means no fault was detected.  Guarantees hold
    under the single-fault assumption; multi-fault reports are processed
    bump by bump on a best-effort basis.
    """
    if bump_map.coloring is None:
        raise ParameterError("bump map must be colored to diagnose responses")
    by_response = (dictionary or build_fault_dictionary()).by_response
    coloring = bump_map.coloring
    diagnoses = []
    for bump in sorted(report.responses):
        response = report.responses[bump]
        if response.y == 1:
            continue
        color = coloring[bump]
        match = by_response.get((color, response))
        stuck_values, partners = match or ((), {})
        candidates: list[Candidate] = [StuckAt(bump, value) for value in stuck_values]
        # Neighbors ascend, so the (min, max) keys come out sorted and unique.
        for neighbor in graph.neighbors(bump):
            expected = partners.get(coloring[neighbor], ())
            observed = report.responses.get(neighbor)
            if expected and (observed is None or observed in expected):
                candidates.append(BridgeCandidate(min(bump, neighbor), max(bump, neighbor)))
        diagnoses.append(
            BumpDiagnosis(bump, color, response, tuple(candidates), unmodeled=match is None)
        )
    return diagnoses


@dataclass(frozen=True)
class MagnitudeBound:
    """Open interval on the defect magnitude; None means unbounded on that side."""

    kind: MagnitudeKind
    lower: float | None
    upper: float | None


@dataclass(frozen=True)
class GeometryBound:
    lower: float | None
    upper: float | None


@dataclass(frozen=True)
class DefectRangeEstimate:
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
