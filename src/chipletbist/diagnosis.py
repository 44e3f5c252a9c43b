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
from itertools import combinations, product
from math import comb, gcd
from typing import TYPE_CHECKING

from .bist import (
    NOMINAL_RESPONSE,
    Bridge,
    BridgeBehavior,
    BlockTestReport,
    DetectorResponse,
    StuckAt,
    fault_local_failing,
)
from .bumpmap import (
    AdjacencyGraph,
    BumpMap,
    COLOR_INDEX,
    COLOR_ORDER,
    Color,
    Lattice,
)
from .errors import ParameterError
from .kinds import LatticeKind
from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction


class QuadStuckAt(Record):
    color: Color
    value: int


class QuadBridge(Record):
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


class FaultDictionary(Record):
    """Signature -> candidate faults, with ambiguity accounting.

    ``signatures_of`` is the one stored table: each fault's realizations,
    one signature for a stuck-at fault, one per wired behavior (wired-AND
    first) for a bridge.  The universe, the signature index, the ambiguous
    pairs and the response table are read-only views derived from it when
    first read; an edit to the table after that does not reach them.
    """

    __slots__ = ("__dict__",)  # where the derived views are kept

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
def _quad_signatures() -> tuple[tuple[QuadFault, tuple[Signature, ...]], ...]:
    """Each quad fault's signatures by the single-fault rule; an unlisted bump passes."""
    # One bump per color in a single block; any pair may bridge.
    lattice = Lattice(LatticeKind.RECTANGULAR, rows=1, cols=4, pitch_um=20.0)
    bump_map = BumpMap(lattice, COLOR_ORDER, (0, 0, 0, 0), 1)
    signatures_of: dict[QuadFault, tuple[Signature, ...]] = {}
    for fault in quad_fault_universe():
        if isinstance(fault, QuadStuckAt):
            realizations = [StuckAt(COLOR_INDEX[fault.color], fault.value)]
        else:
            a, b = COLOR_INDEX[fault.color_a], COLOR_INDEX[fault.color_b]
            realizations = [Bridge(a, b, behavior) for behavior in BridgeBehavior]
        failing = [{bump: r for _, bump, r in fault_local_failing(bump_map, f)} for f in realizations]
        signatures_of[fault] = tuple(
            tuple(listed.get(bump, NOMINAL_RESPONSE) for bump in range(4)) for listed in failing
        )
    return tuple(signatures_of.items())


def build_fault_dictionary() -> FaultDictionary:
    """The 14-fault quad dictionary, new on every call: one caller's edit reaches no other."""
    return FaultDictionary(dict(_quad_signatures()))


# diagnose's default: one dictionary per process, whose by_response is derived once.
_quad_dictionary = functools.cache(build_fault_dictionary)


def diagnosability_ratio(dictionary: FaultDictionary) -> tuple[int, int]:
    """D in lowest terms, as (numerator, denominator), with no Fraction."""
    total = comb(len(dictionary.universe), 2)
    told_apart = total - len(dictionary.ambiguous_pairs)
    common = gcd(told_apart, total)
    return told_apart // common, total // common


def diagnosability(dictionary: FaultDictionary) -> tuple[Fraction, float]:
    """Fraction of unordered fault pairs told apart by their signatures."""
    from fractions import Fraction

    numerator, denominator = diagnosability_ratio(dictionary)
    return Fraction(numerator, denominator), numerator / denominator


class BridgeCandidate(Record):
    """A bridge hypothesis between two bumps; wired behavior is folded away."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise ParameterError("bridge candidate endpoints must be ordered and distinct")


Candidate = StuckAt | BridgeCandidate


class BumpDiagnosis(Record):
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

    Each failing bump gets its stuck-at candidates, then a bridge to each
    neighbor of a partner color whose response the signature allows, by
    ascending neighbor id.  An unlisted bump of the report's block passed
    with (1, 1); a neighbor in another block cannot be falsified, so its
    bridge candidate is kept.  An empty list means no fault was detected.
    Guarantees hold under the single-fault assumption; multi-fault reports
    are processed bump by bump on a best-effort basis.
    """
    coloring, blocks = bump_map.coloring, bump_map.blocks
    if coloring is None or blocks is None:
        raise ParameterError("bump map must be colored and blocked to diagnose responses")
    by_response = (dictionary or _quad_dictionary()).by_response
    responses, block = report.responses, report.block
    diagnoses = []
    for bump, response in sorted(responses.items()):
        if response.y == 1:
            continue
        color = coloring[bump]
        match = by_response.get((color, response))
        stuck_values, partners = match or ((), {})
        candidates: list[Candidate] = [StuckAt(bump, value) for value in stuck_values]
        # Neighbors ascend, so the (min, max) keys come out sorted and unique.
        for neighbor in graph.neighbors(bump):
            expected = partners.get(coloring[neighbor], ())
            if expected and (
                blocks[neighbor] != block or responses.get(neighbor, NOMINAL_RESPONSE) in expected
            ):
                candidates.append(BridgeCandidate(min(bump, neighbor), max(bump, neighbor)))
        diagnoses.append(
            BumpDiagnosis(bump, color, response, tuple(candidates), unmodeled=match is None)
        )
    return diagnoses
