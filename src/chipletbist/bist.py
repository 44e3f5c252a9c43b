"""Codeword table, 3-cycle sequential detector, fault injection, and the FSM.

Every color class drives a fixed 3-bit codeword over cycles T = 0, 1, 2.
Green/black and blue/red words are bitwise complements, so one detector
design serves green and blue bumps directly and red and black bumps through
an input inverter.  The detector observes two terminals: y (pass/fail, the
staged XNOR output) and x (the OR loopback path, which separates the all-zero
word from every other failure).
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Iterable, NamedTuple

from .bumpmap import BumpMap, Color
from .errors import ParameterError, SimulationError
from .record import Record


class Pattern3(NamedTuple):
    """A 3-bit word; b0 is driven first."""

    b0: int
    b1: int
    b2: int

    @classmethod
    def from_string(cls, word: str) -> "Pattern3":
        if len(word) != 3 or any(ch not in "01" for ch in word):
            raise ParameterError(f"pattern must be three 0/1 characters, got {word!r}")
        return cls(*(int(ch) for ch in word))

    def complement(self) -> "Pattern3":
        return Pattern3(1 - self.b0, 1 - self.b1, 1 - self.b2)

    def __str__(self) -> str:
        return f"{self.b0}{self.b1}{self.b2}"


CODEWORDS = {
    Color.GREEN: Pattern3(0, 1, 1),
    Color.BLUE: Pattern3(1, 0, 1),
    Color.RED: Pattern3(0, 1, 0),
    Color.BLACK: Pattern3(1, 0, 0),
}
# Red and black bumps pass through an inverter before the shared detector.
INVERTED_COLORS = frozenset({Color.RED, Color.BLACK})

ACCEPTED_WORDS = frozenset(
    {Pattern3(0, 1, 1), Pattern3(1, 0, 1), Pattern3(1, 1, 0)}
)


def pattern_for(color: Color) -> Pattern3:
    """Drive codeword of a color class."""
    return CODEWORDS[color]


class DetectorResponse(NamedTuple):
    """Observation terminals after a 3-cycle test: y = 1 means pass."""

    x: int
    y: int


NOMINAL_RESPONSE = DetectorResponse(1, 1)


def detector_accepts(word: Pattern3) -> int:
    """Cycle-accurate detector: 1 iff the received word is in {011, 101, 110}.

    T=0 latches f0 = not b0; T=1 forms f1 = XNOR(f0, b1); T=2 produces
    f_out = XNOR(f1, b2) gated by the OR loopback (b0 | b1 | b2), which
    forces 0 on the all-zero word.
    """
    f0 = 1 - word.b0
    f1 = 1 - (f0 ^ word.b1)
    return (1 - (f1 ^ word.b2)) & (word.b0 | word.b1 | word.b2)


def bump_response(received: Pattern3, color: Color) -> DetectorResponse:
    """Map a received word to the (x, y) terminals of that bump's detector.

    Red/black bumps invert the word first; x is the OR of the post-inverter
    bits (the loopback observation), y the detector output.
    """
    d = received.complement() if color in INVERTED_COLORS else received
    return DetectorResponse(x=d.b0 | d.b1 | d.b2, y=detector_accepts(d))


class BridgeBehavior(Enum):
    WIRED_AND = "wired-and"
    WIRED_OR = "wired-or"


class StuckAt(Record):
    net: int
    value: int

    def __post_init__(self) -> None:
        if self.net < 0:
            raise ParameterError(f"stuck-at net must be a bump id, got {self.net}")
        if self.value not in (0, 1):
            raise ParameterError(f"stuck-at value must be 0 or 1, got {self.value}")


class Bridge(Record):
    a: int
    b: int
    behavior: BridgeBehavior

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ParameterError(f"bridge endpoints must differ, got {self.a} twice")
        if self.a < 0 or self.b < 0:
            raise ParameterError(f"bridge endpoints must be bump ids, got ({self.a}, {self.b})")
        if self.a > self.b:
            low, high = self.b, self.a
            object.__setattr__(self, "a", low)
            object.__setattr__(self, "b", high)


Fault = StuckAt | Bridge


class FsmState(Enum):
    IDLE = "idle"
    BLOCK_TEST = "block-test"
    DONE = "done"


class ScheduleStep(NamedTuple):
    state: FsmState
    block: int | None
    cycle: int | None
    bist_en: int
    test_en: int
    block_en: tuple[int, ...]


class TestSchedule(Record):
    block_count: int
    steps: tuple[ScheduleStep, ...]

    @property
    def total_cycles(self) -> int:
        return len(self.steps)


def fsm_schedule(block_count: int) -> TestSchedule:
    """IDLE, then 3 cycles per block in ascending order, then DONE.

    Exactly one Block_EN line is asserted during any block-test step; IDLE
    and DONE each occupy one cycle, so the total is 3 * block_count + 2.
    """
    if not isinstance(block_count, int) or block_count < 1:
        raise ParameterError(f"block_count must be a positive integer, got {block_count}")
    none_hot = (0,) * block_count
    steps = [ScheduleStep(FsmState.IDLE, None, None, 1, 0, none_hot)]
    for block in range(block_count):
        one_hot = tuple(1 if k == block else 0 for k in range(block_count))
        for cycle in range(3):
            steps.append(ScheduleStep(FsmState.BLOCK_TEST, block, cycle, 1, 1, one_hot))
    steps.append(ScheduleStep(FsmState.DONE, None, None, 1, 0, none_hot))
    return TestSchedule(block_count, tuple(steps))


def _check_engine_inputs(bump_map: BumpMap, faults: Iterable[Fault]):
    if bump_map.coloring is None or bump_map.blocks is None or bump_map.block_count is None:
        raise ParameterError("bump map must be colored and blocked before simulation")
    stuck: dict[int, int] = {}
    bridges: list[Bridge] = []
    n = bump_map.bump_count
    for fault in faults:
        if isinstance(fault, StuckAt):
            if fault.net >= n:
                raise ParameterError(f"stuck-at net {fault.net} outside the map")
            if stuck.get(fault.net, fault.value) != fault.value:
                raise SimulationError(
                    f"conflicting stuck-at values injected on net {fault.net}"
                )
            stuck[fault.net] = fault.value
        elif isinstance(fault, Bridge):
            if fault.b >= n:
                raise ParameterError(f"bridge endpoint {fault.b} outside the map")
            bridges.append(fault)
        else:
            raise ParameterError(f"unknown fault type {type(fault).__name__}")
    return stuck, bridges


def _block_words(
    bump_map: BumpMap, members: Iterable[int], stuck: dict[int, int], bridges: list[Bridge]
) -> list[Pattern3]:
    """Every net's word while ``members``' block is active: the four stages of
    ``resolve_net_values`` on whole words.  A mixed component is named in the
    order of its first bridge, as the fault list reaches it.
    """
    words = [Pattern3(0, 0, 0)] * bump_map.bump_count
    for b in members:
        words[b] = CODEWORDS[bump_map.coloring[b]]
    stuck_words = {net: Pattern3(value, value, value) for net, value in stuck.items()}
    for net, word in stuck_words.items():
        words[net] = word
    # Each component's nets and behaviours, keyed by the index of its first bridge.
    components: dict[int, tuple[set[int], set[BridgeBehavior]]] = {}
    for i, bridge in enumerate(bridges):
        nets, kinds = {bridge.a, bridge.b}, {bridge.behavior}
        touching = [k for k, (other, _) in components.items() if not nets.isdisjoint(other)]
        for k in touching:
            other_nets, other_kinds = components.pop(k)
            nets |= other_nets
            kinds |= other_kinds
        components[min(touching, default=i)] = (nets, kinds)
    for _, (nets, kinds) in sorted(components.items()):
        if len(kinds) > 1:
            raise SimulationError(
                "bridge component mixing wired-AND and wired-OR on nets "
                f"{sorted(nets)} is unsupported"
            )
        merge = min if BridgeBehavior.WIRED_AND in kinds else max
        merged = Pattern3(*map(merge, *(words[net] for net in nets)))
        for net in nets:
            words[net] = merged
    for net, word in stuck_words.items():
        words[net] = word
    return words


def resolve_net_values(
    bump_map: BumpMap,
    active_block: int,
    faults: Iterable[Fault],
    cycle: int,
) -> tuple[int, ...]:
    """Per-bump wire value for one test cycle, after fault resolution.

    Stages: (1) active-block bumps drive their codeword bit, every other bump
    drives 0; (2) stuck-at faults override their net; (3) bridged nets merge
    into connected components that take the AND (wired-AND) or OR (wired-OR)
    of their members — a component mixing both behaviors is rejected;
    (4) stuck values are reasserted, since a stuck net reads its stuck value
    regardless of bridging.
    """
    if cycle not in (0, 1, 2):
        raise ParameterError(f"cycle must be 0, 1, or 2, got {cycle}")
    stuck, bridges = _check_engine_inputs(bump_map, faults)
    if not 0 <= active_block < bump_map.block_count:
        raise ParameterError(f"active block {active_block} out of range")
    words = _block_words(bump_map, bump_map.bumps_in_block(active_block), stuck, bridges)
    return tuple(word[cycle] for word in words)


class BlockTestReport(Record):
    """Per-bump detector responses for one tested block.

    ``received`` keeps the raw 3-bit words as a diagnostic aid.
    """

    block: int
    responses: dict[int, DetectorResponse]
    received: dict[int, Pattern3]


def run_block_test(bump_map: BumpMap, faults: Iterable[Fault]) -> list[BlockTestReport]:
    """Run the full block-sequenced test and report every bump's response."""
    stuck, bridges = _check_engine_inputs(bump_map, faults)
    groups: defaultdict[int, list[int]] = defaultdict(list)
    for b, k in enumerate(bump_map.blocks):
        groups[k].append(b)
    reports = []
    for block in range(bump_map.block_count):
        members = groups.get(block, ())
        words = _block_words(bump_map, members, stuck, bridges)
        received = {b: words[b] for b in members}
        responses = {b: bump_response(words[b], bump_map.coloring[b]) for b in members}
        reports.append(BlockTestReport(block=block, responses=responses, received=received))
    return reports


# (block, bump, response) of failing bumps, as stored in a campaign report's "failing" list.
FailingBumps = list[tuple[int, int, DetectorResponse]]


def fault_local_failing(bump_map: BumpMap, fault: Fault) -> FailingBumps:
    """(block, bump, response) of every bump one fault makes fail, ascending.

    Inactive blocks drive 0, so a single fault changes the received word of
    its stuck net or of its two bridge endpoints only, each during its own
    block; every other bump receives its codeword and answers (1, 1).  A
    bridge endpoint receives the wired AND/OR of its codeword and the
    partner's word: the partner's codeword within one block, 000 across
    blocks.  This agrees with ``run_block_test`` on every single fault.
    """
    coloring, blocks = bump_map.coloring, bump_map.blocks
    if isinstance(fault, StuckAt):
        words = {fault.net: Pattern3(fault.value, fault.value, fault.value)}
    else:
        merge = min if fault.behavior is BridgeBehavior.WIRED_AND else max
        words = {}
        for bump, partner in ((fault.a, fault.b), (fault.b, fault.a)):
            same_block = blocks[partner] == blocks[bump]
            other = pattern_for(coloring[partner]) if same_block else (0, 0, 0)
            words[bump] = Pattern3(*map(merge, pattern_for(coloring[bump]), other))
    failing = []
    for bump, word in words.items():
        response = bump_response(word, coloring[bump])
        if response.y == 0:
            failing.append((blocks[bump], bump, response))
    return sorted(failing)


class OverheadReport(Record):
    detector_count: int
    tpg_count: int
    mux_count: int
    test_cycles: int


def overhead_report(bump_map: BumpMap) -> OverheadReport:
    """Abstract testability overhead: detectors shared across blocks via MUXes.

    One detector per bump of the largest block (responses of other blocks are
    multiplexed onto the same detectors), one pattern generator per block,
    and the FSM's 3 * block_count + 2 cycles: IDLE, 3 per block, DONE.
    """
    if bump_map.blocks is None or bump_map.block_count is None:
        raise ParameterError("bump map must be blocked for an overhead report")
    detectors = max(bump_map.block_sizes)
    return OverheadReport(
        detector_count=detectors,
        tpg_count=bump_map.block_count,
        mux_count=detectors,
        test_cycles=3 * bump_map.block_count + 2,
    )
