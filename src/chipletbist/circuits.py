"""Lumped equivalent circuits for nominal and defective interconnects.

Each component is modeled as a series resistance from "in" to "out" with a
shunt self-capacitance to "gnd".  Defects splice fault elements (R_f, C_f)
into that path; bridge defects add the partner line plus, for RDL, the
mutual capacitance between the lines.  Circuits serialize to a SPICE-style
card deck with a fixed byte-stable number format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .defects import ComponentKind, PhysicalDefect, nominal_parasitics
from .errors import ParameterError


@dataclass(frozen=True)
class CircuitElement:
    kind: str  # "R" or "C"
    name: str  # designator suffix; "R" + name / "C" + name must be unique
    node_a: str
    node_b: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("R", "C"):
            raise ParameterError(f"element kind must be R or C, got {self.kind!r}")
        if not 0 < self.value < math.inf:
            raise ParameterError(
                f"element {self.kind}{self.name} value must be positive and finite, "
                f"got {self.value}"
            )

    @property
    def designator(self) -> str:
        return f"{self.kind}{self.name}"


@dataclass(frozen=True)
class EquivalentCircuit:
    elements: tuple[CircuitElement, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ParameterError("equivalent circuit needs at least one element")
        designators = [e.designator for e in self.elements]
        if len(set(designators)) != len(designators):
            raise ParameterError(f"duplicate element designators in {designators}")
        for required in ("in", "out"):
            if required not in self.nodes:
                raise ParameterError(f'no element touches the reserved "{required}" node')

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(n for e in self.elements for n in (e.node_a, e.node_b))


_PILLAR, _RDL = ComponentKind.CU_PILLAR, ComponentKind.RDL_SEGMENT

# An element is (node_a, node_b, value).  The value names what the element
# takes: the nominal "R", "R/2", "C" or mutual "C_m" (left out when zero),
# or the fault magnitudes "R_f" and "C_f"; "R_f + contact resistance" adds the
# extrinsic bonding term.  Its first letter is the element kind.
_Element = tuple[str, str, str]
_BRIDGE: tuple[_Element, ...] = (
    ("in", "out", "R"),
    ("out", "gnd", "C"),
    ("m1", "m2", "R"),
    ("m2", "gnd", "C"),
    ("out", "m2", "C_m"),
    ("out", "m2", "R_f"),
)
_FULL_BREAK = (_PILLAR, (("in", "m1", "R/2"), ("m1", "out", "C_f"), ("out", "gnd", "C")))
# defect -> (the component it applies to, or None for any; elements in deck order)
_TOPOLOGIES: dict[PhysicalDefect | None, tuple[ComponentKind | None, tuple[_Element, ...]]] = {
    None: (None, (("in", "out", "R"), ("out", "gnd", "C"))),
    PhysicalDefect.PILLAR_CRACK: (
        _PILLAR,
        (
            ("in", "m1", "R/2"),
            ("m1", "m2", "R_f"),
            ("m1", "m2", "C_f"),
            ("m2", "out", "R/2"),
            ("out", "gnd", "C"),
        ),
    ),
    PhysicalDefect.CAPACITIVE_MISALIGNMENT: (
        _PILLAR,
        (("in", "m1", "R"), ("m1", "out", "C_f"), ("out", "gnd", "C")),
    ),
    PhysicalDefect.RESISTIVE_MISALIGNMENT: (
        _PILLAR,
        (("in", "m1", "R"), ("m1", "out", "R_f + contact resistance"), ("out", "gnd", "C")),
    ),
    PhysicalDefect.DAMAGED_RDL: (
        _RDL,
        (("in", "m1", "R"), ("m1", "out", "R_f"), ("out", "gnd", "C")),
    ),
    PhysicalDefect.PILLAR_BRIDGE: (_PILLAR, _BRIDGE),
    PhysicalDefect.RDL_BRIDGE: (_RDL, _BRIDGE),
}


def build_faulty_circuit(
    component: ComponentKind,
    defect: PhysicalDefect | None = None,
    *,
    r_fault_ohm: float | None = None,
    c_fault_f: float | None = None,
    length_um: float | None = None,
    contact_resistance_ohm: float = 0.0,
) -> EquivalentCircuit:
    """Compose the nominal lumped model of one component with a defect.

    Each topology is one element list in ``_TOPOLOGIES``:
      * no defect: series R(in,out) with shunt C_self(out,gnd);
      * pillar crack (R_f and C_f): nominal R split evenly around the crack
        at mid-height, R_f in series with the residual path and C_f across it;
      * full pillar break (a crack given no R_f): the path is severed at the
        crack, C_f replaces the upper conductive half;
      * capacitive misalignment (C_f): gap at the pillar/RDL contact, C_f in
        place of the contact;
      * resistive misalignment / damaged RDL (R_f): R_f in series.  The
        optional ``contact_resistance_ohm`` term (extrinsic bonding
        resistance not present in field extraction) adds onto a resistive
        misalignment's R_f;
      * bridge (R_f): two component instances, R_f between their signal
        nodes, plus the mutual capacitance for RDL lines.

    Node naming is deterministic: "in", "m1", "m2", ... and "out"; the bridge
    partner line runs from "m1" to "m2".  Elements are numbered R1, R2, ...
    and C1, C2, ... in list order.  A topology takes exactly the magnitudes
    its elements name: it needs each named R_f or C_f and rejects any
    magnitude (or nonzero contact resistance) it does not name.
    """
    for symbol, value in (("R_f", r_fault_ohm), ("C_f", c_fault_f)):
        if value is not None and not 0 < value < math.inf:
            raise ParameterError(f"{symbol} must be positive and finite")
    if not 0 <= contact_resistance_ohm < math.inf:
        raise ParameterError("contact resistance must be non-negative and finite")
    if defect not in _TOPOLOGIES:
        raise ParameterError(f"unsupported defect kind {defect!r}")
    full_break = defect is PhysicalDefect.PILLAR_CRACK and r_fault_ohm is None
    applies_to, elements = _FULL_BREAK if full_break else _TOPOLOGIES[defect]
    named = {symbol for *_, value in elements for symbol in value.split(" + ")}
    subject = "a defect-free component" if defect is None else defect.value
    given = {"R_f": r_fault_ohm, "C_f": c_fault_f, "contact resistance": contact_resistance_ohm}
    for symbol, value in given.items():
        if value and symbol not in named:
            raise ParameterError(f"{subject} takes no {symbol}")
    nominal = nominal_parasitics(component, length_um)
    if applies_to not in (None, component):
        raise ParameterError(f"{subject} applies to the {applies_to.value} component only")
    for symbol in ("R_f", "C_f"):
        if symbol in named and given[symbol] is None:
            raise ParameterError(f"{subject} needs {symbol}")
    magnitudes = {
        "R": nominal.resistance_ohm,
        "R/2": nominal.resistance_ohm / 2.0,
        "C": nominal.self_capacitance_f,
        "C_m": nominal.mutual_capacitance_f,
        **given,
    }
    counts = {"R": 0, "C": 0}
    circuit = []
    for node_a, node_b, value in elements:
        total = sum(magnitudes[symbol] for symbol in value.split(" + "))
        if value == "C_m" and not total:
            continue
        kind = value[0]
        counts[kind] += 1
        circuit.append(CircuitElement(kind, str(counts[kind]), node_a, node_b, total))
    return EquivalentCircuit(tuple(circuit))


def _format_value(value: float) -> str:
    """Python's ``.6e``, correctly rounded, with a bare exponent: ``1.110000e-3``."""
    mantissa, exponent = format(value, ".6e").split("e")
    return f"{mantissa}e{int(exponent)}"


def emit_netlist(circuit: EquivalentCircuit, title: str) -> str:
    """SPICE-style card deck; byte-deterministic for identical circuits.

    Line 1 is ``* <title>``, one line per element in insertion order, and a
    final ``.END``.  LF newlines, no trailing newline.  A title that holds a
    line break (any character ``str.splitlines`` breaks on) would start a
    card of its own, so it raises ParameterError.
    """
    if title.splitlines() not in ([], [title]):
        raise ParameterError(f"netlist title must be one line, got {title!r}")
    lines = [f"* {title}"]
    for e in circuit.elements:
        lines.append(f"{e.designator} {e.node_a} {e.node_b} {_format_value(e.value)}")
    lines.append(".END")
    return "\n".join(lines)
