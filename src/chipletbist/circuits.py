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
        nodes = {n for e in self.elements for n in (e.node_a, e.node_b)}
        for required in ("in", "out"):
            if required not in nodes:
                raise ParameterError(f'no element touches the reserved "{required}" node')

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(n for e in self.elements for n in (e.node_a, e.node_b))


class _Builder:
    """Collects elements with per-kind R1, R2, ... / C1, C2, ... numbering."""

    def __init__(self) -> None:
        self._elements: list[CircuitElement] = []
        self._counts = {"R": 0, "C": 0}

    def add(self, kind: str, node_a: str, node_b: str, value: float) -> None:
        self._counts[kind] += 1
        self._elements.append(
            CircuitElement(kind, str(self._counts[kind]), node_a, node_b, value)
        )

    def circuit(self) -> EquivalentCircuit:
        return EquivalentCircuit(tuple(self._elements))


# The defects whose topology splices in R_f and C_f respectively.
_TAKES_R_F = frozenset(
    {
        PhysicalDefect.PILLAR_CRACK,
        PhysicalDefect.RESISTIVE_MISALIGNMENT,
        PhysicalDefect.DAMAGED_RDL,
        PhysicalDefect.PILLAR_BRIDGE,
        PhysicalDefect.RDL_BRIDGE,
    }
)
_TAKES_C_F = frozenset({PhysicalDefect.PILLAR_CRACK, PhysicalDefect.CAPACITIVE_MISALIGNMENT})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


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

    Topologies:
      * no defect: series R(in,out) with shunt C_self(out,gnd);
      * pillar crack (R_f and C_f): nominal R split evenly around the crack
        at mid-height, R_f in series with the residual path and C_f across it;
      * full pillar break (crack with C_f only): the path is severed at the
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
    partner line runs from "m1" to "m2".  An R_f or C_f the topology has no
    element for is rejected, as is contact resistance on any other defect.
    """
    _require(r_fault_ohm is None or 0 < r_fault_ohm < math.inf, "R_f must be positive and finite")
    _require(c_fault_f is None or 0 < c_fault_f < math.inf, "C_f must be positive and finite")
    _require(
        0 <= contact_resistance_ohm < math.inf,
        "contact resistance must be non-negative and finite",
    )
    if contact_resistance_ohm and defect is not PhysicalDefect.RESISTIVE_MISALIGNMENT:
        raise ParameterError(
            "the additive contact-resistance term applies to resistive misalignment only"
        )
    for value, takes, symbol in ((r_fault_ohm, _TAKES_R_F, "R_f"), (c_fault_f, _TAKES_C_F, "C_f")):
        if value is not None and defect not in takes:
            subject = "a defect-free component" if defect is None else defect.value
            raise ParameterError(f"{subject} takes no {symbol}")
    nominal = nominal_parasitics(component, length_um)
    pillar = component is ComponentKind.CU_PILLAR
    b = _Builder()

    if defect is None:
        b.add("R", "in", "out", nominal.resistance_ohm)
        b.add("C", "out", "gnd", nominal.self_capacitance_f)
        return b.circuit()

    if defect is PhysicalDefect.PILLAR_CRACK:
        _require(pillar, "pillar crack applies to the Cu pillar")
        if r_fault_ohm is None:
            # Fully severed: no residual conductive path, only C_f matters.
            _require(c_fault_f is not None, "a full break needs C_f")
            b.add("R", "in", "m1", nominal.resistance_ohm / 2.0)
            b.add("C", "m1", "out", c_fault_f)
        else:
            _require(c_fault_f is not None, "a crack needs both R_f and C_f")
            b.add("R", "in", "m1", nominal.resistance_ohm / 2.0)
            b.add("R", "m1", "m2", r_fault_ohm)
            b.add("C", "m1", "m2", c_fault_f)
            b.add("R", "m2", "out", nominal.resistance_ohm / 2.0)
        b.add("C", "out", "gnd", nominal.self_capacitance_f)
        return b.circuit()

    if defect is PhysicalDefect.CAPACITIVE_MISALIGNMENT:
        _require(pillar, "capacitive misalignment applies to the Cu pillar")
        _require(c_fault_f is not None, "capacitive misalignment needs C_f")
        b.add("R", "in", "m1", nominal.resistance_ohm)
        b.add("C", "m1", "out", c_fault_f)
        b.add("C", "out", "gnd", nominal.self_capacitance_f)
        return b.circuit()

    if defect in (PhysicalDefect.RESISTIVE_MISALIGNMENT, PhysicalDefect.DAMAGED_RDL):
        if defect is PhysicalDefect.RESISTIVE_MISALIGNMENT:
            _require(pillar, "resistive misalignment applies to the Cu pillar")
        else:
            _require(not pillar, "damaged RDL applies to the RDL segment")
        _require(r_fault_ohm is not None, f"{defect.value} needs R_f")
        b.add("R", "in", "m1", nominal.resistance_ohm)
        b.add("R", "m1", "out", r_fault_ohm + contact_resistance_ohm)
        b.add("C", "out", "gnd", nominal.self_capacitance_f)
        return b.circuit()

    if defect in (PhysicalDefect.PILLAR_BRIDGE, PhysicalDefect.RDL_BRIDGE):
        if defect is PhysicalDefect.PILLAR_BRIDGE:
            _require(pillar, "pillar bridge applies to the Cu pillar")
        else:
            _require(not pillar, "RDL bridge applies to the RDL segment")
        _require(r_fault_ohm is not None, f"{defect.value} needs R_f")
        b.add("R", "in", "out", nominal.resistance_ohm)
        b.add("C", "out", "gnd", nominal.self_capacitance_f)
        b.add("R", "m1", "m2", nominal.resistance_ohm)
        b.add("C", "m2", "gnd", nominal.self_capacitance_f)
        if nominal.mutual_capacitance_f > 0:
            b.add("C", "out", "m2", nominal.mutual_capacitance_f)
        b.add("R", "out", "m2", r_fault_ohm)
        return b.circuit()

    raise ParameterError(f"unsupported defect kind {defect!r}")


def _format_value(value: float) -> str:
    """Scientific notation, mantissa with 6 fractional digits, bare exponent."""
    exponent = math.floor(math.log10(value))
    # Below 1e-307, 10**exponent is itself subnormal (or 0 at -324): scale
    # value and divisor up by 10**300 so the division keeps full precision.
    shift = 300 if exponent < -307 else 0
    mantissa = value * 10.0**shift / 10.0**(exponent + shift)
    text = f"{mantissa:.6f}"
    if text.startswith("10."):
        exponent += 1
        text = f"{mantissa / 10.0:.6f}"
    return f"{text}e{exponent}"


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
