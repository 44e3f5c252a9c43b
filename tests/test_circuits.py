"""Tests for equivalent-circuit construction and netlist emission."""

import hashlib
import itertools
import math
import random
import struct
from decimal import ROUND_HALF_EVEN, Context, Decimal

import pytest

from chipletbist.circuits import (
    CircuitElement,
    EquivalentCircuit,
    _format_value,
    build_faulty_circuit,
    emit_netlist,
)
from chipletbist.defects import ComponentKind, PhysicalDefect
from chipletbist.errors import ParameterError

CU = ComponentKind.CU_PILLAR
RDL = ComponentKind.RDL_SEGMENT


def designators(circuit):
    return [(e.designator, e.node_a, e.node_b) for e in circuit.elements]


def test_nominal_pillar_circuit():
    circuit = build_faulty_circuit(CU)
    assert designators(circuit) == [("R1", "in", "out"), ("C1", "out", "gnd")]
    assert circuit.elements[0].value == 1.11e-3
    assert circuit.elements[1].value == 3.21e-15


def test_full_break_substitutes_capacitance_for_the_path():
    circuit = build_faulty_circuit(CU, PhysicalDefect.PILLAR_CRACK, c_fault_f=0.5e-15)
    assert designators(circuit) == [
        ("R1", "in", "m1"),
        ("C1", "m1", "out"),
        ("C2", "out", "gnd"),
    ]
    assert circuit.elements[0].value == pytest.approx(0.555e-3)
    assert circuit.elements[1].value == 0.5e-15


def test_crack_splits_nominal_resistance_around_the_fault():
    circuit = build_faulty_circuit(
        CU, PhysicalDefect.PILLAR_CRACK, r_fault_ohm=2.0, c_fault_f=1e-15
    )
    assert designators(circuit) == [
        ("R1", "in", "m1"),
        ("R2", "m1", "m2"),
        ("C1", "m1", "m2"),
        ("R3", "m2", "out"),
        ("C2", "out", "gnd"),
    ]
    assert circuit.elements[0].value == circuit.elements[3].value == pytest.approx(0.555e-3)


def test_damaged_rdl_is_a_series_chain():
    circuit = build_faulty_circuit(
        RDL, PhysicalDefect.DAMAGED_RDL, r_fault_ohm=50e-3, length_um=10.0
    )
    assert designators(circuit) == [
        ("R1", "in", "m1"),
        ("R2", "m1", "out"),
        ("C1", "out", "gnd"),
    ]
    assert circuit.elements[0].value == pytest.approx(43.1e-3)
    assert circuit.elements[1].value == 50e-3
    assert circuit.elements[2].value == pytest.approx(1.204e-15)


def test_resistive_misalignment_takes_the_contact_term():
    plain = build_faulty_circuit(CU, PhysicalDefect.RESISTIVE_MISALIGNMENT, r_fault_ohm=0.1)
    bumped = build_faulty_circuit(
        CU,
        PhysicalDefect.RESISTIVE_MISALIGNMENT,
        r_fault_ohm=0.1,
        contact_resistance_ohm=0.05,
    )
    assert bumped.elements[1].value == pytest.approx(plain.elements[1].value + 0.05)


def test_contact_term_limited_to_resistive_misalignment():
    with pytest.raises(ParameterError):
        build_faulty_circuit(
            CU, PhysicalDefect.PILLAR_CRACK, c_fault_f=1e-15, contact_resistance_ohm=0.1
        )


def test_pillar_bridge_has_partner_line_without_mutual_cap():
    circuit = build_faulty_circuit(CU, PhysicalDefect.PILLAR_BRIDGE, r_fault_ohm=10.0)
    assert designators(circuit) == [
        ("R1", "in", "out"),
        ("C1", "out", "gnd"),
        ("R2", "m1", "m2"),
        ("C2", "m2", "gnd"),
        ("R3", "out", "m2"),
    ]


def test_rdl_bridge_adds_mutual_capacitance():
    circuit = build_faulty_circuit(RDL, PhysicalDefect.RDL_BRIDGE, r_fault_ohm=10.0, length_um=10.0)
    assert designators(circuit) == [
        ("R1", "in", "out"),
        ("C1", "out", "gnd"),
        ("R2", "m1", "m2"),
        ("C2", "m2", "gnd"),
        ("C3", "out", "m2"),
        ("R3", "out", "m2"),
    ]
    assert circuit.elements[4].value == pytest.approx(0.92e-15)


@pytest.mark.parametrize(
    "component,defect,kwargs",
    [
        (CU, PhysicalDefect.PILLAR_CRACK, {}),  # needs C_f at least
        (CU, PhysicalDefect.PILLAR_CRACK, {"r_fault_ohm": 1.0}),  # crack needs C_f too
        (CU, PhysicalDefect.CAPACITIVE_MISALIGNMENT, {}),
        (CU, PhysicalDefect.RESISTIVE_MISALIGNMENT, {}),
        (RDL, PhysicalDefect.DAMAGED_RDL, {"length_um": 10.0}),
        (CU, PhysicalDefect.PILLAR_BRIDGE, {}),
        (RDL, PhysicalDefect.DAMAGED_RDL, {"r_fault_ohm": 1.0}),  # missing length
        (RDL, PhysicalDefect.PILLAR_CRACK, {"c_fault_f": 1e-15, "length_um": 5.0}),
        (CU, PhysicalDefect.RDL_BRIDGE, {"r_fault_ohm": 1.0}),
        (CU, None, {"c_fault_f": 1e-15}),  # no element takes C_f
        (CU, PhysicalDefect.CAPACITIVE_MISALIGNMENT, {"r_fault_ohm": 1.0, "c_fault_f": 1e-15}),
        (
            RDL,
            PhysicalDefect.DAMAGED_RDL,
            {"r_fault_ohm": 1.0, "c_fault_f": 1e-15, "length_um": 10.0},
        ),
    ],
)
def test_missing_or_mismatched_inputs_rejected(component, defect, kwargs):
    with pytest.raises(ParameterError):
        build_faulty_circuit(component, defect, **kwargs)


def test_element_and_circuit_invariants():
    with pytest.raises(ParameterError):
        CircuitElement("R", "1", "in", "out", 0.0)
    with pytest.raises(ParameterError):
        CircuitElement("L", "1", "in", "out", 1.0)
    with pytest.raises(ParameterError):
        EquivalentCircuit(())
    with pytest.raises(ParameterError):
        EquivalentCircuit(
            (
                CircuitElement("R", "1", "in", "x", 1.0),
                CircuitElement("R", "1", "x", "out", 1.0),
            )
        )
    with pytest.raises(ParameterError):  # nothing touches "out"
        EquivalentCircuit((CircuitElement("R", "1", "in", "gnd", 1.0),))


GOLDEN_NOMINAL_PILLAR = "* \nR1 in out 1.110000e-3\nC1 out gnd 3.210000e-15\n.END"

GOLDEN_FULL_BREAK = (
    "* full break\n"
    "R1 in m1 5.550000e-4\n"
    "C1 m1 out 5.000000e-16\n"
    "C2 out gnd 3.210000e-15\n"
    ".END"
)

GOLDEN_DAMAGED_RDL = (
    "* damaged rdl\n"
    "R1 in m1 4.310000e-2\n"
    "R2 m1 out 5.000000e-2\n"
    "C1 out gnd 1.204000e-15\n"
    ".END"
)


def test_netlist_golden_nominal_pillar():
    assert emit_netlist(build_faulty_circuit(CU), "") == GOLDEN_NOMINAL_PILLAR


def test_netlist_golden_full_break():
    circuit = build_faulty_circuit(CU, PhysicalDefect.PILLAR_CRACK, c_fault_f=0.5e-15)
    assert emit_netlist(circuit, "full break") == GOLDEN_FULL_BREAK


def test_netlist_golden_damaged_rdl():
    circuit = build_faulty_circuit(
        RDL, PhysicalDefect.DAMAGED_RDL, r_fault_ohm=50e-3, length_um=10.0
    )
    assert emit_netlist(circuit, "damaged rdl") == GOLDEN_DAMAGED_RDL


@pytest.mark.parametrize(
    "title",
    ["a\nR9 in gnd 1", "a\r\nR9 in gnd 1", "a\rb", "a\n", "\n", "a\x0bb", "a\x0cb", "a\x1cb",
     "a\x85b", "a\u2028b", "a\u2029b"],
)
def test_netlist_title_with_a_line_break_is_rejected(title):
    # Each of these starts a new line for str.splitlines, so the rest of the
    # title would be read as a card of its own.
    with pytest.raises(ParameterError, match="netlist title must be one line"):
        emit_netlist(build_faulty_circuit(CU), title)


def test_netlist_title_keeps_tabs_and_unicode():
    deck = emit_netlist(build_faulty_circuit(CU), "a\tb é")
    assert deck.startswith("* a\tb é\nR1 ")


def test_netlist_is_deterministic():
    a = emit_netlist(build_faulty_circuit(CU), "t")
    b = emit_netlist(build_faulty_circuit(CU), "t")
    assert a == b
    assert "\r" not in a


def test_netlist_number_format_edge_cases():
    circuit = EquivalentCircuit(
        (
            CircuitElement("R", "1", "in", "out", 200.0),
            CircuitElement("C", "1", "out", "gnd", 9.9999999e-16),
        )
    )
    deck = emit_netlist(circuit, "x")
    assert "R1 in out 2.000000e2" in deck
    assert "C1 out gnd 1.000000e-15" in deck  # mantissa rounding carries into the exponent


def test_netlist_number_format_subnormals():
    circuit = EquivalentCircuit(
        (
            CircuitElement("R", "1", "in", "m", 5e-324),
            CircuitElement("R", "2", "m", "out", 1.2345e-315),
            CircuitElement("C", "1", "out", "gnd", 9.9999999e-309),
            CircuitElement("C", "2", "out", "gnd", 2.5e-307),
        )
    )
    deck = emit_netlist(circuit, "x")
    assert "R1 in m 4.940656e-324\n" in deck  # the smallest double
    assert "R2 m out 1.234500e-315\n" in deck
    assert "C1 out gnd 1.000000e-308\n" in deck  # rounding carries into the exponent
    assert "C2 out gnd 2.500000e-307\n" in deck


def exact_format(value: float) -> str:
    """``value``'s exact decimal, rounded half-even to 7 significant digits."""
    rounded = Context(prec=7, rounding=ROUND_HALF_EVEN).plus(Decimal(value))
    digits = "".join(map(str, rounded.as_tuple().digits)).ljust(7, "0")
    return f"{digits[0]}.{digits[1:]}e{rounded.adjusted()}"


def double_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def around(value: float) -> tuple[float, float, float]:
    """``value`` and the doubles one ulp below and above it."""
    return math.nextafter(value, 0.0), value, math.nextafter(value, math.inf)


def random_positive_doubles(rng, count):
    for _ in range(count):
        value = double_from_bits(rng.getrandbits(63))
        if 0 < value < math.inf:
            yield value


def subnormals(rng, count):
    return (double_from_bits(rng.randrange(1, 2**52)) for _ in range(count))


def powers_of_ten():
    for k in range(-323, 309):
        yield from around(float(f"1e{k}"))


def seven_digit_ties(rng, count):
    """Doubles nearest to d.dddddd5 x 10^k, and their neighbours."""
    for _ in range(count):
        mantissa = rng.randrange(1_000_000, 10_000_000) * 10 + 5
        yield from around(float(f"{mantissa}e{rng.randrange(-330, 301)}"))


@pytest.mark.parametrize(
    "values",
    [
        lambda rng: random_positive_doubles(rng, 20000),
        lambda rng: subnormals(rng, 3000),
        lambda rng: powers_of_ten(),
        lambda rng: seven_digit_ties(rng, 5000),
    ],
    ids=["random", "subnormal", "powers-of-ten", "seven-digit-ties"],
)
def test_netlist_numbers_are_the_exact_decimal_rounding(values):
    checked = 0
    for value in values(random.Random(20260114)):
        if value > 0:
            assert _format_value(value) == exact_format(value), value.hex()
            checked += 1
    assert checked > 1000


def test_netlist_numbers_round_near_ties_by_the_stored_double():
    # 12.345675 is stored as 12.3456749999..., 1.0079195e-17 as 1.007919500...04e-17.
    assert _format_value(12.345675) == "1.234567e1"
    assert _format_value(1.0079195e-17) == "1.007920e-17"


# SHA-256 of emit_netlist(circuit, "pin") for every accepted input combination
# of PINNED_INPUTS; every other combination raises ParameterError.
PINNED_DECKS = {
    ("cu-pillar", "none", None, None, 0.0): "51060bb4424fc54215a9f00a829179864cc5bc4e6144b6a9db0cd4d4aeab3cbf",
    ("cu-pillar", "pillar-crack", None, 3e-15, 0.0): "f9fc2b267994da2b2f6e008d43b58522ba0bf93977997e74ca36a73d591714dc",
    ("cu-pillar", "pillar-crack", 2.0, 3e-15, 0.0): "b3ddd4515090308d6958f85e5d980046cb2422e518eee0f3f617cad8ff4c3e4f",
    ("cu-pillar", "resistive-misalignment", 2.0, None, 0.0): "e7dfed458d80009939eb3b2053a8895311e27d794553ea4c22db97abbf2edcac",
    ("cu-pillar", "resistive-misalignment", 2.0, None, 0.5): "ee8c925d2e15064037cb286123d7a1463de09fe971ef750b81caae5cfe466718",
    ("cu-pillar", "capacitive-misalignment", None, 3e-15, 0.0): "cd2845c981ba18a5530c621fd82b4b3e45e8d94794f1e61a34bbc485abb164c7",
    ("cu-pillar", "pillar-bridge", 2.0, None, 0.0): "f3c43f9a60a0564c4a1e41f991b55f29a0d3597d43f32d901c2512864235dd58",
    ("rdl", "none", None, None, 0.0): "ac6d9013ed9c2f97c7871df35e96e6886824b9fc5fcf214b6b192dc13bb45cd7",
    ("rdl", "rdl-bridge", 2.0, None, 0.0): "6593d631135ec4559f5c3d2073c01f985bccd5e927ea83c368aeb7afa95bbf29",
    ("rdl", "damaged-rdl", 2.0, None, 0.0): "b3d5f607db801a7c3ddcc6ad05c7e58c667c7c007017a29c9d502ec7057a95c5",
}

# component x defect (or none) x R_f x C_f x contact resistance: 112 cases.
PINNED_INPUTS = list(
    itertools.product(
        [k.value for k in ComponentKind],
        ["none", *(d.value for d in PhysicalDefect)],
        [None, 2.0],
        [None, 3e-15],
        [0.0, 0.5],
    )
)


@pytest.mark.parametrize(
    "case", PINNED_INPUTS, ids=["-".join(map(str, case)) for case in PINNED_INPUTS]
)
def test_netlist_inputs_pinned(case):
    component, defect, r_f, c_f, contact = case
    args = (ComponentKind(component), None if defect == "none" else PhysicalDefect(defect))
    kwargs = {
        "r_fault_ohm": r_f,
        "c_fault_f": c_f,
        "length_um": 10.0 if component == "rdl" else None,
        "contact_resistance_ohm": contact,
    }
    if case not in PINNED_DECKS:
        with pytest.raises(ParameterError):
            build_faulty_circuit(*args, **kwargs)
        return
    deck = emit_netlist(build_faulty_circuit(*args, **kwargs), "pin")
    assert hashlib.sha256(deck.encode("utf-8")).hexdigest() == PINNED_DECKS[case]


def test_netlist_input_pins_cover_ten_accepted_cases():
    assert len(PINNED_INPUTS) == 112
    assert len(PINNED_DECKS) == 10 and set(PINNED_DECKS) <= set(PINNED_INPUTS)
