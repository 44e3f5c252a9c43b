"""The contract of the kit's records: immutable, type-strict values with fixed text.

Every record class in ``chipletbist.__all__`` (and the two bounds of
``chipletbist.ranges``) has a sample here.  Each keeps its constructor's
keywords and defaults, its ``repr`` text, its construction checks and their
messages, and compares equal only to a record of its own type.
"""

import copy
import enum
import inspect
import pickle

import pytest

import chipletbist
from chipletbist import ranges
from chipletbist.bist import BridgeBehavior, DetectorResponse, Pattern3, fsm_schedule
from chipletbist.bumpmap import Color, Lattice, LatticeKind
from chipletbist.campaign import DEFAULT_BEHAVIOR_MIX, DEFAULT_KIND_MIX
from chipletbist.defects import FunctionalFaultClass, MagnitudeKind
from chipletbist.errors import ParameterError
from chipletbist.kinds import CurveFamily

cb = chipletbist
LATTICE = Lattice(LatticeKind.RECTANGULAR, 1, 2, 20.0)
MAP_SPEC = cb.MapSpec(LatticeKind.HEXAGONAL, 4, 4, 20.0)
ELEMENT = cb.CircuitElement("R", "1", "in", "out", 1.5)
BOUND = ranges.MagnitudeBound(MagnitudeKind.RESISTANCE, None, 200.0)


def samples() -> dict:
    """One fresh instance of each record, by class name; equal on every call."""
    return {
        "StuckAt": cb.StuckAt(3, 1),
        "Bridge": cb.Bridge(5, 2, BridgeBehavior.WIRED_OR),
        "BlockTestReport": cb.BlockTestReport(
            0, {1: DetectorResponse(0, 0)}, {1: Pattern3(0, 0, 0)}
        ),
        "OverheadReport": cb.OverheadReport(4, 2, 4, 8),
        "TestSchedule": fsm_schedule(1),
        "Lattice": Lattice(LatticeKind.RECTANGULAR, 1, 2, 20.0),
        "BumpMap": cb.BumpMap(LATTICE, (Color.GREEN, Color.BLUE), (0, 0), 1),
        "MapSpec": cb.MapSpec(LatticeKind.HEXAGONAL, 4, 4, 20.0),
        "SamplerSpec": cb.SamplerSpec(10, 7),
        "CampaignConfig": cb.CampaignConfig(MAP_SPEC, 2, (cb.StuckAt(0, 0),)),
        "CircuitElement": cb.CircuitElement("R", "1", "in", "out", 1.5),
        "EquivalentCircuit": cb.EquivalentCircuit((ELEMENT,)),
        "SeverityCurve": cb.SeverityCurve(CurveFamily.POLYNOMIAL, (1.0, 2.0), 0.5, 4.0),
        "FaultMagnitude": cb.FaultMagnitude.resistance(150.0),
        "NominalParasitics": cb.NominalParasitics(1e-3, 2e-15, 0.0),
        "BridgeCandidate": cb.BridgeCandidate(1, 2),
        "BumpDiagnosis": cb.BumpDiagnosis(
            2, Color.RED, DetectorResponse(1, 0), (cb.BridgeCandidate(1, 2),)
        ),
        "QuadStuckAt": cb.QuadStuckAt(Color.BLACK, 0),
        "QuadBridge": cb.QuadBridge(Color.GREEN, Color.RED),
        "FaultDictionary": cb.FaultDictionary({cb.QuadStuckAt(Color.GREEN, 0): ()}),
        "MagnitudeBound": ranges.MagnitudeBound(MagnitudeKind.RESISTANCE, None, 200.0),
        "GeometryBound": ranges.GeometryBound(0.5, None),
        "DefectRangeEstimate": cb.DefectRangeEstimate(
            FunctionalFaultClass.WIRED_AND, BOUND, None, "a note"
        ),
    }


NAMES = list(samples())

# Captured from the frozen dataclasses these records used to be.
REPRS = {
    "StuckAt": "StuckAt(net=3, value=1)",
    "Bridge": "Bridge(a=2, b=5, behavior=<BridgeBehavior.WIRED_OR: 'wired-or'>)",
    "BlockTestReport": "BlockTestReport(block=0, responses={1: DetectorResponse(x=0, y=0)}, "
    "received={1: Pattern3(b0=0, b1=0, b2=0)})",
    "OverheadReport": "OverheadReport(detector_count=4, tpg_count=2, mux_count=4, test_cycles=8)",
    "TestSchedule": "TestSchedule(block_count=1, steps=("
    "ScheduleStep(state=<FsmState.IDLE: 'idle'>, block=None, cycle=None, bist_en=1, "
    "test_en=0, block_en=(0,)), "
    "ScheduleStep(state=<FsmState.BLOCK_TEST: 'block-test'>, block=0, cycle=0, bist_en=1, "
    "test_en=1, block_en=(1,)), "
    "ScheduleStep(state=<FsmState.BLOCK_TEST: 'block-test'>, block=0, cycle=1, bist_en=1, "
    "test_en=1, block_en=(1,)), "
    "ScheduleStep(state=<FsmState.BLOCK_TEST: 'block-test'>, block=0, cycle=2, bist_en=1, "
    "test_en=1, block_en=(1,)), "
    "ScheduleStep(state=<FsmState.DONE: 'done'>, block=None, cycle=None, bist_en=1, "
    "test_en=0, block_en=(0,))))",
    "Lattice": "Lattice(kind=<LatticeKind.RECTANGULAR: 'rectangular'>, rows=1, cols=2, "
    "pitch_um=20.0)",
    "BumpMap": "BumpMap(lattice=Lattice(kind=<LatticeKind.RECTANGULAR: 'rectangular'>, rows=1, "
    "cols=2, pitch_um=20.0), coloring=(<Color.GREEN: 'green'>, <Color.BLUE: 'blue'>), "
    "blocks=(0, 0), block_count=1)",
    "MapSpec": "MapSpec(kind=<LatticeKind.HEXAGONAL: 'hexagonal'>, rows=4, cols=4, "
    "pitch_um=20.0, short_radius_factor=1.9)",
    "SamplerSpec": "SamplerSpec(n_faults=10, seed=7, kind_mix={'sa': 0.5, 'bridge': 0.5}, "
    "behavior_mix={'wired-and': 0.5, 'wired-or': 0.5}, include_inter_block=True)",
    "CampaignConfig": "CampaignConfig(map_spec=MapSpec(kind=<LatticeKind.HEXAGONAL: "
    "'hexagonal'>, rows=4, cols=4, pitch_um=20.0, short_radius_factor=1.9), block_count=2, "
    "faults=(StuckAt(net=0, value=0),), sampler=None, output_report=None)",
    "CircuitElement": "CircuitElement(kind='R', name='1', node_a='in', node_b='out', value=1.5)",
    "EquivalentCircuit": "EquivalentCircuit(elements=(CircuitElement(kind='R', name='1', "
    "node_a='in', node_b='out', value=1.5),))",
    "SeverityCurve": "SeverityCurve(family=<CurveFamily.POLYNOMIAL: 'polynomial'>, "
    "coefficients=(1.0, 2.0), x_min=0.5, x_max=4.0)",
    "FaultMagnitude": "FaultMagnitude(kind=<MagnitudeKind.RESISTANCE: 'resistance'>, "
    "value=150.0)",
    "NominalParasitics": "NominalParasitics(resistance_ohm=0.001, self_capacitance_f=2e-15, "
    "mutual_capacitance_f=0.0)",
    "BridgeCandidate": "BridgeCandidate(a=1, b=2)",
    "BumpDiagnosis": "BumpDiagnosis(bump=2, color=<Color.RED: 'red'>, "
    "response=DetectorResponse(x=1, y=0), candidates=(BridgeCandidate(a=1, b=2),), "
    "unmodeled=False)",
    "QuadStuckAt": "QuadStuckAt(color=<Color.BLACK: 'black'>, value=0)",
    "QuadBridge": "QuadBridge(color_a=<Color.GREEN: 'green'>, color_b=<Color.RED: 'red'>)",
    "FaultDictionary": "FaultDictionary(signatures_of={QuadStuckAt(color=<Color.GREEN: "
    "'green'>, value=0): ()})",
    "MagnitudeBound": "MagnitudeBound(kind=<MagnitudeKind.RESISTANCE: 'resistance'>, "
    "lower=None, upper=200.0)",
    "GeometryBound": "GeometryBound(lower=0.5, upper=None)",
    "DefectRangeEstimate": "DefectRangeEstimate(functional_class=<FunctionalFaultClass."
    "WIRED_AND: 'wired-and'>, magnitude_bound=MagnitudeBound(kind=<MagnitudeKind.RESISTANCE: "
    "'resistance'>, lower=None, upper=200.0), geometry_bound=None, note='a note', "
    "warning=None)",
}

# A record that holds a dict cannot be hashed.
UNHASHABLE = {"BlockTestReport", "SamplerSpec", "FaultDictionary"}

# Constructor keywords in order, with their defaults; the sampler's two mixes
# default to fresh copies (see test_sampler_spec_mixes_are_fresh_copies).
NO_DEFAULT = inspect.Parameter.empty
DEFAULTS = {
    "BumpMap": {"coloring": None, "blocks": None, "block_count": None},
    "MapSpec": {"short_radius_factor": 1.9},
    "SamplerSpec": {"kind_mix": ..., "behavior_mix": ..., "include_inter_block": True},
    "CampaignConfig": {"faults": None, "sampler": None, "output_report": None},
    "BumpDiagnosis": {"unmodeled": False},
    "DefectRangeEstimate": {"warning": None},
}
FIELDS = {
    "StuckAt": ("net", "value"),
    "Bridge": ("a", "b", "behavior"),
    "BlockTestReport": ("block", "responses", "received"),
    "OverheadReport": ("detector_count", "tpg_count", "mux_count", "test_cycles"),
    "TestSchedule": ("block_count", "steps"),
    "Lattice": ("kind", "rows", "cols", "pitch_um"),
    "BumpMap": ("lattice", "coloring", "blocks", "block_count"),
    "MapSpec": ("kind", "rows", "cols", "pitch_um", "short_radius_factor"),
    "SamplerSpec": ("n_faults", "seed", "kind_mix", "behavior_mix", "include_inter_block"),
    "CampaignConfig": ("map_spec", "block_count", "faults", "sampler", "output_report"),
    "CircuitElement": ("kind", "name", "node_a", "node_b", "value"),
    "EquivalentCircuit": ("elements",),
    "SeverityCurve": ("family", "coefficients", "x_min", "x_max"),
    "FaultMagnitude": ("kind", "value"),
    "NominalParasitics": ("resistance_ohm", "self_capacitance_f", "mutual_capacitance_f"),
    "BridgeCandidate": ("a", "b"),
    "BumpDiagnosis": ("bump", "color", "response", "candidates", "unmodeled"),
    "QuadStuckAt": ("color", "value"),
    "QuadBridge": ("color_a", "color_b"),
    "FaultDictionary": ("signatures_of",),
    "MagnitudeBound": ("kind", "lower", "upper"),
    "GeometryBound": ("lower", "upper"),
    "DefectRangeEstimate": (
        "functional_class", "magnitude_bound", "geometry_bound", "note", "warning",
    ),
}


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record).__name__])


def test_every_public_record_has_a_sample():
    public_classes = {
        name
        for name in chipletbist.__all__
        if isinstance(value := getattr(chipletbist, name), type)
        and not issubclass(value, (enum.Enum, BaseException, tuple))
    }
    assert public_classes - {"AdjacencyGraph"} == set(NAMES) - {"MagnitudeBound", "GeometryBound"}
    assert set(REPRS) == set(FIELDS) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_constructor_keywords_and_defaults(name):
    parameters = inspect.signature(type(samples()[name])).parameters.values()
    assert tuple(p.name for p in parameters) == FIELDS[name]
    defaults = DEFAULTS.get(name, {})
    for p in parameters:
        if defaults.get(p.name) is not ...:
            assert p.default == defaults.get(p.name, NO_DEFAULT), p.name


@pytest.mark.parametrize("name", NAMES)
def test_repr_text(name):
    assert repr(samples()[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_a_record_cannot_change(name):
    record = samples()[name]
    for field in (*FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == samples()[name]


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_by_value_and_type_strict(name):
    record, twin = samples()[name], samples()[name]
    assert record == twin and not record != twin
    assert record is not twin
    assert record != values(record)
    assert record != list(values(record))
    others = [other for key, other in samples().items() if key != name]
    assert all(record != other for other in others)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)


def test_records_with_the_same_values_differ_by_type():
    assert cb.StuckAt(0, 1) != cb.BridgeCandidate(0, 1)
    assert cb.BridgeCandidate(0, 1) != cb.StuckAt(0, 1)
    assert cb.BridgeCandidate(1, 2) != (1, 2)
    assert ranges.GeometryBound(1.0, 2.0) != cb.BridgeCandidate(1, 2)
    assert cb.MapSpec(LatticeKind.RECTANGULAR, 1, 2, 20.0, 1.9) != LATTICE
    assert len({cb.StuckAt(0, 1), cb.BridgeCandidate(0, 1), cb.StuckAt(0, 1)}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_a_record_copies_and_pickles_as_an_equal_record(name):
    record = samples()[name]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
        assert repr(twin) == repr(record)


def test_bridge_orders_its_endpoints():
    bridge = cb.Bridge(9, 4, BridgeBehavior.WIRED_AND)
    assert (bridge.a, bridge.b) == (4, 9)
    assert bridge == cb.Bridge(4, 9, BridgeBehavior.WIRED_AND)
    assert bridge == cb.Bridge(a=9, b=4, behavior=BridgeBehavior.WIRED_AND)


def test_sampler_spec_mixes_are_fresh_copies():
    first, second = cb.SamplerSpec(1, 2), cb.SamplerSpec(n_faults=1, seed=2)
    assert first.kind_mix == DEFAULT_KIND_MIX and first.behavior_mix == DEFAULT_BEHAVIOR_MIX
    for mix in ("kind_mix", "behavior_mix"):
        assert getattr(first, mix) is not getattr(second, mix)
    assert first.kind_mix is not DEFAULT_KIND_MIX
    assert first.behavior_mix is not DEFAULT_BEHAVIOR_MIX
    mix = {"sa": 1.0, "bridge": 0.0}
    assert cb.SamplerSpec(1, 2, mix).kind_mix is mix


def test_keywords_and_positions_build_the_same_record():
    assert cb.BumpDiagnosis(1, Color.RED, DetectorResponse(0, 0), (), unmodeled=True) == (
        cb.BumpDiagnosis(
            bump=1, color=Color.RED, response=DetectorResponse(0, 0), candidates=(),
            unmodeled=True,
        )
    )
    assert cb.BumpMap(LATTICE).coloring is None
    with pytest.raises(TypeError):
        cb.StuckAt(1)
    with pytest.raises(TypeError):
        cb.StuckAt(1, 0, 2)
    with pytest.raises(TypeError):
        cb.StuckAt(1, value=0, net=1)
    with pytest.raises(TypeError):
        cb.BridgeCandidate(1, 2, c=3)


def test_derived_values_are_computed_once_and_kept():
    bump_map = samples()["BumpMap"]
    assert bump_map.positions is bump_map.positions
    assert bump_map.positions == ((0.0, 0.0), (20.0, 0.0))
    dictionary = samples()["FaultDictionary"]
    assert dictionary.by_signature is dictionary.by_signature
    assert dictionary.universe == (cb.QuadStuckAt(Color.GREEN, 0),)
    # The kept values are not fields: they change neither equality nor repr.
    assert bump_map == samples()["BumpMap"] and repr(bump_map) == REPRS["BumpMap"]
    with pytest.raises(AttributeError):
        bump_map.positions = ()


BAD = [
    (lambda: cb.StuckAt(-1, 0), "stuck-at net must be a bump id, got -1"),
    (lambda: cb.StuckAt(1, 2), "stuck-at value must be 0 or 1, got 2"),
    (lambda: cb.Bridge(1, 1, BridgeBehavior.WIRED_AND), "bridge endpoints must differ, got 1 twice"),
    (
        lambda: cb.Bridge(-1, 1, BridgeBehavior.WIRED_AND),
        "bridge endpoints must be bump ids, got (-1, 1)",
    ),
    (lambda: Lattice(LatticeKind.HEXAGONAL, 2.0, 2, 20.0), "lattice rows and cols must be integers"),
    (
        lambda: Lattice(LatticeKind.HEXAGONAL, 0, 2, 20.0),
        "lattice needs rows >= 1 and cols >= 1, got 0x2",
    ),
    (
        lambda: Lattice(LatticeKind.HEXAGONAL, 1024, 1024, 20.0),
        "lattice 1024x1024 has more than the 262144 bumps allowed",
    ),
    (
        lambda: Lattice(LatticeKind.HEXAGONAL, 2, 2, float("nan")),
        "lattice pitch must be positive and finite, got nan",
    ),
    (
        lambda: Lattice(LatticeKind.HEXAGONAL, 2, 2, 1e308),
        "lattice extent overflows: 2x2 bumps at pitch 1e+308 um",
    ),
    (lambda: cb.BridgeCandidate(2, 2), "bridge candidate endpoints must be ordered and distinct"),
    (lambda: cb.CircuitElement("L", "1", "in", "out", 1.0), "element kind must be R or C, got 'L'"),
    (
        lambda: cb.CircuitElement("C", "2", "out", "gnd", 0.0),
        "element C2 value must be positive and finite, got 0.0",
    ),
    (lambda: cb.EquivalentCircuit(()), "equivalent circuit needs at least one element"),
    (
        lambda: cb.EquivalentCircuit((ELEMENT, ELEMENT)),
        "duplicate element designators in ['R1', 'R1']",
    ),
    (
        lambda: cb.EquivalentCircuit((cb.CircuitElement("R", "1", "in", "m", 1.0),)),
        'no element touches the reserved "out" node',
    ),
    (
        lambda: cb.SeverityCurve(CurveFamily.POLYNOMIAL, (1.0,), 2.0, 1.0),
        "curve domain is empty: [2.0, 1.0]",
    ),
    (
        lambda: cb.SeverityCurve(CurveFamily.EXPONENTIAL, (1.0,), 1.0, 2.0),
        "exponential takes exactly 2 coefficients, got 1",
    ),
    (
        lambda: cb.SeverityCurve(CurveFamily.POLYNOMIAL, (1.0,) * 5, 1.0, 2.0),
        "polynomial degree is capped at 3",
    ),
    (
        lambda: cb.SeverityCurve(CurveFamily.EXPONENTIAL, (0.0, 1.0), 1.0, 2.0),
        "exponential curve needs a != 0",
    ),
    (
        lambda: cb.SeverityCurve(CurveFamily.LOG_LINEAR, (1.0, 1.0), 0.0, 2.0),
        "log-linear domain must be strictly positive",
    ),
    (
        lambda: cb.FaultMagnitude.capacitance(float("inf")),
        "fault capacitance must be positive and finite, got inf",
    ),
]


@pytest.mark.parametrize("build, message", BAD, ids=[message for _, message in BAD])
def test_construction_checks_keep_their_messages(build, message):
    with pytest.raises(ParameterError) as caught:
        build()
    assert str(caught.value) == message
