"""Seeded fault-injection campaigns: config schema, sampling, canonical reports.

A campaign builds a colored, blocked bump map from a JSON config, simulates
every injected fault independently (single-fault assumption), diagnoses the
failing bumps, and aggregates detection metrics.  Reports serialize to
canonical JSON (sorted keys, fixed layout) so identical runs are
byte-identical.  The sampler uses Python's ``random.Random`` (MT19937), so a
given (seed, config) pair always yields the same fault list.
"""

from __future__ import annotations

import json
import math
import random
from enum import Enum
from typing import Any

from .bist import (
    BlockTestReport,
    Bridge,
    BridgeBehavior,
    DetectorResponse,
    FailingBumps,
    Fault,
    StuckAt,
    fault_local_failing,
    overhead_report,
    run_block_test,  # noqa: F401  perfbench/tracer.py wraps it here by name
)
from .bumpmap import (
    AdjacencyGraph,
    BumpMap,
    Lattice,
    assign_codewords,
    build_bump_map,
    partition_blocks,
    potential_short_graph,
)
from .canonical import SCHEMA_VERSION
from .diagnosis import (
    BridgeCandidate,
    BumpDiagnosis,
    Candidate,
    build_fault_dictionary,
    diagnosability_ratio,
    diagnose,
)
from .errors import ParameterError
from .kinds import DEFAULT_SHORT_RADIUS_FACTOR, LatticeKind
from .record import Record

DEFAULT_KIND_MIX = {"sa": 0.5, "bridge": 0.5}
DEFAULT_BEHAVIOR_MIX = {behavior.value: 0.5 for behavior in BridgeBehavior}


class MapSpec(Record):
    kind: LatticeKind
    rows: int
    cols: int
    pitch_um: float
    short_radius_factor: float = DEFAULT_SHORT_RADIUS_FACTOR


class SamplerSpec(Record):
    n_faults: int
    seed: int
    kind_mix: dict[str, float] = DEFAULT_KIND_MIX
    behavior_mix: dict[str, float] = DEFAULT_BEHAVIOR_MIX
    include_inter_block: bool = True

    def __post_init__(self) -> None:
        # Each spec holds its own mixes, never the shared default dicts.
        if self.kind_mix is DEFAULT_KIND_MIX:
            object.__setattr__(self, "kind_mix", dict(DEFAULT_KIND_MIX))
        if self.behavior_mix is DEFAULT_BEHAVIOR_MIX:
            object.__setattr__(self, "behavior_mix", dict(DEFAULT_BEHAVIOR_MIX))


class CampaignConfig(Record):
    map_spec: MapSpec
    block_count: int
    faults: tuple[Fault, ...] | None = None
    sampler: SamplerSpec | None = None
    output_report: str | None = None  # default report path; CLI --out wins


def _expect_keys(data: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(data, dict):
        raise ParameterError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - required - optional
    if unknown:
        raise ParameterError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ParameterError(f"{where}: missing required fields {sorted(missing)}")


def _integer(
    value: Any,
    where: str,
    minimum: float = -math.inf,
    expected: str = "an integer",
    below: float = math.inf,
) -> int:
    """A JSON integer (not a bool) with ``minimum <= value < below``."""
    if not isinstance(value, int) or isinstance(value, bool) or not minimum <= value < below:
        raise ParameterError(f"{where}: expected {expected}, got {value!r}")
    return value


def _expect_version(value: Any, where: str) -> None:
    """The schema version, as the JSON integer itself: ``true`` and ``1.0`` are not 1."""
    expected = str(SCHEMA_VERSION)
    if _integer(value, where, expected=expected) != SCHEMA_VERSION:
        raise ParameterError(f"{where}: expected {expected}, got {value!r}")


def _positive_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ParameterError(f"{where}: expected a positive number, got {value!r}")
    return float(value)


def _enum_member(enum: type[Enum], value: Any, where: str) -> Any:
    try:
        return enum(value)
    except ValueError:
        expected = " or ".join(repr(member.value) for member in enum)
        raise ParameterError(f"{where}: expected {expected}, got {value!r}") from None


def _weights(sampler: dict, name: str, default: dict[str, float]) -> dict[str, float]:
    """The sampler's ``name`` mix, or ``default``, whose keys are the allowed ones."""
    where = f"config.sampler.{name}"
    value = sampler.get(name, default)
    if not isinstance(value, dict):
        raise ParameterError(f"{where}: expected an object of weights")
    unknown = set(value) - set(default)
    if unknown:
        raise ParameterError(f"{where}: unknown keys {sorted(unknown)} (allowed: {sorted(default)})")
    weights = {}
    for key, raw in value.items():
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not 0 <= raw < math.inf:
            raise ParameterError(f"{where}.{key}: weights must be finite non-negative numbers")
        weights[key] = float(raw)
    if not 0 < sum(weights.values()) < math.inf:
        raise ParameterError(f"{where}: weights must sum to a positive, finite number")
    return weights


def fault_from_dict(data: dict, where: str = "fault") -> Fault:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParameterError(f"{where}: expected an object with a 'kind' field")
    kind = data["kind"]
    if kind in ("sa0", "sa1"):
        _expect_keys(data, where, {"kind", "net"})
        net = _integer(data["net"], f"{where}.net", 0, "a bump id")
        return StuckAt(net, 1 if kind == "sa1" else 0)
    if kind == "bridge":
        _expect_keys(data, where, {"kind", "a", "b", "behavior"})
        a, b = (_integer(data[end], f"{where}.{end}", 0, "a bump id") for end in ("a", "b"))
        behavior = _enum_member(BridgeBehavior, data["behavior"], f"{where}.behavior")
        if a == b:
            raise ParameterError(f"{where}: bridge endpoints must differ")
        return Bridge(a, b, behavior)
    raise ParameterError(f"{where}.kind: expected 'sa0', 'sa1', or 'bridge', got {kind!r}")


def fault_to_dict(fault: Fault | Candidate) -> dict:
    """Wire form of a fault or a diagnosis candidate (a bridge candidate has no behavior)."""
    if isinstance(fault, StuckAt):
        return {"kind": f"sa{fault.value}", "net": fault.net}
    wire = {"kind": "bridge", "a": fault.a, "b": fault.b}
    if isinstance(fault, Bridge):
        wire["behavior"] = fault.behavior.value
    return wire


def parse_config(data: dict) -> CampaignConfig:
    """Validate a campaign config object; unknown fields are rejected."""
    _expect_keys(
        data, "config", {"version", "map", "block_count"}, {"faults", "sampler", "output"}
    )
    _expect_version(data["version"], "config.version")
    raw_map = data["map"]
    _expect_keys(raw_map, "config.map", {"kind", "rows", "cols", "pitch_um"}, {"short_radius_factor"})
    map_spec = MapSpec(
        kind=_enum_member(LatticeKind, raw_map["kind"], "config.map.kind"),
        rows=_integer(raw_map["rows"], "config.map.rows", 1, "a positive integer"),
        cols=_integer(raw_map["cols"], "config.map.cols", 1, "a positive integer"),
        pitch_um=_positive_number(raw_map["pitch_um"], "config.map.pitch_um"),
        short_radius_factor=_positive_number(
            raw_map.get("short_radius_factor", DEFAULT_SHORT_RADIUS_FACTOR),
            "config.map.short_radius_factor",
        ),
    )
    block_count = _integer(data["block_count"], "config.block_count", 1, "a positive integer")
    has_faults = "faults" in data
    has_sampler = "sampler" in data
    if has_faults == has_sampler:
        raise ParameterError("config: exactly one of 'faults' and 'sampler' is required")
    faults = None
    sampler = None
    if has_faults:
        if not isinstance(data["faults"], list):
            raise ParameterError("config.faults: expected a list")
        faults = tuple(
            fault_from_dict(f, f"config.faults[{i}]") for i, f in enumerate(data["faults"])
        )
    else:
        raw = data["sampler"]
        _expect_keys(
            raw,
            "config.sampler",
            {"n_faults", "seed"},
            {"kind_mix", "behavior_mix", "include_inter_block"},
        )
        n_faults = _integer(raw["n_faults"], "config.sampler.n_faults", 0, ">= 0")
        seed = _integer(raw["seed"], "config.sampler.seed")
        include = raw.get("include_inter_block", True)
        if not isinstance(include, bool):
            raise ParameterError("config.sampler.include_inter_block: expected a boolean")
        sampler = SamplerSpec(
            n_faults=n_faults,
            seed=seed,
            kind_mix=_weights(raw, "kind_mix", DEFAULT_KIND_MIX),
            behavior_mix=_weights(raw, "behavior_mix", DEFAULT_BEHAVIOR_MIX),
            include_inter_block=include,
        )
    output_report = None
    if "output" in data:
        _expect_keys(data["output"], "config.output", set(), {"report"})
        report_path = data["output"].get("report")
        if report_path is not None and not isinstance(report_path, str):
            raise ParameterError("config.output.report: expected a path string")
        # A lone surrogate does not encode, and the streamed report echoes the path.
        if report_path is not None and any("\ud800" <= char <= "\udfff" for char in report_path):
            raise ParameterError(f"config.output.report: expected UTF-8 text, got {report_path!r}")
        output_report = report_path
    return CampaignConfig(
        map_spec=map_spec,
        block_count=block_count,
        faults=faults,
        sampler=sampler,
        output_report=output_report,
    )


def reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict:
    """``json`` object hook: a key given twice is an error, not a silent overwrite."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def load_config(path) -> CampaignConfig:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle, object_pairs_hook=reject_duplicate_keys)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and bytes that are not UTF-8.
            raise ParameterError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(data)


def config_to_dict(config: CampaignConfig) -> dict:
    """Config echo with defaults filled in; parse_config(result) round-trips."""
    out: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "map": {
            "kind": config.map_spec.kind.value,
            "rows": config.map_spec.rows,
            "cols": config.map_spec.cols,
            "pitch_um": config.map_spec.pitch_um,
            "short_radius_factor": config.map_spec.short_radius_factor,
        },
        "block_count": config.block_count,
    }
    if config.faults is not None:
        out["faults"] = [fault_to_dict(f) for f in config.faults]
    if config.sampler is not None:
        out["sampler"] = {
            "n_faults": config.sampler.n_faults,
            "seed": config.sampler.seed,
            "kind_mix": dict(config.sampler.kind_mix),
            "behavior_mix": dict(config.sampler.behavior_mix),
            "include_inter_block": config.sampler.include_inter_block,
        }
    if config.output_report is not None:
        out["output"] = {"report": config.output_report}
    return out


def build_campaign_map(config: CampaignConfig) -> tuple[BumpMap, AdjacencyGraph]:
    """Build, color, and block the campaign's bump map."""
    spec = config.map_spec
    lattice = Lattice(spec.kind, spec.rows, spec.cols, spec.pitch_um)
    bump_map = build_bump_map(lattice)
    graph = potential_short_graph(bump_map, spec.short_radius_factor * spec.pitch_um)
    bump_map = assign_codewords(bump_map, graph)
    bump_map = partition_blocks(bump_map, config.block_count)
    return bump_map, graph


def sample_faults(
    sampler: SamplerSpec, bump_map: BumpMap, graph: AdjacencyGraph
) -> tuple[Fault, ...]:
    """Deterministically sample a fault list: unique stuck-ats and bridge edges.

    Stuck-at picks are uniform over (bump, value) pairs; bridge picks are
    uniform over adjacency-graph edges (optionally restricted to same-block
    edges), each with a wired behavior drawn from the behavior mix.
    """
    rng = random.Random(sampler.seed)
    w_sa = sampler.kind_mix.get("sa", 0.0)
    w_bridge = sampler.kind_mix.get("bridge", 0.0)
    try:
        n_bridge = round(sampler.n_faults * w_bridge / (w_sa + w_bridge))
    except OverflowError:
        raise ParameterError(
            f"cannot split {sampler.n_faults} faults by the kind mix: the product overflows"
        ) from None
    n_sa = sampler.n_faults - n_bridge

    sa_population = 2 * bump_map.bump_count
    if n_sa > sa_population:
        raise ParameterError(
            f"requested {n_sa} stuck-at faults but only {sa_population} exist"
        )
    edges = graph.sorted_edges
    if not sampler.include_inter_block:
        if bump_map.blocks is None:
            raise ParameterError("map must be blocked to exclude inter-block edges")
        edges = [e for e in edges if bump_map.blocks[e[0]] == bump_map.blocks[e[1]]]
    if n_bridge > len(edges):
        raise ParameterError(
            f"requested {n_bridge} bridge faults but only {len(edges)} edges are available"
        )

    behaviors = list(BridgeBehavior)
    behavior_weights = [sampler.behavior_mix.get(b.value, 0.0) for b in behaviors]
    faults: list[Fault] = [
        StuckAt(pick // 2, pick % 2) for pick in rng.sample(range(sa_population), n_sa)
    ]
    for a, b in rng.sample(edges, n_bridge):
        behavior = rng.choices(behaviors, weights=behavior_weights)[0]
        faults.append(Bridge(a, b, behavior))
    return tuple(faults)


def diagnosis_to_dict(entry: BumpDiagnosis, block: int) -> dict:
    return {
        "block": block,
        "bump": entry.bump,
        "color": entry.color.value,
        "response": list(entry.response),
        "unmodeled": entry.unmodeled,
        "candidates": [fault_to_dict(candidate) for candidate in entry.candidates],
    }


def diagnose_failing(
    failing: FailingBumps, bump_map: BumpMap, graph: AdjacencyGraph
) -> list[tuple[int, BumpDiagnosis]]:
    """(block, ``BumpDiagnosis``) pairs of one fault's failing bumps, in (block, bump) order.

    Each failing block is one ``diagnose`` call on a report of its listed
    responses.  ``diagnose`` reads every bump's block from ``bump_map`` and
    takes each unlisted bump of that block as passed.
    """
    by_block: dict[int, dict[int, DetectorResponse]] = {}
    for block, bump, response in failing:
        by_block.setdefault(block, {})[bump] = response
    return [
        (block, entry)
        for block, listed in sorted(by_block.items())
        for entry in diagnose(BlockTestReport(block, listed, {}), bump_map, graph)
    ]


def _fault_result(fault: Fault, bump_map: BumpMap, graph: AdjacencyGraph) -> dict:
    """One fault's report entry, simulated and diagnosed fault-locally."""
    failing = fault_local_failing(bump_map, fault)
    entries = diagnose_failing(failing, bump_map, graph)
    # A candidate names a stuck-at by itself and a bridge by its endpoints.
    named = BridgeCandidate(fault.a, fault.b) if isinstance(fault, Bridge) else fault
    return {
        "fault": fault_to_dict(fault),
        "detected": bool(failing),
        "inter_block": (
            bump_map.blocks[fault.a] != bump_map.blocks[fault.b]
            if isinstance(fault, Bridge)
            else None
        ),
        "failing": [
            {"block": block, "bump": bump, "response": list(response)}
            for block, bump, response in failing
        ],
        "diagnosis": [diagnosis_to_dict(entry, block) for block, entry in entries],
        "diagnosis_hit": any(named in entry.candidates for _, entry in entries),
    }


def _rate(count: int, total: int) -> float | None:
    return count / total if total else None


def run_campaign(config: CampaignConfig) -> dict:
    """Run a campaign and return the canonical report object.

    Every fault is simulated on its own (single-fault assumption), so results
    are independent of fault-list order.  Each fault is simulated and
    diagnosed fault-locally: only the one or two nets it touches are
    resolved, and ``diagnose`` runs on each failing block's listed responses.
    The result equals the full-map ``run_block_test`` and ``diagnose`` on
    every block, at a per-fault cost independent of the map size.  The map
    build is not, though no position is computed: greedy colors the bumps
    until its period repeats and tiles the rest, the edge count builds one
    offset pattern per kind of row, and the block sizes are counted once.
    The metrics are counts over the finished fault results.
    """
    bump_map, graph = build_campaign_map(config)
    if config.faults is not None:
        faults = config.faults
    else:
        faults = sample_faults(config.sampler, bump_map, graph)
    for fault in faults:
        top = fault.net if isinstance(fault, StuckAt) else fault.b
        if top >= bump_map.bump_count:
            raise ParameterError(f"fault {fault_to_dict(fault)} references a bump outside the map")

    dictionary = build_fault_dictionary()
    numerator, denominator = diagnosability_ratio(dictionary)
    fault_results = [_fault_result(f, bump_map, graph) for f in faults]
    overhead = overhead_report(bump_map)

    detected = sum(result["detected"] for result in fault_results)
    escapes = [result["fault"] for result in fault_results if not result["detected"]]
    inter_or_escaped = [
        not result["detected"]
        for fault, result in zip(faults, fault_results)
        if result["inter_block"] and fault.behavior is BridgeBehavior.WIRED_OR
    ]
    return {
        "version": SCHEMA_VERSION,
        "config": config_to_dict(config),
        "map": _map_section(bump_map, graph),
        "overhead": {name: getattr(overhead, name) for name in overhead._fields},
        "diagnosability": {
            "numerator": numerator,
            "denominator": denominator,
            "decimal": numerator / denominator,
            "ambiguous_pairs": len(dictionary.ambiguous_pairs),
        },
        "fault_results": fault_results,
        "metrics": {
            "injected": len(fault_results),
            "detected": detected,
            "detection_rate": _rate(detected, len(fault_results)),
            "diagnosis_hits": sum(result["diagnosis_hit"] for result in fault_results),
            "escaped": len(escapes),
            "escapes": escapes,
            "inter_block_wired_or": {
                "injected": len(inter_or_escaped),
                "escaped": sum(inter_or_escaped),
                "escape_rate": _rate(sum(inter_or_escaped), len(inter_or_escaped)),
            },
        },
    }


def _map_section(bump_map: BumpMap, graph: AdjacencyGraph) -> dict:
    """The report's summary of the map a campaign ran on."""
    return {
        "bumps": bump_map.bump_count,
        "edges": graph.edge_count,
        "block_sizes": list(bump_map.block_sizes),
    }


def _failing_from_dict(result: Any, where: str, bump_map: BumpMap) -> FailingBumps:
    """Validated (block, bump, response) triples of one stored fault result:
    every listed response fails, [0, 0] or [1, 0]; every other bump passed."""
    if not isinstance(result, dict) or not isinstance(result.get("failing"), list):
        raise ParameterError(f"{where}: expected an object with a 'failing' list")
    failing = []
    listed_at: dict[int, int] = {}
    for i, item in enumerate(result["failing"]):
        at = f"{where}.failing[{i}]"
        _expect_keys(item, at, {"block", "bump", "response"})
        block = _integer(
            item["block"], f"{at}.block", 0, "a block id of this map", bump_map.block_count
        )
        bump = _integer(item["bump"], f"{at}.bump", 0, "a bump id of this map", bump_map.bump_count)
        response = item["response"]
        if bump in listed_at:
            raise ParameterError(
                f"{at}.bump: bump {bump} is already listed at failing[{listed_at[bump]}]"
            )
        listed_at[bump] = i
        if bump_map.blocks[bump] != block:
            raise ParameterError(
                f"{at}: bump {bump} lies in block {bump_map.blocks[bump]}, not {block}"
            )
        if response not in ([0, 0], [1, 0]) or not all(
            isinstance(bit, int) and not isinstance(bit, bool) for bit in response
        ):
            raise ParameterError(
                f"{at}.response: expected a failing response, [0, 0] or [1, 0], got {response!r}"
            )
        failing.append((block, bump, DetectorResponse(*response)))
    return failing


def rediagnose_report(report: dict) -> dict:
    """Re-derive every fault's diagnosis from a stored campaign report.

    Every listed response is a failing one, [0, 0] or [1, 0]; every other
    bump of a block passed with (1, 1) (a y = 1 response forces x = 1), and
    each bump's block is read from the map the report's config builds, so
    the neighborhoods that diagnosis reads can be reconstructed exactly.  A
    ``map`` section that differs from the map the report's config builds (an
    edited config would re-diagnose against another graph), or a failing
    entry that is malformed, holds any other response, names a bump outside
    its block, or names a bump listed before it, raises ParameterError.
    """
    _expect_keys(
        report,
        "report",
        {"version", "config", "map", "overhead", "diagnosability", "fault_results", "metrics"},
    )
    _expect_version(report["version"], "report.version")
    config = parse_config(report["config"])
    if not isinstance(report["fault_results"], list):
        raise ParameterError("report.fault_results: expected a list")
    bump_map, graph = build_campaign_map(config)
    expected_map = _map_section(bump_map, graph)
    if report["map"] != expected_map:
        raise ParameterError(
            "report.map: does not match the map its config builds ("
            + ", ".join(f"{key} {value}" for key, value in expected_map.items())
            + ")"
        )
    diagnoses = []
    for i, result in enumerate(report["fault_results"]):
        failing = _failing_from_dict(result, f"report.fault_results[{i}]", bump_map)
        entries = diagnose_failing(failing, bump_map, graph)
        diagnoses.append([diagnosis_to_dict(entry, block) for block, entry in entries])
    return {"version": SCHEMA_VERSION, "diagnoses": diagnoses}
