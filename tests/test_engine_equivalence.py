"""Differential tests: campaigns and rediagnosis against the full-map reference engine.

``run_campaign`` and ``rediagnose_report`` resolve only the nets a fault
touches.  Every per-fault result must equal the one built from
``run_block_test`` over the whole map followed by ``diagnose`` on every
block (``oracle.reference_result``), and rediagnosis must equal a
reconstruction of every block's report.  Sampled faults are checked on 7x10
maps, and every single fault on 8x8 maps.
"""

import functools
import json
import random
import re

import pytest

from chipletbist.bist import (
    NOMINAL_RESPONSE,
    BlockTestReport,
    Bridge,
    BridgeBehavior,
    DetectorResponse,
)
from chipletbist.campaign import (
    build_campaign_map,
    diagnosis_to_dict,
    fault_from_dict,
    fault_to_dict,
    parse_config,
    rediagnose_report,
    run_campaign,
)
from chipletbist.canonical import canonical_json
from chipletbist.diagnosis import build_fault_dictionary, diagnose
from chipletbist.errors import ParameterError
from oracle import every_single_fault, failing_groups, reference_result

KINDS = ("hexagonal", "rectangular")
BLOCK_COUNTS = (1, 2, 3, 8)


def config_dict(kind, block_count, **body):
    data = {
        "version": 1,
        "map": {"kind": kind, "rows": 7, "cols": 10, "pitch_um": 20.0},
        "block_count": block_count,
    }
    data.update(body)
    return data


def sampled(kind, block_count, include_inter_block):
    sampler = {
        "n_faults": 60,
        "seed": 7 * block_count + len(kind),
        "include_inter_block": include_inter_block,
    }
    return config_dict(kind, block_count, sampler=sampler)


def explicit_bridges(kind, block_count):
    """Bridges the sampler never draws: non-adjacent and same-colour pairs."""
    bump_map, _ = build_campaign_map(parse_config(sampled(kind, block_count, True)))
    n = bump_map.bump_count
    pairs = {(0, n - 1), (1, n // 2), (n // 3, n - 2)}
    for color in set(bump_map.coloring):
        same = [b for b in range(n) if bump_map.coloring[b] is color]
        same_block = [b for b in same if bump_map.blocks[b] == bump_map.blocks[same[0]]]
        pairs.add((same[0], same_block[1]))
        pairs.add((same[0], same[-1]))
    faults = []
    for a, b in sorted(pairs):
        for behavior in BridgeBehavior:
            faults.append(fault_to_dict(Bridge(a, b, behavior)))
    faults += [{"kind": kind_, "net": net} for net in (0, n - 1) for kind_ in ("sa0", "sa1")]
    return config_dict(kind, block_count, faults=faults)


CONFIGS = [
    pytest.param(sampled(kind, blocks, inter), id=f"{kind}-{blocks}blk-inter{int(inter)}")
    for kind in KINDS
    for blocks in BLOCK_COUNTS
    for inter in (True, False)
] + [
    pytest.param(explicit_bridges(kind, blocks), id=f"{kind}-{blocks}blk-explicit")
    for kind in KINDS
    for blocks in BLOCK_COUNTS
]


def full_rediagnosis(report):
    """Every block's report rebuilt in full: listed responses, (1, 1) elsewhere."""
    config = parse_config(report["config"])
    bump_map, graph = build_campaign_map(config)
    dictionary = build_fault_dictionary()
    diagnoses = []
    for result in report["fault_results"]:
        failing = {}
        for item in result["failing"]:
            failing.setdefault(item["block"], {})[item["bump"]] = DetectorResponse(
                *item["response"]
            )
        entries = []
        for block in range(config.block_count):
            report_of_block = BlockTestReport(
                block=block,
                responses={
                    b: failing.get(block, {}).get(b, NOMINAL_RESPONSE)
                    for b in bump_map.bumps_in_block(block)
                },
                received={},
            )
            for entry in diagnose(report_of_block, bump_map, graph, dictionary):
                entries.append(diagnosis_to_dict(entry, block))
        diagnoses.append(entries)
    return {"version": 1, "diagnoses": diagnoses}


@pytest.mark.parametrize("data", CONFIGS)
def test_campaign_matches_full_map_engine(data):
    config = parse_config(data)
    bump_map, graph = build_campaign_map(config)
    dictionary = build_fault_dictionary()
    report = run_campaign(config)
    assert report["fault_results"]
    references = []
    for result in report["fault_results"]:
        fault = fault_from_dict(result["fault"])
        reference = reference_result(fault, bump_map, graph, dictionary)
        local = {key: result[key] for key in ("detected", "failing", "diagnosis", "diagnosis_hit")}
        assert local == reference, result["fault"]
        references.append((fault, reference))
    detected = sum(reference["detected"] for _, reference in references)
    escapes = [fault_to_dict(fault) for fault, reference in references if not reference["detected"]]
    inter_or = [
        reference["detected"]
        for fault, reference in references
        if isinstance(fault, Bridge)
        and fault.behavior is BridgeBehavior.WIRED_OR
        and bump_map.blocks[fault.a] != bump_map.blocks[fault.b]
    ]
    inter_or_escaped = inter_or.count(False)
    assert report["metrics"] == {
        "injected": len(references),
        "detected": detected,
        "detection_rate": detected / len(references),
        "diagnosis_hits": sum(reference["diagnosis_hit"] for _, reference in references),
        "escaped": len(escapes),
        "escapes": escapes,
        "inter_block_wired_or": {
            "injected": len(inter_or),
            "escaped": inter_or_escaped,
            "escape_rate": inter_or_escaped / len(inter_or) if inter_or else None,
        },
    }


@pytest.mark.parametrize("data", CONFIGS)
def test_rediagnosis_matches_full_reconstruction(data):
    report = json.loads(canonical_json(run_campaign(parse_config(data))))
    assert canonical_json(rediagnose_report(report)) == canonical_json(full_rediagnosis(report))


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("data", CONFIGS)
def test_rediagnosis_ignores_the_order_of_failing_entries(data, order):
    report = json.loads(canonical_json(run_campaign(parse_config(data))))
    expected = canonical_json(rediagnose_report(report))
    assert any(len(result["failing"]) > 1 for result in report["fault_results"])
    rng = random.Random(5)
    for result in report["fault_results"]:
        if order == "reversed":
            result["failing"].reverse()
        else:
            rng.shuffle(result["failing"])
    assert canonical_json(rediagnose_report(report)) == expected


def test_rediagnosis_rejects_listed_passing_responses():
    # Only failing bumps are listed: a y = 1 response there is not evidence.
    data = sampled("hexagonal", 2, True)
    report = json.loads(canonical_json(run_campaign(parse_config(data))))
    bump_map, graph = build_campaign_map(parse_config(data))
    i, failing, block, neighbor = next(
        (i, result["failing"], item["block"], neighbor)
        for i, result in enumerate(report["fault_results"])
        for item in result["failing"]
        for neighbor in graph.neighbors(item["bump"])
        if bump_map.blocks[neighbor] == item["block"]
        and all(f["bump"] != neighbor for f in result["failing"])
    )
    failing.append({"block": block, "bump": neighbor, "response": [0, 1]})
    where = f"report.fault_results[{i}].failing[{len(failing) - 1}].response: "
    with pytest.raises(ParameterError, match=re.escape(where + "expected a failing response")):
        rediagnose_report(report)


EXHAUSTIVE = [
    pytest.param(kind, blocks, id=f"{kind}-{blocks}blk")
    for kind in KINDS
    for blocks in (1, 2, 3, 4)
]


@functools.cache
def exhaustive_campaign(kind, block_count):
    """Every single fault of an 8x8 map, run as one campaign, and each fault's reference."""
    data = config_dict(kind, block_count, faults=[])
    data["map"].update(rows=8, cols=8)
    bump_map, graph = build_campaign_map(parse_config(data))
    faults = every_single_fault(bump_map, graph)
    data["faults"] = [fault_to_dict(fault) for fault in faults]
    report = run_campaign(parse_config(data))
    dictionary = build_fault_dictionary()
    references = [reference_result(fault, bump_map, graph, dictionary) for fault in faults]
    return faults, report, references


@pytest.mark.parametrize("kind, block_count", EXHAUSTIVE)
def test_every_single_fault_matches_full_map_engine(kind, block_count):
    # The report's fault results are the fault-local engine's (_fault_result).
    faults, report, references = exhaustive_campaign(kind, block_count)
    for fault, result, reference in zip(faults, report["fault_results"], references, strict=True):
        assert {key: result[key] for key in reference} == reference, fault


@pytest.mark.parametrize("kind, block_count", EXHAUSTIVE)
def test_rediagnosis_of_every_single_fault_returns_its_diagnosis(kind, block_count):
    _, report, _ = exhaustive_campaign(kind, block_count)
    expected = [result["diagnosis"] for result in report["fault_results"]]
    assert rediagnose_report(report)["diagnoses"] == expected


@pytest.mark.parametrize("kind", KINDS)
def test_every_failing_bump_names_its_fault_on_one_block(kind):
    faults, _, references = exhaustive_campaign(kind, 1)
    for fault, reference in zip(faults, references, strict=True):
        named = {key: value for key, value in fault_to_dict(fault).items() if key != "behavior"}
        assert all(named in entry["candidates"] for entry in reference["diagnosis"]), fault
        assert reference["diagnosis_hit"] == reference["detected"], fault


@pytest.mark.xfail(
    strict=True,
    reason="inter-block wired-AND bridges miss their diagnosis: 4, 8 and 12 of them "
    "at 2, 3 and 4 blocks, on hex and rect 8x8 alike (ROADMAP item 2)",
)
def test_every_detected_fault_is_a_diagnosis_hit_across_blocks():
    misses = []
    for kind in KINDS:
        for blocks in (2, 3, 4):
            faults, _, references = exhaustive_campaign(kind, blocks)
            misses += [
                (kind, blocks, fault)
                for fault, reference in zip(faults, references, strict=True)
                if reference["detected"] and not reference["diagnosis_hit"]
            ]
    assert misses == []


# (group, fault) pairs missed at 2, 3 and 4 blocks, all of them inter-block
# wired-AND bridges (ROADMAP item 2).
GROUP_MISSES = {"hexagonal": (18, 36, 54), "rectangular": (4, 8, 12)}
GROUPED = [
    pytest.param(
        kind,
        blocks,
        id=f"{kind}-{blocks}blk",
        marks=() if blocks == 1 else pytest.mark.xfail(
            strict=True,
            reason=f"{GROUP_MISSES[kind][blocks - 2]} (group, fault) pairs miss a candidate: "
            "inter-block wired-AND bridges (ROADMAP item 2)",
        ),
    )
    for kind in KINDS
    for blocks in (1, 2, 3, 4)
]


@pytest.mark.parametrize("kind, block_count", GROUPED)
def test_every_fault_of_a_failing_list_is_named_at_each_failing_bump(kind, block_count):
    # Faults with one full-map failing list cannot be told apart, so every
    # entry the campaign writes for that list names each of them.
    faults, report, references = exhaustive_campaign(kind, block_count)
    missed = set()
    groups = failing_groups(faults, references)
    for group, result in zip(groups, report["fault_results"], strict=True):
        for fault in group:
            named = fault_to_dict(fault)
            if any(named not in entry["candidates"] for entry in result["diagnosis"]):
                missed.add((group, fault))
    assert missed == set()
