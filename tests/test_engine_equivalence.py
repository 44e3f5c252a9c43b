"""Differential tests: campaigns and rediagnosis against the full-map reference engine.

``run_campaign`` and ``rediagnose_report`` resolve only the nets a fault
touches.  Every per-fault result must equal the one built from
``run_block_test`` over the whole map followed by ``diagnose`` on every
block, and rediagnosis must equal a reconstruction of every block's report.
"""

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
    StuckAt,
    run_block_test,
)
from chipletbist.campaign import (
    build_campaign_map,
    canonical_json,
    diagnosis_to_dict,
    fault_from_dict,
    fault_to_dict,
    parse_config,
    rediagnose_report,
    run_campaign,
)
from chipletbist.diagnosis import BridgeCandidate, build_fault_dictionary, diagnose
from chipletbist.errors import ParameterError

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


def _hit(candidate, fault):
    if isinstance(candidate, StuckAt):
        return candidate == fault
    return isinstance(candidate, BridgeCandidate) and isinstance(fault, Bridge) and (
        (candidate.a, candidate.b) == (fault.a, fault.b)
    )


def reference_result(fault, bump_map, graph, dictionary):
    reports = run_block_test(bump_map, [fault])
    failing = [
        {"block": report.block, "bump": bump, "response": [response.x, response.y]}
        for report in reports
        for bump, response in sorted(report.responses.items())
        if response.y == 0
    ]
    entries = [
        (report.block, entry)
        for report in reports
        for entry in diagnose(report, bump_map, graph, dictionary)
    ]
    return {
        "detected": bool(failing),
        "failing": failing,
        "diagnosis": [diagnosis_to_dict(entry, block) for block, entry in entries],
        "diagnosis_hit": any(_hit(c, fault) for _, entry in entries for c in entry.candidates),
    }


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
