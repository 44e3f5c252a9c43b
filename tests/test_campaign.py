"""Tests for campaign config validation, fault sampling, and report generation."""

import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipletbist.bist import Bridge, BridgeBehavior, StuckAt
from chipletbist.bumpmap import AdjacencyGraph, LatticeKind
from chipletbist.campaign import (
    CampaignConfig,
    MapSpec,
    SamplerSpec,
    build_campaign_map,
    config_to_dict,
    fault_from_dict,
    fault_to_dict,
    parse_config,
    rediagnose_report,
    run_campaign,
    sample_faults,
)
from chipletbist.canonical import canonical_json
from chipletbist.errors import ColoringError, ParameterError


def base_config_dict(**overrides):
    data = {
        "version": 1,
        "map": {"kind": "hexagonal", "rows": 6, "cols": 8, "pitch_um": 20.0},
        "block_count": 2,
        "sampler": {"n_faults": 10, "seed": 99},
    }
    data.update(overrides)
    return data


def test_parse_config_fills_defaults():
    config = parse_config(base_config_dict())
    assert config.map_spec.short_radius_factor == 1.9
    assert config.sampler.kind_mix == {"sa": 0.5, "bridge": 0.5}
    assert config.sampler.behavior_mix == {"wired-and": 0.5, "wired-or": 0.5}
    assert config.sampler.include_inter_block is True
    assert config.faults is None


def test_parse_config_round_trips_through_echo():
    config = parse_config(base_config_dict())
    assert parse_config(config_to_dict(config)) == config


def test_parse_config_accepts_output_report_path():
    config = parse_config(base_config_dict(output={"report": "out/report.json"}))
    assert config.output_report == "out/report.json"
    assert parse_config(config_to_dict(config)) == config
    with pytest.raises(ParameterError):
        parse_config(base_config_dict(output={"report": "x", "log": "y"}))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(version=2),
        lambda d: d.update(version=True),
        lambda d: d.update(version=1.0),
        lambda d: d.update(extra_field=True),
        lambda d: d["map"].update(shape="hex"),
        lambda d: d["map"].update(kind="triangular"),
        lambda d: d["map"].update(rows=0),
        lambda d: d["map"].update(pitch_um=-1),
        lambda d: d.update(block_count=0),
        lambda d: d.update(faults=[]),  # both faults and sampler present
        lambda d: d.pop("sampler"),  # neither present
        lambda d: d["sampler"].pop("seed"),
        lambda d: d["sampler"].update(n_faults=-1),
        lambda d: d["sampler"].update(kind_mix={"sa": -0.5}),
        lambda d: d["sampler"].update(kind_mix={"sa": 0.0, "bridge": 0.0}),
        lambda d: d["sampler"].update(kind_mix={"open": 1.0}),
        lambda d: d["sampler"].update(behavior_mix={"wired-xor": 1.0}),
        lambda d: d["sampler"].update(include_inter_block="yes"),
    ],
)
def test_parse_config_rejects_invalid(mutate):
    data = base_config_dict()
    mutate(data)
    with pytest.raises(ParameterError):
        parse_config(data)


def test_explicit_fault_list_parsing():
    data = base_config_dict()
    del data["sampler"]
    data["faults"] = [
        {"kind": "sa0", "net": 3},
        {"kind": "sa1", "net": 0},
        {"kind": "bridge", "a": 1, "b": 2, "behavior": "wired-or"},
    ]
    config = parse_config(data)
    assert config.faults == (
        StuckAt(3, 0),
        StuckAt(0, 1),
        Bridge(1, 2, BridgeBehavior.WIRED_OR),
    )


@pytest.mark.parametrize(
    "fault",
    [
        {"kind": "sa2", "net": 1},
        {"kind": "sa0"},
        {"kind": "sa0", "net": -1},
        {"kind": "bridge", "a": 1, "b": 1, "behavior": "wired-and"},
        {"kind": "bridge", "a": 1, "b": 2, "behavior": "strong"},
        {"kind": "bridge", "a": 1, "b": 2},
        {"kind": "sa0", "net": 1, "spare": True},
    ],
)
def test_fault_parsing_rejects_malformed(fault):
    with pytest.raises(ParameterError):
        fault_from_dict(fault)


def test_fault_dict_round_trip():
    for fault in (StuckAt(4, 0), StuckAt(2, 1), Bridge(3, 9, BridgeBehavior.WIRED_AND)):
        assert fault_from_dict(fault_to_dict(fault)) == fault


def test_sampler_is_deterministic():
    config = parse_config(base_config_dict())
    bump_map, graph = build_campaign_map(config)
    first = sample_faults(config.sampler, bump_map, graph)
    second = sample_faults(config.sampler, bump_map, graph)
    assert first == second
    different = sample_faults(
        SamplerSpec(n_faults=10, seed=100), bump_map, graph
    )
    assert different != first


def test_sampler_zero_faults():
    config = parse_config(base_config_dict())
    bump_map, graph = build_campaign_map(config)
    assert sample_faults(SamplerSpec(n_faults=0, seed=1), bump_map, graph) == ()


def test_sampler_pure_stuck_at_mix():
    config = parse_config(base_config_dict())
    bump_map, graph = build_campaign_map(config)
    spec = SamplerSpec(n_faults=5, seed=3, kind_mix={"sa": 1.0})
    faults = sample_faults(spec, bump_map, graph)
    assert len(faults) == 5
    assert all(isinstance(f, StuckAt) for f in faults)
    assert all(0 <= f.net < bump_map.bump_count for f in faults)
    assert len(set(faults)) == 5  # sampling without replacement


def test_sampler_bridges_come_from_the_graph():
    config = parse_config(base_config_dict())
    bump_map, graph = build_campaign_map(config)
    spec = SamplerSpec(n_faults=8, seed=5, kind_mix={"bridge": 1.0})
    faults = sample_faults(spec, bump_map, graph)
    assert all(isinstance(f, Bridge) for f in faults)
    assert all(graph.has_edge(f.a, f.b) for f in faults)


def test_sampler_same_block_restriction():
    config = parse_config(base_config_dict())
    bump_map, graph = build_campaign_map(config)
    spec = SamplerSpec(
        n_faults=8, seed=5, kind_mix={"bridge": 1.0}, include_inter_block=False
    )
    faults = sample_faults(spec, bump_map, graph)
    assert all(bump_map.blocks[f.a] == bump_map.blocks[f.b] for f in faults)


def test_sampler_rejects_more_bridges_than_edges():
    config = parse_config(base_config_dict())
    bump_map, graph = build_campaign_map(config)
    spec = SamplerSpec(n_faults=graph.edge_count + 1, seed=1, kind_mix={"bridge": 1.0})
    with pytest.raises(ParameterError):
        sample_faults(spec, bump_map, graph)


@pytest.mark.parametrize("include_inter_block", [True, False])
@pytest.mark.parametrize("rows,cols", [(16, 16), (33, 17)])
@pytest.mark.parametrize("kind", list(LatticeKind), ids=lambda k: k.value)
def test_sampling_from_the_lattice_graph_is_unchanged(kind, rows, cols, include_inter_block):
    # random.sample reads the lattice graph's sorted_edges through len and
    # indexing, or, for 250 bridges from fewer than 1045 edges (rect 16x16),
    # through a copy of it; the same seed must draw the same faults as from
    # the materialized edge tuple.  Without inter-block edges the sampler
    # iterates every edge.
    bump_map, graph = build_campaign_map(CampaignConfig(MapSpec(kind, rows, cols, 20.0), 4))
    reference = AdjacencyGraph(tuple(graph.sorted_edges))
    for seed in range(50):
        for n_faults in (40, 500) if include_inter_block else (40,):
            spec = SamplerSpec(n_faults, seed, include_inter_block=include_inter_block)
            expected = sample_faults(spec, bump_map, reference)
            assert sample_faults(spec, bump_map, graph) == expected, (seed, n_faults)


def test_a_large_radius_factor_fails_before_building_the_pairs():
    # At 10 pitches an interior hex bump has 366 partners: hex 64x64 holds
    # 644,062 pairs, and building them all took about 84 MB (traced) before
    # the coloring failed.  Greedy's first bump that needs a 5th color ends
    # the run instead, found from its neighbours: no row's edges are built.
    for factor, bound in ((10.0, 5 * 2**20), (10.3, 2 * 2**20)):
        config = CampaignConfig(MapSpec(LatticeKind.HEXAGONAL, 64, 64, 20.0, factor), 8)
        tracemalloc.start()
        try:
            with pytest.raises(ColoringError):
                build_campaign_map(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (factor, peak)


def run_explicit_campaign(faults):
    config = CampaignConfig(
        map_spec=MapSpec(LatticeKind.HEXAGONAL, 6, 8, 20.0),
        block_count=2,
        faults=tuple(faults),
    )
    return run_campaign(config)


def test_campaign_with_explicit_faults():
    report = run_explicit_campaign([StuckAt(0, 0), StuckAt(10, 1)])
    assert report["metrics"]["injected"] == 2
    assert report["metrics"]["detected"] == 2
    assert report["metrics"]["detection_rate"] == 1.0
    assert report["metrics"]["escapes"] == []
    assert all(r["diagnosis_hit"] for r in report["fault_results"])
    assert report["diagnosability"]["numerator"] == 87
    assert report["diagnosability"]["denominator"] == 91


def test_campaign_empty_fault_list_reports_na():
    report = run_explicit_campaign([])
    assert report["metrics"]["injected"] == 0
    assert report["metrics"]["detection_rate"] is None
    assert report["fault_results"] == []


def test_campaign_rejects_out_of_map_faults():
    with pytest.raises(ParameterError):
        run_explicit_campaign([StuckAt(4800, 0)])


def test_campaign_report_is_byte_deterministic():
    config = parse_config(base_config_dict())
    assert canonical_json(run_campaign(config)) == canonical_json(run_campaign(config))


def test_rediagnose_reproduces_original_diagnosis():
    config = parse_config(base_config_dict(sampler={"n_faults": 12, "seed": 21}))
    report = run_campaign(config)
    rerun = rediagnose_report(json.loads(canonical_json(report)))
    original = [r["diagnosis"] for r in report["fault_results"]]
    assert canonical_json(rerun["diagnoses"]) == canonical_json(original)


def test_inter_block_wired_and_detected_and_diagnosed_as_grounding():
    config = parse_config(base_config_dict())
    bump_map, graph = build_campaign_map(config)
    cross = next(
        e for e in sorted(graph.edges) if bump_map.blocks[e[0]] != bump_map.blocks[e[1]]
    )
    report = run_explicit_campaign([Bridge(*cross, BridgeBehavior.WIRED_AND)])
    (result,) = report["fault_results"]
    assert result["detected"] is True
    assert result["inter_block"] is True
    failing_bumps = {f["bump"] for f in result["failing"]}
    assert failing_bumps == set(cross)  # each endpoint fails in its own block


def test_inter_block_wired_or_escapes():
    config = parse_config(base_config_dict())
    bump_map, graph = build_campaign_map(config)
    cross = next(
        e for e in sorted(graph.edges) if bump_map.blocks[e[0]] != bump_map.blocks[e[1]]
    )
    report = run_explicit_campaign([Bridge(*cross, BridgeBehavior.WIRED_OR)])
    (result,) = report["fault_results"]
    assert result["detected"] is False
    metrics = report["metrics"]["inter_block_wired_or"]
    assert metrics == {"injected": 1, "escaped": 1, "escape_rate": 1.0}
    assert report["metrics"]["escapes"] == [result["fault"]]


# Text built to trip a hand-written writer: brackets, commas and quotes that
# look like structure, escapes, control characters and non-ASCII text.
json_text = st.text(
    st.sampled_from('[],"\\\n\t\x00\x1f\x7f :aé€😀\u2028'), max_size=6
) | st.text(max_size=4)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(10**30), math.nan, math.inf, -math.inf, -0.0, 1e-320])
    | st.floats()
    | json_text
)
# Keys of one kind per dict, so that most dicts sort.  Both writers must
# raise TypeError on str mixed with numbers (unsortable) and on tuple keys.
key_kinds = st.sampled_from(
    [
        json_text,
        st.integers() | st.booleans() | st.floats(),
        st.none(),
        json_text | st.integers(),
        st.tuples(st.integers()),
    ]
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(st.lists(json_scalars, max_size=3), max_size=4)
    | st.lists(st.lists(json_scalars, min_size=1, max_size=3).map(tuple), max_size=4)
    | key_kinds.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
    max_leaves=12,
)


def _text_or_error(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(value=json_trees)
def test_canonical_json_equals_json_dumps(value):
    got = _text_or_error(canonical_json, value)
    want = _text_or_error(
        lambda v: json.dumps(v, sort_keys=True, indent=2, ensure_ascii=False) + "\n", value
    )
    assert got == want


# The same comparison for runs of LONG_RUN to LONG_RUN + 8 items, longer
# than the lists json_trees makes: runs of one exact scalar type, which the
# writer joins in one call; mixed runs and runs of scalar lists, written item
# by item; and subclass scalars, non-str keys and unknown objects, each of
# which the writer hands to json.dumps alone.  The strings look like the brackets,
# separators and indents of the text around them.
LONG_RUN = 16
structural_text = json_text | st.sampled_from(
    ["],\n      [", "],\n    [", "]\0[", "\0", "]", "[", "],", '"', '"],["', "[]", "{}", "\\"]
)
long_scalars = json_scalars | structural_text
scalar_lists = st.lists(long_scalars, min_size=1, max_size=3)
long_runs = (
    st.lists(long_scalars, min_size=LONG_RUN, max_size=LONG_RUN + 8)
    | st.lists(scalar_lists | scalar_lists.map(tuple), min_size=LONG_RUN, max_size=LONG_RUN + 8)
    | st.lists(
        long_scalars
        | scalar_lists
        | st.lists(long_scalars, max_size=0)
        | st.lists(scalar_lists | st.lists(long_scalars, max_size=0), min_size=1, max_size=2),
        min_size=LONG_RUN,
        max_size=LONG_RUN + 8,
    )
    # A long run of scalar lists with one other item: a scalar, an empty or
    # nested list, or a dict.
    | st.builds(
        lambda run, odd, at: run[:at] + [odd] + run[at:],
        st.lists(scalar_lists, min_size=LONG_RUN, max_size=LONG_RUN + 8),
        st.sampled_from([7, "],\n      [", [], (), [[]], [1, [2]], ([3, 4],), {}, {"a": 5}]),
        st.integers(0, LONG_RUN),
    )
    | st.sampled_from([structural_text, st.integers(), st.integers() | st.floats()]).flatmap(
        lambda keys: st.dictionaries(
            keys, long_scalars, min_size=LONG_RUN, max_size=LONG_RUN + 8
        )
    )
)
# At the top, and nested one and two levels down, where the indent differs.
long_run_trees = (
    long_runs
    | st.dictionaries(structural_text, long_runs, min_size=1, max_size=2)
    | st.lists(st.lists(long_runs, min_size=1, max_size=2), min_size=1, max_size=2)
)


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


LONG_RUN_EXAMPLES = {
    # Runs of scalar pairs with one nested or empty item among them.
    "nested-then-scalar": [[1, [2]], 3] + [[i, i] for i in range(70)],
    "nested-inner": [[1, [2]]] + [[i, i] for i in range(70)],
    "nested-inner-dict": [[1, {"a": 2}]] + [[i, i] for i in range(70)],
    "empty-inner": [[i] for i in range(40)] + [[]],
    "empty-inner-tuple": [()] + [(i, i) for i in range(40)],
    "structural-strings": [["],\n      [", "],\n    [", "]\0[", "\0"] for _ in range(40)],
    "structural-string-scalars": ["],\n      [", "]\0[", "]", "[", '"'] * 10,
    "lists-and-tuples": [[i, str(i)] if i % 2 else (i, float(i)) for i in range(40)],
    "scalar-then-list": [1] * 40 + [[1]],
    "special-floats": [[True, None, 1.5, math.nan, -math.inf, math.inf, -0.0]] * 20,
    "subclasses": [_Int(7), _Float(0.5), _Str("s"), True] * 10,
    "subclass-pairs": [[_Int(i), _Float(i)] for i in range(40)],
    "long-dict": {f"k{i:02}": ["],\n  [", i, None, 0.25][i % 4] for i in range(40)},
    "long-int-key-dict": {i: i * i for i in range(-20, 20)},
    "long-unsortable-dict": {**{str(i): i for i in range(20)}, 1: 1},
    "long-dict-of-lists": {f"k{i:02}": [i, i] for i in range(40)},
    "long-run-in-dict": {"a": {"b": list(range(40)), "c": [[i, -i] for i in range(40)]}},
    "bad-type-in-run": list(range(40)) + [object()],
    "bad-type-in-pairs": [[i, i] for i in range(40)] + [[object()]],
}


def _assert_equals_json_dumps(value):
    got = _text_or_error(canonical_json, value)
    want = _text_or_error(
        lambda v: json.dumps(v, sort_keys=True, indent=2, ensure_ascii=False) + "\n", value
    )
    assert got == want


@pytest.mark.parametrize("value", LONG_RUN_EXAMPLES.values(), ids=LONG_RUN_EXAMPLES)
def test_canonical_json_long_run_examples(value):
    _assert_equals_json_dumps(value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=long_run_trees)
def test_canonical_json_long_runs_equal_json_dumps(value):
    _assert_equals_json_dumps(value)
