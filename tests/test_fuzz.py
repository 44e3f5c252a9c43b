"""Property-based fuzzing of the JSON and CSV input boundaries.

Mutated config and report objects, and fuzzed sample CSV files, may only be
rejected with ParameterError; fuzzed config and report files may only make
the CLI exit 0, 1 or 2, with a one-line message and no output file on 1 or 2.
Byte-level fuzzing mostly breaks the JSON itself; value-level fuzzing keeps
the document and changes one value in it, so most of its inputs parse and
many run to the end, through the fault and map checks and the streamed output.
Map sides stay at most 12, so no example builds a large map; larger sides
are drawn only beyond the bump cap, where the lattice is rejected before
anything is allocated.  Examples are derandomized so the suite is
reproducible.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from chipletbist.campaign import parse_config, rediagnose_report, run_campaign
from chipletbist.canonical import canonical_json
from chipletbist.cli import main
from chipletbist.curves import load_samples_csv
from chipletbist.errors import ColoringError, ParameterError

SAMPLER_CONFIG = {
    "version": 1,
    "map": {"kind": "hexagonal", "rows": 6, "cols": 8, "pitch_um": 20.0},
    "block_count": 2,
    "sampler": {"n_faults": 12, "seed": 11},
}
FAULTS_CONFIG = {
    "version": 1,
    "map": {
        "kind": "rectangular", "rows": 5, "cols": 6, "pitch_um": 7.5, "short_radius_factor": 1.5
    },
    "block_count": 3,
    "faults": [
        {"kind": "sa0", "net": 3},
        {"kind": "sa1", "net": 17},
        {"kind": "bridge", "a": 4, "b": 5, "behavior": "wired-and"},
        {"kind": "bridge", "a": 1, "b": 2, "behavior": "wired-or"},
    ],
}
CONFIGS = [SAMPLER_CONFIG, FAULTS_CONFIG]
REPORTS = [json.loads(canonical_json(run_campaign(parse_config(c)))) for c in CONFIGS]

FUZZ = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.just(2**64)  # past the bump cap as a side, past float range times a weight
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["hexagonal", "rectangular", "sa0", "sa1", "bridge", "wired-and"])
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _mutate(draw, node):
    """Replace, delete, insert or descend at a randomly chosen child of ``node``."""
    if not isinstance(node, (dict, list)) or not node:
        return draw(json_values)
    keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    key = draw(st.sampled_from(keys))
    op = draw(st.sampled_from(["descend", "descend", "replace", "delete", "insert"]))
    if op == "descend":
        node[key] = _mutate(draw, node[key])
    elif op == "replace":
        node[key] = draw(json_values)
    elif op == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[draw(st.text(max_size=6))] = draw(json_values)
    else:
        node.insert(key, draw(json_values))
    return node


@st.composite
def mutated(draw, bases):
    obj = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        obj = _mutate(draw, obj)
    return obj


@settings(FUZZ, max_examples=300)
@given(mutated(CONFIGS))
def test_parse_config_raises_only_parameter_error(data):
    try:
        parse_config(data)
    except ParameterError:
        pass


@settings(FUZZ, max_examples=150)
@given(mutated(REPORTS))
def test_rediagnose_report_raises_only_parameter_error(report):
    try:
        rediagnose_report(report)
    except ParameterError:
        pass
    except ColoringError:
        pass  # an uncolorable map is a simulation error (exit 2), as in `simulate`


TOKENS = [b'"', b"[", b"{", b"}", b",", b"\xff", b"-", b"1e400", b"NaN", b"Infinity", b"9", b"\\u"]


def _map_sides_at_most_12(blob: bytes) -> bool:
    try:
        obj = json.loads(blob)
    except (ValueError, RecursionError):
        return True
    if isinstance(obj, dict) and isinstance(obj.get("config"), dict):
        obj = obj["config"]
    spec = obj.get("map") if isinstance(obj, dict) else None
    if not isinstance(spec, dict):
        return True
    return all(
        not isinstance(spec.get(side), int) or spec[side] <= 12 or spec[side] > 2**40
        for side in ("rows", "cols")
    )


@st.composite
def fuzzed_bytes(draw, bases):
    blob = bytearray(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob)))
        op = draw(st.sampled_from(["insert", "overwrite", "delete", "truncate"]))
        chunk = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=3))
        if op == "insert":
            blob[pos:pos] = chunk
        elif op == "overwrite":
            blob[pos : pos + len(chunk)] = chunk
        elif op == "delete":
            del blob[pos : pos + draw(st.integers(1, 8))]
        else:
            del blob[pos:]
    data = bytes(blob)
    assume(_map_sides_at_most_12(data))
    return data


def _run_cli_on_file(tmp_path_factory, argv_prefix, data: bytes) -> int:
    """Run the CLI on ``data`` with ``--out``; a failure leaves one stderr
    line and no ``--out`` file, a success no stderr and a JSON ``--out``."""
    work = tmp_path_factory.mktemp("fuzz")
    path, out = work / "input", work / "out"
    path.write_bytes(data)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main([*argv_prefix, str(path), "--out", str(out)])
    errors = stderr.getvalue()
    assert "Traceback" not in errors, errors
    if status == 0:
        assert errors == ""
        json.loads(out.read_bytes())
    else:
        assert errors.startswith(("error: ", "simulation error: ")), errors
        assert errors.count("\n") == 1 and errors.endswith("\n"), errors
        assert not out.exists()
    return status


CONFIG_BYTES = [json.dumps(c).encode("utf-8") for c in CONFIGS]
REPORT_BYTES = [canonical_json(r).encode("utf-8") for r in REPORTS]


@settings(FUZZ, max_examples=150)
@given(data=fuzzed_bytes(CONFIG_BYTES))
def test_simulate_on_fuzzed_config_exits_0_1_or_2(tmp_path_factory, data):
    assert _run_cli_on_file(tmp_path_factory, ["simulate", "--config"], data) in (0, 1, 2)


@settings(FUZZ, max_examples=150)
@given(data=fuzzed_bytes(REPORT_BYTES))
def test_diagnose_on_fuzzed_report_exits_0_1_or_2(tmp_path_factory, data):
    assert _run_cli_on_file(tmp_path_factory, ["diagnose", "--report"], data) in (0, 1, 2)


def _leaf_paths(node, path=()):
    """The path of every scalar inside ``node``, in document order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaf_paths(node[key], (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, (*path, i))
    else:
        yield path


WORDS = ["hexagonal", "rectangular", "sa0", "sa1", "bridge", "wired-and", "wired-or", "x"]


def _near(draw, value):
    """A value of ``value``'s own kind near it: an int within 1, a float within 2x."""
    if isinstance(value, bool):
        return draw(st.booleans())
    if isinstance(value, int):
        return draw(st.integers(value - 1, value + 1))
    if isinstance(value, float):
        return value * draw(st.floats(0.5, 2.0))
    if isinstance(value, str):
        return draw(st.sampled_from(WORDS))
    return draw(json_leaves)


def _in_report_input(path) -> bool:
    # The config, the map summary and the failing lists are what `diagnose` reads.
    return path[0] in ("config", "map") or "failing" in path


@st.composite
def revalued_bytes(draw, bases, where=lambda path: True):
    """A base document, one of whose scalars ``where`` selects changed, serialized again."""
    obj = copy.deepcopy(draw(st.sampled_from(bases)))
    *parents, key = draw(st.sampled_from([p for p in _leaf_paths(obj) if where(p)]))
    node = obj
    for step in parents:
        node = node[step]
    # One change in four is any JSON scalar; the rest stay near the old value.
    node[key] = draw(json_leaves) if draw(st.integers(0, 3)) == 0 else _near(draw, node[key])
    data = json.dumps(obj).encode("utf-8")
    assume(_map_sides_at_most_12(data))
    return data


@settings(FUZZ, max_examples=150)
@given(data=revalued_bytes(CONFIGS))
def test_simulate_on_revalued_config_exits_0_1_or_2(tmp_path_factory, data):
    assert _run_cli_on_file(tmp_path_factory, ["simulate", "--config"], data) in (0, 1, 2)


@settings(FUZZ, max_examples=150)
@given(data=revalued_bytes(REPORTS, _in_report_input))
def test_diagnose_on_revalued_report_exits_0_1_or_2(tmp_path_factory, data):
    assert _run_cli_on_file(tmp_path_factory, ["diagnose", "--report"], data) in (0, 1, 2)


SAMPLES_CSV = Path(__file__).resolve().parents[1] / "configs" / "synthetic_bridge_severity.csv"


@settings(FUZZ, max_examples=100)
@given(data=fuzzed_bytes([SAMPLES_CSV.read_bytes()]))
def test_load_samples_csv_raises_only_parameter_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "samples.csv"
    path.write_bytes(data)
    try:
        load_samples_csv(path)
    except ParameterError:
        pass
