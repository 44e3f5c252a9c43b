"""Tests for the command-line interface."""

import collections
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import chipletbist
from chipletbist.bumpmap import LatticeKind
from chipletbist.campaign import CampaignConfig, MapSpec, build_campaign_map
from chipletbist.canonical import canonical_json
from chipletbist.cli import _color_texts, _flat_rows, main
from chipletbist.errors import KitError, SimulationError


REPO = Path(__file__).resolve().parents[1]
SRC = Path(chipletbist.__file__).resolve().parents[1]
# A child interpreter finds the package this test process imported.
SUBPROCESS_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


CONFIG = {
    "version": 1,
    "map": {"kind": "hexagonal", "rows": 6, "cols": 8, "pitch_um": 20.0},
    "block_count": 2,
    "sampler": {"n_faults": 12, "seed": 11},
}


def test_unknown_subcommand_exits_1(capsys):
    status, _, err = run_cli(capsys, "frobnicate")
    assert status == 1
    assert "usage" in err.lower()


def test_missing_required_flag_exits_1(capsys):
    status, _, err = run_cli(capsys, "simulate")
    assert status == 1
    assert "usage" in err.lower()


def test_dictionary_text_output(capsys):
    status, out, _ = run_cli(capsys, "dictionary")
    assert status == 0
    assert "87/91" in out
    assert "0.95604" in out
    assert "ambiguous pairs: 4" in out


def test_dictionary_json_output(capsys):
    status, out, _ = run_cli(capsys, "dictionary", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["diagnosability"]["numerator"] == 87
    assert payload["diagnosability"]["denominator"] == 91
    assert len(payload["ambiguous_pairs"]) == 4
    assert len(payload["entries"]) == 14


def test_dictionary_csv_output(capsys):
    status, out, _ = run_cli(capsys, "dictionary", "--format", "csv")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "fault,behavior,green,blue,red,black"
    assert len(lines) == 1 + 8 + 12  # 8 stuck-at rows, 6 bridges x 2 behaviors


def test_classify_signal_short(capsys):
    status, out, _ = run_cli(capsys, "classify", "--scenario", "signal-short", "--r-ohm", "150")
    assert status == 0
    assert out.strip() == "wired-and"


def test_classify_boundary_is_no_hard_fault(capsys):
    status, out, _ = run_cli(capsys, "classify", "--scenario", "signal-short", "--r-ohm", "250")
    assert status == 0
    assert out.strip() == "no-hard-fault"


def test_classify_requires_exactly_one_magnitude(capsys):
    status, _, err = run_cli(capsys, "classify", "--scenario", "signal-short")
    assert status == 1
    status, _, err = run_cli(
        capsys, "classify", "--scenario", "signal-short", "--r-ohm", "1", "--c-farad", "1e-15"
    )
    assert status == 1


def test_classify_mismatched_kind_exits_1(capsys):
    status, _, err = run_cli(capsys, "classify", "--scenario", "vdd-open", "--r-ohm", "100")
    assert status == 1
    assert "error" in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            ("--scenario", "short-to-vdd", "--r-ohm", "inf"),
            "fault resistance must be positive and finite, got inf",
        ),
        (
            ("--scenario", "vdd-open", "--c-farad", "inf"),
            "fault capacitance must be positive and finite, got inf",
        ),
    ],
    ids=["r-inf", "c-inf"],
)
def test_classify_infinite_magnitude_exits_1(capsys, flags, message):
    status, out, err = run_cli(capsys, "classify", *flags)
    assert status == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_netlist_nominal_pillar(capsys):
    status, out, _ = run_cli(capsys, "netlist", "--component", "cu-pillar")
    assert status == 0
    assert out == "* \nR1 in out 1.110000e-3\nC1 out gnd 3.210000e-15\n.END\n"


def test_netlist_damaged_rdl_to_file(tmp_path, capsys):
    out_path = tmp_path / "deck.sp"
    status, _, _ = run_cli(
        capsys,
        "netlist",
        "--component",
        "rdl",
        "--defect",
        "damaged-rdl",
        "--rf-ohm",
        "0.05",
        "--length-um",
        "10",
        "--title",
        "damaged rdl",
        "--out",
        str(out_path),
    )
    assert status == 0
    assert out_path.read_text(encoding="utf-8") == (
        "* damaged rdl\nR1 in m1 4.310000e-2\nR2 m1 out 5.000000e-2\n"
        "C1 out gnd 1.204000e-15\n.END"
    )


def test_netlist_title_with_a_line_break_exits_1(tmp_path, capsys):
    out_path = tmp_path / "deck.sp"
    status, out, err = run_cli(
        capsys, "netlist", "--component", "rdl", "--length-um", "5",
        "--title", "a\nR9 in gnd 1", "--out", str(out_path),
    )
    assert status == 1
    assert out == ""
    assert err == "error: netlist title must be one line, got 'a\\nR9 in gnd 1'\n"
    assert not out_path.exists()


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_netlist_title_not_utf8_exits_1(tmp_path, to_file):
    # A title with a byte that is not UTF-8 arrives as a lone surrogate.
    out_path = tmp_path / "deck.sp"
    argv = [sys.executable, "-m", "chipletbist.cli", "netlist", "--component", "rdl"]
    argv += ["--length-um", "5", "--title", b"a\xffb"]
    argv += ["--out", str(out_path)] if to_file else []
    proc = subprocess.run(argv, capture_output=True, env=SUBPROCESS_ENV, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1, proc.stderr
    assert not out_path.exists()


def test_netlist_full_break_rejects_rf(capsys):
    status, _, err = run_cli(
        capsys,
        "netlist",
        "--component",
        "cu-pillar",
        "--defect",
        "full-break",
        "--rf-ohm",
        "1",
        "--cf-farad",
        "5e-16",
    )
    assert status == 1


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            ("--component", "cu-pillar", "--defect", "none", "--rf-ohm", "5"),
            "a defect-free component takes no R_f",
        ),
        (
            (
                "--component", "cu-pillar", "--defect", "bridge",
                "--rf-ohm", "5", "--cf-farad", "1e-15",
            ),
            "pillar-bridge takes no C_f",
        ),
        (
            ("--component", "cu-pillar", "--length-um", "500"),
            "--length-um applies to --component rdl only (fixed pillar geometry)",
        ),
    ],
    ids=["rf-without-defect", "cf-on-bridge", "pillar-length"],
)
def test_netlist_value_the_topology_ignores_exits_1(capsys, flags, message):
    status, out, err = run_cli(capsys, "netlist", *flags)
    assert status == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_netlist_missing_magnitude_exits_1(capsys):
    status, _, err = run_cli(capsys, "netlist", "--component", "cu-pillar", "--defect", "bridge")
    assert status == 1
    assert "error" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--component", "rdl", "--defect", "damaged-rdl", "--length-um", "5", "--rf-ohm", "inf"),
        ("--component", "cu-pillar", "--defect", "capacitive-misalignment", "--cf-farad", "inf"),
        ("--component", "rdl", "--length-um", "inf"),
        ("--component", "rdl", "--length-um", "5e-324"),
        (
            "--component",
            "cu-pillar",
            "--defect",
            "resistive-misalignment",
            "--rf-ohm",
            "1e308",
            "--contact-ohm",
            "1e308",
        ),
    ],
    ids=["rf-inf", "cf-inf", "length-inf", "length-underflows", "sum-overflows"],
)
def test_netlist_non_finite_value_exits_1(capsys, flags):
    status, out, err = run_cli(capsys, "netlist", *flags)
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err
    if flags[-2] == "--length-um":
        assert "length" in err and flags[-1] in err


def test_netlist_subnormal_value(capsys):
    status, out, _ = run_cli(
        capsys,
        "netlist",
        "--component",
        "cu-pillar",
        "--defect",
        "crack",
        "--rf-ohm",
        "5e-324",
        "--cf-farad",
        "1e-15",
    )
    assert status == 0
    assert "\nR2 m1 m2 4.940656e-324\n" in out


def test_netlist_value_is_rounded_from_the_stored_double(capsys):
    # 12.345675 is stored as 12.3456749999..., which rounds down.
    status, out, _ = run_cli(
        capsys, "netlist", "--component", "cu-pillar", "--defect", "capacitive-misalignment",
        "--cf-farad", "12.345675",
    )
    assert status == 0
    assert "\nC1 m1 out 1.234567e1\n" in out


@pytest.mark.parametrize("encoding", ["utf-8", "latin-1", "ascii"])
@pytest.mark.parametrize(
    "argv",
    [
        ("netlist", "--component", "cu-pillar", "--title", "é"),
        ("dictionary", "--format", "json"),
        # Its edges and positions go out as 128 pieces each, one per lattice row.
        ("gen-map", "--kind", "hexagonal", "--rows", "128", "--cols", "128", "--pitch-um", "20",
         "--blocks", "16"),
        ("diagnose", "--report", "{report}"),
    ],
    ids=["netlist", "dictionary", "gen-map-hex128", "diagnose"],
)
def test_stdout_holds_the_out_bytes_under_any_encoding(tmp_path, stored_report, argv, encoding):
    out_path = tmp_path / "out"
    argv = [arg.format(report=stored_report) for arg in argv]
    command = [sys.executable, "-m", "chipletbist.cli", *argv]
    env = dict(SUBPROCESS_ENV, PYTHONIOENCODING=encoding)
    to_file = subprocess.run(
        [*command, "--out", str(out_path)], capture_output=True, env=env, timeout=60
    )
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    data = out_path.read_bytes()
    proc = subprocess.run(command, capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (data if data.endswith(b"\n") else data + b"\n")


def test_fit_from_csv(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    rows = ["x,y"] + [f"{x},{5.0 * 2.718281828459045 ** (0.5 * x)}" for x in range(4)]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "fit", "--csv", str(csv_path), "--family", "exponential")
    assert status == 0
    payload = json.loads(out)
    assert payload["family"] == "exponential"
    assert payload["coefficients"][0] == pytest.approx(5.0, rel=1e-6)
    assert payload["coefficients"][1] == pytest.approx(0.5, rel=1e-6)


def test_fit_underdetermined_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("x,y\n1,1\n2,2\n", encoding="utf-8")
    status, _, err = run_cli(
        capsys, "fit", "--csv", str(csv_path), "--family", "polynomial", "--degree", "3"
    )
    assert status == 1


# SHA-256 of the stdout bytes of `fit --csv configs/synthetic_bridge_severity.csv`.
# The polynomial fits use only IEEE-754 basic operations and math.fsum, so
# their bits are the same on every platform; the log-linear and exponential
# pins also rest on the C library's log and exp.  Only a polynomial fit takes
# --degree; the other families' keys keep "3" so the test ids stay stable.
FIT_OUTPUT_SHA256 = {
    ("log-linear", "3"): "1b50f3bbc810fb5028094e0a54b226c1f7d1e5787f4f9a7cbadd6af5338fc0b9",
    ("exponential", "3"): "87617114876572f2d2e5ae203aee05f1af100f69cfcb23ef9208f68630fae2b3",
    ("polynomial", "3"): "d8289117a3649465c00bd3e41372f72c345edab9012d95aea350974a3d933cee",
    ("polynomial", "1"): "3013759d2625413dd51f3137475bd187173edaaca02b099b04270564098fc770",
}


@pytest.mark.parametrize("family,degree", sorted(FIT_OUTPUT_SHA256))
def test_fit_shipped_samples_output_bytes(capsys, family, degree):
    csv_path = REPO / "configs" / "synthetic_bridge_severity.csv"
    degree_flag = ["--degree", degree] if family == "polynomial" else []
    status, out, _ = run_cli(
        capsys, "fit", "--csv", str(csv_path), "--family", family, *degree_flag
    )
    assert status == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == FIT_OUTPUT_SHA256[family, degree], out


def test_fit_polynomial_defaults_to_degree_3(capsys):
    csv_path = REPO / "configs" / "synthetic_bridge_severity.csv"
    status, out, _ = run_cli(capsys, "fit", "--csv", str(csv_path), "--family", "polynomial")
    assert status == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == FIT_OUTPUT_SHA256["polynomial", "3"]


def test_fit_polynomial_degree_0_is_a_constant(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("x,y\n1,5\n2,5\n3,5\n", encoding="utf-8")
    status, out, _ = run_cli(
        capsys, "fit", "--csv", str(csv_path), "--family", "polynomial", "--degree", "0"
    )
    assert status == 0
    assert json.loads(out)["coefficients"] == [5.0]


@pytest.mark.parametrize("family", ["log-linear", "exponential"])
def test_fit_degree_without_polynomial_exits_1(capsys, family):
    csv_path = REPO / "configs" / "synthetic_bridge_severity.csv"
    status, out, err = run_cli(
        capsys, "fit", "--csv", str(csv_path), "--family", family, "--degree", "3"
    )
    assert status == 1
    assert out == ""
    assert err == f"error: --degree applies to --family polynomial only, not {family}\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--pitch-um", "inf"),
        ("--pitch-um", "1e308"),
        ("--pitch-um", "20", "--radius-factor", "inf"),
    ],
    ids=["pitch-inf", "extent-overflows", "radius-inf"],
)
def test_gen_map_unbuildable_geometry_exits_1(capsys, flags):
    status, out, err = run_cli(
        capsys, "gen-map", "--kind", "hexagonal", "--rows", "16", "--cols", "16", *flags
    )
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_gen_map_writes_valid_payload(tmp_path, capsys):
    out_path = tmp_path / "map.json"
    status, _, _ = run_cli(
        capsys,
        "gen-map",
        "--kind",
        "hexagonal",
        "--rows",
        "6",
        "--cols",
        "6",
        "--pitch-um",
        "20",
        "--blocks",
        "2",
        "--out",
        str(out_path),
    )
    assert status == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(payload["positions"]) == 36
    assert len(payload["colors"]) == 36
    assert set(payload["blocks"]) == {0, 1}
    colors = payload["colors"]
    for a, b in payload["edges"]:
        assert colors[a] != colors[b]


def _materialized_map(bump_map, graph):
    """The gen-map payload as plain lists: the edges as listed pairs and the
    positions as stored."""
    lattice = bump_map.lattice
    return {
        "version": 1,
        "lattice": {
            "kind": lattice.kind.value,
            "rows": lattice.rows,
            "cols": lattice.cols,
            "pitch_um": lattice.pitch_um,
        },
        "short_radius_um": graph.short_radius_um,
        "positions": bump_map.positions,
        "colors": [c.value for c in bump_map.coloring],
        "blocks": bump_map.blocks,
        "block_count": bump_map.block_count,
        "edges": list(graph.sorted_edges),
    }


def _reference_map_document(kind, rows, cols, pitch, factor, blocks):
    """The gen-map document as canonical_json writes the plain payload."""
    spec = MapSpec(LatticeKind(kind), rows, cols, pitch, factor)
    return canonical_json(_materialized_map(*build_campaign_map(CampaignConfig(spec, blocks))))


@pytest.mark.parametrize("pitch", [20, 7.3, 3, 0.1, 1e-3])
@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 17), (17, 1), (2, 2), (7, 9), (33, 17)])
@pytest.mark.parametrize("kind", ["hexagonal", "rectangular"])
def test_gen_map_equals_the_listed_payload(capsys, kind, rows, cols, pitch):
    for factor in (1.0, 1.9, 2.0, 2.5):
        for blocks in range(1, min(cols, 4) + 1):
            try:
                want = _reference_map_document(kind, rows, cols, float(pitch), factor, blocks)
            except KitError as exc:
                want = f"{type(exc).__name__}: {exc}"
            status, out, err = run_cli(
                capsys, "gen-map", "--kind", kind, "--rows", str(rows), "--cols", str(cols),
                "--pitch-um", str(pitch), "--radius-factor", str(factor), "--blocks", str(blocks),
            )
            case = (factor, blocks)
            if want.startswith("ColoringError: "):
                assert (status, out) == (2, ""), case
                assert want.removeprefix("ColoringError: ") in err, case
            else:
                assert (status, err) == (0, ""), case
                assert out == want, case


@pytest.mark.parametrize(
    "kind, rows, cols, factor, pitch",
    [
        (kind, rows, cols, factor, pitch)
        for kind, (rows, cols), factor, pitch in itertools.chain(
            itertools.product(
                ["hexagonal", "rectangular"], [(1, 40), (40, 1), (3, 3), (7, 9)],
                [1.0, 1.9, 2.0], [20, 7.3],
            ),
            # Rings that reach 3 rows down, so the edge writer's id window
            # holds 4 rows and shifts by one.
            itertools.product(["hexagonal", "rectangular"], [(40, 1)], [3.0, math.sqrt(12)], [20]),
        )
    ],
)
def test_gen_map_builds_the_campaign_map(capsys, kind, rows, cols, factor, pitch):
    # gen-map composes the map steps itself; it must agree with
    # build_campaign_map, in the map or in the one error line and exit code.
    for blocks in (1, 3, cols + 1):
        spec = MapSpec(LatticeKind(kind), rows, cols, float(pitch), factor)
        try:
            bump_map, graph = build_campaign_map(CampaignConfig(spec, blocks))
        except SimulationError as exc:
            want = (2, f"simulation error: {exc}\n")
        except KitError as exc:
            want = (1, f"error: {exc}\n")
        else:
            want = (0, "")
        status, out, err = run_cli(
            capsys, "gen-map", "--kind", kind, "--rows", str(rows), "--cols", str(cols),
            "--pitch-um", str(pitch), "--radius-factor", str(factor), "--blocks", str(blocks),
        )
        assert (status, err) == want, blocks
        if status:
            assert out == "", blocks
            continue
        payload = json.loads(out)
        assert payload["colors"] == [c.value for c in bump_map.coloring], blocks
        assert payload["blocks"] == list(bump_map.blocks), blocks
        assert payload["edges"] == [list(edge) for edge in graph.sorted_edges], blocks
        assert payload["short_radius_um"] == graph.short_radius_um, blocks


@pytest.mark.parametrize("rows, cols", [(1, 40), (40, 1), (2, 2), (3, 3), (7, 9), (33, 17), (40, 2)])
@pytest.mark.parametrize("kind", ["hexagonal", "rectangular"])
def test_gen_map_streams_the_json_dumps_text(capsys, kind, rows, cols):
    # The row texts gen-map hands the writer spell what json.dumps writes of
    # the materialized map.  The sweep holds edgeless maps (factor 0.5),
    # rows with exactly one edge (Nx1 at 1.0) and color rows that repeat a
    # row further up than the one above (Nx1): each row equal to an earlier
    # row is written as that row's very text.  The maps gen-map refuses are
    # test_gen_map_builds_the_campaign_map's.
    edge_counts, reused_far = set(), False
    for factor, pitch, blocks in itertools.product(
        [0.5, 1.0, 1.9, 3.0, math.sqrt(12)], [20, 7.3], sorted({1, 3, cols})
    ):
        spec = MapSpec(LatticeKind(kind), rows, cols, float(pitch), factor)
        try:
            bump_map, graph = build_campaign_map(CampaignConfig(spec, blocks))
        except KitError:
            continue
        status, out, err = run_cli(
            capsys, "gen-map", "--kind", kind, "--rows", str(rows), "--cols", str(cols),
            "--pitch-um", str(pitch), "--radius-factor", repr(factor), "--blocks", str(blocks),
        )
        case = (factor, pitch, blocks)
        document = _materialized_map(bump_map, graph)
        want = json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert (status, err) == (0, ""), case
        assert out == want, case
        edge_counts.update(len(low) for _, low, _ in graph.sorted_edges.row_patterns())
        first = {}
        for r, text in enumerate(_flat_rows(bump_map.coloring, cols, _color_texts, "\n    ")):
            row = bump_map.coloring[r * cols : (r + 1) * cols]
            earlier, earlier_text = first.setdefault(row, (r, text))
            assert text is earlier_text, (case, r)
            reused_far |= r - earlier > 1
    assert 0 in edge_counts
    if cols == 1:
        assert 1 in edge_counts
        assert reused_far


def test_gen_map_holds_little_more_than_its_text(tmp_path):
    # The edges and positions are laid out from per-row texts, not from a
    # tuple and an encoding per item, and the text is written as it is laid
    # out: never held whole, nor beside its bytes.
    out_path = tmp_path / "map.json"
    argv = ["gen-map", "--kind", "hexagonal", "--rows", "128", "--cols", "128",
            "--pitch-um", "20", "--blocks", "16", "--out", str(out_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out_path.stat().st_size


def test_simulate_is_byte_identical_across_runs(tmp_path, capsys):
    config_path = write_config(tmp_path, CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run_cli(capsys, "simulate", "--config", config_path, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "simulate", "--config", config_path, "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_seed_override_changes_report(tmp_path, capsys):
    config_path = write_config(tmp_path, CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run_cli(capsys, "simulate", "--config", config_path, "--out", str(out_a))
    run_cli(capsys, "simulate", "--config", config_path, "--out", str(out_b), "--seed", "999")
    report_b = json.loads(out_b.read_text(encoding="utf-8"))
    assert report_b["config"]["sampler"]["seed"] == 999
    assert out_a.read_bytes() != out_b.read_bytes()


def test_simulate_seed_override_equals_the_seed_in_the_config(tmp_path, capsys):
    # Every sampler field off its default, and a default report path: the
    # override changes the seed alone, and the report lands on that path.
    report_path = tmp_path / "report.json"
    sampler = {
        "n_faults": 20,
        "seed": 11,
        "kind_mix": {"sa": 1.0, "bridge": 3.0},
        "behavior_mix": {"wired-and": 0.25, "wired-or": 2.0},
        "include_inter_block": False,
    }
    data = dict(CONFIG, sampler=sampler, output={"report": str(report_path)})

    def simulate(config, *argv):
        outcome = run_cli(capsys, "simulate", "--config", write_config(tmp_path, config), *argv)
        return outcome, report_path.read_bytes()

    overridden = simulate(data, "--seed", "17")
    assert overridden == simulate(dict(data, sampler=dict(sampler, seed=17)))
    (status, _, err), report = overridden
    assert (status, err) == (0, "")
    assert json.loads(report)["config"]["sampler"] == dict(sampler, seed=17)


def test_simulate_seed_override_of_a_fault_list_exits_1(tmp_path, capsys):
    data = dict(CONFIG, faults=[{"kind": "sa0", "net": 0}])
    del data["sampler"]
    out_path = tmp_path / "report.json"
    status, out, err = run_cli(
        capsys, "simulate", "--config", write_config(tmp_path, data), "--out", str(out_path),
        "--seed", "17",
    )
    assert (status, out) == (1, "")
    assert err == "error: --seed override requires a sampler-based config\n"
    assert not out_path.exists()


def test_simulate_seeds_s_and_minus_s_draw_the_same_faults(tmp_path, capsys):
    # random.Random seeds from the seed's magnitude (README, Determinism), so
    # the two reports differ only in the seed they echo.
    data = dict(CONFIG, map={"kind": "hexagonal", "rows": 32, "cols": 32, "pitch_um": 20.0},
                block_count=4, sampler={"n_faults": 600, "seed": 1})
    config_path = write_config(tmp_path, data)
    reports = []
    for seed in ("5", "-5"):
        out_path = tmp_path / f"report{seed}.json"
        argv = ["simulate", "--config", config_path, "--out", str(out_path), f"--seed={seed}"]
        status, _, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "")
        reports.append(json.loads(out_path.read_bytes()))
    plus, minus = reports
    seeds = plus["config"]["sampler"].pop("seed"), minus["config"]["sampler"].pop("seed")
    assert seeds == (5, -5)
    assert plus == minus  # fault_results and metrics included


def test_simulate_counts_the_block_sizes_once(tmp_path, capsys, monkeypatch):
    # The overhead's detector count and the report's map section share one count.
    import chipletbist.bumpmap as bumpmap

    calls = []

    def counting(*args):
        calls.append(args)
        return collections.Counter(*args)

    monkeypatch.setattr(bumpmap, "Counter", counting)
    config = str(REPO / "configs" / "campaign_16x16_hex.json")
    report = str(tmp_path / "report.json")
    status, _, err = run_cli(capsys, "simulate", "--config", config, "--out", report)
    assert (status, err, len(calls)) == (0, "", 1)


def test_simulate_csv_metrics(tmp_path, capsys):
    config_path = write_config(tmp_path, CONFIG)
    out_path = tmp_path / "report.json"
    status, out, _ = run_cli(
        capsys,
        "simulate",
        "--config",
        config_path,
        "--out",
        str(out_path),
        "--format",
        "csv",
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("injected,detected,")
    assert lines[1].split(",")[0] == "12"


def test_simulate_csv_without_report_path_exits_1(tmp_path, capsys):
    # Without a report path the report itself would go to stdout, leaving no
    # room for the CSV row the flag asks for.
    config_path = write_config(tmp_path, CONFIG)
    status, out, err = run_cli(capsys, "simulate", "--config", config_path, "--format", "csv")
    assert status == 1
    assert out == ""
    assert err == "error: --format csv needs --out or output.report in the config\n"


def test_simulate_csv_with_config_report_path(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    config_path = write_config(tmp_path, {**CONFIG, "output": {"report": str(report_path)}})
    status, out, _ = run_cli(capsys, "simulate", "--config", config_path, "--format", "csv")
    assert status == 0
    assert out.splitlines()[0] == "injected,detected,detection_rate,inter_block_wired_or_escape_rate"
    assert json.loads(report_path.read_text(encoding="utf-8"))["metrics"]["injected"] == 12


def test_simulate_empty_fault_list_reports_na(tmp_path, capsys):
    config = {k: v for k, v in CONFIG.items() if k != "sampler"}
    config["faults"] = []
    config_path = write_config(tmp_path, config)
    status, out, _ = run_cli(capsys, "simulate", "--config", config_path)
    assert status == 0
    report = json.loads(out)
    assert report["metrics"]["injected"] == 0
    assert report["metrics"]["detection_rate"] is None
    assert report["metrics"]["escaped"] == 0


def test_simulate_invalid_config_exits_1(tmp_path, capsys):
    config_path = write_config(tmp_path, {**CONFIG, "bogus": 1})
    status, _, err = run_cli(capsys, "simulate", "--config", config_path)
    assert status == 1
    assert "bogus" in err


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "config-path"])
@pytest.mark.parametrize("path", ["\ud800", "\udc80"], ids=["high", "low"])
def test_simulate_report_path_not_utf8_exits_1(tmp_path, capsys, monkeypatch, path, to_file):
    # A JSON escape of a lone surrogate: the report would echo the path.
    monkeypatch.chdir(tmp_path)
    config_path = write_config(tmp_path, {**CONFIG, "output": {"report": path}})
    argv = ["simulate", "--config", config_path] + (["--out", "report.json"] if to_file else [])
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (1, "")
    assert err == f"error: config.output.report: expected UTF-8 text, got {path!r}\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_no_failure_touches_an_existing_out_file(tmp_path, capsys):
    out_path = tmp_path / "out"
    out_path.write_bytes(b"kept\n")
    config_path = tmp_path / "config.json"
    config_path.write_text("{", encoding="utf-8")
    failing = [
        (2, ["gen-map", "--kind", "hexagonal", "--rows", "16", "--cols", "16", "--pitch-um", "20",
             "--radius-factor", "2.5"]),
        (1, ["simulate", "--config", str(config_path)]),
        # A title byte that is not UTF-8 arrives as a lone surrogate.
        (1, ["netlist", "--component", "rdl", "--length-um", "5", "--title", "a\udcffb"]),
    ]
    for status, argv in failing:
        got, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert (got, out) == (status, ""), argv
        assert err.count("\n") == 1, err
        assert out_path.read_bytes() == b"kept\n", argv


def test_json_to_stdout_leaves_stdout_open(tmp_path, monkeypatch):
    # Each document streams beneath stdout's text layer, after what that layer
    # holds; the stream over its buffer is detached, so no collection closes it.
    buffer = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(buffer, encoding="utf-8"))
    out_path = tmp_path / "dictionary.json"
    assert main(["dictionary", "--format", "json", "--out", str(out_path)]) == 0
    sys.stdout.write("head\n")
    for _ in range(2):
        assert main(["dictionary", "--format", "json"]) == 0
        gc.collect()
    sys.stdout.flush()
    assert buffer.getvalue() == b"head\n" + 2 * out_path.read_bytes()


def test_stdout_gets_the_out_bytes_under_an_ascii_encoding(tmp_path, capsys, monkeypatch):
    report_path = tmp_path / "report.json"
    config = str(REPO / "configs" / "campaign_16x16_hex.json")
    assert run_cli(capsys, "simulate", "--config", config, "--out", str(report_path))[0] == 0
    commands = [
        ["diagnose", "--report", str(report_path)],
        ["gen-map", "--kind", "hexagonal", "--rows", "8", "--cols", "8", "--pitch-um", "20",
         "--blocks", "2"],
        ["netlist", "--component", "rdl", "--length-um", "5", "--title", "\u00e9"],
    ]
    for argv in commands:
        out_path = tmp_path / "out"
        assert main([*argv, "--out", str(out_path)]) == 0, argv
        buffer = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(buffer, encoding="ascii"))
        assert main(argv) == 0, argv
        sys.stdout.flush()
        # The deck ends at ".END"; stdout adds its final newline.
        expected = out_path.read_bytes().removesuffix(b"\n") + b"\n"
        assert buffer.getvalue() == expected, argv


@pytest.mark.parametrize(
    "key,value",
    [("pitch_um", math.inf), ("pitch_um", 1e308), ("short_radius_factor", math.inf)],
    ids=["pitch-inf", "extent-overflows", "radius-inf"],
)
def test_simulate_unbuildable_geometry_exits_1(tmp_path, capsys, key, value):
    bad = json.loads(json.dumps(CONFIG))
    bad["map"][key] = value  # json.dumps writes inf as Infinity
    config_path = write_config(tmp_path, bad)
    report_path = tmp_path / "report.json"
    status, out, err = run_cli(
        capsys, "simulate", "--config", config_path, "--out", str(report_path)
    )
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not report_path.exists()


def test_simulate_uncolorable_radius_exits_2(tmp_path, capsys):
    bad = json.loads(json.dumps(CONFIG))
    bad["map"]["short_radius_factor"] = 2.5  # includes the 2*pitch ring: not 4-colorable
    config_path = write_config(tmp_path, bad)
    status, _, err = run_cli(capsys, "simulate", "--config", config_path)
    assert status == 2
    assert "coloring" in err


def test_diagnose_round_trip_is_byte_stable(tmp_path, capsys):
    config_path = write_config(tmp_path, CONFIG)
    report_path = tmp_path / "report.json"
    run_cli(capsys, "simulate", "--config", config_path, "--out", str(report_path))
    diag_a = tmp_path / "diag_a.json"
    diag_b = tmp_path / "diag_b.json"
    assert run_cli(capsys, "diagnose", "--report", str(report_path), "--out", str(diag_a))[0] == 0
    assert run_cli(capsys, "diagnose", "--report", str(report_path), "--out", str(diag_b))[0] == 0
    assert diag_a.read_bytes() == diag_b.read_bytes()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    rerun = json.loads(diag_a.read_text(encoding="utf-8"))
    assert rerun["diagnoses"] == [r["diagnosis"] for r in report["fault_results"]]


def _drop_failing(result):
    del result["failing"]


def _set_item(key, value):
    def edit(result):
        result["failing"][0][key] = value

    return edit


def _move_to_other_block(result):
    result["failing"][0]["block"] = 1 - result["failing"][0]["block"]


def _list_bump_twice(result):
    # An exact copy, so that only the repeated bump can be rejected.
    result["failing"].append(dict(result["failing"][0]))


@pytest.mark.parametrize(
    "edit",
    [
        _set_item("bump", 99999),
        _move_to_other_block,
        _set_item("block", 2),
        _set_item("response", [0, 0, 0]),
        _set_item("response", [0, 2]),
        _set_item("response", ["0", "0"]),
        _set_item("response", [1, 1]),
        _set_item("response", [0, 1]),
        _drop_failing,
        _list_bump_twice,
    ],
    ids=[
        "bump-outside-map",
        "bump-outside-block",
        "block-out-of-range",
        "response-three-bits",
        "response-not-binary",
        "response-not-ints",
        "response-passing",
        "response-impossible",
        "failing-missing",
        "bump-listed-twice",
    ],
)
def test_diagnose_rejects_malformed_failing_entry(tmp_path, capsys, edit):
    config_path = write_config(tmp_path, CONFIG)
    report_path = tmp_path / "report.json"
    assert run_cli(capsys, "simulate", "--config", config_path, "--out", str(report_path))[0] == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    edit(next(r for r in report["fault_results"] if r["failing"]))
    report_path.write_text(json.dumps(report), encoding="utf-8")
    status, out, err = run_cli(capsys, "diagnose", "--report", str(report_path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: report.fault_results[") and err.count("\n") == 1


def _set_config_radius(report):
    report["config"]["map"]["short_radius_factor"] = 1.5  # drops the sqrt(3) ring


def _add_bump(report):
    report["map"]["bumps"] += 1


def _shift_block_sizes(report):
    report["map"]["block_sizes"] = [24 + 1, 24 - 1]


@pytest.mark.parametrize(
    "edit",
    [_set_config_radius, _add_bump, _shift_block_sizes],
    ids=["config-radius", "map-bumps", "map-block-sizes"],
)
def test_diagnose_rejects_report_whose_map_its_config_does_not_build(tmp_path, capsys, edit):
    config_path = write_config(tmp_path, CONFIG)
    report_path = tmp_path / "report.json"
    assert run_cli(capsys, "simulate", "--config", config_path, "--out", str(report_path))[0] == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["map"]["block_sizes"] == [24, 24]
    edit(report)
    report_path.write_text(json.dumps(report), encoding="utf-8")
    status, out, err = run_cli(capsys, "diagnose", "--report", str(report_path))
    assert status == 1
    assert out == ""
    assert err.startswith("error: report.map: ") and err.count("\n") == 1


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize("where", ["config", "report"])
def test_schema_version_must_be_the_json_integer_1(tmp_path, capsys, where, version):
    config = dict(CONFIG, version=version) if where == "config" else CONFIG
    argv = ("simulate", "--config", write_config(tmp_path, config))
    if where == "report":
        report_path = tmp_path / "report.json"
        assert run_cli(capsys, *argv, "--out", str(report_path))[0] == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.write_text(json.dumps(dict(report, version=version)), encoding="utf-8")
        argv = ("diagnose", "--report", str(report_path))
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (1, "")
    assert err == f"error: {where}.version: expected 1, got {version!r}\n"


def assert_one_line_error(status, out, err):
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


NOT_UTF8_JSON = b'\xff\xfe{"version": 1}'
OVER_NESTED_JSON = b"[" * 200000


def _rows_given_twice(tmp_path, capsys, command):
    """A valid input of ``command`` with config.map.rows given twice, first as 4:
    a reader that keeps the last value would run it and exit 0."""
    path = Path(write_config(tmp_path, CONFIG))
    if command == "diagnose":
        config_path, path = path, tmp_path / "report.json"
        assert run_cli(capsys, "simulate", "--config", str(config_path), "--out", str(path))[0] == 0
    text = path.read_text(encoding="utf-8")
    assert text.count('"rows": 6') == 1
    return text.replace('"rows": 6', '"rows": 4, "rows": 6').encode()


@pytest.mark.parametrize(
    "make_input",
    [lambda *_: NOT_UTF8_JSON, lambda *_: OVER_NESTED_JSON, _rows_given_twice],
    ids=["not-utf8", "over-nested", "duplicate-key"],
)
@pytest.mark.parametrize("command,flag", [("simulate", "--config"), ("diagnose", "--report")])
def test_unreadable_json_input_exits_1(tmp_path, capsys, command, flag, make_input):
    path = tmp_path / "input.json"
    path.write_bytes(make_input(tmp_path, capsys, command))
    assert_one_line_error(*run_cli(capsys, command, flag, str(path)))


def test_fit_non_utf8_csv_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_bytes(b"x,y\n1,\xff\n")
    status, out, err = run_cli(capsys, "fit", "--csv", str(csv_path), "--family", "exponential")
    assert_one_line_error(status, out, err)
    assert str(csv_path) in err


@pytest.mark.parametrize(
    "text,line", [("x,{field}\n1,2\n", 1), ("x,y\n1,2\n3,{field}\n", 3)], ids=["header", "row"]
)
def test_fit_overlong_csv_field_exits_1(tmp_path, capsys, text, line):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text(text.format(field="1" * 131073), encoding="utf-8")
    status, out, err = run_cli(capsys, "fit", "--csv", str(csv_path), "--family", "exponential")
    assert_one_line_error(status, out, err)
    assert err == f"error: {csv_path}:{line}: field larger than field limit (131072)\n"


@pytest.mark.parametrize(
    "rows,family",
    [
        (["1,1e300", "2,1e200"], "exponential"),
        (["1e200,1", "2e200,2", "3e200,3", "4e200,5"], "polynomial"),
    ],
    ids=["exponential", "polynomial"],
)
def test_fit_overflowing_samples_exits_1(tmp_path, capsys, rows, family):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("\n".join(["x,y", *rows]) + "\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "fit", "--csv", str(csv_path), "--family", family)
    assert_one_line_error(status, out, err)
    assert err == "error: degenerate samples: fit produced non-finite coefficients\n"


def test_gen_map_oversized_lattice_exits_1(capsys):
    assert_one_line_error(
        *run_cli(
            capsys, "gen-map", "--kind", "hexagonal", "--rows", "513", "--cols", "512",
            "--pitch-um", "20",
        )
    )


def test_gen_map_far_radius_is_refused_in_256_mib(tmp_path):
    # At factor 600 most of the map lies within the radius of each bump.
    # Greedy needs a 5th color at the fifth bump, and the graph's runs
    # grow with the rows the radius spans, not with the pairs within it.
    pytest.importorskip("resource")
    out_path = tmp_path / "map.json"
    argv = ["gen-map", "--kind", "hexagonal", "--rows", "512", "--cols", "512",
            "--pitch-um", "20", "--radius-factor", "600", "--out", str(out_path)]
    code = (
        "import resource, sys\n"
        "cap = 256 << 20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from chipletbist.cli import main\n"
        f"sys.exit(main({argv!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=SUBPROCESS_ENV, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, b""), proc.stderr
    assert proc.stderr == b"simulation error: coloring failed: greedy needs a 5th color\n"
    assert not out_path.exists()


def test_running_out_of_memory_exits_1_in_one_line(capsys, monkeypatch):
    # Any command can exhaust memory; it prints one line, not a traceback.
    import chipletbist.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_fault_dictionary", exhausted)
    status, out, err = run_cli(capsys, "dictionary")
    assert_one_line_error(status, out, err)
    assert err == "error: out of memory\n"


@pytest.mark.parametrize(
    "sampler",
    [
        {"kind_mix": {"sa": math.nan, "bridge": 1}},
        {"kind_mix": {"sa": math.inf, "bridge": math.inf}},
        {"kind_mix": {"sa": 1e308, "bridge": 1e308}},
        {"behavior_mix": {"wired-and": math.inf, "wired-or": 1}},
        {"kind_mix": {"sa": 1, "bridge": 1e308}},
        {"n_faults": 10**400},
    ],
    ids=["weight-nan", "weights-inf", "weights-sum-overflows", "behavior-inf",
         "split-overflows", "n-faults-past-float"],
)
def test_simulate_unsplittable_sampler_exits_1(tmp_path, capsys, sampler):
    bad = json.loads(json.dumps(CONFIG))
    bad["sampler"].update(sampler)
    config_path = write_config(tmp_path, bad)  # json.dumps writes inf/nan as Infinity/NaN
    assert_one_line_error(*run_cli(capsys, "simulate", "--config", config_path))


def test_python_m_cli_runs_dictionary():
    proc = subprocess.run(
        [sys.executable, "-m", "chipletbist.cli", "dictionary"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "87/91" in proc.stdout


def modules_after(code: str, cwd: Path = REPO) -> set[str]:
    """The modules loaded after ``code`` runs in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=SUBPROCESS_ENV,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def main_exits_0(*argv) -> str:
    return f"from chipletbist.cli import main\nassert main({list(argv)!r}) == 0"


def test_cli_import_loads_neither_numpy_nor_scipy(tmp_path):
    csv_path = str(REPO / "configs" / "synthetic_bridge_severity.csv")
    fits = "\n".join(
        main_exits_0("fit", "--csv", csv_path, "--family", family, "--out", str(tmp_path / family))
        for family in ("log-linear", "exponential", "polynomial")
    )
    for code in ("import chipletbist.cli", fits):
        loaded = modules_after(code)
        assert not {m for m in loaded if m.split(".")[0] in ("numpy", "scipy")}, code


def test_cli_import_leaves_logging_unloaded():
    # logging loads only when classify_defect warns below the open floor.
    assert "logging" not in modules_after("import chipletbist.cli")


LEAN = {"chipletbist.circuits", "chipletbist.curves", "chipletbist.defects", "chipletbist.ranges"}
# The kit's records are plain classes: no command loads the dataclass machinery
# (beyond what the interpreter's own start-up, such as a site .pth file, loads).
MACHINERY = {"dataclasses", "inspect"}
# The BIST stack: the detector, the fault dictionary, the bump map and campaigns.
STACK = {"chipletbist.bist", "chipletbist.bumpmap", "chipletbist.campaign", "chipletbist.diagnosis"}


def parser_exits_0(flag: str) -> str:
    return (
        "from chipletbist.cli import main\n"
        f"try:\n    main([{flag!r}])\n"
        "except SystemExit as exit:\n    assert exit.code == 0, exit.code\n"
        "else:\n    raise AssertionError('no exit')"
    )


def test_commands_load_only_what_they_run(tmp_path):
    # The BIST and diagnosis commands never load the netlist, severity-curve
    # or classifier modules; fractions loads for nothing but `dictionary`.
    # Each runs in a fresh interpreter, where a missing import would fail it.
    report = str(tmp_path / "report.json")
    config = str(REPO / "configs" / "campaign_16x16_hex.json")
    lean = {
        "import chipletbist.cli": "import chipletbist.cli",
        "--version": parser_exits_0("--version"),
        "--help": parser_exits_0("--help"),
        "gen-map": main_exits_0(
            "gen-map", "--kind", "hexagonal", "--rows", "4", "--cols", "4",
            "--pitch-um", "20", "--out", str(tmp_path / "map.json"),
        ),
        "dictionary": main_exits_0("dictionary", "--out", str(tmp_path / "dictionary.txt")),
        "dictionary --format json": main_exits_0(
            "dictionary", "--format", "json", "--out", str(tmp_path / "dictionary.json")
        ),
        "dictionary --format csv": main_exits_0(
            "dictionary", "--format", "csv", "--out", str(tmp_path / "dictionary.csv")
        ),
        "simulate": main_exits_0("simulate", "--config", config, "--out", report),
        "simulate --format csv": main_exits_0(
            "simulate", "--config", config, "--format", "csv", "--out", str(tmp_path / "r.json")
        ),
        "diagnose": main_exits_0("diagnose", "--report", report, "--out", str(tmp_path / "d.json")),
    }
    startup = modules_after("pass")
    machinery = MACHINERY - startup
    bare = modules_after("import chipletbist")
    assert not {m for m in bare if m.startswith("chipletbist.")}
    assert "fractions" not in bare
    for name, code in lean.items():
        loaded = modules_after(code, cwd=tmp_path)
        assert not loaded & LEAN, name
        assert not loaded & machinery, name
        assert name.startswith("dictionary") or "fractions" not in loaded, name
        assert "chipletbist.cli" in loaded, name
        # Nothing of the stack loads before a command runs; the dictionary
        # needs no campaign.
        if name in ("import chipletbist.cli", "--version", "--help"):
            assert not loaded & STACK, name
        assert not name.startswith("dictionary") or "chipletbist.campaign" not in loaded, name
        # gen-map runs on the bump map alone: no campaign, BIST, diagnosis or
        # fault sampler (unless the interpreter's start-up loads random).
        if name == "gen-map":
            assert loaded & STACK == {"chipletbist.bumpmap"}, loaded & STACK
            assert "random" not in loaded - startup
    # The other three commands still run, each loading its own modules and
    # nothing of the stack.
    csv_path = str(REPO / "configs" / "synthetic_bridge_severity.csv")
    others = {
        "netlist": (
            main_exits_0("netlist", "--component", "rdl", "--length-um", "5",
                         "--out", str(tmp_path / "deck.sp")),
            {"chipletbist.circuits", "chipletbist.defects"},
        ),
        "fit": (
            "\n".join(
                main_exits_0("fit", "--csv", csv_path, "--family", family,
                             "--out", str(tmp_path / f"fit-{family}.json"))
                for family in ("log-linear", "exponential", "polynomial")
            ),
            {"chipletbist.curves"},
        ),
        "classify": (
            main_exits_0("classify", "--scenario", "signal-short", "--r-ohm", "100"),
            {"chipletbist.defects"},
        ),
    }
    for name, (code, own) in others.items():
        loaded = modules_after(code, cwd=tmp_path)
        assert loaded & LEAN == own, name
        assert not loaded & machinery, name
        assert not loaded & STACK, name


def test_submodules_resolve_after_a_bare_import():
    # The modules the package once imported eagerly stay reachable as attributes.
    submodules = ["bist", "bumpmap", "campaign", "circuits", "curves", "defects", "diagnosis",
                  "errors"]
    code = f"import chipletbist\nfor name in {submodules!r}: getattr(chipletbist, name)"
    assert {f"chipletbist.{name}" for name in submodules} <= modules_after(code)


@pytest.fixture
def stored_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["simulate", "--config", write_config(tmp_path, CONFIG), "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


# perfbench/tracer.py times each layer by wrapping these names on the cli
# module; a command that stopped calling its name would leave its span empty.
TRACED_CALLS = {
    "classify_defect": ["classify", "--scenario", "signal-short", "--r-ohm", "100"],
    "emit_netlist": ["netlist", "--component", "rdl", "--length-um", "5"],
    "fit_severity_curve": ["fit", "--csv", "{csv}", "--family", "polynomial"],
    "load_samples_csv": ["fit", "--csv", "{csv}", "--family", "exponential"],
    "load_config": ["simulate", "--config", "{config}", "--out", "{out}"],
    "run_campaign": ["simulate", "--config", "{config}", "--out", "{out}"],
    "rediagnose_report": ["diagnose", "--report", "{report}"],
    "build_fault_dictionary": ["dictionary", "--format", "json"],
    **dict.fromkeys(
        ["build_bump_map", "potential_short_graph", "assign_codewords", "partition_blocks"],
        ["gen-map", "--kind", "hexagonal", "--rows", "4", "--cols", "4", "--pitch-um", "20"],
    ),
}


@pytest.mark.parametrize("name", sorted(TRACED_CALLS))
def test_commands_call_the_names_the_tracer_wraps(
    monkeypatch, capsys, tmp_path, stored_report, name
):
    import chipletbist.cli as cli

    real, calls = getattr(cli, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    fields = {
        "csv": str(REPO / "configs" / "synthetic_bridge_severity.csv"),
        "config": write_config(tmp_path, CONFIG),
        "out": str(tmp_path / "again.json"),
        "report": stored_report,
    }
    argv = [arg.format(**fields) for arg in TRACED_CALLS[name]]
    assert run_cli(capsys, *argv)[0] == 0
    assert calls, f"{argv[0]} did not call cli.{name}"


def test_commands_diagnose_each_failing_block_through_campaign_diagnose(
    monkeypatch, capsys, tmp_path
):
    # perfbench/tracer.py wraps campaign.diagnose too: simulate and diagnose
    # call it once per failing block of each fault result, in block order.
    import chipletbist.campaign as campaign

    real, blocks = campaign.diagnose, []

    def spy(report, *args, **kwargs):
        blocks.append(report.block)
        return real(report, *args, **kwargs)

    monkeypatch.setattr(campaign, "diagnose", spy)
    config = str(REPO / "configs" / "campaign_16x16_hex.json")
    report = tmp_path / "report.json"
    assert run_cli(capsys, "simulate", "--config", config, "--out", str(report))[0] == 0
    results = json.loads(report.read_text(encoding="utf-8"))["fault_results"]
    expected = [
        block
        for result in results
        for block in sorted({item["block"] for item in result["failing"]})
    ]
    assert expected and blocks == expected
    blocks.clear()
    assert run_cli(capsys, "diagnose", "--report", str(report))[0] == 0
    assert blocks == expected


def test_every_name_the_tracer_wraps_exists():
    # perfbench/tracer.py looks each name up when it installs, so a missing
    # one fails every traced run.  Install it on copies of the two modules.
    import chipletbist.campaign as campaign
    import chipletbist.cli as cli

    spec = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced_cli, traced_campaign = (SimpleNamespace(**vars(m)) for m in (cli, campaign))
    tracer.install(tracer.Tracer(), traced_cli, traced_campaign)
    # Its output counter encodes what canonical_json returns.
    assert traced_cli.canonical_json({"a": [1]}) == canonical_json({"a": [1]})


def test_commands_run_no_full_map_engine(monkeypatch, capsys, tmp_path):
    # Commands and the dictionary use the single-fault rule: with the full-map
    # engine's resolvers (per cycle and per block) raising and the dictionary
    # cache cleared, every command still exits 0 with the same bytes.
    import chipletbist.bist as bist
    import chipletbist.diagnosis as diagnosis

    config = str(REPO / "configs" / "campaign_16x16_hex.json")
    commands = [
        ["dictionary", "--format", "text"],
        ["dictionary", "--format", "json"],
        ["dictionary", "--format", "csv"],
        ["simulate", "--config", config, "--out", "{dir}/report.json"],
        ["diagnose", "--report", "{dir}/report.json", "--out", "{dir}/diagnosis.json"],
        ["gen-map", "--kind", "hexagonal", "--rows", "16", "--cols", "16", "--pitch-um", "20",
         "--blocks", "4", "--out", "{dir}/map.json"],
    ]

    def outputs(directory):
        directory.mkdir()
        seen = []
        for command in commands:
            argv = [arg.format(dir=directory) for arg in command]
            status, out, err = run_cli(capsys, *argv)
            written = Path(argv[-1]).read_bytes() if "--out" in argv else None
            seen.append((status, out, err, written))
        return seen

    expected = outputs(tmp_path / "reference")
    assert [status for status, *_ in expected] == [0] * len(commands)

    def resolve_net_values(*args, **kwargs):
        raise AssertionError("a command ran the full-map engine")

    monkeypatch.setattr(bist, "resolve_net_values", resolve_net_values)
    monkeypatch.setattr(bist, "_block_words", resolve_net_values)
    diagnosis._quad_signatures.cache_clear()
    assert outputs(tmp_path / "single-fault") == expected


def test_every_forwarder_names_the_module_that_defines_it():
    # Each forwarder finds its module in the package's export table when it
    # is called.  No command calls canonical_json, so a wrong entry for it
    # would show only in a traced run; check every target here.
    import chipletbist.cli as cli

    assert len(cli._FORWARDED) == 13
    for name in cli._FORWARDED:
        module = importlib.import_module(f"chipletbist.{chipletbist._EXPORTS[name]}")
        assert getattr(module, name).__module__ == module.__name__, name
        assert getattr(cli, name).__name__ == name


@pytest.fixture
def fallbacks(monkeypatch):
    """The values the JSON writer hands to json.dumps, in order."""
    import chipletbist.canonical as canonical

    dumped = []
    dump = canonical._dump

    def spy(value, *args):
        dumped.append(value)
        dump(value, *args)

    monkeypatch.setattr(canonical, "_dump", spy)
    return dumped


# Every JSON document a command writes; its types must all be ones the
# writer lists, so that no part of them takes the slower json.dumps path.
KIT_DOCUMENTS = {
    "gen-map-hex-blocks": ["gen-map", "--kind", "hexagonal", "--rows", "16", "--cols", "16",
                           "--pitch-um", "20", "--blocks", "4"],
    "gen-map-rect-1x40": ["gen-map", "--kind", "rectangular", "--rows", "1", "--cols", "40",
                          "--pitch-um", "20"],
    "dictionary": ["dictionary", "--format", "json"],
    "simulate": ["simulate", "--config", str(REPO / "configs" / "campaign_16x16_hex.json"),
                 "--out", "{out}"],
    "diagnose": ["diagnose", "--report", "{report}"],
    "fit-polynomial": ["fit", "--csv", "{csv}", "--family", "polynomial"],
    "fit-exponential": ["fit", "--csv", "{csv}", "--family", "exponential"],
}


@pytest.mark.parametrize("name", sorted(KIT_DOCUMENTS))
def test_no_command_document_takes_the_json_dumps_path(
    capsys, tmp_path, stored_report, fallbacks, name
):
    fields = {
        "csv": str(REPO / "configs" / "synthetic_bridge_severity.csv"),
        "out": str(tmp_path / "report.json"),
        "report": stored_report,
    }
    argv = [arg.format(**fields) for arg in KIT_DOCUMENTS[name]]
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    assert json.loads(out)
    assert fallbacks == []


def _raise(*args):
    raise AssertionError("bump positions were computed")


def test_simulate_and_diagnose_compute_no_position(capsys, tmp_path, monkeypatch):
    import chipletbist.bumpmap as bumpmap

    monkeypatch.setattr(bumpmap, "lattice_coordinates", _raise)
    report = str(tmp_path / "report.json")
    config = str(REPO / "configs" / "campaign_16x16_hex.json")
    assert run_cli(capsys, "simulate", "--config", config, "--out", report)[0] == 0
    assert run_cli(capsys, "diagnose", "--report", report)[0] == 0


def test_gen_map_builds_no_positions_tuple(capsys, monkeypatch):
    import chipletbist.bumpmap as bumpmap

    monkeypatch.setattr(bumpmap.BumpMap, "positions", property(_raise))
    status, out, _ = run_cli(
        capsys, "gen-map", "--kind", "hexagonal", "--rows", "8", "--cols", "8", "--pitch-um", "20"
    )
    assert status == 0
    assert len(json.loads(out)["positions"]) == 64


class _Int(int):
    pass


@pytest.mark.parametrize(
    "document, unlisted",
    [
        ({"counts": {1: 2, 3: [4, 5]}}, {1: 2, 3: [4, 5]}),
        ({"ids": [_Int(1), 2], "name": "n"}, _Int(1)),
        ({"a": [1, 2], "b": {"c": _Int(3)}}, _Int(3)),
    ],
    ids=["int-keys", "int-subclass", "after-pieces"],
)
def test_an_unlisted_type_takes_the_json_dumps_path(fallbacks, document, unlisted):
    # json.dumps gets the unlisted value alone, where it stands, so a stream
    # never has to take back the pieces it emitted before it.
    from chipletbist.canonical import stream_json

    pieces = []
    stream_json(document, pieces.append)
    want = json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert "".join(pieces) == want
    assert [(type(value), value) for value in fallbacks] == [(type(unlisted), unlisted)]


def _text_rows(items, size):
    """``items`` as a ``_TextRows`` of rows of ``size`` items, an empty row
    before each and last, each item laid out by json.dumps."""
    from chipletbist.canonical import _TextRows

    def rows(inner):
        texts = [json.dumps(item, indent=2, ensure_ascii=False).replace("\n", inner) for item in items]
        for start in range(0, len(texts), size):
            yield ""
            yield ("," + inner).join(texts[start : start + size])
        yield ""

    return _TextRows(rows)


@pytest.mark.parametrize("size", [1, 3, None], ids=["size-1", "size-3", "whole"])
@pytest.mark.parametrize("count", [0, 1, 2, 1000])
@pytest.mark.parametrize("width", [0, 1, 2], ids=["scalars", "width-1", "width-2"])
def test_text_rows_equal_their_listed_rows_in_any_grouping(tmp_path, width, count, size):
    from chipletbist.cli import _write_json

    listed = [[k, f"é{k}"][:width] if width else f"é{k}" for k in range(count)]
    rows = _text_rows(listed, size or max(count, 1))
    # An int key and an int subclass beside the rows go to json.dumps.
    others = {"z": [1], "n": {1: 2}, "i": [_Int(3)]}
    want = json.dumps(
        {"rows": listed, **others}, sort_keys=True, indent=2, ensure_ascii=False
    ) + "\n"
    assert canonical_json({"rows": rows, **others}) == want
    out_path = tmp_path / "rows.json"
    _write_json({"rows": rows, **others}, str(out_path))
    assert out_path.read_bytes() == want.encode("utf-8")
    # A list one level deeper takes its rows joined for that level.
    assert canonical_json([[rows]]) == json.dumps([[listed]], indent=2, ensure_ascii=False) + "\n"


def _assert_streamed_by_row(capsys, monkeypatch, flags, keys):
    # A piece per lattice row: no piece holds a whole column of the map.
    import chipletbist.cli as cli
    from chipletbist.canonical import stream_json

    argv = ["gen-map", "--kind", "hexagonal", "--pitch-um", "20", *flags]
    listed = json.loads(run_cli(capsys, *argv)[1])
    documents = []
    monkeypatch.setattr(cli, "_write_json", lambda document, out: documents.append(document))
    assert main(argv) == 0
    for key in keys:
        pieces = []
        stream_json(documents[0][key], pieces.append)
        assert max(map(len, pieces)) < 64 * 1024, key
        want = json.dumps(listed[key], indent=2, ensure_ascii=False) + "\n"
        assert "".join(pieces) == want, key


def test_gen_map_streams_edges_and_positions_by_lattice_row(capsys, monkeypatch):
    _assert_streamed_by_row(capsys, monkeypatch, ["--rows", "64", "--cols", "64"], ["edges", "positions"])


def test_gen_map_streams_colors_and_blocks_by_lattice_row(capsys, monkeypatch):
    flags = ["--rows", "128", "--cols", "128", "--blocks", "16"]
    _assert_streamed_by_row(capsys, monkeypatch, flags, ["colors", "blocks"])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_gen_map_on_the_largest_map_peaks_under_30_mb(tmp_path):
    # The resident peak of a whole gen-map process, interpreter included,
    # on hex 512x512 with 16 blocks: no per-bump list is held as text whole.
    argv = ["gen-map", "--kind", "hexagonal", "--rows", "512", "--cols", "512",
            "--pitch-um", "20", "--blocks", "16", "--out", str(tmp_path / "map.json")]
    code = (
        "import sys\n"
        "from chipletbist.cli import main\n"
        f"status = main({argv!r})\n"
        "with open('/proc/self/status') as handle:\n"
        "    print(next(line for line in handle if line.startswith('VmHWM:')).split()[1])\n"
        "sys.exit(status)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=SUBPROCESS_ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 30 * 1024  # kB


@pytest.mark.skipif(
    importlib.util.find_spec("setuptools") is None, reason="setuptools is not installed"
)
def test_version_reads_statically_from_pyproject():
    # `pip install -e .` reads the version through `attr:`; setuptools must
    # find the literal without importing the (lazy) package.
    code = (
        "from setuptools.config.pyprojecttoml import read_configuration\n"
        "version = read_configuration('pyproject.toml')['project']['version']\n"
        f"assert version == {chipletbist.__version__!r}, version"
    )
    assert not {m for m in modules_after(code) if m.split(".")[0] == "chipletbist"}
