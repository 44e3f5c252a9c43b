"""Tests for the package's public surface, which loads on first use."""

import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chipletbist
from chipletbist import bumpmap, campaign, curves, defects, kinds

# The public names by the module that first exported them, in export order.
EXPORTS = {
    "bist": (
        "Bridge", "BridgeBehavior", "BlockTestReport", "CODEWORDS", "DetectorResponse",
        "Fault", "OverheadReport", "Pattern3", "StuckAt", "TestSchedule", "bump_response",
        "detector_accepts", "fsm_schedule", "overhead_report", "pattern_for",
        "resolve_net_values", "run_block_test",
    ),
    "bumpmap": (
        "AdjacencyGraph", "BumpMap", "COLOR_ORDER", "Color", "DEFAULT_SHORT_RADIUS_FACTOR",
        "Lattice", "LatticeKind", "assign_codewords", "build_bump_map", "partition_blocks",
        "potential_short_graph",
    ),
    "campaign": (
        "CampaignConfig", "MapSpec", "SamplerSpec", "canonical_json", "load_config",
        "parse_config", "rediagnose_report", "run_campaign", "sample_faults",
    ),
    "circuits": ("CircuitElement", "EquivalentCircuit", "build_faulty_circuit", "emit_netlist"),
    "curves": (
        "CurveFamily", "SeverityCurve", "eval_severity", "fit_severity_curve",
        "invert_severity", "load_samples_csv",
    ),
    "defects": (
        "ComponentKind", "ElectricalScenario", "FaultMagnitude", "FunctionalFaultClass",
        "NetClass", "NominalParasitics", "PhysicalDefect", "classify_defect",
        "nominal_parasitics", "scenario_for",
    ),
    "diagnosis": (
        "BridgeCandidate", "BumpDiagnosis", "FaultDictionary", "QuadBridge", "QuadStuckAt",
        "build_fault_dictionary", "diagnosability", "diagnose",
    ),
    "ranges": ("DefectRangeEstimate", "map_to_defect_range"),
    "errors": (
        "ColoringError", "FitError", "InversionError", "KitError", "ParameterError",
        "SimulationError",
    ),
}
NAMES = [name for names in EXPORTS.values() for name in names]
# Exported names that left the module that first exported them.
MOVED = {"DEFAULT_SHORT_RADIUS_FACTOR": "kinds", "canonical_json": "canonical"}


def test_all_lists_the_73_public_names_in_order():
    assert len(NAMES) == 73
    assert chipletbist.__all__ == NAMES


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EXPORTS.items() for name in names]
)
def test_public_name_is_the_modules_object(module, name):
    source = importlib.import_module(f"chipletbist.{MOVED.get(name, module)}")
    assert getattr(chipletbist, name) is getattr(source, name)
    assert name in dir(chipletbist)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from chipletbist import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(NAMES)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        chipletbist.nope
    assert str(info.value) == "module 'chipletbist' has no attribute 'nope'"


def test_shared_vocabulary_is_defined_once():
    assert defects.ComponentKind is kinds.ComponentKind
    assert defects.PhysicalDefect is kinds.PhysicalDefect
    assert defects.ElectricalScenario is kinds.ElectricalScenario
    assert curves.CurveFamily is kinds.CurveFamily
    assert curves.MAX_POLYNOMIAL_DEGREE == kinds.MAX_POLYNOMIAL_DEGREE
    assert bumpmap.LatticeKind is kinds.LatticeKind
    # Each name has one home: no module hands out a name it does not use.
    assert not hasattr(bumpmap, "DEFAULT_SHORT_RADIUS_FACTOR")
    assert not hasattr(campaign, "canonical_json")


# The module-level imports their module never reads: perfbench/tracer.py
# wraps campaign.run_block_test by name until the program traces itself.
UNREAD_IMPORTS = {"campaign.run_block_test"}


def _imported_names(body):
    for node in body:
        if isinstance(node, ast.If):
            yield from _imported_names(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_module_level_import_is_read_in_its_module():
    # A name a module imports and never reads is a second home for it.
    unread = set()
    for path in sorted(Path(chipletbist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread |= {
            f"{path.stem}.{name}" for name in _imported_names(tree.body) if name not in read
        }
    assert unread == UNREAD_IMPORTS


def test_every_module_defining_a_record_postpones_its_annotations():
    # On 3.14 a class body without this import hands the metaclass no
    # __annotations__ (PEP 649/749), so record._RecordType would see no fields.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(chipletbist.__file__).parent.glob("*.py")
    }
    classes = [
        (stem, node) for stem, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    records, size = {"Record"}, 0
    while len(records) > size:  # records of records, until no class is added
        size = len(records)
        records |= {
            node.name for _, node in classes
            if any(ast.unparse(base).rpartition(".")[2] in records for base in node.bases)
        }
    modules = {stem for stem, node in classes if node.name in records - {"Record"}}
    postponed = {
        stem for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
    }
    assert {"bist", "diagnosis"} <= modules
    assert sorted(modules - postponed) == []


def test_vocabulary_and_writer_load_only_their_own_modules():
    # The lattice kinds come from kinds and the writer from canonical, so
    # reading them from the package loads no bump map and no campaign.
    code = (
        "import sys, chipletbist\n"
        "chipletbist.LatticeKind, chipletbist.DEFAULT_SHORT_RADIUS_FACTOR\n"
        "chipletbist.canonical_json\n"
        "print(*sorted(m for m in sys.modules if m.startswith('chipletbist.')))"
    )
    src = str(Path(chipletbist.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["chipletbist.canonical", "chipletbist.kinds"]


def test_readme_library_example_runs_as_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    # The first print's comment shows what it prints.
    want = re.search(r"^print\(.*\)  # (.*)$", code, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == want
    assert len(lines) > 1
