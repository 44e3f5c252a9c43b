"""Fault simulation and BIST verification kit for chiplet interconnect bump maps.

Public names load on first use (PEP 562): ``import chipletbist`` imports no
submodule, and reading ``chipletbist.run_campaign`` imports
``chipletbist.campaign`` the first time.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  The keys, in order, are __all__.
_EXPORTS = {
    "Bridge": "bist",
    "BridgeBehavior": "bist",
    "BlockTestReport": "bist",
    "CODEWORDS": "bist",
    "DetectorResponse": "bist",
    "Fault": "bist",
    "OverheadReport": "bist",
    "Pattern3": "bist",
    "StuckAt": "bist",
    "TestSchedule": "bist",
    "bump_response": "bist",
    "detector_accepts": "bist",
    "fsm_schedule": "bist",
    "overhead_report": "bist",
    "pattern_for": "bist",
    "resolve_net_values": "bist",
    "run_block_test": "bist",
    "AdjacencyGraph": "bumpmap",
    "BumpMap": "bumpmap",
    "COLOR_ORDER": "bumpmap",
    "Color": "bumpmap",
    "DEFAULT_SHORT_RADIUS_FACTOR": "kinds",
    "Lattice": "bumpmap",
    "LatticeKind": "kinds",
    "assign_codewords": "bumpmap",
    "build_bump_map": "bumpmap",
    "partition_blocks": "bumpmap",
    "potential_short_graph": "bumpmap",
    "CampaignConfig": "campaign",
    "MapSpec": "campaign",
    "SamplerSpec": "campaign",
    "canonical_json": "canonical",
    "load_config": "campaign",
    "parse_config": "campaign",
    "rediagnose_report": "campaign",
    "run_campaign": "campaign",
    "sample_faults": "campaign",
    "CircuitElement": "circuits",
    "EquivalentCircuit": "circuits",
    "build_faulty_circuit": "circuits",
    "emit_netlist": "circuits",
    "CurveFamily": "kinds",
    "SeverityCurve": "curves",
    "eval_severity": "curves",
    "fit_severity_curve": "curves",
    "invert_severity": "curves",
    "load_samples_csv": "curves",
    "ComponentKind": "kinds",
    "ElectricalScenario": "kinds",
    "FaultMagnitude": "defects",
    "FunctionalFaultClass": "defects",
    "NetClass": "defects",
    "NominalParasitics": "defects",
    "PhysicalDefect": "kinds",
    "classify_defect": "defects",
    "nominal_parasitics": "defects",
    "scenario_for": "defects",
    "BridgeCandidate": "diagnosis",
    "BumpDiagnosis": "diagnosis",
    "FaultDictionary": "diagnosis",
    "QuadBridge": "diagnosis",
    "QuadStuckAt": "diagnosis",
    "build_fault_dictionary": "diagnosis",
    "diagnosability": "diagnosis",
    "diagnose": "diagnosis",
    "DefectRangeEstimate": "ranges",
    "map_to_defect_range": "ranges",
    "ColoringError": "errors",
    "FitError": "errors",
    "InversionError": "errors",
    "KitError": "errors",
    "ParameterError": "errors",
    "SimulationError": "errors",
}

__all__ = list(_EXPORTS)

# The modules named in the table also resolve as attributes of the package.
_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
