"""The benchmark's four workloads: seeded inputs, command steps and output checks.

Every input is generated here from the run's seed; the program only ever
sees these files and arguments.  Each workload's ``why`` says which layer of
chipletbist it loads, so that a change to one layer has one workload that
exercises it and others on which the prediction is no change.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

# Sizes.  The ROADMAP's 64x64/2000-fault case runs for ~81 s per process;
# these keep its map shapes with fault counts that give several iterations in
# one run.
HEX64_FAULTS = 64
RECT48_FAULTS = 300
GENMAP_SIDE = 128
GENMAP_BLOCKS = 16
# Faults of a report re-simulated in the benchmark through the reference
# engine (run_block_test + diagnose), outside the timed region.
REFERENCE_SAMPLE = 12


@dataclass
class Step:
    """One CLI process: its arguments and the files it must leave non-empty."""

    name: str
    argv: list[str]
    outputs: list[Path]


@dataclass
class Check:
    """Outcome of the post-run checks: errors and the simulated statistics."""

    errors: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    hit_rate: tuple[int, int] | None = None


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def campaign_config(kind, side, blocks, n_faults, seed, sa_share) -> dict:
    return {
        "version": 1,
        "map": {
            "kind": kind,
            "rows": side,
            "cols": side,
            "pitch_um": 20.0,
            "short_radius_factor": 1.9,
        },
        "block_count": blocks,
        "sampler": {
            "n_faults": n_faults,
            "seed": seed,
            "kind_mix": {"sa": sa_share, "bridge": 1.0 - sa_share},
            "behavior_mix": {"wired-and": 0.5, "wired-or": 0.5},
            "include_inter_block": True,
        },
    }


def report_fingerprint(report: dict) -> dict:
    """Simulated statistics of a campaign report; a speed change keeps them all."""
    metrics = report["metrics"]
    entries = [entry for result in report["fault_results"] for entry in result["diagnosis"]]
    return {
        "injected": metrics["injected"],
        "detected": metrics["detected"],
        "escaped": metrics["escaped"],
        "inter_block_wired_or_injected": metrics["inter_block_wired_or"]["injected"],
        "inter_block_wired_or_escaped": metrics["inter_block_wired_or"]["escaped"],
        "failing_bumps": sum(len(result["failing"]) for result in report["fault_results"]),
        "candidates": sum(len(entry["candidates"]) for entry in entries),
        "unmodeled": sum(entry["unmodeled"] for entry in entries),
        "hits": metrics["diagnosis_hits"],
        "bumps": report["map"]["bumps"],
        "edges": report["map"]["edges"],
        "test_cycles": report["overhead"]["test_cycles"],
    }


def reference_errors(report: dict, src: Path, seed: int) -> list[str]:
    """Re-simulate a seeded subset of the report's faults through the reference
    engine and compare ``detected``, ``failing`` and ``diagnosis``."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from chipletbist.bist import run_block_test
    from chipletbist.campaign import (
        build_campaign_map,
        diagnosis_to_dict,
        fault_from_dict,
        parse_config,
    )
    from chipletbist.diagnosis import diagnose

    bump_map, graph = build_campaign_map(parse_config(report["config"]))
    results = report["fault_results"]
    picks = random.Random(seed).sample(range(len(results)), min(REFERENCE_SAMPLE, len(results)))
    errors = []
    for index in sorted(picks):
        result = results[index]
        reports = run_block_test(bump_map, [fault_from_dict(result["fault"])])
        failing = [
            {"block": r.block, "bump": bump, "response": [resp.x, resp.y]}
            for r in reports
            for bump, resp in sorted(r.responses.items())
            if resp.y == 0
        ]
        diagnosis = [
            diagnosis_to_dict(entry, r.block)
            for r in reports
            for entry in diagnose(r, bump_map, graph)
        ]
        if (
            result["detected"] != bool(failing)
            or result["failing"] != failing
            or result["diagnosis"] != diagnosis
        ):
            errors.append(f"fault_results[{index}] disagrees with the reference engine")
    return errors


def diagnose_errors(report: dict, diagnosis: dict) -> list[str]:
    expected = [result["diagnosis"] for result in report["fault_results"]]
    if diagnosis.get("diagnoses") != expected:
        return ["diagnose output differs from the report's per-fault diagnosis lists"]
    return []


def coloring_errors(bump_map: dict, rows: int, cols: int, blocks: int) -> list[str]:
    colors = bump_map["colors"]
    errors = []
    if len(colors) != rows * cols or len(bump_map["blocks"]) != rows * cols:
        errors.append("gen-map output has the wrong number of bumps")
    if bump_map["block_count"] != blocks or not bump_map["edges"]:
        errors.append("gen-map output has the wrong block count or no edges")
    clashes = sum(colors[a] == colors[b] for a, b in bump_map["edges"])
    if clashes:
        errors.append(f"gen-map coloring has {clashes} same-colour edges")
    return errors


def map_fingerprint(bump_map: dict) -> dict:
    return {"bumps": len(bump_map["colors"]), "edges": len(bump_map["edges"])}


class Workload:
    """``prepare`` writes the inputs and sets ``steps``, the processes of one
    iteration, and ``setup_step``, the same command with no work (None: a bare
    import of the CLI module).  ``check`` reads the outputs after the loop."""

    name = ""
    why = ""
    item = ""  # what items_per_s counts
    items = 0
    steps: list[Step]
    setup_step: Step | None = None

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work, self.seed = root, work, seed

    def prepare(self, run_untimed) -> list[str]:
        """Returns errors; ``run_untimed(step)`` runs a program step untimed."""
        raise NotImplementedError

    def check(self) -> Check:
        raise NotImplementedError


class CampaignHex64(Workload):
    name = "campaign-hex64"
    why = "simulate on a hex 64x64 map, 8 blocks: per-fault bist and diagnosis do most of the work"
    item = "fault"
    items = HEX64_FAULTS

    def prepare(self, run_untimed):
        config = self.work / "hex64.json"
        empty = self.work / "hex64-empty.json"
        config.write_text(
            canonical(campaign_config("hexagonal", 64, 8, HEX64_FAULTS, self.seed, 0.5))
        )
        empty.write_text(canonical(campaign_config("hexagonal", 64, 8, 0, self.seed, 0.5)))
        self.report = self.work / "hex64-report.json"
        empty_report = self.work / "hex64-empty-report.json"
        self.setup_step = Step(
            "simulate-empty",
            ["simulate", "--config", str(empty), "--out", str(empty_report)],
            [empty_report],
        )
        self.steps = [
            Step(
                "simulate",
                ["simulate", "--config", str(config), "--out", str(self.report)],
                [self.report],
            )
        ]
        return []

    def check(self):
        report = json.loads(self.report.read_text())
        fingerprint = report_fingerprint(report)
        fingerprint["report_sha256"] = sha256(self.report)
        errors = reference_errors(report, self.root / "src", self.seed)
        return Check(errors, fingerprint, (fingerprint["hits"], fingerprint["detected"]))


class DiagnoseRect48(Workload):
    name = "diagnose-rect48"
    why = "diagnose a stored bridge-heavy rect 48x48 report: parsing, reconstruction and diagnosis, no bist"
    item = "fault"
    items = RECT48_FAULTS

    def prepare(self, run_untimed):
        config = self.work / "rect48.json"
        config.write_text(
            canonical(campaign_config("rectangular", 48, 6, RECT48_FAULTS, self.seed, 0.25))
        )
        self.report = self.work / "rect48-report.json"
        errors = run_untimed(
            Step(
                "simulate-input",
                ["simulate", "--config", str(config), "--out", str(self.report)],
                [self.report],
            )
        )
        if errors:
            return errors
        empty = json.loads(self.report.read_text())
        empty["fault_results"] = []
        empty_report = self.work / "rect48-empty-report.json"
        empty_report.write_text(canonical(empty))
        self.diagnosis = self.work / "rect48-diagnosis.json"
        empty_diagnosis = self.work / "rect48-empty-diagnosis.json"
        self.setup_step = Step(
            "diagnose-empty",
            ["diagnose", "--report", str(empty_report), "--out", str(empty_diagnosis)],
            [empty_diagnosis],
        )
        self.steps = [
            Step(
                "diagnose",
                ["diagnose", "--report", str(self.report), "--out", str(self.diagnosis)],
                [self.diagnosis],
            )
        ]
        return []

    def check(self):
        report = json.loads(self.report.read_text())
        errors = diagnose_errors(report, json.loads(self.diagnosis.read_text()))
        errors += reference_errors(report, self.root / "src", self.seed)
        fingerprint = report_fingerprint(report)
        fingerprint["report_sha256"] = sha256(self.report)
        fingerprint["diagnosis_sha256"] = sha256(self.diagnosis)
        return Check(errors, fingerprint, (fingerprint["hits"], fingerprint["detected"]))


class GenmapHex128(Workload):
    name = "genmap-hex128"
    why = "gen-map of a hex 128x128 map, 16 blocks: bumpmap and JSON output dominate, no faults"
    item = "bump"
    items = GENMAP_SIDE * GENMAP_SIDE

    def prepare(self, run_untimed):
        pitch = random.Random(self.seed).randrange(10, 41)
        self.map = self.work / "hex128-map.json"
        self.steps = [
            Step(
                "gen-map",
                [
                    "gen-map", "--kind", "hexagonal",
                    "--rows", str(GENMAP_SIDE), "--cols", str(GENMAP_SIDE),
                    "--pitch-um", str(pitch), "--blocks", str(GENMAP_BLOCKS),
                    "--out", str(self.map),
                ],
                [self.map],
            )
        ]
        return []

    def check(self):
        bump_map = json.loads(self.map.read_text())
        errors = coloring_errors(bump_map, GENMAP_SIDE, GENMAP_SIDE, GENMAP_BLOCKS)
        fingerprint = map_fingerprint(bump_map)
        fingerprint["map_sha256"] = sha256(self.map)
        return Check(errors, fingerprint)


class CliShort(Workload):
    name = "cli-short"
    why = "nine short CLI processes: interpreter start and import dominate; the only defects/circuits/curves load"
    item = "command"
    items = 9

    def prepare(self, run_untimed):
        rng = random.Random(self.seed)
        out = {name: self.work / f"short-{name}" for name in (
            "dict.txt", "dict.json", "dict.csv", "netlist.cir", "fit.json",
            "map.json", "report.json", "diagnosis.json",
        )}
        self.out = out
        self.classify_out = self.work / "classify.stdout"
        defect, flag, low, high = rng.choice([
            ("crack", "--cf-farad", 1e-16, 1e-14),
            ("full-break", "--cf-farad", 1e-16, 1e-14),
            ("capacitive-misalignment", "--cf-farad", 1e-16, 1e-14),
            ("resistive-misalignment", "--rf-ohm", 1.0, 1e4),
            ("bridge", "--rf-ohm", 1.0, 1e4),
        ])
        netlist_value = low * (high / low) ** rng.random()
        if rng.random() < 0.5:
            scenario = rng.choice(["short-to-vdd", "short-to-vss", "signal-short"])
            magnitude = ["--r-ohm", f"{10 ** rng.uniform(0, 6):.4g}"]
        else:
            scenario = rng.choice(["vdd-open", "vss-open", "signal-open"])
            magnitude = ["--c-farad", f"{10 ** rng.uniform(-17, -12):.4g}"]
        configs = self.root / "configs"
        shipped = configs / "campaign_16x16_hex.json"
        self.simulate_faults = json.loads(shipped.read_text())["sampler"]["n_faults"]

        def step(name, argv, output):
            return Step(name, [*argv, "--out", str(output)], [output])

        self.steps = [
            step(f"dictionary-{fmt}", ["dictionary", "--format", fmt], out[f"dict.{ext}"])
            for fmt, ext in (("text", "txt"), ("json", "json"), ("csv", "csv"))
        ] + [
            step("netlist", [
                "netlist", "--component", "cu-pillar", "--defect", defect,
                flag, f"{netlist_value:.4g}", "--title", f"{defect} seed {self.seed}",
            ], out["netlist.cir"]),
            step("fit", [
                "fit", "--csv", str(configs / "synthetic_bridge_severity.csv"),
                "--family", rng.choice(["log-linear", "exponential", "polynomial"]),
            ], out["fit.json"]),
            Step("classify", ["classify", "--scenario", scenario, *magnitude], [self.classify_out]),
            step("gen-map", [
                "gen-map", "--kind", "hexagonal", "--rows", "16", "--cols", "16",
                "--pitch-um", str(rng.randrange(10, 41)), "--blocks", "4",
            ], out["map.json"]),
            step("simulate", [
                "simulate", "--config", str(shipped), "--seed", str(self.seed),
            ], out["report.json"]),
            step("diagnose", ["diagnose", "--report", str(out["report.json"])],
                 out["diagnosis.json"]),
        ]
        return []

    def check(self):
        out = self.out
        report = json.loads(out["report.json"].read_text())
        errors = diagnose_errors(report, json.loads(out["diagnosis.json"].read_text()))
        errors += reference_errors(report, self.root / "src", self.seed)
        errors += coloring_errors(json.loads(out["map.json"].read_text()), 16, 16, 4)
        dictionary = json.loads(out["dict.json"].read_text())["diagnosability"]
        if (dictionary["numerator"], dictionary["denominator"]) != (87, 91):
            errors.append("dictionary diagnosability is not 87/91")
        if not out["netlist.cir"].read_text().endswith(".END"):
            errors.append("netlist deck does not end with .END")
        if len(self.classify_out.read_text().splitlines()) != 1:
            errors.append("classify did not print exactly one line")
        fingerprint = report_fingerprint(report)
        fingerprint["outputs_sha256"] = hashlib.sha256(
            b"".join(path.read_bytes() for path in [*out.values(), self.classify_out])
        ).hexdigest()
        return Check(errors, fingerprint, (fingerprint["hits"], fingerprint["detected"]))


WORKLOADS = {w.name: w for w in (CampaignHex64, DiagnoseRect48, GenmapHex128, CliShort)}
