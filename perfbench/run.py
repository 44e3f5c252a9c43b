"""chipletbist benchmark: one workload per run, each command a fresh process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each CLI command is launched through the
console entry point named in pyproject.toml (``chipletbist.cli:entry_point``)
in a fresh interpreter with ``src`` on the path.  Load is a closed loop from
this one process: one child at a time, the next only after the last exits.
All times are host wall times on the monotonic clock.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced iterations with traced ones (perfbench/tracer.py) and prints the
per-layer metrics.  Outputs are checked in both modes.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib
from pathlib import Path

from workloads import WORKLOADS, Check, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"
CHILD_TIMEOUT_S = 60
SETUP_REPS = 5
# The host is shared: its speed changes by 20% to 3x over seconds to minutes as
# other tenants' load changes, which moves run medians more than any bound
# worth having.  A fixed reference process (interpreter start, numpy import,
# then about as long again of JSON encoding, tuple and dict work; no
# chipletbist code) is timed before every timed iteration and setup process,
# and slows with the host.  End-to-end times are scaled by
# REFERENCE_S / (the run's median reference time): they read as times on a
# host where the reference takes REFERENCE_S.
REFERENCE_S = 0.45
REFERENCE_CODE = """
import json, numpy
text = json.dumps([(i, i * 0.5, str(i)) for i in range(20000)])
table = {}
for i in range(150000):
    key = (i * 7919) % 4099, i & 7
    table[key] = table.get(key, 0) + len(str(key[0]))
"""

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> span name.  "_s" metrics sum a span's duration over all
# its calls; "_self_s" ones subtract the time covered by child spans.
TOTAL_SPANS = {
    "interpreter.startup_s": "interpreter.startup",
    "interpreter.exit_s": "interpreter.exit",
    "cli.import_s": "cli.import",
    "cli.report_load_s": "cli.report_load",
    "bumpmap.build_bump_map_s": "bumpmap.build_bump_map",
    "bumpmap.potential_short_graph_s": "bumpmap.potential_short_graph",
    "bumpmap.assign_codewords_s": "bumpmap.assign_codewords",
    "bumpmap.partition_blocks_s": "bumpmap.partition_blocks",
    "campaign.load_config_s": "campaign.load_config",
    "campaign.sample_faults_s": "campaign.sample_faults",
    "campaign.canonical_json_s": "campaign.canonical_json",
    "bist.run_block_test_s": "bist.run_block_test",
    "bist.overhead_report_s": "bist.overhead_report",
    "diagnosis.build_fault_dictionary_s": "diagnosis.build_fault_dictionary",
    "diagnosis.diagnose_s": "diagnosis.diagnose",
    "defects.classify_defect_s": "defects.classify_defect",
    "circuits.emit_netlist_s": "circuits.emit_netlist",
    "curves.fit_severity_curve_s": "curves.fit_severity_curve",
    "curves.load_samples_csv_s": "curves.load_samples_csv",
}
SELF_SPANS = {
    "cli.main_self_s": "cli.main",
    "campaign.run_campaign_self_s": "campaign.run_campaign",
    "campaign.rediagnose_report_self_s": "campaign.rediagnose_report",
}
COUNTERS = [
    "bumpmap.bumps",
    "bumpmap.edges",
    "campaign.output_bytes",
    "bist.detected",
    "bist.escaped",
    "bist.inter_block_wired_or_escaped",
    "bist.failing_bumps",
    "bist.test_cycles",
    "diagnosis.responses_scanned",
    "diagnosis.candidates",
    "diagnosis.unmodeled",
    "diagnosis.hits",
]


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it,
    or None while that percentile is not above the median."""
    if len(samples) < 21:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def describe(samples: list[float], unit: str) -> str:
    text = f"median {statistics.median(samples):.6g} {unit}, n={len(samples)}"
    high = tail(samples)
    if high is None:
        return text + ", no tail (needs 21 samples)"
    return text + f", p{high[0]:.0f} {high[1]:.6g} {unit}"


class Result:
    """One child process: wall time, peak RSS, and what was wrong with it."""

    def __init__(self, start_ns, end_ns, usage, errors, digest=None, spans=None):
        self.start_ns, self.end_ns = start_ns, end_ns
        self.wall_s = (end_ns - start_ns) / 1e9
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.errors, self.digest, self.spans = errors, digest, spans


class Runner:
    """Launches children one at a time and counts attempted and failed operations."""

    def __init__(self, work: Path) -> None:
        self.work = work
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        self.entry_module, self.entry_func = scripts["chipletbist"].split(":")
        self.launch_code = (
            f"import sys; sys.argv[0] = 'chipletbist'; "
            f"from {self.entry_module} import {self.entry_func}; sys.exit({self.entry_func}())"
        )
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failures: list[str] = []

    def reference(self) -> float:
        start_ns, end_ns, _, errors = self.spawn(["-c", REFERENCE_CODE], "reference")
        if errors:
            raise SystemExit(f"error: the reference process failed: {errors}")
        return (end_ns - start_ns) / 1e9

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failures.append(f"{label}: {'; '.join(errors)}")

    def spawn(self, tail_args: list[str], label: str) -> tuple[int, int, object, list[str]]:
        """Run one child to its end; return its start, end, rusage and errors."""
        stdout = self.work / f"{label}.stdout"
        stderr = self.work / f"{label}.stderr"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start_ns = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, *tail_args],
                cwd=self.work, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        errors = []
        if proc.returncode != 0:
            errors.append(f"exit {proc.returncode}")
        err = stderr.read_bytes()
        if b"Traceback" in err:
            errors.append(f"traceback on stderr: {err[-300:]!r}")
        return start_ns, end_ns, usage, errors

    def run_code(self, code: str, label: str) -> Result:
        start_ns, end_ns, usage, errors = self.spawn(["-c", code], label)
        self.record(label, errors)
        return Result(start_ns, end_ns, usage, errors)

    def run_step(self, step: Step, traced: bool = False) -> Result:
        for path in step.outputs:
            if path.name != f"{step.name}.stdout":
                path.unlink(missing_ok=True)
        spans_path = self.work / f"{step.name}.spans"
        if traced:
            spans_path.unlink(missing_ok=True)
            tail_args = [str(TRACER), str(spans_path), "--", *step.argv]
        else:
            tail_args = ["-c", self.launch_code, *step.argv]
        start_ns, end_ns, usage, errors = self.spawn(tail_args, step.name)
        digest = hashlib.sha256()
        for path in step.outputs:
            if not path.is_file() or path.stat().st_size == 0:
                errors.append(f"missing or empty output {path.name}")
            else:
                digest.update(path.read_bytes())
        spans = None
        if traced and not errors:
            spans = read_spans(spans_path, start_ns, end_ns)
        self.record(step.name, errors)
        return Result(start_ns, end_ns, usage, errors, digest.hexdigest(), spans)


def read_spans(path: Path, start_ns: int, end_ns: int) -> dict:
    """The tracer's spans plus the interpreter start and exit seen from here."""
    head, done = path.read_text().splitlines()
    data = json.loads(head)
    data["spans"].append(["interpreter.startup", start_ns, data["first_ns"], -1])
    data["spans"].append(["interpreter.exit", int(done), end_ns, -1])
    return data


def layer_metrics(traced: list[Result]) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced iteration (all of its steps), and its
    coverage without the two interpreter spans."""
    total = {name: 0 for name in set(TOTAL_SPANS.values()) | set(SELF_SPANS.values())}
    own = dict(total)
    calls = {"bist.run_block_test": [], "diagnosis.diagnose": []}
    counters = {name: 0 for name in COUNTERS + ["diagnosis.failing_bumps"]}
    top_level = interpreter = 0
    for result in traced:
        spans = result.spans["spans"]
        for key, value in result.spans["counters"].items():
            counters[key] = counters.get(key, 0) + value
        child_time = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top_level += end - start
                if name.startswith("interpreter."):
                    interpreter += end - start
        for (name, start, end, parent), children in zip(spans, child_time):
            if name in total:
                total[name] += end - start
                own[name] += end - start - children
            if name in calls:
                calls[name].append((end - start) / 1e6)
    metrics = {metric: total[span] / 1e9 for metric, span in TOTAL_SPANS.items()}
    metrics.update({metric: own[span] / 1e9 for metric, span in SELF_SPANS.items()})
    block_tests = calls["bist.run_block_test"]
    metrics["bist.run_block_test_calls"] = len(block_tests)
    metrics["bist.run_block_test_p50_ms"] = statistics.median(block_tests) if block_tests else 0.0
    high = tail(block_tests)
    metrics["bist.run_block_test_tail_ms"] = high[1] if high else 0.0
    metrics["diagnosis.diagnose_calls"] = len(calls["diagnosis.diagnose"])
    metrics.update({name: counters[name] for name in COUNTERS})
    scanned = counters["diagnosis.responses_scanned"]
    metrics["diagnosis.scan_useful_ratio"] = (
        counters["diagnosis.failing_bumps"] / scanned if scanned else 0.0
    )
    wall = sum(r.end_ns - r.start_ns for r in traced) or 1
    metrics["trace.coverage"] = top_level / wall
    return metrics, (top_level - interpreter) / wall


def run_iteration(runner: Runner, steps: list[Step], digests: dict, traced=False) -> list[Result]:
    results = []
    for step in steps:
        result = runner.run_step(step, traced)
        if not result.errors and digests.setdefault(step.name, result.digest) != result.digest:
            runner.record(f"{step.name} repeat", ["output bytes differ between repetitions"])
        results.append(result)
    return results


def report_layers(walls: list[float], traced: list[list[Result]]) -> dict:
    """Print the per-layer metrics; return them as name -> (value, unit)."""
    per_iteration = [
        layer_metrics(iteration) for iteration in traced if all(r.spans for r in iteration)
    ] or [layer_metrics([])]
    traced_walls = [sum(r.wall_s for r in iteration) for iteration in traced]
    metrics = {
        name: statistics.median(m[name] for m, _ in per_iteration) for name in per_iteration[0][0]
    }
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    print(f"traced iteration wall: {describe(traced_walls, 's')}")
    if metrics["trace.coverage"] < 0.9:
        print(f"FLAG: trace coverage {metrics['trace.coverage']:.3f} is below 0.90")
    in_process = statistics.median(c for _, c in per_iteration)
    print(f"coverage without interpreter spans: {in_process:.4f}")
    for name in sorted(metrics):
        print(f"layer {name} = {metrics[name]:.6g} {layer_unit(name)}")
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def report_end_to_end(workload, steps, walls, untraced, setups, references) -> dict:
    """Print the end-to-end metrics; return them as name -> (value, unit)."""
    setup_walls = [r.wall_s for r in setups]
    rss = [max(r.rss_mb for r in iteration) for iteration in untraced]
    scale = REFERENCE_S / statistics.median(references)
    metrics = {
        "items_per_s": workload.items / (statistics.median(walls) * scale),
        "setup_s": statistics.median(setup_walls) * scale,
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"reference process: {describe(references, 's')}; times are scaled by {scale:.4f} "
          f"to a host where it takes {REFERENCE_S} s")
    print(f"unscaled: items_per_s {workload.items / statistics.median(walls):.6g} 1/s, "
          f"setup_s {statistics.median(setup_walls):.6g} s")
    alias = {"fault": "faults_per_s", "bump": "bumps_per_s", "command": "commands_per_s"}
    print(f"metric items_per_s ({alias[workload.item]}, {workload.items} {workload.item}s per "
          f"iteration) = {metrics['items_per_s']:.6g} 1/s; unscaled per iteration "
          f"{describe([workload.items / wall for wall in walls], workload.item + 's/s')}")
    if hasattr(workload, "simulate_faults"):
        simulate = [r.wall_s for iteration in untraced for r, step in zip(iteration, steps)
                    if step.name == "simulate"]
        print(f"metric faults_per_s (simulate step, {workload.simulate_faults} faults) = "
              f"{workload.simulate_faults / (statistics.median(simulate) * scale):.6g} 1/s")
        print(f"command wall: {describe([r.wall_s for i in untraced for r in i], 's')}")
    print(f"metric setup_s = {metrics['setup_s']:.6g} s; unscaled {describe(setup_walls, 's')}")
    print(f"metric peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (child wait4 ru_maxrss); "
          f"{describe(rss, 'MB')}")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def environment() -> str:
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {importlib.metadata.version(package)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{package} absent")
    return (
        f"python {platform.python_version()} ({sys.executable}), {', '.join(versions)}, "
        f"nproc {len(os.sched_getaffinity(0))}, cpu_count {os.cpu_count()}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    for needed in ("pyproject.toml", "src/chipletbist/cli.py", "configs/campaign_16x16_hex.json"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} is missing; run from a chipletbist checkout", file=sys.stderr)
            return 2

    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        return measure(args, Runner(work), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass


def measure(args, runner: Runner, work: Path) -> int:
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(f"environment: {environment()}")
    print("load: closed loop, one client, one child process at a time; host wall time")

    # Invocation guard and warm-up: the CLI must import from this checkout's
    # src, and byte-code caches are filled before anything is timed.
    guard = runner.run_code(
        f"import {runner.entry_module} as m; print(m.__file__)", "invocation-guard"
    )
    origin = (work / "invocation-guard.stdout").read_text().strip()
    if guard.errors or not Path(origin).is_relative_to(ROOT / "src"):
        print(f"error: the CLI did not import from {ROOT / 'src'}: {origin or guard.errors}",
              file=sys.stderr)
        return 2
    print(f"entry point {runner.entry_module}:{runner.entry_func} from {origin}")

    def run_untimed(step: Step) -> list[str]:
        return run_iteration(runner, [step], {})[0].errors

    prepare_errors = workload.prepare(run_untimed)
    if prepare_errors:
        print(f"error: preparing inputs failed: {prepare_errors}", file=sys.stderr)
        return 2
    steps = workload.steps
    bare_import = f"import {runner.entry_module}"
    digests: dict[str, str] = {}
    untraced: list[list[Result]] = []
    traced: list[list[Result]] = []
    setups: list[Result] = []
    references: list[float] = []  # reference process walls, one before each timed unit

    def setup_once() -> None:
        references.append(runner.reference())
        if workload.setup_step is None:
            setups.append(runner.run_code(bare_import, "setup-import"))
        else:
            setups.append(runner.run_step(workload.setup_step))

    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(untraced) < 2:
        if args.trace:
            untraced.append(run_iteration(runner, steps, digests))
            traced.append(run_iteration(runner, steps, digests, traced=True))
        else:
            if len(setups) < SETUP_REPS:
                setup_once()
            references.append(runner.reference())
            untraced.append(run_iteration(runner, steps, digests))
    while not args.trace and len(setups) < SETUP_REPS:
        setup_once()

    try:
        check = workload.check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        check = Check([f"could not read the outputs: {exc!r}"])
    runner.record("post-run checks", check.errors)

    walls = [sum(r.wall_s for r in iteration) for iteration in untraced]
    print(f"iterations: {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(steps)} process(es) each")
    print(f"iteration wall: {describe(walls, 's')}; each: "
          + " ".join(f"{wall:.3f}" for wall in walls))
    if args.trace:
        metrics = report_layers(walls, traced)
    else:
        metrics = report_end_to_end(workload, steps, walls, untraced, setups, references)
    failed = len(runner.failures)
    print(f"metric error_rate = {failed}/{runner.attempted} = {failed / runner.attempted:.6g}")
    if check.hit_rate is not None:
        hits, detected = check.hit_rate
        rate = hits / detected if detected else 0.0
        print(f"metric diagnosis_hit_rate = {hits}/{detected} = {rate:.6g} (exact)")
    print("fingerprint " + json.dumps(check.fingerprint, sort_keys=True))
    print("model: unvalidated; the repository holds no hardware reference data, "
          "so no error figure is given")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
