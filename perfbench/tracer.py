"""Run one chipletbist CLI command in this process, with spans around each layer.

Usage: python tracer.py SPANS_OUT -- CLI_ARGS...

The tracer times ``import chipletbist.cli``, then replaces each layer's public
functions with timing wrappers under the names their callers look them up by
(the modules import them by name, so ``chipletbist.campaign.run_block_test``
is wrapped, not ``chipletbist.bist.run_block_test``).  It then calls
``cli.main(CLI_ARGS)``.  No program file is edited.

Spans are ``[name, start_ns, end_ns, parent_index]`` on the monotonic clock,
kept in memory and written to SPANS_OUT as one JSON line when ``main``
returns.  A second line holds the clock reading after that write, so the
caller can time interpreter teardown as a span of its own.  Counters are
taken from the arguments and results at the same boundaries; the work of
counting runs under ``trace.count`` spans, so it is not billed to a layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time

FIRST_NS = time.monotonic_ns()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.monotonic_ns(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic_ns()
        self.stack.pop()

    def add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def traced(self, fn, name: str, count=None):
        """``fn`` wrapped in a span; ``count(tracer, args, result)`` runs after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                index = self.open("trace.count")
                try:
                    count(self, args, result)
                finally:
                    self.close(index)
            return result

        return wrapper

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        setattr(module, attr, self.traced(getattr(module, attr), name, count))


def _count_bumps(tracer, args, bump_map):
    tracer.add("bumpmap.bumps", bump_map.bump_count)


def _count_edges(tracer, args, graph):
    tracer.add("bumpmap.edges", graph.edge_count)


def _count_output(tracer, args, text):
    tracer.add("campaign.output_bytes", len(text.encode("utf-8")))


def _count_block_test(tracer, args, reports):
    bump_map, faults = args[0], list(args[1])
    failing = sum(resp.y == 0 for report in reports for resp in report.responses.values())
    tracer.add("bist.failing_bumps", failing)
    tracer.add("bist.detected" if failing else "bist.escaped", 1)
    if not failing and len(faults) == 1:
        fault = faults[0]
        behavior = getattr(fault, "behavior", None)
        if (
            behavior is not None
            and behavior.value == "wired-or"
            and bump_map.blocks[fault.a] != bump_map.blocks[fault.b]
        ):
            tracer.add("bist.inter_block_wired_or_escaped", 1)


def _count_overhead(tracer, args, overhead):
    tracer.add("bist.test_cycles", overhead.test_cycles)


def _count_diagnose(tracer, args, entries):
    tracer.add("diagnosis.responses_scanned", len(args[0].responses))
    tracer.add("diagnosis.failing_bumps", len(entries))
    tracer.add("diagnosis.candidates", sum(len(e.candidates) for e in entries))
    tracer.add("diagnosis.unmodeled", sum(e.unmodeled for e in entries))


def _count_campaign(tracer, args, report):
    tracer.add("diagnosis.hits", report["metrics"]["diagnosis_hits"])


def _candidate_hits(fault: dict, diagnosis: list[dict]) -> bool:
    if fault["kind"] == "bridge":
        want = {"kind": "bridge", "a": fault["a"], "b": fault["b"]}
    else:
        want = fault
    return any(c == want for entry in diagnosis for c in entry["candidates"])


def _count_rediagnose(tracer, args, output):
    results = args[0]["fault_results"]
    hits = sum(
        _candidate_hits(result["fault"], diagnosis)
        for result, diagnosis in zip(results, output["diagnoses"])
    )
    tracer.add("diagnosis.hits", hits)


class _JsonProxy:
    """The ``json`` module as ``chipletbist.cli`` sees it, with ``load`` traced."""

    def __init__(self, real, load) -> None:
        self._real = real
        self.load = load

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer, cli, campaign) -> None:
    for module in (cli, campaign):
        tracer.wrap(module, "build_bump_map", "bumpmap.build_bump_map", _count_bumps)
        tracer.wrap(module, "potential_short_graph", "bumpmap.potential_short_graph", _count_edges)
        tracer.wrap(module, "assign_codewords", "bumpmap.assign_codewords")
        tracer.wrap(module, "partition_blocks", "bumpmap.partition_blocks")
        tracer.wrap(module, "build_fault_dictionary", "diagnosis.build_fault_dictionary")
    tracer.wrap(campaign, "build_campaign_map", "campaign.build_campaign_map")
    tracer.wrap(campaign, "sample_faults", "campaign.sample_faults")
    tracer.wrap(campaign, "run_block_test", "bist.run_block_test", _count_block_test)
    tracer.wrap(campaign, "overhead_report", "bist.overhead_report", _count_overhead)
    tracer.wrap(campaign, "diagnose", "diagnosis.diagnose", _count_diagnose)
    tracer.wrap(cli, "load_config", "campaign.load_config")
    tracer.wrap(cli, "run_campaign", "campaign.run_campaign", _count_campaign)
    tracer.wrap(cli, "rediagnose_report", "campaign.rediagnose_report", _count_rediagnose)
    tracer.wrap(cli, "canonical_json", "campaign.canonical_json", _count_output)
    tracer.wrap(cli, "classify_defect", "defects.classify_defect")
    tracer.wrap(cli, "emit_netlist", "circuits.emit_netlist")
    tracer.wrap(cli, "fit_severity_curve", "curves.fit_severity_curve")
    tracer.wrap(cli, "load_samples_csv", "curves.load_samples_csv")
    cli.json = _JsonProxy(cli.json, tracer.traced(cli.json.load, "cli.report_load"))


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py SPANS_OUT -- CLI_ARGS...", file=sys.stderr)
        return 1
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    index = tracer.open("cli.import")
    import chipletbist.campaign as campaign
    import chipletbist.cli as cli

    tracer.close(index)
    install(tracer, cli, campaign)
    rc = tracer.traced(cli.main, "cli.main")(argv)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"first_ns": FIRST_NS, "spans": tracer.spans, "counters": tracer.counters}, handle)
        handle.write("\n")
        handle.flush()
        handle.write(f"{time.monotonic_ns()}\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
