"""Command-line front end.

Subcommands: gen-map, dictionary, simulate, diagnose, netlist, fit, classify.
Exit status is 0 on success, 1 on a validation/usage error, and 2 on a
simulation error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from importlib import import_module
from functools import partial
from itertools import chain, islice
from operator import attrgetter, itemgetter

from . import _EXPORTS, __version__
from .canonical import SCHEMA_VERSION, _encode_str, _TextRows, stream_json
from .errors import KitError, ParameterError, SimulationError
from .kinds import (
    DEFAULT_SHORT_RADIUS_FACTOR,
    MAX_POLYNOMIAL_DEGREE,
    ComponentKind,
    CurveFamily,
    ElectricalScenario,
    LatticeKind,
    PhysicalDefect,
)

# The tracer's hook: perfbench/tracer.py times layers by wrapping these 13
# names on this module, and the tuple goes once the program traces itself.
# Each name is a forwarder to the public function of that name, in the module
# the package's export table names; that module is imported on the
# forwarder's first call, so that a command loads only the modules it runs.
# The commands call them as this module's globals, so a wrapper set here
# fires.  gen-map calls the four bumpmap names; canonical_json is never called
# here, as the commands stream their documents.
_FORWARDED = (
    "assign_codewords", "build_bump_map", "partition_blocks", "potential_short_graph",
    "build_fault_dictionary", "canonical_json", "load_config", "rediagnose_report",
    "run_campaign", "classify_defect", "emit_netlist", "fit_severity_curve", "load_samples_csv",
)


def _forwarder(name: str):
    def forward(*args, **kwargs):
        module = import_module(f".{_EXPORTS[name]}", __package__)
        return getattr(module, name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


globals().update({name: _forwarder(name) for name in _FORWARDED})


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)


def _write_output(text: str, out: str | None) -> None:
    """Write one text, checked as UTF-8 before anything opens: it is the only
    output a text argument's non-UTF-8 bytes (lone surrogates) can reach."""
    if out is None and not text.endswith("\n"):
        text += "\n"  # as every JSON document ends
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise ParameterError(
            f"output is not valid UTF-8 ({bad!r} at character {exc.start}); "
            "a text argument holds bytes that are not UTF-8"
        ) from None
    _stream(lambda write: write(text), out)


def _write_json(document, out: str | None) -> None:
    """Stream ``document``'s canonical JSON as the writer makes its pieces."""
    _stream(partial(stream_json, document), out)


def _stream(walk, out: str | None) -> None:
    """Hand ``walk`` the ``write`` of one UTF-8 text stream: ``out``, opened
    before the first piece, or a wrapper over stdout's buffer, so stdout gets
    the same bytes whatever its encoding.  No JSON document holds a lone
    surrogate (the one user string a document echoes, ``output.report``, is
    rejected at parse), so no piece fails to encode."""
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as stream:
            walk(stream.write)
        return
    sys.stdout.flush()  # what the text layer holds goes first
    stream = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8", newline="")
    try:
        walk(stream.write)
    finally:
        stream.detach()  # flushes, and leaves stdout's buffer open


def _cmd_gen_map(args) -> int:
    # campaign.build_campaign_map's steps, through this module's forwarders,
    # so that gen-map loads no fault engine.
    from .bumpmap import Lattice

    lattice = Lattice(LatticeKind(args.kind), args.rows, args.cols, args.pitch_um)
    bump_map = build_bump_map(lattice)
    graph = potential_short_graph(bump_map, args.radius_factor * args.pitch_um)
    bump_map = partition_blocks(assign_codewords(bump_map, graph), args.blocks)
    cols = lattice.cols
    payload = {
        "version": SCHEMA_VERSION,
        "lattice": {
            "kind": lattice.kind.value,
            "rows": lattice.rows,
            "cols": lattice.cols,
            "pitch_um": lattice.pitch_um,
        },
        "short_radius_um": graph.short_radius_um,
        "positions": _TextRows(partial(_position_rows, lattice)),
        # Greedy's colors repeat over its period of rows, the column bands every row.
        "colors": _TextRows(partial(_flat_rows, bump_map.coloring, cols, _color_texts)),
        "blocks": _TextRows(partial(_flat_rows, bump_map.blocks, cols, partial(map, int.__repr__))),
        "block_count": bump_map.block_count,
        "edges": _TextRows(partial(_edge_rows, graph, lattice)),
    }
    _write_json(payload, args.out)
    return 0


def _color_texts(row):
    return map(_encode_str, map(attrgetter("_value_"), row))


def _position_rows(lattice, inner):
    """Each lattice row's positions as one text: its y text joined into the
    split template of its row parity, which holds that parity's x texts."""
    from .bumpmap import lattice_coordinates

    xs, odd_xs, ys = lattice_coordinates(lattice)
    deeper, between = inner + "  ", f"{inner}],{inner}["
    templates = [
        [f"{between if c else '['}{deeper}{x!r},{deeper}" for c, x in enumerate(row)] + [inner + "]"]
        for row in (xs, odd_xs)
    ]
    for r, y in enumerate(ys):
        yield repr(y).join(templates[r % 2])


def _flat_rows(items, cols, texts, inner):
    """Each lattice row of a per-bump list as one text of its items' ``texts``:
    a row equal to any earlier row reuses that row's text."""
    separator, known = "," + inner, {}
    for start in range(0, len(items), cols):
        row = items[start : start + cols]
        if row not in known:
            known[row] = separator.join(texts(row))
        yield known[row]


def _edge_rows(graph, lattice, inner):
    """Each lattice row's sorted edges as one text.  Each id is formatted once,
    only the ``period[1]`` ids a row can reach are held, and each row pattern
    gets one separator list and one getter of its ids from that window."""
    deeper, layouts = inner + "  ", {}
    texts = map(int.__repr__, range(lattice.bump_count))
    near = list(islice(texts, graph.period[1]))
    for _, low, up in graph.sorted_edges.row_patterns():
        # row_patterns hands out one offset list per kind of row.
        if low and id(low) not in layouts:
            pieces = [f"{inner}],{inner}[{deeper}", "", f",{deeper}", ""] * len(low) + [inner + "]"]
            pieces[0] = "[" + deeper
            layouts[id(low)] = pieces, itemgetter(*chain.from_iterable(zip(low, up)))
        if low:
            pieces, ids = layouts[id(low)]
            pieces[1::2] = ids(near)
        yield "".join(pieces) if low else ""
        near = near[lattice.cols :] + list(islice(texts, lattice.cols))


def _quad_fault_name(fault) -> str:
    from .diagnosis import QuadStuckAt

    if isinstance(fault, QuadStuckAt):
        return f"{fault.color.value} sa-{fault.value}"
    return f"{fault.color_a.value}+{fault.color_b.value} bridge"


def _cmd_dictionary(args) -> int:
    from .bist import BridgeBehavior
    from .bumpmap import COLOR_ORDER
    from .diagnosis import diagnosability_ratio

    dictionary = build_fault_dictionary()
    numerator, denominator = diagnosability_ratio(dictionary)
    pairs = sorted(
        tuple(sorted(_quad_fault_name(f) for f in pair)) for pair in dictionary.ambiguous_pairs
    )
    if args.format == "json":
        entries = []
        for signature, faults in sorted(dictionary.by_signature.items()):
            entries.append(
                {
                    "signature": {
                        color.value: list(resp) for color, resp in zip(COLOR_ORDER, signature)
                    },
                    "faults": sorted(_quad_fault_name(f) for f in faults),
                }
            )
        payload = {
            "version": SCHEMA_VERSION,
            "diagnosability": {
                "numerator": numerator,
                "denominator": denominator,
                "decimal": numerator / denominator,
            },
            "ambiguous_pairs": [list(p) for p in pairs],
            "entries": entries,
        }
        _write_json(payload, args.out)
        return 0
    if args.format == "csv":
        lines = [",".join(["fault", "behavior", *(color.value for color in COLOR_ORDER)])]
        for fault in dictionary.universe:
            signatures = dictionary.signatures_of[fault]
            behaviors = ["-"] if len(signatures) == 1 else [b.value for b in BridgeBehavior]
            for behavior, signature in zip(behaviors, signatures):
                cells = ["{}|{}".format(*resp) for resp in signature]
                lines.append(",".join([_quad_fault_name(fault), behavior, *cells]))
        _write_output("\n".join(lines) + "\n", args.out)
        return 0
    lines = [
        f"fault universe: {len(dictionary.universe)} single faults",
        f"ambiguous pairs: {len(dictionary.ambiguous_pairs)}",
    ]
    for left, right in pairs:
        lines.append(f"  {left}  <->  {right}")
    lines.append(
        f"diagnosability D = {numerator}/{denominator} = {numerator / denominator:.5f}"
    )
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    from .campaign import config_to_dict, parse_config

    config = load_config(args.config)
    if args.seed is not None:
        if config.sampler is None:
            raise ParameterError("--seed override requires a sampler-based config")
        data = config_to_dict(config)
        data["sampler"]["seed"] = args.seed
        config = parse_config(data)
    out = args.out or config.output_report
    if args.format == "csv" and out is None:
        raise ParameterError("--format csv needs --out or output.report in the config")
    report = run_campaign(config)
    _write_json(report, out)
    if out is not None:
        metrics = report["metrics"]
        if args.format == "csv":
            rates = (metrics["detection_rate"], metrics["inter_block_wired_or"]["escape_rate"])
            _write_output(
                "injected,detected,detection_rate,inter_block_wired_or_escape_rate\n"
                f"{metrics['injected']},{metrics['detected']},"
                + ",".join("" if rate is None else str(rate) for rate in rates),
                None,
            )
        else:
            _write_json(metrics, None)
    return 0


def _cmd_diagnose(args) -> int:
    from .campaign import reject_duplicate_keys

    with open(args.report, encoding="utf-8") as handle:
        try:
            report = json.load(handle, object_pairs_hook=reject_duplicate_keys)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and bytes that are not UTF-8.
            raise ParameterError(f"{args.report}: invalid JSON ({exc})") from None
    _write_json(rediagnose_report(report), args.out)
    return 0


_DEFECT_CHOICES = {
    "none": None,
    "crack": PhysicalDefect.PILLAR_CRACK,
    "full-break": PhysicalDefect.PILLAR_CRACK,
    "resistive-misalignment": PhysicalDefect.RESISTIVE_MISALIGNMENT,
    "capacitive-misalignment": PhysicalDefect.CAPACITIVE_MISALIGNMENT,
    "bridge": "bridge",
    "damaged-rdl": PhysicalDefect.DAMAGED_RDL,
}


def _cmd_netlist(args) -> int:
    from .circuits import build_faulty_circuit

    component = ComponentKind(args.component)
    defect = _DEFECT_CHOICES[args.defect]
    if defect == "bridge":
        defect = (
            PhysicalDefect.PILLAR_BRIDGE
            if component is ComponentKind.CU_PILLAR
            else PhysicalDefect.RDL_BRIDGE
        )
    if args.defect == "full-break" and args.rf_ohm is not None:
        raise ParameterError("a full break takes only --cf-farad (no residual path)")
    if component is ComponentKind.CU_PILLAR and args.length_um is not None:
        raise ParameterError("--length-um applies to --component rdl only (fixed pillar geometry)")
    circuit = build_faulty_circuit(
        component,
        defect,
        r_fault_ohm=args.rf_ohm,
        c_fault_f=args.cf_farad,
        length_um=args.length_um,
        contact_resistance_ohm=args.contact_ohm,
    )
    # The deck format ends at ".END" with no trailing newline; keep file
    # bytes identical to the emitted text.
    _write_output(emit_netlist(circuit, args.title), args.out)
    return 0


def _cmd_fit(args) -> int:
    family = CurveFamily(args.family)
    if family is not CurveFamily.POLYNOMIAL and args.degree is not None:
        raise ParameterError(f"--degree applies to --family polynomial only, not {family.value}")
    degree = MAX_POLYNOMIAL_DEGREE if args.degree is None else args.degree
    samples = load_samples_csv(args.csv)
    curve = fit_severity_curve(samples, family, degree=degree)
    payload = {
        "family": curve.family.value,
        "coefficients": list(curve.coefficients),
        "domain": [curve.x_min, curve.x_max],
        "n_samples": len(samples),
    }
    _write_json(payload, args.out)
    return 0


def _cmd_classify(args) -> int:
    from .defects import FaultMagnitude

    if (args.r_ohm is None) == (args.c_farad is None):
        raise ParameterError("classify needs exactly one of --r-ohm and --c-farad")
    if args.r_ohm is not None:
        magnitude = FaultMagnitude.resistance(args.r_ohm)
    else:
        magnitude = FaultMagnitude.capacitance(args.c_farad)
    fault_class = classify_defect(ElectricalScenario(args.scenario), magnitude)
    _write_output(fault_class.value, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chipletbist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"chipletbist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-map", help="emit a colored, blocked bump map")
    p.add_argument("--kind", choices=[k.value for k in LatticeKind], required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--pitch-um", type=float, required=True)
    p.add_argument("--radius-factor", type=float, default=DEFAULT_SHORT_RADIUS_FACTOR)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_map)

    p = sub.add_parser("dictionary", help="emit the 14-fault dictionary and diagnosability")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dictionary)

    p = sub.add_parser("simulate", help="run a fault campaign from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="report path; metrics go to stdout")
    p.add_argument("--seed", type=int, help="override the sampler seed")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagnose", help="re-diagnose a stored campaign report")
    p.add_argument("--report", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("netlist", help="emit an equivalent-circuit card deck")
    p.add_argument("--component", choices=[k.value for k in ComponentKind], required=True)
    p.add_argument("--defect", choices=sorted(_DEFECT_CHOICES), default="none")
    p.add_argument("--rf-ohm", type=float)
    p.add_argument("--cf-farad", type=float)
    p.add_argument("--length-um", type=float)
    p.add_argument("--contact-ohm", type=float, default=0.0)
    p.add_argument("--title", default="")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_netlist)

    p = sub.add_parser("fit", help="fit a severity curve from CSV samples")
    p.add_argument("--csv", required=True)
    p.add_argument("--family", choices=[f.value for f in CurveFamily], required=True)
    p.add_argument("--degree", type=int, help=f"polynomial only (default {MAX_POLYNOMIAL_DEGREE})")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("classify", help="classify a defect magnitude")
    p.add_argument(
        "--scenario", choices=[s.value for s in ElectricalScenario], required=True
    )
    p.add_argument("--r-ohm", type=float)
    p.add_argument("--c-farad", type=float)
    p.set_defaults(func=_cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    except (KitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # Unwinding the command frees what it held, so one line still prints.
        print("error: out of memory", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
