"""The tests' single-fault oracle: every single fault, simulated on the whole map.

``quad_map`` is the canonical group under test, one bump per colour in one
block.  ``every_single_fault`` is a map's single-fault universe, over the
potential-short edges or any other pairs.
``reference_result`` is one fault's report entry built from the full-map
``run_block_test`` and ``diagnose`` on every block: the reference that the
fault-local campaign engine must equal.  ``failing_groups`` gathers the
faults that no test response tells apart, which a sound diagnosis must name
together.
"""

from chipletbist.bist import Bridge, BridgeBehavior, StuckAt, run_block_test
from chipletbist.bumpmap import COLOR_ORDER, BumpMap, Lattice, LatticeKind
from chipletbist.campaign import diagnosis_to_dict
from chipletbist.diagnosis import BridgeCandidate, diagnose


def quad_map():
    """One bump per color, one block, used as the canonical GUT."""
    lattice = Lattice(LatticeKind.RECTANGULAR, 1, 4, 20.0)
    return BumpMap(lattice, coloring=COLOR_ORDER, blocks=(0, 0, 0, 0), block_count=1)


def every_single_fault(bump_map, graph, pairs=None):
    """SA-0 and SA-1 on every bump, and both behaviours on every bridged pair.

    The pairs are the potential-short edges unless ``pairs`` gives others.
    """
    pairs = graph.sorted_edges if pairs is None else pairs
    faults = [StuckAt(bump, value) for bump in range(bump_map.bump_count) for value in (0, 1)]
    faults += [Bridge(a, b, behavior) for a, b in pairs for behavior in BridgeBehavior]
    return faults


def names(candidate, fault):
    """Whether a diagnosis candidate names the fault, its bridge behaviour folded away."""
    if isinstance(candidate, StuckAt):
        return candidate == fault
    return isinstance(candidate, BridgeCandidate) and isinstance(fault, Bridge) and (
        (candidate.a, candidate.b) == (fault.a, fault.b)
    )


def reference_result(fault, bump_map, graph, dictionary):
    """The fault's ``detected``, ``failing``, ``diagnosis`` and ``diagnosis_hit``."""
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
        "diagnosis_hit": any(names(c, fault) for _, entry in entries for c in entry.candidates),
    }


def folded(fault):
    """The fault as a diagnosis candidate names it: its bridge behaviour folded away."""
    return BridgeCandidate(fault.a, fault.b) if isinstance(fault, Bridge) else fault


def failing_groups(faults, references):
    """Each fault's group: every detected fault, folded, with the same failing list.

    ``references`` are the faults' ``reference_result``s, so the failing
    lists are the full-map ``run_block_test``'s.  An undetected fault's group
    is empty.
    """
    keys = [
        tuple((item["block"], item["bump"], *item["response"]) for item in reference["failing"])
        for reference in references
    ]
    groups = {}
    for fault, key in zip(faults, keys, strict=True):
        if key:
            groups.setdefault(key, set()).add(folded(fault))
    return [frozenset(groups.get(key, ())) for key in keys]
