"""Sweep-style checks of the unique-sink claim: one scan of standard words,
and a check (:func:`check_unique_sink`) of each multidegree that fails it,
read off its whole fiber graph, the only graphs a sweep builds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import (
    _component_labels,
    _pack,
    _partners,
    _peel,
    _sink_plan,
    _standard_levels,
    _unpack,
    build_fiber_graph,
    fiber_sink_key,
    find_sink_direct,
    sinks,
)
from borelfiber.monomials import Monomial, format_monomial


def check_unique_sink(table: GeneratorTable, mu: Monomial) -> list[str]:
    """Violation descriptions for the fiber graph at mu; empty when all good.

    Every verdict is read off :func:`build_fiber_graph`, which keeps each
    listed move as its own edge: every edge must lead to a later point, a
    larger index; no move may leave the fiber (the graph's strays); the
    graph must be connected; its one sink, the one vertex of out-degree 0,
    must be the last point; and the direct sink algorithm must return it.
    """
    graph = build_fiber_graph(table, mu)
    points = graph.vertices
    if not points:
        return []
    violations = [
        f"edge {a}->{b} does not decrease in the sink order" for a, b in graph.edges if b <= a
    ]
    violations += [f"vertex {a} moves to {w}, a point outside the fiber" for a, w in graph.strays]
    if len(set(_component_labels(len(points), graph.edges))) != 1:
        violations.append("fiber graph is disconnected")
    fiber_sinks = sinks(graph)
    if len(fiber_sinks) != 1:
        violations.append(f"{len(fiber_sinks)} sinks instead of one")
    else:
        if fiber_sinks[0] != points[-1]:
            violations.append("sink differs from the sink-order minimum")
        if find_sink_direct(table, mu) != fiber_sinks[0]:
            violations.append("direct sink disagrees with the graph sink")
    if not violations:
        return []
    label = format_monomial(mu, table.context)
    return [f"{label}: {v}" for v in violations]


@dataclass(frozen=True)
class SweepReport:
    multidegrees_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "multidegrees_checked": self.multidegrees_checked,
            "violations": list(self.violations),
        }


def sweep_unique_sinks(table: GeneratorTable, max_tdeg: int, jobs: int = 1) -> SweepReport:
    """Check every nonempty fiber of t-degree 1..max_tdeg, in four steps.

    1. Every entry q of a row ``later_pairs[p]`` has p's sum and a smaller
       sink key; a row that fails gets a violation line of its own.
    2. A pair with a nonempty row is a lead, so the standard words are the
       points without a later move (``fiber._later_moves``): the sinks.
    3. Standard words are scanned up to ``max_tdeg`` codes.
    4. A standard word that is not ``find_sink_direct`` of its sum marks
       its multidegree.  Of two that share a sum at most one is the direct
       sink, so a shared sum is marked too.  Each level keeps its accepted
       words, {sum: (word, hi)}, the level before the first holding the
       empty word at sum 0 with hi 0.  A word whose first peel
       (``fiber._peel``) takes f1 at share hi (``fiber._sink_plan``; none
       when the fiber is empty, which marks the word) is accepted when the
       entry at its sum less f1's has hi max(hi - 1, 0) and, with f1
       inserted, equals the word; otherwise it is held to
       ``find_sink_direct`` itself.  The entry is the direct sink of the
       rest at the share the peels go on with, so this is the direct sink's
       own loop, and a clean sweep calls ``find_sink_direct`` not once.

    Proof.  Step 1 makes every move keep the sum and go forward, so every
    fiber's last point is standard.  With no sum shared, that point is the
    fiber's one sink and every point walks forward to it, so the graph is
    connected, and the distinct sums, ``multidegrees_checked``, are the
    nonempty fibers.  Each marked multidegree, in (degree, mu) order, gets
    its lines from :func:`check_unique_sink`, the only place a sweep
    enumerates a fiber or builds a graph; one it finds no fault in raises
    ``RuntimeError``.  ``jobs`` other than 1 raises ``ValueError``.
    """
    if jobs != 1:
        raise ValueError(f"sweeps no longer run in a process pool, so jobs must be 1, got {jobs}")
    if max_tdeg < 1:
        raise ValueError("the degree bound must be at least 1")
    later, context = table.later_pairs, table.context
    packed, width = _pack(table.generators, max(max_tdeg, 2))
    violations = []
    for p, row in later.items():
        total = sum(map(packed.__getitem__, p))
        for q in row:
            if sum(map(packed.__getitem__, q)) != total or fiber_sink_key(q) >= fiber_sink_key(p):
                label = format_monomial(_unpack([total], width, context.n)[0], context)
                violations.append(f"{label}: row {p} lists {q}, not a later point of its fiber")
    partners = _partners([p for p, row in later.items() if row], len(packed))
    checked, marked, accepted = 0, {}, {0: ((), 0)}
    for length, level in enumerate(_standard_levels(partners, packed, max_tdeg), 1):
        totals = [total for _, total, _ in level]
        checked += len(set(totals))
        shorter, accepted = accepted, {}
        for (word, total, _), mu in zip(level, _unpack(totals, width, context.n)):
            plan = _sink_plan(table, mu)
            if plan is None:
                marked[length, total] = mu
                continue
            s_mu, _, hi = plan
            f1, _ = _peel(table, s_mu, hi)
            rest, rest_hi = shorter.get(total - packed[f1], ((), -1))
            at = bisect_right(rest, f1)
            one_peel = rest_hi == max(hi - 1, 0) and rest[:at] + (f1,) + rest[at:] == word
            if one_peel or find_sink_direct(table, mu) == word:
                accepted[total] = word, hi
            else:
                marked[length, total] = mu
    for _, mu in sorted(marked.items()):
        found = check_unique_sink(table, mu)
        if not found:
            raise RuntimeError(f"the scan marks {mu}, but its fiber has no fault")
        violations.extend(found)
    return SweepReport(multidegrees_checked=checked, violations=tuple(violations))
