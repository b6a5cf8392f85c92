"""Sweep-style checks of the unique-sink claim: one scan of standard words,
and a check (:func:`check_unique_sink`) of each multidegree that fails it,
read off its whole fiber graph, the only graphs a sweep builds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

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
    fiber_sink_ranks,
    find_sink_direct,
    sinks,
)
from borelfiber.monomials import Monomial, format_monomial, from_sigma, sigma


def check_unique_sink(table: GeneratorTable, mu: Monomial) -> list[str]:
    """Violation descriptions for the fiber graph at mu; empty when all good.

    Every verdict is read off :func:`build_fiber_graph`, which joins the
    fiber's own points and reads none of the table's rows, so it is
    independent of the sweep's scan.  Its edges all lead to later points,
    so its last point is a sink; the graph must be connected, that sink,
    the one vertex of out-degree 0, must be its only one, and the direct
    sink algorithm must return it.
    """
    graph = build_fiber_graph(table, mu)
    points = graph.vertices
    if not points:
        return []
    violations = []
    if len(set(_component_labels(len(points), graph.edges))) != 1:
        violations.append("fiber graph is disconnected")
    fiber_sinks = sinks(graph)
    if len(fiber_sinks) != 1:
        violations.append(f"{len(fiber_sinks)} sinks instead of one")
    elif find_sink_direct(table, mu) != fiber_sinks[0]:
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
       sink key; a row that fails gets a violation line of its own.  Rows
       hold pairs, so each sum is two packed codes added and each key one
       integer (``fiber.fiber_sink_ranks``), taken by columns.
    2. A pair with a nonempty row is a lead, so the standard words are the
       points none of whose factor pairs has a later move: the sinks.
    3. Standard words are scanned up to ``max_tdeg`` codes.  The scan sums
       the generators' suffix sums, packed (``fiber._pack``): sigma is
       linear and injective, so a word's sum is sigma(mu) of its
       multidegree mu, packed, one integer per multidegree, and unpacked it
       is the suffix sums that the direct sink reads.
    4. A standard word that is not ``find_sink_direct`` of its sum marks
       its multidegree.  Of two that share a sum at most one is the direct
       sink, so a shared sum is marked too.  Each level keeps its accepted
       words, {sum: (word, hi)}, the level before the first holding the
       empty word at sum 0 with hi 0.  A word of length t makes one share
       test (``fiber._sink_plan`` on its unpacked sum and t; none when the
       fiber is empty, which marks the word) and one peel (``fiber._peel``),
       which takes f1 at share hi.  It is accepted when the entry at its
       sum less f1's has hi max(hi - 1, 0) and, with f1 inserted, equals
       the word; otherwise it is held to ``find_sink_direct`` itself.  The
       entry is the direct sink of the rest at the share the peels go on
       with, so this is the direct sink's own loop, and a clean sweep calls
       ``find_sink_direct`` not once.  mu is read back from its suffix sums
       only for a word held to ``find_sink_direct`` or marked, and for a
       row that fails step 1.

    Proof.  Step 1 makes every move keep the sum and go forward, so every
    fiber's last point is standard.  With no sum shared, that point is the
    fiber's one sink and every point walks forward to it, so the graph is
    connected, and the distinct sums, ``multidegrees_checked``, are the
    nonempty fibers.  Each marked multidegree, in (degree, mu) order, gets
    its lines from :func:`check_unique_sink`, the only place a sweep
    enumerates a fiber or builds a graph.  That graph reads no rows, so a
    row that misses a move can leave a fiber it finds no fault in: the
    scan then took a point with a later move for a sink, and the
    multidegree gets the line "a standard word of the scan is not the
    graph's sink".  ``jobs`` other than 1 raises ``ValueError``, and so
    does a table of more than two roots, which the direct sink refuses.
    """
    if jobs != 1:
        raise ValueError(f"sweeps no longer run in a process pool, so jobs must be 1, got {jobs}")
    if max_tdeg < 1:
        raise ValueError("the degree bound must be at least 1")
    if len(table.roots) > 2:
        raise ValueError("the direct sink algorithm needs a two-Borel or principal table")
    later, context = table.later_pairs, table.context
    packed, width = _pack([sigma(g) for g in table.generators], max(max_tdeg, 2))
    violations, size = [], len(packed)
    entries = list(chain.from_iterable(later.values()))
    # The rows' entries as columns; zip takes from a row first, so it stops
    # at the row's end without taking from the columns.
    ranks = iter(fiber_sink_ranks(entries, size))
    sums = iter([packed[c] + packed[d] for c, d in entries])
    for (p, row), rank in zip(later.items(), fiber_sink_ranks(later, size)):
        total = packed[p[0]] + packed[p[1]]
        for q, q_rank, q_sum in zip(row, ranks, sums):
            if q_sum != total or q_rank <= rank:
                mu = from_sigma(_unpack([total], width, context.n)[0])
                label = format_monomial(mu, context)
                violations.append(f"{label}: row {p} lists {q}, not a later point of its fiber")
    partners = _partners([p for p, row in later.items() if row], len(packed))
    checked, marked, accepted = 0, set(), {0: ((), 0)}
    for length, level in enumerate(_standard_levels(partners, packed, max_tdeg), 1):
        totals = [total for _, total, _ in level]
        checked += len(set(totals))
        shorter, accepted = accepted, {}
        for (word, total, _), s_mu in zip(level, _unpack(totals, width, context.n)):
            hi = _sink_plan(table, s_mu, length)
            if hi is None:
                marked.add((length, from_sigma(s_mu)))
                continue
            f1, _ = _peel(table, s_mu, hi)
            rest, rest_hi = shorter.get(total - packed[f1], ((), -1))
            at = bisect_right(rest, f1)
            one_peel = rest_hi == max(hi - 1, 0) and rest[:at] + (f1,) + rest[at:] == word
            if one_peel or find_sink_direct(table, from_sigma(s_mu)) == word:
                accepted[total] = word, hi
            else:
                marked.add((length, from_sigma(s_mu)))
    # Packed sigma does not sort as mu does, so the marks are sorted by mu.
    for _, mu in sorted(marked):
        line = f"{format_monomial(mu, context)}: a standard word of the scan is not the graph's sink"
        violations += check_unique_sink(table, mu) or [line]
    return SweepReport(multidegrees_checked=checked, violations=tuple(violations))
