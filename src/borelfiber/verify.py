"""Sweep-style checks of the unique-sink claim, fanned out in interleaved shares.

Each fiber is checked by scanning one later paired move per point; the
fiber graph is built only for a fiber that fails the scan.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import (
    FiberPoint,
    _component_labels,
    _fiber_in_sink_order,
    _later_moves,
    build_fiber_graph,
    fibers,
    find_sink_direct,
)
from borelfiber.monomials import Monomial, format_monomial


def check_unique_sink(
    table: GeneratorTable, mu: Monomial, points: list[FiberPoint] | None = None
) -> list[str]:
    """Violation descriptions for the fiber graph at mu; empty when all good.

    ``points`` is the fiber in descending sink order when the caller already
    has it (see :func:`~borelfiber.fiber.fibers`); otherwise the fiber is
    enumerated.  A point is a sink exactly when it has no later paired move,
    so the check scans each point's first later move and builds no edges:
    that move must lead to a larger index, the one point without a move is
    the sink, which must be the last point, and the direct sink algorithm
    must return it.  With every scanned move forward and one sink, each
    point walks forward to that sink, so the graph is connected; only
    otherwise is the fiber graph built and its components counted.
    """
    if points is None:
        points = _fiber_in_sink_order(table, mu)
    if not points:
        return []
    later = table.later_pairs
    index = {p: i for i, p in enumerate(points)}
    violations = []
    fiber_sinks = []
    for i, z in enumerate(points):
        target = next(_later_moves(later, z), None)
        if target is None:
            fiber_sinks.append(z)
        elif index[target] <= i:
            violations.append(f"edge {i}->{index[target]} does not decrease in the sink order")
    if violations or len(fiber_sinks) != 1:
        graph = build_fiber_graph(table, mu, points)
        if len(set(_component_labels(len(points), graph.edges))) != 1:
            violations.append("fiber graph is disconnected")
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


def _check_fibers(table: GeneratorTable, items) -> list[list[str]]:
    """Violations of each (mu, points) fiber in ``items``, in order."""
    return [check_unique_sink(table, mu, points) for mu, points in items]


def sweep_unique_sinks(table: GeneratorTable, max_tdeg: int, jobs: int = 1) -> SweepReport:
    """Check every nonempty fiber of t-degree up to the bound.

    The fibers come from one grouped pass (:func:`~borelfiber.fiber.fibers`).
    At most ``jobs`` worker processes check them, never more than the CPUs or
    the multidegrees.  Worker i gets the table and the interleaved share
    ``items[i::workers]``, and its results go back to the same slots, so the
    report lists violations in multidegree order at any parallelism width.
    """
    items = list(fibers(table.generators, max_tdeg).items())
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers > 1:
        results: list[list[str]] = [[]] * len(items)
        shares = [items[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, part in enumerate(pool.map(_check_fibers, [table] * workers, shares)):
                results[i::workers] = part
    else:
        results = _check_fibers(table, items)
    violations = [v for vs in results for v in vs]
    return SweepReport(multidegrees_checked=len(items), violations=tuple(violations))
