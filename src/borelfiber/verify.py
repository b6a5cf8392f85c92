"""Sweep-style checks of the unique-sink claim, fanned out in interleaved shares."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import (
    FiberPoint,
    _component_labels,
    build_fiber_graph,
    fiber_sink_key,
    fibers,
    find_sink_direct,
    sinks,
)
from borelfiber.monomials import Monomial, format_monomial


def check_unique_sink(
    table: GeneratorTable, mu: Monomial, points: list[FiberPoint] | None = None
) -> list[str]:
    """Violation descriptions for the fiber graph at mu; empty when all good.

    Checks the oriented edges decrease in the fiber sink order, the graph is
    connected (implied, and not recounted, when the edges all decrease and
    there is one sink), the sink is unique and equal to the order minimum,
    and the direct sink algorithm returns the same point.  ``points`` is the
    fiber in descending sink order when the caller already has it (see
    :func:`~borelfiber.fiber.fibers`); otherwise the fiber is enumerated.
    """
    graph = build_fiber_graph(table, mu, points)
    if not graph.vertices:
        return []
    violations = []
    keys = list(map(fiber_sink_key, graph.vertices))
    for a, b in graph.edges:
        if keys[a] <= keys[b]:
            violations.append(f"edge {a}->{b} does not decrease in the sink order")
    graph_sinks = sinks(graph)
    # With every edge forward and one sink, each vertex walks forward to that
    # sink, so the graph is connected; only otherwise are components counted.
    if violations or len(graph_sinks) != 1:
        if len(set(_component_labels(len(graph.vertices), graph.edges))) != 1:
            violations.append("fiber graph is disconnected")
    if len(graph_sinks) != 1:
        violations.append(f"{len(graph_sinks)} sinks instead of one")
    else:
        if graph_sinks[0] != graph.vertices[-1]:
            violations.append("sink differs from the sink-order minimum")
        if find_sink_direct(table, mu) != graph_sinks[0]:
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
