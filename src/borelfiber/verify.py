"""Sweep-style checks of the unique-sink claim, fanned out per multidegree."""

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
    connected, the sink is unique and equal to the order minimum, and the
    direct sink algorithm returns the same point.  ``points`` is the fiber in
    descending sink order when the caller already has it (see
    :func:`~borelfiber.fiber.fibers`); otherwise the fiber is enumerated.
    """
    graph = build_fiber_graph(table, mu, points)
    if not graph.vertices:
        return []
    label = format_monomial(mu, table.context)
    violations = []
    keys = [fiber_sink_key(v) for v in graph.vertices]
    for a, b in graph.edges:
        if keys[a] <= keys[b]:
            violations.append(f"{label}: edge {a}->{b} does not decrease in the sink order")
    if len(set(_component_labels(len(graph.vertices), graph.edges))) != 1:
        violations.append(f"{label}: fiber graph is disconnected")
    graph_sinks = sinks(graph)
    if len(graph_sinks) != 1:
        violations.append(f"{label}: {len(graph_sinks)} sinks instead of one")
    else:
        if graph_sinks[0] != graph.vertices[-1]:
            violations.append(f"{label}: sink differs from the sink-order minimum")
        if find_sink_direct(table, mu) != graph_sinks[0]:
            violations.append(f"{label}: direct sink disagrees with the graph sink")
    return violations


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


_WORKER_TABLE: GeneratorTable | None = None


def _init_worker(table: GeneratorTable) -> None:
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _check_one(mu: Monomial, points: list[FiberPoint]) -> list[str]:
    if _WORKER_TABLE is None:
        raise RuntimeError("_check_one runs only in a worker started by _init_worker")
    return check_unique_sink(_WORKER_TABLE, mu, points)


def sweep_unique_sinks(table: GeneratorTable, max_tdeg: int, jobs: int = 1) -> SweepReport:
    """Check every nonempty fiber of t-degree up to the bound.

    The fibers come from one grouped pass (:func:`~borelfiber.fiber.fibers`).
    At most ``jobs`` worker processes check them, never more than the CPUs or
    the multidegrees; results are merged in multidegree order, so the report
    is identical at any parallelism width.
    """
    groups = fibers(table, max_tdeg)
    workers = min(jobs, os.cpu_count() or 1, len(groups))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(table,)
        ) as pool:
            results = list(pool.map(_check_one, groups, groups.values(), chunksize=64))
    else:
        results = [check_unique_sink(table, mu, points) for mu, points in groups.items()]
    violations = [v for vs in results for v in vs]
    return SweepReport(multidegrees_checked=len(groups), violations=tuple(violations))
