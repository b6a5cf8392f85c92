"""Sweep-style checks of the unique-sink claim, fanned out per multidegree."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import (
    build_fiber_graph,
    fiber_sink_key,
    find_sink_direct,
    sinks,
)
from borelfiber.instances import sweep_multidegrees
from borelfiber.monomials import Monomial, format_monomial


def check_unique_sink(table: GeneratorTable, mu: Monomial) -> list[str]:
    """Violation descriptions for the fiber graph at mu; empty when all good.

    Checks the oriented edges decrease in the fiber sink order, the graph is
    connected, the sink is unique and equal to the order minimum, and the
    direct sink algorithm returns the same point.
    """
    graph = build_fiber_graph(table, mu)
    if not graph.vertices:
        return []
    label = format_monomial(mu, table.context)
    violations = []
    for a, b in graph.edges:
        if fiber_sink_key(table, graph.vertices[a]) <= fiber_sink_key(table, graph.vertices[b]):
            violations.append(f"{label}: edge {a}->{b} does not decrease in the sink order")
    parent = list(range(len(graph.vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    if len({find(i) for i in range(len(graph.vertices))}) != 1:
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


def _check_one(mu: Monomial) -> tuple[Monomial, list[str]]:
    if _WORKER_TABLE is None:
        raise RuntimeError("_check_one runs only in a worker started by _init_worker")
    return mu, check_unique_sink(_WORKER_TABLE, mu)


def sweep_unique_sinks(table: GeneratorTable, max_tdeg: int, jobs: int = 1) -> SweepReport:
    """Check every nonempty fiber of t-degree up to the bound.

    Results are merged in multidegree order, so the report is identical at
    any parallelism width.
    """
    mus = sweep_multidegrees(table, max_tdeg)
    if jobs > 1 and len(mus) > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(table,)
        ) as pool:
            results = list(pool.map(_check_one, mus, chunksize=64))
        results.sort(key=lambda item: (sum(item[0]), item[0]))
        violations = [v for _, vs in results for v in vs]
    else:
        violations = []
        for mu in mus:
            violations.extend(check_unique_sink(table, mu))
    return SweepReport(multidegrees_checked=len(mus), violations=tuple(violations))
