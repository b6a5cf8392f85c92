"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import pytest

from borelfiber.borel import build_table, build_two_borel
from borelfiber.fiber import (
    build_fiber_graph,
    enumerate_fiber,
    find_sink_direct,
    sinks,
)
from borelfiber.instances import random_tables, suite_tables, sweep_multidegrees
from borelfiber.monomials import VariableContext
from borelfiber.toric import (
    brute_force_gb,
    buchberger_verify,
    closure_components,
    normal_form,
    quadric_generators,
)
from borelfiber.rees import rees_buchberger_verify, rees_gb
from borelfiber.verify import sweep_unique_sinks

from helpers import mono, monos


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def suite():
    return suite_tables(cap=200)


def fig_points(table, factor_lists):
    return [tuple(sorted(table.index_of[mono(f)] for f in fs)) for fs in factor_lists]


FIG_VERTICES = [
    ("b^4c", "b^4c", "a^3bc"),
    ("b^4c", "b^5", "a^3c^2"),
    ("b^4c", "ab^3c", "a^2b^2c"),
    ("b^4c", "ab^4", "a^2bc^2"),
    ("ab^3c", "ab^3c", "ab^3c"),
    ("b^5", "ab^3c", "a^2bc^2"),
    ("b^5", "ab^4", "a^2c^3"),
]
FIG_EDGES = [
    (0, 1), (0, 2), (0, 3),
    (1, 3), (1, 5), (1, 6),
    (2, 3), (2, 5),
    (3, 6),
    (4, 2),
    (5, 3), (5, 6),
]


def test_criterion_1_figure_reproduction():
    start = time.monotonic()
    table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
    graph = build_fiber_graph(table, mono("a^3b^9c^3"))
    expected_vertices = fig_points(table, FIG_VERTICES)
    position = {v: i for i, v in enumerate(graph.vertices)}
    ok = (
        len(graph.vertices) == 7
        and set(graph.vertices) == set(expected_vertices)
        and len(graph.edges) == 12
        and set(graph.edges)
        == {
            (position[expected_vertices[a]], position[expected_vertices[b]])
            for a, b in FIG_EDGES
        }
        and sinks(graph) == fig_points(table, [("b^5", "ab^4", "a^2c^3")])
    )
    elapsed = time.monotonic() - start
    verdict(1, "figure reproduction", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_generator_counts():
    table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
    fiber = enumerate_fiber(table, mono("a^3b^9c^3"))
    used = {idx for point in fiber for idx in point}
    ok = (
        len(table.generators) == 14
        and table.tags.count("G_M") == 10
        and table.tags.count("G_N") == 4
        and len(used) == 9
    )
    verdict(2, "generator counts", ok, f"{len(used)} generators in the fiber")


def test_criterion_3_unique_sink_sweep(suite):
    # One grouped pass per table; test_grouped_pass_matches_per_fiber_enumeration
    # holds that pass to the per-fiber enumeration.
    start = time.monotonic()
    violations = []
    fibers = 0
    for idx, table in enumerate(suite):
        report = sweep_unique_sinks(table, 3, jobs=1)
        expected = len(sweep_multidegrees(table, 3))
        if report.multidegrees_checked != expected:
            violations.append(
                f"instance {idx}: {report.multidegrees_checked} fibers checked, {expected} expected"
            )
        fibers += report.multidegrees_checked
        violations.extend(report.violations)
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 300.0
    verdict(
        3,
        "unique-sink sweep",
        ok,
        f"{len(suite)} ideals, {fibers} fibers, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_4_groebner_certification(suite):
    violations = []
    for idx, table in enumerate(suite):
        basis = quadric_generators(table)
        if not buchberger_verify(basis).ok:
            violations.append(f"instance {idx}: Buchberger failure")
        quadric_leads = {el.lead for el in basis.elements}
        for bound in (3, 4) if idx % 10 == 0 else (3,):
            oracle = brute_force_gb(table, bound)
            for el in oracle.elements:
                if el.lead not in quadric_leads:
                    violations.append(
                        f"instance {idx}: oracle lead {el.lead} beyond quadrics at bound {bound}"
                    )
    verdict(
        4,
        "Groebner certification",
        not violations,
        f"{len(suite)} ideals, oracle bound 4 on every 10th",
    )


def test_criterion_5_rees_lift(suite):
    violations = []
    for idx, table in enumerate(suite):
        basis = rees_gb(table)
        for el in basis.elements:
            for side in (el.lead, el.trail):
                if sum(side.xpart) + len(side.ypart) > 2:
                    violations.append(f"instance {idx}: joint degree above two")
        if not rees_buchberger_verify(basis).ok:
            violations.append(f"instance {idx}: Rees Buchberger failure")
    verdict(5, "Rees lift", not violations, f"{len(suite)} ideals")


def test_criterion_6_negative_controls():
    start = time.monotonic()
    ctx = VariableContext.default(3)
    problems = []

    table = build_table(monos("a^3c^3", "b^6", "a^2b^2c^2"))
    comps = closure_components(table, (6, 6, 6))
    location = {z: i for i, comp in enumerate(comps) for z in comp}
    fg2 = tuple(sorted([table.index_of[mono("a^3c^3")]] * 2 + [table.index_of[mono("b^6")]]))
    h3 = (table.index_of[mono("a^2b^2c^2")],) * 3
    if location[fg2] == location[h3]:
        problems.append("no quadric-closure separation at a^6b^6c^6")

    for r in (3, 4):
        f = (r, 0, r * (r - 2))
        g = (0, r * (r - 1), 0)
        h = (r - 1, r - 1, (r - 1) * (r - 2))
        family = build_table([f, g, h], ctx)
        mu = tuple(a * r for a in h)
        comps = closure_components(family, mu)
        location = {z: i for i, comp in enumerate(comps) for z in comp}
        point_a = tuple(sorted([family.index_of[f]] * (r - 1) + [family.index_of[g]]))
        point_b = (family.index_of[h],) * r
        if location[point_a] == location[point_b]:
            problems.append(f"r={r}: f^{r-1}g and h^{r} not separated")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 120.0
    verdict(6, "negative controls", ok, f"{elapsed:.1f}s" + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_7_oracle_agreement():
    tables = random_tables(50, seed=20250809)
    disagreements = 0
    points = 0
    for table in tables:
        basis = quadric_generators(table)
        for mu in sweep_multidegrees(table, 3):
            graph = build_fiber_graph(table, mu)
            graph_sinks = sinks(graph)
            direct = find_sink_direct(table, mu)
            if len(graph_sinks) != 1 or direct != graph_sinks[0]:
                disagreements += 1
                continue
            for z in graph.vertices:
                points += 1
                if normal_form(z, basis) != graph_sinks[0]:
                    disagreements += 1
    verdict(
        7,
        "oracle agreement",
        disagreements == 0,
        f"50 ideals, {points} fiber points, {disagreements} disagreements",
    )
