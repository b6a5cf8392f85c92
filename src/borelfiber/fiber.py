"""Fiber graphs of a Borel ideal and the fiber sink order.

A fiber point is a factorization of a multidegree mu into minimal
generators, stored as an ascending tuple of generator indices into a
:class:`~borelfiber.borel.GeneratorTable`.  Two points are adjacent in the
fiber graph when one becomes the other by a Borel move on one factor paired
with the matching reverse Borel move on another; each edge is directed
toward the point that is later (smaller) in the fiber sink order, the
graded reverse lex order on the table's variable order.

Fibers come from two enumerations.  :func:`fibers` builds every point of
t-degree up to a bound in one pass, level by level, and groups the points by
product; sweeps and the quadric and completion seeds use it, because they
need every fiber up to the bound anyway.  :func:`enumerate_fiber` factors a
single multidegree by one iterative depth-first search; it serves one-mu
callers, whose t can be far too large to list every product up to it.

No fiber state outlives a call, except the table's own paired-move rows
(``GeneratorTable.pair_transitions``), which live and die with the table.

For two-Borel tables every nonempty fiber graph is a connected DAG with a
unique sink, which :func:`find_sink_direct` computes without building the
graph or searching, by the interval test on i that Borel(M)^i Borel(N)^(t-i)
= Borel(M^i N^(t-i)) gives; :func:`build_fiber_graph` is the explicit oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from borelfiber.borel import GeneratorTable, _from_sigma, _lex_last_sigma, lex_last_divisor
from borelfiber.monomials import (
    Monomial,
    borel_move,
    degree,
    find_reverse_move,
    format_monomial,
    reverse_borel_move,
    sigma,
)

FiberPoint = tuple[int, ...]


def point_product(table: GeneratorTable, point: FiberPoint) -> Monomial:
    """Product of the point's factors; the unit monomial for the empty point."""
    out = [0] * table.context.n
    for idx in point:
        for pos, e in enumerate(table.generators[idx]):
            out[pos] += e
    return tuple(out)


def fiber_sink_key(point: FiberPoint) -> tuple:
    """Sort key for the fiber sink order; larger key means earlier point.

    Graded reverse lex: among points of one t-degree, scanning generator
    indices from the last backward, the first difference in multiplicity
    decides, and the point with the smaller multiplicity there is the larger
    one.  On ascending index tuples that is the first difference between the
    reversed tuples, where the smaller index wins.
    """
    return (len(point), tuple(-i for i in reversed(point)))


def fibers(table: GeneratorTable, max_tdeg: int) -> dict[Monomial, list[FiberPoint]]:
    """Every nonempty fiber of t-degree 1..max_tdeg, keyed by multidegree.

    Builds the points one t-degree at a time: each point of level t - 1 is
    extended by every generator index at least its last one, and its product
    by one addition.  Multidegrees come in ascending (degree, mu) order, and
    each fiber lists its points in descending sink order, as
    :func:`build_fiber_graph` orders its vertices.
    """
    if max_tdeg < 1:
        raise ValueError("the t-degree bound must be at least 1")
    gens = table.generators
    groups: dict[Monomial, list[FiberPoint]] = {}
    level: list[tuple[FiberPoint, Monomial]] = [((), (0,) * table.context.n)]
    for _ in range(max_tdeg):
        extended = []
        for point, product in level:
            for idx in range(point[-1] if point else 0, len(gens)):
                grown = point + (idx,)
                grown_product = tuple(a + b for a, b in zip(product, gens[idx]))
                extended.append((grown, grown_product))
                groups.setdefault(grown_product, []).append(grown)
        level = extended
    for points in groups.values():
        points.sort(key=fiber_sink_key, reverse=True)
    return {mu: groups[mu] for mu in sorted(groups, key=lambda m: (degree(m), m))}


def enumerate_fiber(table: GeneratorTable, mu: Monomial) -> list[FiberPoint]:
    """All factorizations of mu into generators, ascending index tuples.

    Empty when the degree of mu is not a multiple of the generating degree;
    the fiber of the unit monomial is the single empty point.  One iterative
    depth-first search: a partial point is extended by every generator index
    at least its last one that divides the rest, the last factor is looked up
    directly, and a (rest, least index) state that completed no point is
    remembered for the rest of the call and not searched again.
    """
    if len(mu) != table.context.n:
        raise ValueError("mu lives in a different variable context")
    if degree(mu) == 0:
        return [()]
    if table.is_empty or degree(mu) % table.degree != 0:
        return []
    gens, index_of, d = table.generators, table.index_of, table.degree
    if degree(mu) == d:
        return [(index_of[mu],)] if mu in index_of else []
    out: list[FiberPoint] = []
    dead: set[tuple[Monomial, int]] = set()
    picked: list[int] = []
    # One frame per open state: the rest, its least index, the next index to
    # try, and the number of points found before the state was entered.
    frames = [[mu, 0, 0, 0]]
    while frames:
        frame = frames[-1]
        rest, start, idx, found = frame
        if idx == len(gens):
            frames.pop()
            if len(out) == found:
                dead.add((rest, start))
            if picked:
                picked.pop()
            continue
        frame[2] = idx + 1
        g = gens[idx]
        if any(e > r for e, r in zip(g, rest)):
            continue
        smaller = tuple(r - e for r, e in zip(rest, g))
        if degree(smaller) == d:
            last = index_of.get(smaller)
            if last is not None and last >= idx:
                out.append((*picked, idx, last))
        elif (smaller, idx) not in dead:
            picked.append(idx)
            frames.append([smaller, idx, idx, len(out)])
    return out


@dataclass(frozen=True)
class FiberGraph:
    """Directed fiber graph; vertices sorted earliest-first, edges (from, to)."""

    table: GeneratorTable
    mu: Monomial
    vertices: tuple[FiberPoint, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        out = [0] * len(self.vertices)
        for a, _ in self.edges:
            out[a] += 1
        return tuple(out)


def build_fiber_graph(
    table: GeneratorTable, mu: Monomial, points: Optional[list[FiberPoint]] = None
) -> FiberGraph:
    """Enumerate the fiber of mu and orient its paired-move edges.

    Vertices are sorted by descending fiber sink order, so every directed
    edge runs from a smaller vertex index to a larger one and the graph is
    acyclic by construction.  A caller that already holds the whole fiber in
    that order, as :func:`fibers` returns it, passes it as ``points`` and
    skips the enumeration.
    """
    if points is None:
        vertices = enumerate_fiber(table, mu)
        vertices.sort(key=fiber_sink_key, reverse=True)
    else:
        vertices = points
    vindex = {v: i for i, v in enumerate(vertices)}
    transitions = table.pair_transitions if vertices else ()
    edges: set[tuple[int, int]] = set()
    for vi, z in enumerate(vertices):
        t = len(z)
        for s1 in range(t):
            row = transitions[z[s1]]
            for s2 in range(t):
                if s1 == s2:
                    continue
                for h1, h2 in row[z[s2]]:
                    moved = list(z)
                    moved[s1] = h1
                    moved[s2] = h2
                    moved.sort()
                    w = tuple(moved)
                    if w == z:
                        continue
                    wi = vindex[w]
                    edges.add((vi, wi) if vi < wi else (wi, vi))
    return FiberGraph(table=table, mu=mu, vertices=tuple(vertices), edges=tuple(sorted(edges)))


def _component_labels(size: int, groups) -> list[int]:
    """Union-find over 0..size-1: merge each group, return each element's root.

    Two elements get the same label exactly when a chain of groups links them.
    """
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        root = find(group[0])
        for x in group[1:]:
            other = find(x)
            if other != root:
                parent[other] = root
    return [find(x) for x in range(size)]


def sinks(graph: FiberGraph) -> list[FiberPoint]:
    """Vertices with no outgoing edge, earliest first."""
    return [v for v, d in zip(graph.vertices, graph.out_degrees) if d == 0]


def fiber_point_type(table: GeneratorTable, point: FiberPoint) -> str:
    """``"N"`` when every factor is tagged G_N, ``"M"`` otherwise.

    Since the G_M block follows the G_N block in the variable order, the tag
    of the last factor decides.
    """
    if not point:
        raise ValueError("the empty fiber point has no type")
    return "M" if table.tags[point[-1]] == "G_M" else "N"


def replacement_move(table: GeneratorTable, mu: Monomial, point: FiberPoint) -> Optional[FiberPoint]:
    """One strictly-later neighbor of ``point``, or None at the blocking factor.

    For a type M point the last factor w is pushed lex-later by the reverse
    Borel move toward the lex-last divisor M' of mu in Borel(M); the freed
    variable is absorbed by a Borel move on another factor.  Type N works the
    same way on the first factor toward N'.  No move exists once the point
    contains Y_{M'} (type M) or Y_{N'} (type N).
    """
    if not point:
        raise ValueError("the empty fiber point has no replacement")
    if len(table.roots) > 2:
        raise ValueError("replacement moves need a two-Borel or principal table")
    if point_product(table, point) != mu:
        raise ValueError("point is not in the fiber of mu")
    typ = fiber_point_type(table, point)
    if typ == "M":
        root, slot = table.roots[0], len(point) - 1
    else:
        root, slot = table.roots[-1], 0
    reduced_root = lex_last_divisor(root, mu)
    if reduced_root is None:
        raise ValueError("no generator of the relevant block divides mu")
    w = table.generators[point[slot]]
    if w == reduced_root:
        return None
    s, sp = sigma(w), sigma(reduced_root)
    j = max(idx for idx in range(len(w)) if s[idx] < sp[idx])
    i = find_reverse_move(w, reduced_root, j)
    moved = table.index_of[reverse_borel_move(w, i, j)]
    for r, pos in enumerate(point):
        if r == slot or table.generators[pos][j] == 0:
            continue
        companion = table.index_of[borel_move(table.generators[pos], j, i)]
        out = list(point)
        out[slot] = moved
        out[r] = companion
        out.sort()
        return tuple(out)
    raise RuntimeError("another factor must carry the freed variable")


def _m_share_bounds(
    t: int, s_mu: tuple[int, ...], s_m: tuple[int, ...], s_n: tuple[int, ...]
) -> tuple[int, int]:
    """The integers lo..hi of i with s_mu <= i*s_m + (t-i)*s_n componentwise.

    With s_mu, s_m and s_n the cumulative exponent vectors of mu, M and N,
    mu of degree t*d lies in Borel(M)^i Borel(N)^(t-i) = Borel(M^i N^(t-i))
    exactly for those i; each coordinate bounds i on one side.
    """
    lo, hi = 0, t
    for s, m, n in zip(s_mu, s_m, s_n):
        need, step = s - t * n, m - n  # i * step >= need
        if step > 0:
            lo = max(lo, -(-need // step))
        elif step < 0:
            hi = min(hi, need // step)
        elif need > 0:
            return 1, 0
    return lo, hi


def find_sink_direct(table: GeneratorTable, mu: Monomial) -> Optional[FiberPoint]:
    """The unique sink of the fiber of mu, computed without the graph.

    Peels off one factor per step: the lex-last divisor M' of mu in Borel(M)
    when some factorization of mu touches the G_M block, that is when the
    interval lo..hi of :func:`_m_share_bounds` (nonempty exactly when mu
    factors) has hi >= 1, else the lex-last divisor N' in Borel(N).  Every
    sink is divisible by the peeled factor, so peeling the quotient reaches
    the sink of the whole fiber, in t steps of O(n) each: sigma(M) and
    sigma(N) are computed once, and sigma of the rest drops by sigma of each
    peeled factor.  Returns None exactly when the fiber is empty.
    """
    if len(table.roots) > 2:
        raise ValueError("the direct sink algorithm needs a two-Borel or principal table")
    if degree(mu) == 0:
        return ()
    if table.is_empty or degree(mu) % table.degree != 0:
        return None
    s_m, s_n = sigma(table.roots[0]), sigma(table.roots[-1])
    t = degree(mu) // table.degree
    current, s_current = mu, sigma(mu)
    lo, hi = _m_share_bounds(t, s_current, s_m, s_n)
    if lo > hi:
        return None
    picked: list[int] = []
    while t > 0:
        s_factor = _lex_last_sigma(s_m if hi >= 1 else s_n, current)
        if s_factor is None:
            raise RuntimeError("a factorable multidegree admits a block divisor")
        factor = _from_sigma(s_factor)
        picked.append(table.index_of[factor])
        current = tuple(a - b for a, b in zip(current, factor))
        s_current = tuple(a - b for a, b in zip(s_current, s_factor))
        t -= 1
        lo, hi = _m_share_bounds(t, s_current, s_m, s_n)
        if lo > hi:
            raise RuntimeError("peeling a sink factor keeps the rest factorable")
    return tuple(sorted(picked))


def vertex_label(table: GeneratorTable, point: FiberPoint) -> str:
    """Product-style label, e.g. ``Y_{b^5}Y_{ab^4}Y_{a^2c^3}``."""
    if not point:
        return "1"
    parts = []
    for idx, group in itertools.groupby(point):
        mult = len(list(group))
        name = "Y_{%s}" % format_monomial(table.generators[idx], table.context)
        parts.append(name + (f"^{mult}" if mult > 1 else ""))
    return "".join(parts)


def to_dot(graph: FiberGraph) -> str:
    """Deterministic DOT rendering with node ids v0..vk in vertex order."""
    lines = ["digraph fiber {"]
    for i, v in enumerate(graph.vertices):
        lines.append(f'  v{i} [label="{vertex_label(graph.table, v)}"];')
    for a, b in graph.edges:
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: FiberGraph) -> dict:
    table = graph.table
    return {
        "mu": format_monomial(graph.mu, table.context),
        "vertices": [
            {
                "factors": [
                    format_monomial(table.generators[idx], table.context) for idx in v
                ],
                "type": fiber_point_type(table, v) if v else None,
            }
            for v in graph.vertices
        ],
        "edges": [list(e) for e in graph.edges],
        "sinks": [i for i, d in enumerate(graph.out_degrees) if d == 0],
    }
