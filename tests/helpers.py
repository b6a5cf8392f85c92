"""Brute-force oracles shared by the test modules.

Everything here recomputes library answers from first principles (breadth
first search, exhaustive filters) so the tests stay independent of the code
paths they check.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache
from typing import Callable

from borelfiber.fiber import FiberPoint, point_product
from borelfiber.monomials import (
    Monomial,
    VariableContext,
    degree,
    divides,
    parse_monomial,
)
from borelfiber.rees import ReesBasis, ReesBinomial, ReesMonomial, rees_image
from borelfiber.toric import GroebnerReport, SPairFailure, _contains, _lcm, _replace, normal_form

ABC = VariableContext.default(3)


def mono(text: str, context: VariableContext = ABC) -> Monomial:
    return parse_monomial(text, context)


def monos(*texts: str, context: VariableContext = ABC) -> list[Monomial]:
    return [parse_monomial(t, context) for t in texts]


def borel_reachable(mp: Monomial) -> set[Monomial]:
    """All monomials reachable from mp by sequences of Borel moves (BFS)."""
    seen = {mp}
    queue = deque([mp])
    while queue:
        m = queue.popleft()
        for j in range(1, len(m)):
            if m[j] == 0:
                continue
            for i in range(j):
                moved = list(m)
                moved[j] -= 1
                moved[i] += 1
                t = tuple(moved)
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
    return seen


def principal_gens_by_reachability(mp: Monomial) -> set[Monomial]:
    """Degree-d generators of the principal Borel ideal of mp, via BFS."""
    return borel_reachable(mp)


def brute_factorizations(gens: list[Monomial], mu: Monomial) -> set[tuple[int, ...]]:
    """All multisets of generator indices whose product is mu, by plain search."""
    out: set[tuple[int, ...]] = set()

    def rec(remaining: Monomial, start: int, picked: tuple[int, ...]) -> None:
        if degree(remaining) == 0:
            out.add(picked)
            return
        for idx in range(start, len(gens)):
            g = gens[idx]
            if divides(g, remaining):
                rec(tuple(r - e for r, e in zip(remaining, g)), idx, picked + (idx,))

    rec(mu, 0, ())
    return out


@lru_cache(maxsize=8)
def _factor_search(table) -> Callable[[Monomial, int], bool]:
    gens = table.generators
    known: dict[tuple[Monomial, int], bool] = {}

    def search(remaining: Monomial, start: int) -> bool:
        if degree(remaining) == 0:
            return True
        key = (remaining, start)
        if key not in known:
            known[key] = any(
                divides(gens[idx], remaining)
                and search(tuple(r - e for r, e in zip(remaining, gens[idx])), idx)
                for idx in range(start, len(gens))
            )
        return known[key]

    return search


def can_factor(table, mu: Monomial) -> bool:
    """Does mu factor into table generators?  A memoized search over indices."""
    return _factor_search(table)(mu, 0)


def has_gm_factorization(table, mu: Monomial) -> bool:
    """Does some factorization of mu into table generators use a G_M generator?

    A search over generator indices (see :func:`can_factor`); it shares no
    code with the closed form that ``find_sink_direct`` uses for the same
    question.
    """
    return any(
        tag == "G_M"
        and divides(g, mu)
        and can_factor(table, tuple(r - e for r, e in zip(mu, g)))
        for g, tag in zip(table.generators, table.tags)
    )


def all_monomials(n: int, d: int) -> list[Monomial]:
    """Every degree-d monomial in n variables, lex-earliest first."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return sorted(out, reverse=True)


def suffix_sums(m: Monomial) -> list[int]:
    return [sum(m[k:]) for k in range(len(m))]


@lru_cache(maxsize=None)
def principal_by_filter(root: Monomial) -> list[Monomial]:
    """Borel(root) as the degree-d monomials with suffix sums at most root's."""
    bound = suffix_sums(root)
    return [
        m
        for m in all_monomials(len(root), sum(root))
        if all(a <= b for a, b in zip(suffix_sums(m), bound))
    ]


def lex_last_divisor_by_scan(root: Monomial, mu: Monomial):
    """Lex-latest element of Borel(root) dividing mu, by scanning all of it."""
    divisors = [g for g in principal_by_filter(root) if all(a <= b for a, b in zip(g, mu))]
    return min(divisors) if divisors else None


def closure_components_by_search(table, mu: Monomial, max_swap: int) -> list[list[FiberPoint]]:
    """Components of the fiber of mu under exchanges of 2..max_swap factors.

    Searches every subset of at most ``max_swap`` factors of every point and
    every refactorization of its product, starting each component from the
    first point not yet reached; components list their points in ascending
    tuple order, the order of the library's enumeration.
    """
    gens = list(table.generators)
    fiber = sorted(brute_factorizations(gens, mu))
    position = {z: i for i, z in enumerate(fiber)}
    refactor: dict[Monomial, list[tuple[int, ...]]] = {}
    seen = [False] * len(fiber)
    components = []
    for start in range(len(fiber)):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [fiber[start]]
        while stack:
            z = stack.pop()
            for j in range(2, min(max_swap, len(z)) + 1):
                for slots in itertools.combinations(range(len(z)), j):
                    kept = [z[s] for s in range(len(z)) if s not in slots]
                    product = tuple(map(sum, zip(*(gens[z[s]] for s in slots))))
                    if product not in refactor:
                        refactor[product] = sorted(brute_factorizations(gens, product))
                    for alt in refactor[product]:
                        idx = position[tuple(sorted(kept + list(alt)))]
                        if not seen[idx]:
                            seen[idx] = True
                            comp.append(idx)
                            stack.append(fiber[idx])
        components.append([fiber[i] for i in sorted(comp)])
    return components


def cwr_multidegrees(table, max_tdeg: int) -> list[Monomial]:
    """Distinct products of every multiset of 1..max_tdeg generators, by brute force."""
    mus: set[Monomial] = set()
    for t in range(1, max_tdeg + 1):
        for combo in itertools.combinations_with_replacement(range(len(table.generators)), t):
            mus.add(point_product(table, combo))
    return sorted(mus, key=lambda m: (degree(m), m))


def count_vector_sink_key(table, point: FiberPoint) -> tuple:
    """The fiber sink order by multiplicity vectors; larger key, earlier point.

    Scans generator indices from the last backward; the first difference in
    multiplicity decides, and the smaller multiplicity is the larger point.
    """
    counts = [0] * len(table.generators)
    for idx in point:
        counts[idx] += 1
    counts.reverse()
    return (len(point), tuple(-c for c in counts))


def rees_apply(m: ReesMonomial, el: ReesBinomial) -> ReesMonomial:
    """One-step reduct of m by el, whose lead divides m."""
    xpart = tuple(a - b + c for a, b, c in zip(m.xpart, el.lead.xpart, el.trail.xpart))
    return ReesMonomial(xpart, _replace(m.ypart, el.lead.ypart, el.trail.ypart))


def split_rees_reducer(basis: ReesBasis) -> Callable[[ReesMonomial], ReesMonomial]:
    """Reference Rees normal form that keeps the x-part and the Y-part apart.

    Reduces by the lowest-index applicable lead until none applies: a lead
    applies when its x-part divides the monomial's exponentwise and its
    Y-part is a sub-multiset.  Reducers are searched by the smallest Y factor
    of their lead.  It shares no code with the library's coded engine
    (``toric._Rules``), so the Rees oracles do not run the code they check.
    The returned function caches every monomial it passes on the way.
    """
    elements = basis.elements
    buckets: dict[int, list[int]] = {}
    for pos, el in enumerate(elements):
        buckets.setdefault(el.lead.ypart[0], []).append(pos)
    shapes = [
        (tuple((v, e) for v, e in enumerate(el.lead.xpart) if e), el.lead.ypart)
        for el in elements
    ]
    cache: dict[ReesMonomial, ReesMonomial] = {}

    def reduce(m: ReesMonomial) -> ReesMonomial:
        chain = []
        current = m
        while current not in cache:
            chain.append(current)
            xpart, ypart = current.xpart, current.ypart
            candidates = sorted({p for g in set(ypart) for p in buckets.get(g, ())})
            for pos in candidates:
                xreq, ylead = shapes[pos]
                for v, e in xreq:
                    if xpart[v] < e:
                        break
                else:
                    if _contains(ypart, ylead):
                        current = rees_apply(current, elements[pos])
                        break
            else:
                cache[current] = current
        for z in chain:
            cache[z] = cache[current]
        return cache[m]

    return reduce


def _report(failures: list[SPairFailure], pairs: set, table) -> GroebnerReport:
    return GroebnerReport(
        ok=not failures,
        pairs_checked=len(pairs),
        failures=tuple(failures),
        context_names=table.context.names,
    )


def pairwise_buchberger(basis, all_pairs: bool = False) -> GroebnerReport:
    """Slow toric oracle: reduce both sides of every S-pair.

    By default only pairs whose leads share a generator are reduced (disjoint
    leads pass by the product criterion); ``all_pairs`` reduces those too.
    """
    table = basis.table
    elements = basis.elements
    if all_pairs:
        pairs = set(itertools.combinations(range(len(elements)), 2))
    else:
        buckets: dict[int, list[int]] = {}
        for pos, el in enumerate(elements):
            for g in set(el.lead):
                buckets.setdefault(g, []).append(pos)
        pairs = set()
        for positions in buckets.values():
            pairs.update(itertools.combinations(positions, 2))
    failures = []
    for p, q in sorted(pairs):
        f, g = elements[p], elements[q]
        lcm = _lcm(f.lead, g.lead)
        a = _replace(lcm, f.lead, f.trail)
        b = _replace(lcm, g.lead, g.trail)
        if a != b and normal_form(a, basis) != normal_form(b, basis):
            failures.append(SPairFailure(p, q, point_product(table, lcm)))
    return _report(failures, pairs, table)


def pairwise_rees_buchberger(basis, all_pairs: bool = False) -> GroebnerReport:
    """Slow Rees oracle: reduce both sides of every S-pair of mixed monomials.

    By default only pairs whose leads share an x or a Y variable are reduced;
    ``all_pairs`` reduces every pair.
    """
    table = basis.table
    elements = basis.elements
    if all_pairs:
        pairs = set(itertools.combinations(range(len(elements)), 2))
    else:
        buckets: dict[tuple[str, int], list[int]] = {}
        for pos, el in enumerate(elements):
            for g in set(el.lead.ypart):
                buckets.setdefault(("y", g), []).append(pos)
            for v, e in enumerate(el.lead.xpart):
                if e > 0:
                    buckets.setdefault(("x", v), []).append(pos)
        pairs = set()
        for positions in buckets.values():
            pairs.update(itertools.combinations(positions, 2))
    reduce = split_rees_reducer(basis)
    failures = []
    for p, q in sorted(pairs):
        f, g = elements[p], elements[q]
        lcm = ReesMonomial(
            tuple(max(a, b) for a, b in zip(f.lead.xpart, g.lead.xpart)),
            _lcm(f.lead.ypart, g.lead.ypart),
        )
        a = rees_apply(lcm, f)
        b = rees_apply(lcm, g)
        if a != b and reduce(a) != reduce(b):
            failures.append(SPairFailure(p, q, rees_image(table, lcm)))
    return _report(failures, pairs, table)


class SerialPool:
    """Stand-in for ProcessPoolExecutor: records its width, maps in-process."""

    widths: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        SerialPool.widths.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)
