"""Brute-force oracles shared by the test modules.

Everything here recomputes library answers from first principles (breadth
first search, exhaustive filters) so the tests stay independent of the code
paths they check.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from functools import lru_cache
from typing import Callable

from borelfiber.borel import build_table
from borelfiber.fiber import FiberPoint, fiber_sink_key, fibers, point_product
from borelfiber.instances import suite_tables
from borelfiber.monomials import (
    Monomial,
    VariableContext,
    degree,
    divides,
    parse_monomial,
    unit,
)
from borelfiber.rees import ReesBasis, ReesBinomial, ReesMonomial, rees_image, rees_key
from borelfiber.toric import (
    GroebnerReport,
    MarkedBasis,
    MarkedBinomial,
    SPairFailure,
    normal_form,
)

ABC = VariableContext.default(3)


def contains(word: tuple[int, ...], part: tuple[int, ...]) -> bool:
    """Multiset containment for ascending tuples, by one merge scan."""
    i = 0
    for x in part:
        while i < len(word) and word[i] < x:
            i += 1
        if i >= len(word) or word[i] != x:
            return False
        i += 1
    return True


def swap(word: tuple[int, ...], old: tuple[int, ...], new: tuple[int, ...]) -> tuple[int, ...]:
    """``word`` with the sub-multiset ``old`` replaced by ``new``, ascending.

    Raises ``ValueError`` when ``old`` is not a sub-multiset of ``word``.
    """
    rest = list(word)
    for x in old:
        rest.remove(x)
    return tuple(sorted(rest + list(new)))


def lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Least common multiple of two ascending tuples, as multisets."""
    rest = list(b)
    for x in a:
        if x in rest:
            rest.remove(x)
    return tuple(sorted(a + tuple(rest)))


def normal_form_by_scan(pairs, word: tuple[int, ...]) -> tuple[int, ...]:
    """Reference normal form of a code word under marked (lead, trail) pairs.

    Scans the pairs in order at every step and applies the first whose lead
    is a sub-multiset of the word, until none is.  It keeps no lead index and
    no cache, so it checks the lookup of ``toric._Rules``.
    """
    while True:
        for lead, trail in pairs:
            if contains(word, lead):
                word = swap(word, lead, trail)
                break
        else:
            return word


def completion_by_scan(table, bound: int) -> list[tuple[FiberPoint, FiberPoint]]:
    """Reference truncated Buchberger completion: every new lead meets every rule.

    Seeds with the pairs within each fiber of t-degree up to ``bound``, in
    :func:`fibers` order, and pairs each new lead with every earlier rule in
    position order, queueing an S-pair when the two leads share a code and
    their lcm has at most ``bound`` codes.  Normal forms come from
    :func:`normal_form_by_scan`, remembered until the next rule is added.
    Returns the (lead, trail) rules in order.
    """
    queue = deque(
        pair for points in fibers(table, bound).values() for pair in itertools.combinations(points, 2)
    )
    rules: list[tuple[FiberPoint, FiberPoint]] = []
    known: dict[FiberPoint, FiberPoint] = {}
    while queue:
        x, y = queue.popleft()
        for word in (x, y):
            if word not in known:
                known[word] = normal_form_by_scan(rules, word)
        a, b = known[x], known[y]
        if a == b:
            continue
        if fiber_sink_key(a) < fiber_sink_key(b):
            a, b = b, a
        for lead, trail in rules:
            if not set(a) & set(lead):
                continue
            top = lcm(a, lead)
            if len(top) <= bound:
                queue.append((swap(top, a, b), swap(top, lead, trail)))
        rules.append((a, b))
        known.clear()
    return rules


def rees_word(m: ReesMonomial) -> tuple:
    """A Rees monomial as an ascending tuple of tagged variables ("x", v) and ("y", g)."""
    xs = [("x", v) for v, e in enumerate(m.xpart) for _ in range(e)]
    return tuple(sorted(xs + [("y", g) for g in m.ypart]))


def critical_monomials_by_pairs(leads: list[tuple]) -> set[tuple]:
    """Critical monomials of a rule list, from all pairs of its leads.

    The lcm of every two distinct leads that share a variable, and every lead
    carried by two rules or more.  Leads are ascending tuples of variables.
    """
    carried = Counter(leads)
    out = {lead for lead, count in carried.items() if count > 1}
    for p, q in itertools.combinations(carried, 2):
        if set(p) & set(q):
            out.add(lcm(p, q))
    return out


def mono(text: str, context: VariableContext = ABC) -> Monomial:
    return parse_monomial(text, context)


def monos(*texts: str, context: VariableContext = ABC) -> list[Monomial]:
    return [parse_monomial(t, context) for t in texts]


def cross_check_tables() -> list:
    """The figure ideal, the three-Borel example and every 10th suite table."""
    three_borel = build_table(monos("a^3c^3", "b^6", "a^2b^2c^2"))
    return [build_table(monos("a^2c^3", "b^4c")), three_borel] + suite_tables(cap=200)[::10]


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


def sink_by_peeling(table, mu: Monomial) -> FiberPoint:
    """The direct sink one factor at a time, for a mu that factors.

    Peels the lex-last divisor in Borel(M) while some factorization of the
    rest uses a G_M generator, else the one in Borel(N), by the searches
    :func:`has_gm_factorization` and :func:`lex_last_divisor_by_scan`.
    """
    picked = []
    while degree(mu):
        root = table.roots[0] if has_gm_factorization(table, mu) else table.roots[-1]
        factor = lex_last_divisor_by_scan(root, mu)
        picked.append(table.index_of[factor])
        mu = tuple(a - b for a, b in zip(mu, factor))
    return tuple(sorted(picked))


def linear_syzygies_by_diff(table) -> list[ReesBinomial]:
    """Linear syzygies from the exponent difference of each generator pair.

    A pair t < u gives x_j Y_t - x_i Y_u when gens[t] - gens[u] is +1 at i,
    -1 at j and 0 elsewhere; the larger side under ``rees_key`` leads.
    """
    n = table.context.n
    gens = table.generators
    out = []
    for t, u in itertools.combinations(range(len(gens)), 2):
        diff = [a - b for a, b in zip(gens[t], gens[u])]
        plus = [pos for pos, v in enumerate(diff) if v == 1]
        minus = [pos for pos, v in enumerate(diff) if v == -1]
        if len(plus) != 1 or len(minus) != 1 or any(abs(v) > 1 for v in diff):
            continue
        xi, xj = list(unit(n)), list(unit(n))
        xi[plus[0]] += 1
        xj[minus[0]] += 1
        first = ReesMonomial(tuple(xj), (t,))
        second = ReesMonomial(tuple(xi), (u,))
        if rees_key(first) > rees_key(second):
            out.append(ReesBinomial(lead=first, trail=second))
        else:
            out.append(ReesBinomial(lead=second, trail=first))
    return out


def interreduce_by_scan(basis: MarkedBasis) -> MarkedBasis:
    """Minimalize by a divisibility scan over the kept leads, then reduce trails.

    Elements are taken in (t-degree, lead, trail) sink order, and one is kept
    when no kept lead divides its lead.
    """
    table = basis.table
    ordered = sorted(
        basis.elements,
        key=lambda el: (len(el.lead), fiber_sink_key(el.lead), fiber_sink_key(el.trail)),
    )
    kept: list[MarkedBinomial] = []
    for el in ordered:
        if not any(contains(el.lead, other.lead) for other in kept):
            kept.append(el)
    minimal = MarkedBasis(table, tuple(kept))
    reduced = tuple(
        MarkedBinomial(lead=el.lead, trail=normal_form(el.trail, minimal)) for el in kept
    )
    return MarkedBasis(table, tuple(dict.fromkeys(reduced)))


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
    return ReesMonomial(xpart, swap(m.ypart, el.lead.ypart, el.trail.ypart))


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
                    if contains(ypart, ylead):
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
        top = lcm(f.lead, g.lead)
        a = swap(top, f.lead, f.trail)
        b = swap(top, g.lead, g.trail)
        if a != b and normal_form(a, basis) != normal_form(b, basis):
            failures.append(SPairFailure(p, q, point_product(table, top)))
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
        top = ReesMonomial(
            tuple(max(a, b) for a, b in zip(f.lead.xpart, g.lead.xpart)),
            lcm(f.lead.ypart, g.lead.ypart),
        )
        a = rees_apply(top, f)
        b = rees_apply(top, g)
        if a != b and reduce(a) != reduce(b):
            failures.append(SPairFailure(p, q, rees_image(table, top)))
    return _report(failures, pairs, table)


class SerialPool:
    """Stand-in for ProcessPoolExecutor: records its width, maps in-process."""

    widths: list[int] = []

    def __init__(self, max_workers):
        SerialPool.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)
