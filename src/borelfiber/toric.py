"""Toric ideals of Borel ideals: binomial Groebner machinery.

The toric ideal lives in one Y variable per minimal generator and is
generated by differences of fiber points with equal product.  For two-Borel
tables the set of *all* quadric binomials, marked by the fiber sink order,
is a Groebner basis; :func:`buchberger_verify` rechecks that claim overlap
by overlap, and :func:`brute_force_gb` is the independent truncated-completion
oracle.  Everything is coefficient free: binomials are ordered pairs of
Y-monomials, and reduction replaces sub-multisets.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import (
    FiberPoint,
    _solver,
    enumerate_fiber,
    fiber_sink_key,
    fibers,
    point_product,
)
from borelfiber.monomials import Monomial, VariableContext, format_monomial


def _contains(point: FiberPoint, part: FiberPoint) -> bool:
    """Multiset containment for ascending index tuples."""
    i = 0
    for x in part:
        while i < len(point) and point[i] < x:
            i += 1
        if i >= len(point) or point[i] != x:
            return False
        i += 1
    return True


def _replace(point: FiberPoint, old: FiberPoint, new: FiberPoint) -> FiberPoint:
    out = list(point)
    for x in old:
        out.remove(x)
    out.extend(new)
    out.sort()
    return tuple(out)


def _lcm(a: FiberPoint, b: FiberPoint) -> FiberPoint:
    ca, cb = Counter(a), Counter(b)
    out: list[int] = []
    for g in ca.keys() | cb.keys():
        out.extend([g] * max(ca[g], cb[g]))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class MarkedBinomial:
    """Ordered difference of two Y-monomials with the same multidegree."""

    lead: FiberPoint
    trail: FiberPoint


@dataclass(frozen=True)
class MarkedBasis:
    table: GeneratorTable
    elements: tuple[MarkedBinomial, ...]

    @cached_property
    def _min_buckets(self) -> dict[int, tuple[int, ...]]:
        """Element positions by the smallest lead generator (reducer search).

        Containment of the whole lead implies containment of its smallest
        generator, so scanning these buckets alone finds every reducer.
        """
        buckets: dict[int, list[int]] = {}
        for pos, el in enumerate(self.elements):
            buckets.setdefault(el.lead[0], []).append(pos)
        return {g: tuple(ps) for g, ps in buckets.items()}

    @cached_property
    def _nf_cache(self) -> dict[FiberPoint, FiberPoint]:
        return {}


def normal_form(point: FiberPoint, basis: MarkedBasis) -> FiberPoint:
    """Reduce by the lowest-index applicable lead until none applies.

    Each step is strictly later in the fiber sink order, so this terminates;
    when the basis is a Groebner basis the result only depends on the point's
    multidegree class.
    """
    cache = basis._nf_cache
    cached = cache.get(point)
    if cached is not None:
        return cached
    chain = [point]
    current = point
    while True:
        candidates = sorted(
            {p for g in set(current) for p in basis._min_buckets.get(g, ())}
        )
        nxt = None
        for pos in candidates:
            el = basis.elements[pos]
            if _contains(current, el.lead):
                nxt = _replace(current, el.lead, el.trail)
                break
        if nxt is None:
            break
        current = nxt
        cached = cache.get(current)
        if cached is not None:
            current = cached
            break
        chain.append(current)
    for z in chain:
        cache[z] = current
    return current


def quadric_generators(table: GeneratorTable, interreduce: bool = False) -> MarkedBasis:
    """All quadric binomials of the toric ideal, marked by the sink order.

    One element per unordered pair of distinct degree-2 fiber points sharing
    a multidegree.  With ``interreduce`` the basis is minimalized (duplicate
    leads dropped) and trails are fully reduced.
    """
    elements: list[MarkedBinomial] = []
    for points in fibers(table, 2).values():
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                elements.append(MarkedBinomial(lead=points[a], trail=points[b]))
    basis = MarkedBasis(table, tuple(elements))
    if interreduce:
        basis = _interreduce(basis)
    return basis


def _interreduce(basis: MarkedBasis) -> MarkedBasis:
    table = basis.table
    ordered = sorted(
        basis.elements,
        key=lambda el: (
            len(el.lead),
            fiber_sink_key(el.lead),
            fiber_sink_key(el.trail),
        ),
    )
    kept: list[MarkedBinomial] = []
    for el in ordered:
        if not any(_contains(el.lead, other.lead) for other in kept):
            kept.append(el)
    minimal = MarkedBasis(table, tuple(kept))
    reduced = tuple(
        MarkedBinomial(lead=el.lead, trail=normal_form(el.trail, minimal)) for el in kept
    )
    return MarkedBasis(table, tuple(dict.fromkeys(reduced)))


@dataclass(frozen=True)
class SPairFailure:
    first: int
    second: int
    multidegree: Monomial


@dataclass(frozen=True)
class GroebnerReport:
    ok: bool
    pairs_checked: int
    failures: tuple[SPairFailure, ...]
    context_names: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        ctx = VariableContext(self.context_names) if self.context_names else None
        return {
            "status": self.status,
            "pairs_checked": self.pairs_checked,
            "failures": [
                {
                    "pair": [f.first, f.second],
                    "multidegree": format_monomial(f.multidegree, ctx)
                    if ctx
                    else list(f.multidegree),
                }
                for f in self.failures
            ],
        }


def _verify_marking(basis: MarkedBasis) -> None:
    table = basis.table
    for el in basis.elements:
        if fiber_sink_key(el.lead) <= fiber_sink_key(el.trail):
            raise ValueError(
                f"inconsistent marking: lead {el.lead} is not earlier than trail {el.trail}"
            )


def _check_overlaps(
    leads: dict[tuple[int, ...], list[int]],
    reduct: Callable[[int, tuple[int, ...]], Hashable],
    nf: Callable[[Hashable], Hashable],
    multidegree: Callable[[tuple[int, ...]], Monomial],
) -> tuple[int, list[SPairFailure]]:
    """Diamond-lemma check of a marked basis with quadratic leads.

    ``leads`` maps each lead, written as an ascending tuple of variable codes,
    to the positions of the elements that carry it.  ``reduct(pos, m)`` is the
    one-step reduct of the monomial ``m`` by element ``pos``, ``nf`` finishes
    the reduction, and ``multidegree(m)`` names ``m`` in a failure.  Reduction terminates, so by
    Newman's lemma the basis is Groebner exactly when every one-step reduct of
    every critical monomial reaches the same normal form.  Two leads that
    share no variable commute (product criterion), and two overlapping
    quadratic leads have as lcm either a lead carried twice or a lead times
    one more variable; those are the critical monomials.  Returns the number
    of critical monomials and one failure for each that disagrees.
    """
    partners: dict[int, set[int]] = {}
    for lead, positions in leads.items():
        if len(lead) != 2:
            raise ValueError(
                f"lead of element {positions[0]} has degree {len(lead)}; "
                "the overlap check needs quadratic leads"
            )
        a, b = lead
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    critical = {lead for lead, positions in leads.items() if len(positions) > 1}
    for lead in leads:
        for v in set(lead):
            for w in partners[v]:
                if (min(v, w), max(v, w)) != lead:
                    critical.add(tuple(sorted(lead + (w,))))
    failures = []
    for m in sorted(critical):
        divisors = sorted({m[:i] + m[i + 1 :] for i in range(len(m))}) if len(m) == 3 else [m]
        reducers = sorted(p for d in divisors for p in leads.get(d, ()))
        reducts = {}
        for pos in reducers:
            reducts.setdefault(reduct(pos, m), pos)
        if len(reducts) == 1:
            continue
        first, *rest = reducts.items()
        target = nf(first[0])
        for z, pos in rest:
            if nf(z) != target:
                failures.append(SPairFailure(first[1], pos, multidegree(m)))
                break
    return len(critical), failures


def buchberger_verify(basis: MarkedBasis) -> GroebnerReport:
    """Overlap check of a quadric basis; PASS exactly when it is Groebner.

    Checks every critical monomial of degree two or three (see
    :func:`_check_overlaps`); ``pairs_checked`` counts those monomials.
    Raises ``ValueError`` on a lead that is not later than its trail in the
    fiber sink order, or on a lead that is not quadratic.
    """
    _verify_marking(basis)
    table = basis.table
    elements = basis.elements
    leads: dict[FiberPoint, list[int]] = {}
    for pos, el in enumerate(elements):
        leads.setdefault(el.lead, []).append(pos)
    checked, failures = _check_overlaps(
        leads,
        lambda pos, m: _replace(m, elements[pos].lead, elements[pos].trail),
        lambda z: normal_form(z, basis),
        lambda m: point_product(table, m),
    )
    return GroebnerReport(
        ok=not failures,
        pairs_checked=checked,
        failures=tuple(failures),
        context_names=table.context.names,
    )


def brute_force_gb(table: GeneratorTable, degree_bound: int) -> MarkedBasis:
    """Degree-truncated Buchberger completion from all low-degree binomials.

    Seeds with every binomial between fiber points of t-degree up to the
    bound, then completes, discarding S-pairs whose lcm exceeds the bound.
    Independent of the unique-sink theory; used as the oracle.
    """
    if degree_bound < 2:
        raise ValueError("the completion bound must be at least 2")
    queue: deque[tuple[FiberPoint, FiberPoint]] = deque()
    for points in fibers(table, degree_bound).values():
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                queue.append((points[a], points[b]))
    working: list[MarkedBinomial] = []
    basis = MarkedBasis(table, ())
    while queue:
        x, y = queue.popleft()
        a = normal_form(x, basis)
        b = normal_form(y, basis)
        if a == b:
            continue
        if fiber_sink_key(a) < fiber_sink_key(b):
            a, b = b, a
        new = MarkedBinomial(lead=a, trail=b)
        for other in working:
            if not set(new.lead) & set(other.lead):
                continue
            lcm = _lcm(new.lead, other.lead)
            if len(lcm) > degree_bound:
                continue
            queue.append(
                (_replace(lcm, new.lead, new.trail), _replace(lcm, other.lead, other.trail))
            )
        working.append(new)
        basis = MarkedBasis(table, tuple(working))
    return basis


def closure_components(
    table: GeneratorTable, mu: Monomial, max_swap: int = 2
) -> list[list[FiberPoint]]:
    """Connected components of the fiber under bounded exchange moves.

    Two points are adjacent when one becomes the other by replacing at most
    ``max_swap`` factors with another factorization of the same sub-product.
    Points in distinct components witness a toric minimal generator of
    t-degree above ``max_swap`` at mu.
    """
    if max_swap < 2:
        raise ValueError("exchange moves involve at least two factors")
    fiber = enumerate_fiber(table, mu)
    solver = _solver(table)
    position = {z: i for i, z in enumerate(fiber)}
    refactor_cache: dict[Monomial, tuple[FiberPoint, ...]] = {}

    def refactor(product: Monomial) -> tuple[FiberPoint, ...]:
        hit = refactor_cache.get(product)
        if hit is None:
            hit = tuple(solver.enumerate(product))
            refactor_cache[product] = hit
        return hit

    seen = [False] * len(fiber)
    components: list[list[FiberPoint]] = []
    for start in range(len(fiber)):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [fiber[start]]
        while stack:
            z = stack.pop()
            for j in range(2, min(max_swap, len(z)) + 1):
                for slots in itertools.combinations(range(len(z)), j):
                    sub = tuple(z[s] for s in slots)
                    for alt in refactor(point_product(table, sub)):
                        if alt == sub:
                            continue
                        cand = _replace(z, sub, alt)
                        idx = position[cand]
                        if not seen[idx]:
                            seen[idx] = True
                            comp.append(idx)
                            stack.append(cand)
        components.append(sorted(comp))
    return [[fiber[i] for i in comp] for comp in components]


def quadric_closure_components(table: GeneratorTable, mu: Monomial) -> list[list[FiberPoint]]:
    """Fiber components under two-factor exchanges only."""
    return closure_components(table, mu, max_swap=2)


def basis_to_json(basis: MarkedBasis) -> dict:
    table = basis.table

    def fmt(point: FiberPoint) -> list[str]:
        return [format_monomial(table.generators[i], table.context) for i in point]

    return {
        "variable_order": [format_monomial(g, table.context) for g in table.generators],
        "elements": [{"lead": fmt(el.lead), "trail": fmt(el.trail)} for el in basis.elements],
        "count": len(basis.elements),
    }
