"""Toric ideals of Borel ideals: binomial Groebner machinery.

The toric ideal lives in one Y variable per minimal generator and is
generated by differences of fiber points with equal product.  For two-Borel
tables the set of *all* quadric binomials, marked by the fiber sink order,
is a Groebner basis; :func:`buchberger_verify` rechecks that claim overlap
by overlap, and :func:`brute_force_gb` is the independent truncated-completion
oracle.  Everything is coefficient free: binomials are ordered pairs of
Y-monomials, and reduction replaces sub-multisets.

:class:`_Rules` is the package's one reduction engine.  It rewrites
ascending tuples of integer codes, so a toric point is its own word and a
Rees monomial is one word once its x variables get negative codes (see
``rees._codes``).  :func:`normal_form`, ``rees.rees_normal_form`` and the
overlap check :func:`_check_overlaps` behind both Groebner verifiers all
reduce through it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import (
    FiberPoint,
    _component_labels,
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


class _Rules:
    """Marked rewrite rules on ascending code tuples: the one reduction engine.

    ``pairs`` lists (lead, trail) words, each an ascending tuple of integer
    codes; a word contains a lead when the lead is a sub-multiset of it.
    Toric points are their own words, and Rees monomials are coded by
    ``rees._codes``.  Rules are indexed by the smallest code of their lead:
    every lead a word contains has its smallest code in the word, so the
    buckets of the word's codes hold every applicable rule.
    """

    def __init__(self, pairs) -> None:
        self.leads = tuple(lead for lead, _ in pairs)
        self.trails = tuple(trail for _, trail in pairs)
        self.buckets: dict[int, list[int]] = {}
        for pos, lead in enumerate(self.leads):
            self.buckets.setdefault(lead[0], []).append(pos)
        self.cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def step(self, pos: int, word: tuple[int, ...]) -> tuple[int, ...]:
        """The one-step reduct of ``word`` by rule ``pos``, whose lead it contains."""
        return _replace(word, self.leads[pos], self.trails[pos])

    def normal_form(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """Reduce by the lowest-index applicable lead; cache every word on the way."""
        cache = self.cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        leads, trails, buckets = self.leads, self.trails, self.buckets
        chain = [word]
        current = word
        while True:
            candidates = sorted({p for c in set(current) for p in buckets.get(c, ())})
            nxt = None
            for pos in candidates:
                if _contains(current, leads[pos]):
                    nxt = _replace(current, leads[pos], trails[pos])
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


@dataclass(frozen=True)
class MarkedBasis:
    table: GeneratorTable
    elements: tuple[MarkedBinomial, ...]

    @cached_property
    def _rules(self) -> _Rules:
        return _Rules([(el.lead, el.trail) for el in self.elements])


def normal_form(point: FiberPoint, basis: MarkedBasis) -> FiberPoint:
    """Reduce by the lowest-index applicable lead until none applies.

    Each step is strictly later in the fiber sink order, so this terminates;
    when the basis is a Groebner basis the result only depends on the point's
    multidegree class.
    """
    return basis._rules.normal_form(point)


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
    for el in basis.elements:
        if fiber_sink_key(el.lead) <= fiber_sink_key(el.trail):
            raise ValueError(
                f"inconsistent marking: lead {el.lead} is not earlier than trail {el.trail}"
            )


def _check_overlaps(
    rules: _Rules, multidegree: Callable[[tuple[int, ...]], Monomial]
) -> tuple[int, list[SPairFailure]]:
    """Diamond-lemma check of marked rules with quadratic leads.

    ``multidegree(m)`` names the critical monomial ``m`` in a failure.
    Reduction terminates, so by Newman's lemma the rules form a Groebner
    basis exactly when every one-step reduct of every critical monomial
    reaches the same normal form.  Two leads that share no code commute
    (product criterion), and two overlapping quadratic leads have as lcm
    either a lead carried twice or a lead times one more code; those are the
    critical monomials.  Returns the number of critical monomials and one
    failure for each that disagrees.
    """
    leads: dict[tuple[int, ...], list[int]] = {}
    for pos, lead in enumerate(rules.leads):
        leads.setdefault(lead, []).append(pos)
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
            reducts.setdefault(rules.step(pos, m), pos)
        if len(reducts) == 1:
            continue
        first, *rest = reducts.items()
        target = rules.normal_form(first[0])
        for z, pos in rest:
            if rules.normal_form(z) != target:
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
    checked, failures = _check_overlaps(basis._rules, lambda m: point_product(table, m))
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

    Only two swap bounds mean anything for a fiber of t-degree t.  At
    ``max_swap >= t`` any point becomes any other in one exchange, so the
    fiber is one component.  At ``max_swap == t - 1`` two points are adjacent
    exactly when they share a factor (keep it, exchange the other t - 1; and
    an exchange of at most t - 1 factors keeps one), so the components are
    the classes of a union-find over the generator indices that the points
    use.  A bound below t - 1 raises ``ValueError``.  Components come in the
    order of their first point, and each lists its points in fiber order.
    """
    if max_swap < 2:
        raise ValueError("exchange moves involve at least two factors")
    fiber = enumerate_fiber(table, mu)
    if not fiber:
        return []
    t = len(fiber[0])
    if max_swap >= t:
        return [fiber]
    if max_swap < t - 1:
        raise ValueError(f"swap bounds below t - 1 = {t - 1} are not supported, got {max_swap}")
    labels = _component_labels(len(table.generators), fiber)
    components: dict[int, list[FiberPoint]] = {}
    for z in fiber:
        components.setdefault(labels[z[0]], []).append(z)
    return list(components.values())


def basis_to_json(basis: MarkedBasis) -> dict:
    table = basis.table

    def fmt(point: FiberPoint) -> list[str]:
        return [format_monomial(table.generators[i], table.context) for i in point]

    return {
        "variable_order": [format_monomial(g, table.context) for g in table.generators],
        "elements": [{"lead": fmt(el.lead), "trail": fmt(el.trail)} for el in basis.elements],
        "count": len(basis.elements),
    }
