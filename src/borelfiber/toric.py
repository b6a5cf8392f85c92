"""Toric ideals of Borel ideals: binomial Groebner machinery.

The toric ideal lives in one Y variable per minimal generator and is
generated by differences of fiber points with equal product.  For two-Borel
tables the set of *all* quadric binomials, marked by the fiber sink order,
is a Groebner basis; :func:`buchberger_verify` rechecks that claim overlap
by overlap, and :func:`brute_force_gb` is the independent truncated-completion
oracle, which reduces every fiber up to a bound to one normal form.
Everything is coefficient free: binomials are ordered pairs of Y-monomials,
and reduction replaces sub-multisets.

A point with k later points in its degree-2 fiber leads k quadrics, but
reduction applies only the first.  So the reduced basis is read off the
fibers, and the overlap check uses every copy of a lead only at the lead.

One code path per concept serves the toric and Rees sides alike.
:func:`_marked_pairs` builds the quadrics and the Rees linear syzygies.
:class:`_Rules` is the one reduction engine on ascending tuples of integer
codes: a toric point is its own word, and a Rees monomial is coded by
``rees._codes``.  Its lead index ``by_lead`` is the one place that says
which rules carry a lead: the rewriter looks up the word's own
sub-multisets of each lead size there, the overlap check finds its critical
monomials and reducers there, and :func:`brute_force_gb` grows it one rule
at a time.  :func:`_verify`, a marking and homogeneity check and then the
overlap check :func:`_check_overlaps`, is the one Groebner verifier.

The overlap check looks its pairs up instead of scanning for them: it
builds the cubic critical monomials of a lead from the codes that share a
lead with one of its codes, and writes the one-step reducts of a cubic
monomial in closed form, as a quadratic trail with one code put in place.
"""

from __future__ import annotations

from itertools import combinations
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


def _replace(point: FiberPoint, old: FiberPoint, new: FiberPoint) -> FiberPoint:
    out = list(point)
    for x in old:
        out.remove(x)
    out.extend(new)
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class MarkedBinomial:
    """Ordered difference of two Y-monomials with the same multidegree."""

    lead: FiberPoint
    trail: FiberPoint


class _Rules:
    """Marked rewrite rules on ascending code tuples: the one reduction engine.

    ``leads`` and ``trails`` list the rules' words, each an ascending tuple of
    integer codes; a word contains a lead when the lead is a sub-multiset of
    it.  Toric points are their own words, and Rees monomials are coded by
    ``rees._codes``.  ``by_lead`` is the one lead index: it maps each distinct
    lead to the positions of its rules, ascending.  ``alphabets`` maps each
    lead size to the codes that leads of that size use.
    """

    def __init__(self, pairs=()) -> None:
        self.leads: list[tuple[int, ...]] = []
        self.trails: list[tuple[int, ...]] = []
        self.by_lead: dict[tuple[int, ...], list[int]] = {}
        self.alphabets: dict[int, set[int]] = {}
        self.cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        for lead, trail in pairs:
            self.add(lead, trail)

    def add(self, lead: tuple[int, ...], trail: tuple[int, ...]) -> None:
        """Append a rule; a cached normal form may now reduce further, so drop them."""
        self.by_lead.setdefault(lead, []).append(len(self.leads))
        self.alphabets.setdefault(len(lead), set()).update(lead)
        self.leads.append(lead)
        self.trails.append(trail)
        self.cache.clear()

    def rewrite(self, word: tuple[int, ...]) -> tuple[int, ...] | None:
        """The one-step reduct by the lowest-position rule whose lead ``word`` contains.

        For each lead size k, the k-combinations of the word's codes in that
        size's alphabet are exactly the word's sub-multisets that can be a
        lead of size k.  Each is looked up in ``by_lead``, so every hit
        applies.  A code is kept at most k times, which leaves the set of
        combinations as it is but keeps long words from multiplying it.
        Returns None when no lead is contained.
        """
        by_lead = self.by_lead
        hits = []
        for size, alphabet in self.alphabets.items():
            codes = list(filter(alphabet.__contains__, word))
            if len(codes) > size:  # ascending: a code past its k-th copy equals the code k before
                codes = [c for i, c in enumerate(codes) if i < size or codes[i - size] != c]
            hits.extend(filter(None, map(by_lead.get, set(combinations(codes, size)))))
        if not hits:
            return None
        pos = min(hits)[0]  # disjoint ascending lists: the least has the lowest position
        return _replace(word, self.leads[pos], self.trails[pos])

    def normal_form(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """Rewrite until no lead is contained; cache every word on the way."""
        cache = self.cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        chain = [word]
        current = word
        while (nxt := self.rewrite(current)) is not None:
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


def _marked_pairs(groups) -> list[tuple]:
    """Every (lead, trail) pair of distinct words within one group.

    Each group lists its words earliest first, as :func:`fibers` lists points.
    """
    return [pair for words in groups for pair in combinations(words, 2)]


def quadric_generators(table: GeneratorTable, interreduce: bool = False) -> MarkedBasis:
    """All quadric binomials of the toric ideal, marked by the sink order.

    One element per unordered pair of distinct degree-2 fiber points sharing
    a multidegree.  With ``interreduce`` the basis is the reduced one, read
    off the fibers: every point of a fiber but the last leads once, with the
    fiber's last point as its trail.  No element leads with a last point, so
    every trail is already reduced.  Elements come in ascending sink order of
    their leads.
    """
    groups = fibers(table, 2).values()
    if interreduce:
        pairs = sorted(
            ((lead, words[-1]) for words in groups for lead in words[:-1]),
            key=lambda pair: fiber_sink_key(pair[0]),
        )
    else:
        pairs = _marked_pairs(groups)
    return MarkedBasis(table, tuple(MarkedBinomial(lead, trail) for lead, trail in pairs))


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
    context_names: tuple[str, ...]

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        ctx = VariableContext(self.context_names)
        return {
            "status": self.status,
            "pairs_checked": self.pairs_checked,
            "failures": [
                {"pair": [f.first, f.second], "multidegree": format_monomial(f.multidegree, ctx)}
                for f in self.failures
            ],
        }


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
    critical monomials.

    A lead carried by several rules is checked with all its copies.  At the
    lcm of two distinct leads only the first rule of each lead reduces, so a
    cubic critical monomial is reduced by at most three rules.  That is
    enough: copies that join at their lead join at every multiple of it, and
    in the induction along the reduction order that proves Newman's lemma,
    every monomial below the one at hand has one normal form, so joining each
    copy to the first, and the first rules to each other, joins all one-step
    reducts.  Returns the number of critical monomials and one failure for
    each that disagrees.

    Critical monomials are looked up, not searched for.  ``partners[c]``
    holds the codes that share a lead with code ``c``, so the cubic critical
    monomials of a lead (a, b) are the lead times each w in
    (partners[a] - {b}) | (partners[b] - {a}), or in partners[a] - {a} when
    a = b, with w put in place.  Every trail is quadratic (``_verify`` checks
    that lead and trail have one length), so the one-step reduct of a cubic
    m by the first rule of the divisor m - {r} is that rule's trail with r
    put in place.
    """
    by_lead = rules.by_lead
    partners: dict[int, set[int]] = {}
    for lead, positions in by_lead.items():
        if len(lead) != 2:
            raise ValueError(
                f"lead of element {positions[0]} has degree {len(lead)}; "
                "the overlap check needs quadratic leads"
            )
        a, b = lead
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    critical = {lead for lead, positions in by_lead.items() if len(positions) > 1}
    add = critical.add
    for a, b in by_lead:
        if a == b:
            extra = partners[a] - {a}
        else:
            extra = (partners[a] - {b}) | (partners[b] - {a})
        for w in extra:
            if w <= a:
                add((w, a, b))
            elif w <= b:
                add((a, w, b))
            else:
                add((a, b, w))
    trails = rules.trails
    failures = []
    for m in sorted(critical):
        reducts = {}
        if len(m) == 2:
            for pos in by_lead[m]:
                reducts.setdefault(trails[pos], pos)  # a lead's reduct by its own rule
        else:
            x, y, z = m
            hits = []
            for d, r in (((y, z), x), ((x, z), y), ((x, y), z)):
                positions = by_lead.get(d)
                if positions is not None:
                    hits.append((positions[0], r))
            hits.sort()  # a repeated code repeats a hit, and so its reduct
            for pos, r in hits:
                p, q = trails[pos]  # the first rule of d times r: its trail with r put in place
                reducts.setdefault((r, p, q) if r <= p else (p, r, q) if r <= q else (p, q, r), pos)
        if len(reducts) == 1:
            continue
        first, *rest = reducts.items()
        target = rules.normal_form(first[0])
        for z, pos in rest:
            if rules.normal_form(z) != target:
                failures.append(SPairFailure(first[1], pos, multidegree(m)))
                break
    return len(critical), failures


def _verify(basis, key: Callable, multidegree: Callable) -> GroebnerReport:
    """Marking check, then the overlap check; the verifier behind both sides.

    ``basis`` is a toric or a Rees basis.  Raises ``ValueError`` unless every
    element's lead has a larger ``key`` than its trail, and unless its lead
    and trail have the same code length (t-degree, or joint degree) and the
    same ``multidegree``: a binomial that is not homogeneous is not in the
    ideal.  ``multidegree`` also names a failure (see :func:`_check_overlaps`).
    """
    rules = basis._rules
    for pos, el in enumerate(basis.elements):
        if key(el.lead) <= key(el.trail):
            raise ValueError(
                f"inconsistent marking: lead {el.lead} is not earlier than trail {el.trail}"
            )
        lead, trail = rules.leads[pos], rules.trails[pos]
        if len(lead) != len(trail) or multidegree(lead) != multidegree(trail):
            what = "degree" if len(lead) != len(trail) else "multidegree"
            raise ValueError(
                f"element {pos} is not homogeneous: lead {el.lead} and trail {el.trail} "
                f"differ in {what}"
            )
    checked, failures = _check_overlaps(rules, multidegree)
    return GroebnerReport(
        ok=not failures,
        pairs_checked=checked,
        failures=tuple(failures),
        context_names=basis.table.context.names,
    )


def buchberger_verify(basis: MarkedBasis) -> GroebnerReport:
    """Overlap check of a quadric basis; PASS exactly when it is Groebner.

    Checks every critical monomial of degree two or three (see
    :func:`_check_overlaps`); ``pairs_checked`` counts those monomials.
    Raises ``ValueError`` on a lead that is not earlier than its trail in the
    fiber sink order, or on a lead that is not quadratic.
    """
    return _verify(basis, fiber_sink_key, lambda m: point_product(basis.table, m))


def brute_force_gb(table: GeneratorTable, degree_bound: int) -> MarkedBasis:
    """Degree-truncated completion: one normal form per fiber up to the bound.

    Walks the fibers of t-degree up to the bound in :func:`fibers` order and
    reduces the star of each: the pairs (first point, w) for every later
    point w.  When the normal forms differ, the later one in the fiber sink
    order becomes a lead, rewritten to the earlier one.  Independent of the
    unique-sink theory and of the overlap check; used as the oracle.

    The result is the truncated Buchberger completion seeded with every
    binomial between two points of one fiber, element for element and in
    order, although no S-pair is formed:

    - The rewriter applies the lowest-position applicable rule, and rules
      are only appended.  So once two words have one normal form they keep
      it: both chains still reach the old common normal form and continue
      from it together.
    - So after a fiber's star every point of that fiber has one normal
      form, and the completion's other seeds within the fiber reduce to
      zero when they are reached.
    - An S-pair joins two points of one fiber of t-degree at most the bound,
      and it is queued behind every seed, so it reduces to zero too.

    Every binomial of the toric ideal of t-degree at most the bound thus
    reduces to zero, so the result is a Groebner basis through the bound
    (Sturmfels, *Groebner Bases and Convex Polytopes*, 1996, ch. 4).
    """
    if degree_bound < 2:
        raise ValueError("the completion bound must be at least 2")
    rules = _Rules()
    for first, *rest in fibers(table, degree_bound).values():
        for w in rest:
            a = rules.normal_form(first)
            b = rules.normal_form(w)
            if a == b:
                continue
            if fiber_sink_key(a) < fiber_sink_key(b):
                a, b = b, a
            rules.add(a, b)
    return MarkedBasis(table, tuple(map(MarkedBinomial, rules.leads, rules.trails)))


def closure_components(
    table: GeneratorTable, mu: Monomial, max_swap: int
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
