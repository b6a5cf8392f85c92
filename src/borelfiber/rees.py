"""Rees ideals of Borel ideals: the lift from the toric side.

A Rees monomial is a pair of an x-part (ordinary monomial) and a Y-part
(multiset of generator indices); its image under the defining map is the
product of the x-part with the images of the Y factors, with the t-degree
tracked structurally as the number of Y factors.  The Groebner basis of the
Rees ideal is the union of the linear syzygies ``x_j Y_u - x_i Y_v`` (for
generator pairs with ``x_j u = x_i v``) and the toric quadrics, marked by
the elimination order: compare x-parts by lex first, break ties by the
fiber sink order on Y-parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import FiberPoint, fiber_sink_key, point_product
from borelfiber.monomials import Monomial, format_monomial, multiply, unit
from borelfiber.toric import (
    GroebnerReport,
    _check_overlaps,
    _contains,
    _replace,
    quadric_generators,
)


@dataclass(frozen=True)
class ReesMonomial:
    xpart: Monomial
    ypart: FiberPoint


@dataclass(frozen=True)
class ReesBinomial:
    lead: ReesMonomial
    trail: ReesMonomial


def rees_key(table: GeneratorTable, m: ReesMonomial) -> tuple:
    """Elimination-order sort key; larger key means larger monomial."""
    return (m.xpart, fiber_sink_key(m.ypart))


def rees_compare(table: GeneratorTable, m1: ReesMonomial, m2: ReesMonomial) -> int:
    """1 when m1 is larger than m2 in the elimination order, -1/0 otherwise."""
    k1, k2 = rees_key(table, m1), rees_key(table, m2)
    if k1 > k2:
        return 1
    if k1 < k2:
        return -1
    return 0


def rees_image(table: GeneratorTable, m: ReesMonomial) -> Monomial:
    """Multidegree of the monomial: x-part times the Y factors' product."""
    return multiply(m.xpart, point_product(table, m.ypart))


def linear_syzygies(table: GeneratorTable) -> list[ReesBinomial]:
    """All binomials x_j Y_u - x_i Y_v with x_j u = x_i v, marked, one per pair."""
    n = table.context.n
    gens = table.generators
    out: list[ReesBinomial] = []
    for t in range(len(gens)):
        for u in range(t + 1, len(gens)):
            diff = [a - b for a, b in zip(gens[t], gens[u])]
            plus = [pos for pos, v in enumerate(diff) if v == 1]
            minus = [pos for pos, v in enumerate(diff) if v == -1]
            if len(plus) != 1 or len(minus) != 1 or any(abs(v) > 1 for v in diff):
                continue
            i, j = plus[0], minus[0]
            xi, xj = list(unit(n)), list(unit(n))
            xi[i] += 1
            xj[j] += 1
            first = ReesMonomial(tuple(xj), (t,))
            second = ReesMonomial(tuple(xi), (u,))
            if rees_key(table, first) > rees_key(table, second):
                out.append(ReesBinomial(lead=first, trail=second))
            else:
                out.append(ReesBinomial(lead=second, trail=first))
    return out


@dataclass(frozen=True)
class ReesBasis:
    table: GeneratorTable
    elements: tuple[ReesBinomial, ...]

    @cached_property
    def _min_ybuckets(self) -> dict[int, tuple[int, ...]]:
        """Element positions by the smallest lead Y generator (reducer search)."""
        buckets: dict[int, list[int]] = {}
        for pos, el in enumerate(self.elements):
            buckets.setdefault(el.lead.ypart[0], []).append(pos)
        return {g: tuple(ps) for g, ps in buckets.items()}

    @cached_property
    def _lead_shapes(self) -> tuple[tuple[tuple[tuple[int, int], ...], FiberPoint], ...]:
        """Per element: nonzero x requirements and the lead Y-part."""
        return tuple(
            (
                tuple((v, e) for v, e in enumerate(el.lead.xpart) if e),
                el.lead.ypart,
            )
            for el in self.elements
        )

    @cached_property
    def _nf_cache(self) -> dict[ReesMonomial, ReesMonomial]:
        return {}


def _divides(m: ReesMonomial, lead: ReesMonomial) -> bool:
    return all(a <= b for a, b in zip(lead.xpart, m.xpart)) and _contains(m.ypart, lead.ypart)


def _apply(m: ReesMonomial, el: ReesBinomial) -> ReesMonomial:
    xpart = tuple(
        a - b + c for a, b, c in zip(m.xpart, el.lead.xpart, el.trail.xpart)
    )
    return ReesMonomial(xpart, _replace(m.ypart, el.lead.ypart, el.trail.ypart))


def rees_normal_form(m: ReesMonomial, basis: ReesBasis) -> ReesMonomial:
    """Reduce by the lowest-index applicable lead until none applies."""
    cache = basis._nf_cache
    cached = cache.get(m)
    if cached is not None:
        return cached
    shapes = basis._lead_shapes
    elements = basis.elements
    chain = [m]
    current = m
    while True:
        xpart, ypart = current.xpart, current.ypart
        candidates = sorted(
            {p for g in set(ypart) for p in basis._min_ybuckets.get(g, ())}
        )
        nxt = None
        for pos in candidates:
            xreq, ylead = shapes[pos]
            applicable = True
            for v, e in xreq:
                if xpart[v] < e:
                    applicable = False
                    break
            if applicable and _contains(ypart, ylead):
                nxt = _apply(current, elements[pos])
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


def rees_gb(table: GeneratorTable) -> ReesBasis:
    """Linear syzygies plus the toric quadrics with unit x-parts.

    Every element has joint degree two, which is the executable form of
    Koszulness of the Rees algebra for two-Borel tables.
    """
    n = table.context.n
    elements = list(linear_syzygies(table))
    for el in quadric_generators(table).elements:
        elements.append(
            ReesBinomial(
                lead=ReesMonomial(unit(n), el.lead),
                trail=ReesMonomial(unit(n), el.trail),
            )
        )
    return ReesBasis(table, tuple(elements))


def _codes(m: ReesMonomial) -> tuple[int, ...]:
    """The monomial as an ascending tuple of variable codes.

    Variable ``v`` of ``n`` codes as ``v - n`` (negative) and generator ``g``
    as ``g``, so one tuple holds both parts.
    """
    n = len(m.xpart)
    xs = [v - n for v, e in enumerate(m.xpart) for _ in range(e)]
    return tuple(xs) + m.ypart


def _from_codes(codes: tuple[int, ...], n: int) -> ReesMonomial:
    xpart = [0] * n
    for c in codes:
        if c < 0:
            xpart[c + n] += 1
    return ReesMonomial(tuple(xpart), tuple(c for c in codes if c >= 0))


def rees_buchberger_verify(basis: ReesBasis) -> GroebnerReport:
    """Overlap check over mixed monomials; PASS exactly when it is Groebner.

    Every critical monomial of joint degree two or three is checked (see
    ``toric._check_overlaps``); ``pairs_checked`` counts those monomials.
    Raises ``ValueError`` on an inconsistent marking or a lead whose joint
    degree is not two.
    """
    table = basis.table
    for el in basis.elements:
        if rees_key(table, el.lead) <= rees_key(table, el.trail):
            raise ValueError(
                f"inconsistent marking: lead {el.lead} is not larger than trail {el.trail}"
            )
    elements = basis.elements
    n = table.context.n
    coded = [(_codes(el.lead), _codes(el.trail)) for el in elements]
    leads: dict[tuple[int, ...], list[int]] = {}
    for pos, (lead, _) in enumerate(coded):
        leads.setdefault(lead, []).append(pos)
    checked, failures = _check_overlaps(
        leads,
        lambda pos, m: _replace(m, *coded[pos]),
        lambda z: rees_normal_form(_from_codes(z, n), basis),
        lambda m: rees_image(table, _from_codes(m, n)),
    )
    return GroebnerReport(
        ok=not failures,
        pairs_checked=checked,
        failures=tuple(failures),
        context_names=table.context.names,
    )


def rees_basis_to_json(basis: ReesBasis) -> dict:
    table = basis.table

    def fmt_y(point: FiberPoint) -> list[str]:
        return [format_monomial(table.generators[i], table.context) for i in point]

    return {
        "elements": [
            {
                "x_lead": format_monomial(el.lead.xpart, table.context),
                "y_lead": fmt_y(el.lead.ypart),
                "x_trail": format_monomial(el.trail.xpart, table.context),
                "y_trail": fmt_y(el.trail.ypart),
            }
            for el in basis.elements
        ],
        "count": len(basis.elements),
    }
