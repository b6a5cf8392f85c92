"""Rees ideals of Borel ideals: the lift from the toric side.

A Rees monomial is a pair of an x-part (ordinary monomial) and a Y-part
(multiset of generator indices); its image under the defining map is the
product of the x-part with the images of the Y factors, with the t-degree
tracked structurally as the number of Y factors.  The Groebner basis of the
Rees ideal is the union of the linear syzygies ``x_j Y_u - x_i Y_v`` (for
generator pairs with ``x_j u = x_i v``) and the toric quadrics, marked by
the elimination order: compare x-parts by lex first, break ties by the
fiber sink order on Y-parts.  Both kinds are the pairs within one fiber of
the defining map, at t-degree 2 and at bidegree (1, 1).

A toric point is a Rees monomial with no x variables, so both sides share
``toric``'s pair builder, reduction engine and verifier.  A Rees monomial
enters them as one ascending code tuple (see :func:`_codes`): x variable
``v`` of ``n`` codes as ``v - n`` and generator ``g`` as ``g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import FiberPoint, fiber_sink_key, point_product
from borelfiber.monomials import Monomial, format_monomial, multiply, unit
from borelfiber.toric import (
    GroebnerReport,
    _check_point,
    _marked_pairs,
    _Rules,
    _verify,
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


def rees_key(m: ReesMonomial) -> tuple:
    """Elimination-order sort key; larger key means larger monomial."""
    return (m.xpart, fiber_sink_key(m.ypart))


def rees_image(table: GeneratorTable, m: ReesMonomial) -> Monomial:
    """Multidegree of the monomial: x-part times the Y factors' product."""
    return multiply(m.xpart, point_product(table, m.ypart))


def linear_syzygies(table: GeneratorTable) -> list[ReesBinomial]:
    """All binomials x_j Y_u - x_i Y_v with x_j u = x_i v, marked, one per pair.

    The pairs within the fibers of bidegree (1, 1), the monomials x_v Y_g by
    image, largest :func:`rees_key` first; ordered by their two Y indices.
    """
    n = table.context.n
    groups: dict[Monomial, list[ReesMonomial]] = {}
    for g in range(len(table.generators)):
        for v in range(n):
            m = ReesMonomial(tuple(int(k == v) for k in range(n)), (g,))
            groups.setdefault(rees_image(table, m), []).append(m)
    for group in groups.values():
        group.sort(key=rees_key, reverse=True)
    pairs = sorted(_marked_pairs(groups.values()), key=lambda p: sorted(p[0].ypart + p[1].ypart))
    return [ReesBinomial(lead, trail) for lead, trail in pairs]


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


@dataclass(frozen=True)
class ReesBasis:
    table: GeneratorTable
    elements: tuple[ReesBinomial, ...]

    @cached_property
    def _rules(self) -> _Rules:
        return _Rules([(_codes(el.lead), _codes(el.trail)) for el in self.elements])


def rees_normal_form(m: ReesMonomial, basis: ReesBasis) -> ReesMonomial:
    """Reduce by the lowest-index applicable lead until none applies.

    Raises ``ValueError`` on an x-part with other than one exponent per
    variable, or a Y-part that ``toric.normal_form`` refuses.
    """
    n = basis.table.context.n
    if len(m.xpart) != n:
        raise ValueError(f"the x-part must have {n} exponents, got {m.xpart}")
    _check_point(m.ypart, basis.table)
    return _from_codes(basis._rules.normal_form(_codes(m)), n)


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


def rees_buchberger_verify(basis: ReesBasis) -> GroebnerReport:
    """Overlap check over mixed monomials; PASS exactly when it is Groebner.

    Every critical monomial of joint degree two or three is checked (see
    ``toric._check_overlaps``); ``pairs_checked`` counts those monomials.
    Raises ``ValueError`` on an inconsistent marking or a lead whose joint
    degree is not two.
    """
    table = basis.table
    n = table.context.n
    # Code c indexes its exponent vector here: generator g at g, and x
    # variable v, coded v - n, among the n unit vectors at the end.
    vectors = list(table.generators) + [tuple(int(k == v) for k in range(n)) for v in range(n)]
    return _verify(basis, rees_key, lambda w: tuple(map(sum, zip(*[vectors[c] for c in w]))))


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
