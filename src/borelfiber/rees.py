"""Rees ideals of Borel ideals: the lift from the toric side.

A Rees monomial is a pair of an x-part (ordinary monomial) and a Y-part
(multiset of generator indices); its image under the defining map is the
product of the x-part with the images of the Y factors, with the t-degree
tracked structurally as the number of Y factors.  The Groebner basis of the
Rees ideal is the union of the linear syzygies ``x_j Y_u - x_i Y_v`` (for
generator pairs with ``x_j u = x_i v``) and the toric quadrics, marked by
the elimination order: compare x-parts by lex first, break ties by the
fiber sink order on Y-parts.

A toric point is a Rees monomial with no x variables, so both sides share
one reduction engine, ``toric._Rules``.  A Rees monomial enters it as one
ascending code tuple (see :func:`_codes`): x variable ``v`` of ``n`` codes as
``v - n`` and generator ``g`` as ``g``.  This module defines no reduction of
its own; :func:`rees_normal_form` and :func:`rees_buchberger_verify` code,
call the engine, and decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import FiberPoint, fiber_sink_key, point_product
from borelfiber.monomials import Monomial, format_monomial, multiply, unit
from borelfiber.toric import GroebnerReport, _check_overlaps, _Rules, quadric_generators


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
            if rees_key(first) > rees_key(second):
                out.append(ReesBinomial(lead=first, trail=second))
            else:
                out.append(ReesBinomial(lead=second, trail=first))
    return out


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
    """Reduce by the lowest-index applicable lead until none applies."""
    return _from_codes(basis._rules.normal_form(_codes(m)), len(m.xpart))


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
    for el in basis.elements:
        if rees_key(el.lead) <= rees_key(el.trail):
            raise ValueError(
                f"inconsistent marking: lead {el.lead} is not larger than trail {el.trail}"
            )
    n = table.context.n
    checked, failures = _check_overlaps(
        basis._rules, lambda m: rees_image(table, _from_codes(m, n))
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
