"""The toric and Rees bases held to sympy's Buchberger algorithm, which shares no code with them.

Every other check of the quadrics reads the package's own machinery: the
fiber listing, or the reduction engine ``toric._Rules``.  ``sympy_oracle``
computes the same bases from the generators alone, so a bug in either
could not hide there.  The tables are the suite tables with at most
``MAX_GENERATORS`` generators, 15 of the 200, chosen by that size rule.

- The reduced toric basis, in every degree, equals
  ``quadric_generators(interreduce=True)`` element for element: the paper's
  quadratic Groebner basis, with its marking.
- Every word of three codes, 420 over the 15 tables, has the normal form by
  the full quadric basis that sympy's remainder gives.  Those words step by
  ``_Rules.hits``, the one lookup of the rule index.
- The leads of sympy's reduced Rees basis are the minimal leads of
  ``rees_gb``.
- ``TestMutantsAreSeen``: a dropped quadric, a swapped trail and a dropped
  Rees lead each make the comparison report a mismatch.

The three-root table ``{a^2c^3, ab^2c^2, b^4c}``, whose basis has a cubic,
takes sympy about 7 s, so no negative control of that kind runs here.
"""

from itertools import combinations_with_replacement
from typing import NamedTuple

import pytest

from borelfiber.borel import GeneratorTable
from borelfiber.instances import suite_tables
from borelfiber.rees import ReesBasis, ReesBinomial, rees_gb
from borelfiber.toric import MarkedBasis, MarkedBinomial, normal_form, quadric_generators
from sympy_oracle import ToricOracle, rees_leads

MAX_GENERATORS = 5


class Case(NamedTuple):
    """A table with sympy's toric elements, three-code normal forms and Rees leads."""

    table: GeneratorTable
    elements: list
    normal_forms: dict
    rees_leads: list


@pytest.fixture(scope="module")
def cases() -> list[Case]:
    out = []
    for table in suite_tables(cap=200):
        if len(table.generators) <= MAX_GENERATORS:
            oracle = ToricOracle(table.generators)
            words = combinations_with_replacement(range(len(table.generators)), 3)
            normal_forms = {w: oracle.normal_form(w) for w in words}
            out.append(Case(table, oracle.elements(), normal_forms, rees_leads(table.generators)))
    return out


def element_mismatches(expected, basis) -> list:
    """The (lead, trail) pairs in exactly one of ``expected`` and ``basis``, sorted."""
    actual = {(el.lead, el.trail) for el in basis.elements}
    return sorted(actual.symmetric_difference(expected))


def normal_form_mismatches(normal_forms, basis) -> list:
    """The words whose normal form by ``basis`` is not sympy's."""
    return [w for w, expected in normal_forms.items() if normal_form(w, basis) != expected]


def lead_vector(el: ReesBinomial, size: int) -> tuple[int, ...]:
    """A Rees element's lead as its exponent vector over the x's, then the ``size`` Y's."""
    return el.lead.xpart + tuple(map(el.lead.ypart.count, range(size)))


def lead_vectors(basis: ReesBasis) -> set[tuple[int, ...]]:
    size = len(basis.table.generators)
    return {lead_vector(el, size) for el in basis.elements}


def minimal(vectors) -> list[tuple[int, ...]]:
    """The vectors that no other of ``vectors`` divides, sorted."""

    def divides(u, v):
        return u != v and all(a <= b for a, b in zip(u, v))

    return sorted(v for v in vectors if not any(divides(u, v) for u in vectors))


def test_the_size_rule(cases):
    assert len(cases) == 15
    assert sum(len(case.normal_forms) for case in cases) == 420


def test_the_reduced_toric_basis(cases):
    for case in cases:
        reduced = quadric_generators(case.table, interreduce=True)
        assert element_mismatches(case.elements, reduced) == []


def test_toric_normal_forms_of_three_codes(cases):
    for case in cases:
        assert normal_form_mismatches(case.normal_forms, quadric_generators(case.table)) == []


def test_the_rees_leads(cases):
    for case in cases:
        assert minimal(lead_vectors(rees_gb(case.table))) == case.rees_leads


class TestMutantsAreSeen:
    def test_a_dropped_quadric(self, cases):
        table, elements, normal_forms, _ = cases[0]
        reduced = quadric_generators(table, interreduce=True).elements
        for i, dropped in enumerate(reduced):
            mutant = MarkedBasis(table, reduced[:i] + reduced[i + 1 :])
            assert element_mismatches(elements, mutant) == [dropped]
            assert normal_form_mismatches(normal_forms, mutant)

    def test_a_swapped_trail(self, cases):
        # Neighbours trade trails; both elements are no longer sympy's.
        table, elements, _, _ = cases[0]
        reduced = quadric_generators(table, interreduce=True).elements
        for i, (el, later) in enumerate(zip(reduced, reduced[1:])):
            swapped = (MarkedBinomial(el.lead, later.trail), MarkedBinomial(later.lead, el.trail))
            mutant = MarkedBasis(table, reduced[:i] + swapped + reduced[i + 2 :])
            assert element_mismatches(elements, mutant) == sorted([el, later, *swapped])

    def test_a_dropped_rees_lead(self, cases):
        table, *_, leads = cases[0]
        basis, size = rees_gb(table), len(table.generators)
        for lead in leads:
            kept = [el for el in basis.elements if lead_vector(el, size) != lead]
            assert minimal(lead_vectors(ReesBasis(table, kept))) != leads
