"""Bases hold word pairs, and no answer depends on which objects built them.

A ``MarkedBinomial`` is its (lead, trail) word pair, and a ``ReesBasis``
codes each side of its elements once, when it is built, into ``pairs``;
``toric._check_marking`` then checks each distinct word once.
``TestNoObjectSharing`` holds every answer on fresh copies of every side to
the answer on the originals, and ``TestRoundTrip`` holds a Rees basis rebuilt
from its decoded elements to the basis itself.
"""

import json
from pathlib import Path

import pytest

from borelfiber.borel import build_two_borel
from borelfiber.instances import random_tables, suite_tables
from borelfiber.rees import ReesBasis, ReesBinomial, ReesMonomial, rees_buchberger_verify, rees_gb
from borelfiber.toric import MarkedBinomial, _Rules, buchberger_verify, quadric_generators

from helpers import mono

# The drop-one reports of the figure ideal's full and Rees bases, which
# test_overlaps.py::TestPinnedMutantReports holds the shared originals to.
DROP_ONE_REPORTS = Path(__file__).resolve().parent / "data" / "drop_one_reports.json"


def index(rules: _Rules) -> tuple:
    return rules.leads, rules.trails, rules.by_lead, rules.alphabets, rules.quadratic


def bases(table) -> dict[str, object]:
    """The full, reduced and Rees bases of ``table``."""
    return {
        "full": quadric_generators(table),
        "reduced": quadric_generators(table, interreduce=True),
        "rees": rees_gb(table),
    }


@pytest.fixture(scope="module")
def suite():
    return suite_tables()


def fresh(side):
    """A copy of ``side`` that shares no tuple or monomial with it."""
    if isinstance(side, ReesMonomial):
        return ReesMonomial(fresh(side.xpart), fresh(side.ypart))
    return tuple(list(side))


def fresh_basis(basis):
    element = ReesBinomial if isinstance(basis, ReesBasis) else MarkedBinomial
    elements = tuple(element(fresh(el.lead), fresh(el.trail)) for el in basis.elements)
    return type(basis)(basis.table, elements)


def verifier(basis):
    return rees_buchberger_verify if isinstance(basis, ReesBasis) else buchberger_verify


def drop_one_reports(basis) -> list[dict]:
    verify, elements = verifier(basis), basis.elements
    return [
        verify(type(basis)(basis.table, elements[:i] + elements[i + 1 :])).to_json()
        for i in range(len(elements))
    ]


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


class TestNoObjectSharing:
    @pytest.mark.parametrize("kind", ["full", "reduced", "rees"])
    def test_fresh_copies_give_the_same_answers(self, fig_table, kind):
        basis = bases(fig_table)[kind]
        copy = fresh_basis(basis)
        assert copy == basis
        for el, original in zip(copy.elements, basis.elements):
            assert el.lead is not original.lead and el.trail is not original.trail
        assert index(copy._rules) == index(basis._rules)
        assert verifier(copy)(copy).to_json() == verifier(basis)(basis).to_json()

    @pytest.mark.parametrize("kind, pinned", [("full", "toric"), ("rees", "rees")])
    def test_fresh_copies_give_the_pinned_drop_one_reports(self, fig_table, kind, pinned):
        basis = bases(fig_table)[kind]
        expected = json.loads(DROP_ONE_REPORTS.read_text())[pinned]
        assert drop_one_reports(fresh_basis(basis)) == expected

    @pytest.mark.parametrize("i", range(5, 200, 40))
    def test_suite_reports(self, suite, i):
        for basis in bases(suite[i]).values():
            copy = fresh_basis(basis)
            assert index(copy._rules) == index(basis._rules)
            assert verifier(copy)(copy).to_json() == verifier(basis)(basis).to_json()


def round_trip_tables() -> list:
    """Every 10th suite table and the bench's four random tables (at most 21 generators)."""
    randoms = [t for t in random_tables(30, 20250809) if len(t.generators) <= 21][:4]
    return suite_tables()[::10] + randoms


class TestRoundTrip:
    @pytest.mark.parametrize("table", round_trip_tables(), ids=lambda t: str(t.roots))
    def test_rees_basis_from_its_elements(self, table):
        basis = rees_gb(table)
        again = ReesBasis(table, basis.elements)
        assert again == basis
        assert index(again._rules) == index(basis._rules)
