"""The Groebner verifiers' per-side setup keeps no answer tied to object sharing.

``toric._check_marking`` checks each side object once and
``ReesBasis._rules`` codes each side object once, both keyed by identity;
``TestNoObjectSharing`` holds every answer on fresh copies of every side to
the answer on the shared originals.
"""

import json
from pathlib import Path

import pytest

from borelfiber.borel import build_two_borel
from borelfiber.instances import suite_tables
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

    def test_rees_gb_shares_one_monomial_per_side(self, fig_table):
        # Equal sides of rees_gb are one object, so the per-side memos hit.
        sides = [side for el in rees_gb(fig_table).elements for side in (el.lead, el.trail)]
        assert len({id(side) for side in sides}) == len(set(sides)) < len(sides)
