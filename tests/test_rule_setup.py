"""Bases hold word pairs, and no answer depends on which objects built them.

A ``MarkedBasis`` holds its elements as (lead, trail) word pairs, and a
``ReesBasis`` codes each side of its elements once, when it is built, into
``pairs``.  ``toric._checked_rules`` checks the words, the marking and the
homogeneity of either basis before it builds the rule index: by two columns
when every word has two codes, and otherwise by one walk in element order.
``TestNoObjectSharing`` holds every answer on fresh copies of every side to
the answer on the originals; a built ``MarkedBasis`` holds plain tuples and
its copy ``MarkedBinomial`` elements, so this also holds either kind of
pair to one rule index and one report, on the figure ideal and every 10th
suite table.
``TestRoundTrip`` holds a Rees basis rebuilt from its decoded elements to
the basis itself.  ``TestRulesOnlyFromCheckedBases`` holds reduction and
verification on malformed bases to one ``ValueError``.
"""

import json
import re
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from borelfiber.borel import build_table, build_two_borel
from borelfiber.instances import random_tables, suite_tables
from borelfiber.rees import (
    ReesBasis,
    ReesBinomial,
    ReesMonomial,
    rees_buchberger_verify,
    rees_gb,
)
from borelfiber.toric import (
    MarkedBasis,
    MarkedBinomial,
    _Rules,
    buchberger_verify,
    normal_form,
    quadric_generators,
)

from helpers import mono, rees_normal_form

# The drop-one reports of the figure ideal's full and Rees bases, which
# test_overlaps.py::TestPinnedMutantReports holds the shared originals to.
DROP_ONE_REPORTS = Path(__file__).resolve().parent / "data" / "drop_one_reports.json"


def index(rules: _Rules) -> tuple:
    return rules.leads, rules.trails, rules.by_lead, rules.sizes


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
        if isinstance(basis, MarkedBasis):  # built from pairs, viewed as MarkedBinomials
            assert {type(el) for el in basis.elements} == {MarkedBinomial}
            assert basis.elements == basis.pairs
        for el, original in zip(copy.elements, basis.elements):
            assert el.lead is not original.lead and el.trail is not original.trail
        assert index(copy._rules) == index(basis._rules)
        assert verifier(copy)(copy).to_json() == verifier(basis)(basis).to_json()

    @pytest.mark.parametrize("kind, pinned", [("full", "toric"), ("rees", "rees")])
    def test_fresh_copies_give_the_pinned_drop_one_reports(self, fig_table, kind, pinned):
        basis = bases(fig_table)[kind]
        expected = json.loads(DROP_ONE_REPORTS.read_text())[pinned]
        assert drop_one_reports(fresh_basis(basis)) == expected

    # Every 40th suite table from the 5th, and every 10th.
    @pytest.mark.parametrize("i", sorted({*range(5, 200, 40), *range(0, 200, 10)}))
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


@contextmanager
def within(seconds: int):
    """Raise ``TimeoutError`` in the block after ``seconds``: a loop fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRulesOnlyFromCheckedBases:
    """A malformed basis raises ``ValueError`` before any rule is built.

    On Borel(b^2) in two variables, with generators a^2, ab, b^2 and Rees
    codes a, b, Y_{a^2}, Y_{ab}, Y_{b^2} as 0..4.  A pair and its reverse
    would rewrite a word back and forth forever, so both reductions run
    under a timeout.
    """

    @pytest.fixture(scope="class")
    def table(self):
        return build_table([(0, 2)])

    def test_a_pair_and_its_reverse_under_normal_form(self, table):
        el = quadric_generators(table).elements[0]
        basis = MarkedBasis(table, (el, MarkedBinomial(el.trail, el.lead)))
        message = "inconsistent marking: lead (0, 2) is not earlier than trail (1, 1)"
        with within(3), pytest.raises(ValueError, match=re.escape(message)):
            normal_form((0, 2), basis)

    def test_a_pair_and_its_reverse_under_rees_normal_form(self, table):
        el = rees_gb(table).elements[0]
        basis = ReesBasis(table, (el, ReesBinomial(el.trail, el.lead)))
        message = f"inconsistent marking: lead {el.trail} is not earlier than trail {el.lead}"
        with within(3), pytest.raises(ValueError, match=re.escape(message)):
            rees_normal_form(el.lead, basis)

    def test_a_list_lead_under_normal_form(self, table):
        basis = MarkedBasis(table, (MarkedBinomial([1, 1], (0, 2)),))
        message = "the lead of element 0 must be a tuple of ints, got [1, 1]"
        with pytest.raises(ValueError, match=re.escape(message)):
            normal_form((0, 2), basis)

    def test_a_bool_lead_under_buchberger_verify(self, table):
        # (True, True) == (1, 1), which leads the one quadric correctly.
        basis = MarkedBasis(table, (MarkedBinomial((True, True), (0, 2)),))
        message = "the lead of element 0 must be a tuple of ints, got (True, True)"
        with pytest.raises(ValueError, match=re.escape(message)):
            buchberger_verify(basis)

    @pytest.mark.parametrize("lead", [[0, 4], (True, 4)], ids=["list", "bool"])
    def test_a_malformed_rees_word_under_rees_buchberger_verify(self, table, lead):
        # (0, 4) codes a Y_{b^2} and (1, 3) codes b Y_{ab}: a syzygy, marked correctly.
        basis = ReesBasis(table, pairs=(((0, 3), (1, 2)), (lead, (1, 3))))
        message = f"the lead of element 1 must be a tuple of ints, got {lead!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rees_buchberger_verify(basis)

    def test_a_malformed_word_before_a_marking_error(self, table):
        el = quadric_generators(table).elements[0]
        backwards, unsorted = MarkedBinomial(el.trail, el.lead), MarkedBinomial((1, 1), (2, 0))
        basis = MarkedBasis(table, (backwards, unsorted))
        with pytest.raises(ValueError, match=re.escape("the trail of element 1 must be ascending")):
            normal_form((0, 2), basis)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([5], "element 0 must be a (lead, trail) pair of words, got 5"),
            (
                [((0, 3), (1, 2)), ((0, 3), (1, 2), (0, 4))],
                "element 1 must be a (lead, trail) pair of words, got ((0, 3), (1, 2), (0, 4))",
            ),
        ],
        ids=["int", "triple"],
    )
    @pytest.mark.parametrize("kind", ["toric", "rees"])
    def test_an_element_that_is_not_a_pair(self, table, pairs, message, kind):
        # Both are refused before any word is unpacked, on both sides.
        if kind == "toric":
            basis, verify = MarkedBasis(table, tuple(pairs)), buchberger_verify
        else:
            basis, verify = ReesBasis(table, pairs=pairs), rees_buchberger_verify
        with pytest.raises(ValueError, match=re.escape(message)):
            verify(basis)

    @pytest.mark.parametrize(
        "elements, message",
        [
            ([((1, 1), (0, 5)), ([1, 1], (0, 2))], "the trail of element 0 must be in range(3)"),
            ([((2, 1), [0, 2])], "the lead of element 0 must be ascending, got (2, 1)"),
            ([((1, 1), (0, 2)), ((-1, 0), (True, 1))], "the lead of element 1 must be in range(3)"),
        ],
        ids=["element-order", "lead-before-trail", "range-before-type"],
    )
    def test_the_first_malformed_word_is_named(self, table, elements, message):
        basis = MarkedBasis(table, tuple(MarkedBinomial(*pair) for pair in elements))
        with pytest.raises(ValueError, match=re.escape(message)):
            buchberger_verify(basis)
