"""The overlap check of the toric and Rees bases against the pairwise oracle.

``buchberger_verify`` and ``rees_buchberger_verify`` check critical monomials
(diamond lemma); the oracles in ``helpers`` reduce both sides of every S-pair
with overlapping leads.  Both must give the same verdict on passing bases and
on the drop-one mutants of the figure ideal's bases, which are the negative
controls.  The check reduces in closed form; ``TestClosedFormReducer`` holds
that reducer to ``_Rules.normal_form``, and ``TestPinnedMutantReports`` holds
every mutant's report to the one the generic rewriter gave.
"""

import json
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from borelfiber.borel import build_two_borel
from borelfiber.fiber import enumerate_fiber, fiber_sink_key, fibers, point_product
from borelfiber.monomials import unit
from borelfiber.rees import (
    ReesBasis,
    ReesBinomial,
    ReesMonomial,
    _codes,
    rees_buchberger_verify,
    rees_gb,
    rees_image,
)
from borelfiber.toric import (
    MarkedBasis,
    MarkedBinomial,
    _closed_form_reducer,
    _cubic_steps,
    _Rules,
    buchberger_verify,
    normal_form,
    quadric_generators,
)

import helpers
from helpers import (
    contains,
    critical_monomials_by_pairs,
    lcm,
    swap,
    mono,
    pairwise_buchberger,
    pairwise_rees_buchberger,
    rees_apply,
    rees_word,
    split_rees_reducer,
)


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


DROP_ONE_REPORTS = Path(__file__).resolve().parent / "data" / "drop_one_reports.json"


@pytest.fixture(scope="module")
def cross_check_tables():
    return helpers.cross_check_tables()


def _toric_witnesses(basis, failure):
    """Points of the failure's multidegree where its two reducers disagree."""
    f, g = basis.elements[failure.first], basis.elements[failure.second]
    return [
        z
        for z in enumerate_fiber(basis.table, failure.multidegree)
        if len(z) <= 3
        and contains(z, f.lead)
        and contains(z, g.lead)
        and normal_form(swap(z, f.lead, f.trail), basis)
        != normal_form(swap(z, g.lead, g.trail), basis)
    ]


def _rees_witnesses(basis, failure):
    """Multiples of the two reducers' lcm by at most one variable, of the
    failure's multidegree, where the two reducers disagree."""
    table = basis.table
    n = table.context.n
    f, g = basis.elements[failure.first], basis.elements[failure.second]
    top = ReesMonomial(
        tuple(max(a, b) for a, b in zip(f.lead.xpart, g.lead.xpart)),
        lcm(f.lead.ypart, g.lead.ypart),
    )
    candidates = [top]
    for v in range(n):
        xpart = tuple(e + (i == v) for i, e in enumerate(top.xpart))
        candidates.append(ReesMonomial(xpart, top.ypart))
    for gen in range(len(table.generators)):
        candidates.append(ReesMonomial(top.xpart, tuple(sorted(top.ypart + (gen,)))))
    reduce = split_rees_reducer(basis)
    return [
        m
        for m in candidates
        if sum(m.xpart) + len(m.ypart) <= 3
        and rees_image(table, m) == failure.multidegree
        and reduce(rees_apply(m, f)) != reduce(rees_apply(m, g))
    ]


class TestAgreementWithOracle:
    def test_toric(self, cross_check_tables):
        for table in cross_check_tables:
            basis = quadric_generators(table)
            report = buchberger_verify(basis)
            assert report.ok
            assert report.ok == pairwise_buchberger(basis).ok

    def test_rees(self, cross_check_tables):
        for table in cross_check_tables:
            basis = rees_gb(table)
            report = rees_buchberger_verify(basis)
            assert report.ok
            assert report.ok == pairwise_rees_buchberger(basis).ok


class TestCopiesOfOneLead:
    """Two copies of one lead whose trails are distinct normal forms.

    The lead is the first point of a degree-2 fiber with three points, and
    the trails are the other two; no element leads with either, so the
    copies disagree at the lead itself.
    """

    @pytest.fixture(scope="class")
    def fiber(self, fig_table):
        return next(words for words in fibers(fig_table, 2).values() if len(words) == 3)

    def test_toric(self, fig_table, fiber):
        lead, *trails = fiber
        basis = MarkedBasis(fig_table, tuple(MarkedBinomial(lead, z) for z in trails))
        report = buchberger_verify(basis)
        assert report.status == "FAIL"
        assert report.pairs_checked == 1
        assert [f.multidegree for f in report.failures] == [point_product(fig_table, lead)]
        assert (report.failures[0].first, report.failures[0].second) == (0, 1)
        assert not pairwise_buchberger(basis).ok

    def test_rees(self, fig_table, fiber):
        one = unit(3)
        lead, *trails = (ReesMonomial(one, z) for z in fiber)
        basis = ReesBasis(fig_table, tuple(ReesBinomial(lead, z) for z in trails))
        report = rees_buchberger_verify(basis)
        assert report.status == "FAIL"
        assert [f.multidegree for f in report.failures] == [rees_image(fig_table, lead)]
        assert not pairwise_rees_buchberger(basis).ok


class TestDropOneMutants:
    def test_toric(self, fig_table):
        elements = quadric_generators(fig_table).elements
        assert len(elements) == 105
        failing = 0
        for i in range(len(elements)):
            mutant = MarkedBasis(fig_table, elements[:i] + elements[i + 1 :])
            report = buchberger_verify(mutant)
            assert report.ok == pairwise_buchberger(mutant).ok, f"deletion {i}"
            if not report.ok:
                failing += 1
                assert report.failures
                assert report.to_json()["status"] == "FAIL"
                for failure in report.failures:
                    assert failure.first != failure.second
                    assert _toric_witnesses(mutant, failure), f"deletion {i}: {failure}"
        assert failing == 30

    def test_rees(self, fig_table):
        elements = rees_gb(fig_table).elements
        assert len(elements) == 131
        failing = 0
        for i in range(len(elements)):
            mutant = ReesBasis(fig_table, elements[:i] + elements[i + 1 :])
            report = rees_buchberger_verify(mutant)
            assert report.ok == pairwise_rees_buchberger(mutant).ok, f"deletion {i}"
            if not report.ok:
                failing += 1
                assert report.failures
                for failure in report.failures:
                    assert failure.first != failure.second
                    assert _rees_witnesses(mutant, failure), f"deletion {i}: {failure}"
        assert failing == 46


class TestCriticalMonomialCount:
    """``pairs_checked`` counts the critical monomials built from all pairs.

    The overlap check builds them from the codes that share a lead with a
    lead's codes; ``critical_monomials_by_pairs`` takes the lcm of every two
    overlapping leads and adds every lead carried twice.
    """

    @staticmethod
    def toric_count(basis):
        return len(critical_monomials_by_pairs([el.lead for el in basis.elements]))

    @staticmethod
    def rees_count(basis):
        return len(critical_monomials_by_pairs([rees_word(el.lead) for el in basis.elements]))

    def test_toric(self, cross_check_tables):
        for table in cross_check_tables:
            for basis in (quadric_generators(table), quadric_generators(table, interreduce=True)):
                assert buchberger_verify(basis).pairs_checked == self.toric_count(basis)

    def test_rees(self, cross_check_tables):
        for table in cross_check_tables:
            basis = rees_gb(table)
            assert rees_buchberger_verify(basis).pairs_checked == self.rees_count(basis)

    def test_drop_one_mutants(self, fig_table):
        elements = quadric_generators(fig_table).elements
        for i in range(len(elements)):
            mutant = MarkedBasis(fig_table, elements[:i] + elements[i + 1 :])
            assert buchberger_verify(mutant).pairs_checked == self.toric_count(mutant), i
        elements = rees_gb(fig_table).elements
        for i in range(len(elements)):
            mutant = ReesBasis(fig_table, elements[:i] + elements[i + 1 :])
            assert rees_buchberger_verify(mutant).pairs_checked == self.rees_count(mutant), i


class TestQuadraticLeads:
    @pytest.fixture(scope="class")
    def cubic_pair(self, fig_table):
        points = enumerate_fiber(fig_table, (3, 9, 3))
        points = sorted(points, key=lambda z: fiber_sink_key(z), reverse=True)
        return points[0], points[-1]

    def test_toric_rejects_a_cubic_lead(self, fig_table, cubic_pair):
        lead, trail = cubic_pair
        assert len(lead) == 3
        assert point_product(fig_table, lead) == point_product(fig_table, trail)
        with pytest.raises(ValueError, match="quadratic"):
            buchberger_verify(MarkedBasis(fig_table, (MarkedBinomial(lead, trail),)))

    def test_rees_rejects_a_cubic_lead(self, fig_table, cubic_pair):
        lead, trail = cubic_pair
        el = ReesBinomial(ReesMonomial(unit(3), lead), ReesMonomial(unit(3), trail))
        with pytest.raises(ValueError, match="quadratic"):
            rees_buchberger_verify(ReesBasis(fig_table, (el,)))


def _drop_one(elements):
    return [elements[:i] + elements[i + 1 :] for i in range(len(elements))]


class TestClosedFormReducer:
    """The overlap check's reducer gives ``_Rules.normal_form`` on its words.

    Every word of length two and three over the figure ideal's codes is
    reduced both ways, over the full, the reduced and the Rees basis and over
    every drop-one mutant of the full and the Rees basis.  The mutants are not
    confluent, so there a normal form depends on which rule applies first,
    and the two reducers agree only if both take the lowest position.
    """

    @staticmethod
    def agree(pairs, codes):
        rules = _Rules(pairs)
        first, normal_form = _closed_form_reducer(rules)
        for word in combinations_with_replacement(codes, 3):
            steps = _cubic_steps(first, word)
            assert (steps[0][1] if steps else None) == rules.rewrite(word), word
            assert normal_form(word) == rules.normal_form(word), word
        for word in combinations_with_replacement(codes, 2):
            assert normal_form(word) == rules.normal_form(word), word

    @staticmethod
    def toric_pairs(elements):
        return [(el.lead, el.trail) for el in elements]

    @staticmethod
    def rees_pairs(elements):
        return [(_codes(el.lead), _codes(el.trail)) for el in elements]

    def test_toric(self, fig_table):
        codes = range(len(fig_table.generators))
        for interreduce in (False, True):
            self.agree(self.toric_pairs(quadric_generators(fig_table, interreduce).elements), codes)

    def test_rees(self, fig_table):
        codes = range(-fig_table.context.n, len(fig_table.generators))
        self.agree(self.rees_pairs(rees_gb(fig_table).elements), codes)

    def test_drop_one_mutants(self, fig_table):
        codes = range(len(fig_table.generators))
        mutants = _drop_one(quadric_generators(fig_table).elements)
        assert len(mutants) == 105
        for mutant in mutants:
            self.agree(self.toric_pairs(mutant), codes)
        codes = range(-fig_table.context.n, len(fig_table.generators))
        mutants = _drop_one(rees_gb(fig_table).elements)
        assert len(mutants) == 131
        for mutant in mutants:
            self.agree(self.rees_pairs(mutant), codes)

    def test_the_check_leaves_the_generic_rewriter_cold(self, cross_check_tables):
        # A basis caches the normal forms of its generic rewriter; the check
        # reduces in closed form and so must leave that cache empty.
        for table in cross_check_tables[:4]:
            for basis, verify in (
                (quadric_generators(table), buchberger_verify),
                (rees_gb(table), rees_buchberger_verify),
            ):
                assert verify(basis).ok
                assert basis._rules.cache == {}


class TestPinnedMutantReports:
    """Every drop-one mutant's full report is the one pinned in ``data``.

    ``drop_one_reports.json`` lists the ``to_json()`` of each mutant of the
    figure ideal's full toric and Rees bases, in deletion order, as computed
    by the overlap check when it still reduced through ``_Rules``.  Failure
    positions, multidegrees and their order must not move.
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(DROP_ONE_REPORTS.read_text())

    @staticmethod
    def tally(reports):
        fails = [r for r in reports if r["status"] == "FAIL"]
        return len(fails), sum(len(r["failures"]) for r in fails)

    def test_toric(self, fig_table, pinned):
        reports = [
            buchberger_verify(MarkedBasis(fig_table, mutant)).to_json()
            for mutant in _drop_one(quadric_generators(fig_table).elements)
        ]
        assert self.tally(pinned["toric"]) == (30, 308)
        assert reports == pinned["toric"]

    def test_rees(self, fig_table, pinned):
        reports = [
            rees_buchberger_verify(ReesBasis(fig_table, mutant)).to_json()
            for mutant in _drop_one(rees_gb(fig_table).elements)
        ]
        assert self.tally(pinned["rees"]) == (46, 498)
        assert reports == pinned["rees"]
