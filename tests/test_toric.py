import dataclasses
import random
import re
import sys
from itertools import combinations_with_replacement, permutations

import pytest

from borelfiber import fiber, toric
from borelfiber.borel import build_table, build_two_borel
from borelfiber.fiber import (
    build_fiber_graph,
    enumerate_fiber,
    fiber_sink_key,
    fibers,
    find_sink_direct,
    sinks,
)
from borelfiber.instances import random_tables, suite_tables
from borelfiber.monomials import VariableContext
from borelfiber.rees import _codes, rees_gb
from borelfiber.toric import (
    MarkedBasis,
    MarkedBinomial,
    _Rules,
    basis_to_json,
    brute_force_gb,
    buchberger_verify,
    closure_components,
    normal_form,
    quadric_generators,
)

from helpers import (
    closure_components_by_search,
    completion_by_scan,
    cross_check_tables,
    family_table,
    interreduce_by_scan,
    mono,
    monos,
    normal_form_by_scan,
    pairwise_buchberger,
    point_product,
    reduce_for_fiber,
    reduced_pairs_by_reversed_words,
    step_by_scan,
)

CTX2 = VariableContext.default(2)


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


@pytest.fixture(scope="module")
def fig_quadrics(fig_table):
    return quadric_generators(fig_table)


@pytest.fixture(scope="module")
def three_borel():
    return build_table(monos("a^3c^3", "b^6", "a^2b^2c^2"))


def family_roots(r):
    """f, g and h of the three-Borel family whose fiber at h^r needs r-factor swaps."""
    return [(r, 0, r * (r - 2)), (0, r * (r - 1), 0), (r - 1, r - 1, (r - 1) * (r - 2))]


def point_of(table, *factors):
    return tuple(sorted(table.index_of[mono(f)] for f in factors))


class TestQuadricGenerators:
    def test_borel_b_squared(self):
        table = build_two_borel((0, 2), (0, 2), CTX2)
        basis = quadric_generators(table)
        assert len(basis.elements) == 1
        el = basis.elements[0]
        # Y_{ab}^2 - Y_{a^2}Y_{b^2}, lead Y_{ab}^2
        assert el.lead == (1, 1)
        assert el.trail == (0, 2)

    def test_trivial_toric_ideal(self):
        table = build_two_borel((1, 1), (1, 1), CTX2)
        assert quadric_generators(table).elements == ()

    def test_fig_basis_lives_in_the_kernel(self, fig_table, fig_quadrics):
        assert fig_quadrics.elements
        for el in fig_quadrics.elements:
            assert point_product(fig_table, el.lead) == point_product(fig_table, el.trail)
            assert len(el.lead) == len(el.trail) == 2
            assert fiber_sink_key(el.lead) > fiber_sink_key(el.trail)

    def test_one_binomial_per_pair_of_degree_two_points(self, fig_table, fig_quadrics):
        from collections import Counter

        by_mu = Counter(point_product(fig_table, el.lead) for el in fig_quadrics.elements)
        for mu, count in by_mu.items():
            fiber = [z for z in enumerate_fiber(fig_table, mu) if len(z) == 2]
            assert count == len(fiber) * (len(fiber) - 1) // 2

    def test_interreduced_form(self, fig_table, fig_quadrics):
        reduced = quadric_generators(fig_table, interreduce=True)
        assert len(reduced.elements) == 61
        leads = {el.lead for el in reduced.elements}
        assert len(leads) == len(reduced.elements)
        assert leads == {el.lead for el in fig_quadrics.elements}
        assert buchberger_verify(reduced).ok
        # trails are fully reduced
        for el in reduced.elements:
            assert normal_form(el.trail, reduced) == el.trail

    def test_reduced_order_matches_the_reversed_word_sort(self):
        # The leads' integer ranks order the reduced basis as the descending
        # reversed words of the reference do, element for element.
        tables = suite_tables(cap=200) + random_tables(50, seed=20250809)
        tables += [family_table(r) for r in range(3, 7)]
        for table in tables:
            reduced = quadric_generators(table, interreduce=True)
            assert reduced.pairs == reduced_pairs_by_reversed_words(table), table.generators

    def test_interreduce_matches_the_scan_oracle(self):
        families = [build_table(family_roots(r)) for r in (3, 4)]
        for table in suite_tables(cap=200)[::5] + families:
            reduced = quadric_generators(table, interreduce=True)
            assert reduced.elements == interreduce_by_scan(quadric_generators(table)).elements


class TestBasisElementBudget:
    """The full quadric list and the Rees basis count their pairs before pairing any.

    The figure ideal's full quadric list has 105 elements, its reduced list
    61 and its Rees basis 131.
    """

    def test_a_basis_over_the_cap_is_refused(self, fig_table, monkeypatch):
        monkeypatch.setattr(toric, "MAX_BASIS_ELEMENTS", 104)
        message = (
            "the pairs within the degree-2 fibers make 105 basis elements,"
            " more than the cap of 104"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            quadric_generators(fig_table)
        assert len(quadric_generators(fig_table, interreduce=True).elements) == 61
        with pytest.raises(ValueError, match="make 131 basis elements"):
            rees_gb(fig_table)
        monkeypatch.setattr(toric, "MAX_BASIS_ELEMENTS", 130)
        assert len(quadric_generators(fig_table).elements) == 105
        with pytest.raises(ValueError, match="more than the cap of 130"):
            rees_gb(fig_table)
        monkeypatch.setattr(toric, "MAX_BASIS_ELEMENTS", 131)
        assert len(rees_gb(fig_table).pairs) == 131

    def test_nothing_is_paired_over_the_cap(self, fig_table, monkeypatch):
        def pairing(*args):
            raise AssertionError("a pair was taken over the cap")

        monkeypatch.setattr(toric, "MAX_BASIS_ELEMENTS", 0)
        monkeypatch.setattr(toric, "combinations", pairing)
        with pytest.raises(ValueError, match="make 105 basis elements"):
            quadric_generators(fig_table)
        with pytest.raises(ValueError, match="make 131 basis elements"):
            rees_gb(fig_table)


class TestNormalForm:
    def test_source_reduces_to_sink(self, fig_table, fig_quadrics):
        source = point_of(fig_table, "b^4c", "b^4c", "a^3bc")
        sink = point_of(fig_table, "b^5", "ab^4", "a^2c^3")
        assert normal_form(source, fig_quadrics) == sink

    def test_sink_is_a_fixed_point(self, fig_table, fig_quadrics):
        sink = point_of(fig_table, "b^5", "ab^4", "a^2c^3")
        assert normal_form(sink, fig_quadrics) == sink

    def test_all_fig_vertices_share_one_normal_form(self, fig_table, fig_quadrics):
        graph = build_fiber_graph(fig_table, (3, 9, 3))
        forms = {normal_form(v, fig_quadrics) for v in graph.vertices}
        assert forms == {graph.vertices[-1]}

    def test_idempotent_and_multidegree_preserving(self, fig_table, fig_quadrics):
        for mu in [(2, 4, 4), (4, 8, 3), (2, 8, 5)]:
            for z in enumerate_fiber(fig_table, mu):
                nf = normal_form(z, fig_quadrics)
                assert normal_form(nf, fig_quadrics) == nf
                assert point_product(fig_table, nf) == mu
                assert fiber_sink_key(nf) <= fiber_sink_key(z)

    def test_three_way_agreement(self, fig_table, fig_quadrics):
        for mu in [(2, 4, 4), (3, 9, 3), (4, 8, 3), (2, 8, 5), (0, 10, 0), (6, 9, 0)]:
            graph = build_fiber_graph(fig_table, mu)
            if not graph.vertices:
                continue
            expected = sinks(graph)
            assert len(expected) == 1
            assert find_sink_direct(fig_table, mu) == expected[0]
            for z in graph.vertices:
                assert normal_form(z, fig_quadrics) == expected[0]

    @pytest.mark.parametrize(
        "point, what",
        [((2, 1), "ascending"), ((0, 2, 1), "ascending"), ((0, 14), "in range"), ((-1, 3), "in range")],
    )
    def test_malformed_points_rejected(self, fig_table, fig_quadrics, point, what):
        # The multiset {1, 2} reduces to (0, 3); written (2, 1) it must be
        # refused, not returned unreduced.
        assert len(fig_table.generators) == 14
        assert normal_form((1, 2), fig_quadrics) == (0, 3)
        with pytest.raises(ValueError, match=what):
            normal_form(point, fig_quadrics)


class TestBuchbergerVerify:
    def test_fig_passes(self, fig_quadrics):
        report = buchberger_verify(fig_quadrics)
        assert report.ok
        assert report.status == "PASS"
        assert report.pairs_checked == 321
        assert report.failures == ()

    def test_fig_agrees_with_all_pairs_oracle(self, fig_quadrics):
        # Disjoint leads pass by the product criterion, so reducing every
        # pair, overlapping or not, gives the overlap check's verdict.
        oracle = pairwise_buchberger(fig_quadrics, all_pairs=True)
        assert oracle.ok
        assert buchberger_verify(fig_quadrics).ok == oracle.ok

    def test_empty_basis_passes(self, fig_table):
        report = buchberger_verify(MarkedBasis(fig_table, ()))
        assert report.ok
        assert report.pairs_checked == 0

    def test_inconsistent_marking_rejected(self, fig_table, fig_quadrics):
        el = fig_quadrics.elements[0]
        bad = MarkedBasis(fig_table, (MarkedBinomial(lead=el.trail, trail=el.lead),))
        with pytest.raises(ValueError):
            buchberger_verify(bad)

    def test_lead_equal_to_trail_rejected(self, fig_table, fig_quadrics):
        el = fig_quadrics.elements[0]
        bad = MarkedBasis(fig_table, (MarkedBinomial(lead=el.lead, trail=el.lead),))
        with pytest.raises(ValueError, match="inconsistent marking"):
            buchberger_verify(bad)

    @pytest.mark.parametrize(
        "lead, trail, what",
        [((1, 1), (0, 2), "multidegree"), ((0, 1), (2,), "degree")],
        ids=["a^4-ab^3", "t-degree-2-vs-1"],
    )
    def test_binomial_outside_the_ideal_rejected(self, lead, trail, what):
        # Both are marked consistently and pass the overlap check, so only
        # the comparison of the two sides' degrees can reject them.
        table = suite_tables(cap=3)[0]
        assert point_product(table, lead) != point_product(table, trail)
        good = quadric_generators(table).elements[0]
        bad = MarkedBasis(table, (good, MarkedBinomial(lead, trail)))
        with pytest.raises(ValueError, match=f"element 1 is not homogeneous.* differ in {what}$"):
            buchberger_verify(bad)

    def test_generator_index_out_of_range_rejected(self):
        # Borel(b^2) in two variables has three generators, so the trail
        # (0, 7) names none; it must be refused before its product is taken.
        table = build_two_borel((0, 2), (0, 2), CTX2)
        bad = MarkedBasis(table, (MarkedBinomial((1, 1), (0, 7)),))
        with pytest.raises(ValueError, match=re.escape("must be in range(3): (0, 7)")):
            buchberger_verify(bad)

    @pytest.mark.parametrize("lead", [[1, 1], (1.0, 1)], ids=["list", "float"])
    def test_non_int_tuple_side_rejected(self, lead):
        # A list side cannot key the rule index, and a float side cannot
        # index the packed configuration; both must read as bad input.
        table = build_table([(0, 2)])
        bad = MarkedBasis(table, (MarkedBinomial(lead, (0, 2)),))
        message = f"the lead of element 0 must be a tuple of ints, got {lead!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            buchberger_verify(bad)

    def test_shared_words_keep_both_marking_errors(self, fig_table, fig_quadrics):
        # Each bad element below shares a word with the valid element
        # before it, and the walk that follows a failed column test must
        # still reject it with its own message.
        good = fig_quadrics.elements[0]
        last = len(fig_table.generators) - 1
        late = (last, last)  # the latest degree-2 point in the fiber sink order
        assert fiber_sink_key(late) < fiber_sink_key(good.trail)
        assert point_product(fig_table, late) != point_product(fig_table, good.lead)
        outside = MarkedBinomial(good.lead, late)  # shares the lead, not homogeneous
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"element 1 is not homogeneous: lead {good.lead} and trail {late} "
                "differ in multidegree"
            ),
        ):
            buchberger_verify(MarkedBasis(fig_table, (good, outside)))
        backwards = MarkedBinomial(late, good.trail)  # shares the trail, marked backwards
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"inconsistent marking: lead {late} is not earlier than trail {good.trail}"
            ),
        ):
            buchberger_verify(MarkedBasis(fig_table, (good, backwards)))

    def test_report_json(self, fig_quadrics):
        data = buchberger_verify(fig_quadrics).to_json()
        assert data["status"] == "PASS"
        assert data["failures"] == []

    def test_three_borel_quadrics_do_not_generate(self, three_borel):
        # Buchberger passes for the subideal the quadrics generate, but the
        # cubic kernel binomial at a^6b^6c^6 does not reduce to zero, so they
        # are no Groebner basis of the full toric ideal.
        basis = quadric_generators(three_borel)
        assert buchberger_verify(basis).ok
        fg2 = point_of(three_borel, "a^3c^3", "a^3c^3", "b^6")
        h3 = point_of(three_borel, "a^2b^2c^2", "a^2b^2c^2", "a^2b^2c^2")
        assert point_product(three_borel, fg2) == point_product(three_borel, h3) == (6, 6, 6)
        assert normal_form(fg2, basis) != normal_form(h3, basis)


class TestBruteForceOracle:
    def test_matches_quadrics_on_borel_b_squared(self):
        table = build_two_borel((0, 2), (0, 2), CTX2)
        oracle = brute_force_gb(table, 2)
        assert [(el.lead, el.trail) for el in oracle.elements] == [((1, 1), (0, 2))]

    def test_empty_for_trivial_toric_ideal(self):
        table = build_two_borel((1, 1), (1, 1), CTX2)
        assert brute_force_gb(table, 3).elements == ()

    def test_bound_three_adds_no_leads_beyond_quadrics(self, fig_table, fig_quadrics):
        oracle = brute_force_gb(fig_table, 3)
        quadric_leads = {el.lead for el in fig_quadrics.elements}
        for el in oracle.elements:
            assert len(el.lead) == 2
            assert el.lead in quadric_leads

    def test_oracle_and_quadrics_give_the_same_normal_forms(self, fig_table, fig_quadrics):
        oracle = brute_force_gb(fig_table, 3)
        assert buchberger_verify(oracle).ok
        for mu in [(3, 9, 3), (2, 4, 4), (4, 8, 3)]:
            for z in enumerate_fiber(fig_table, mu):
                assert normal_form(z, oracle) == normal_form(z, fig_quadrics)

    def test_bound_validation(self, fig_table):
        with pytest.raises(ValueError):
            brute_force_gb(fig_table, 1)

    @pytest.fixture(scope="class")
    def completions(self, fig_table, three_borel):
        inputs = [(table, 3) for table in cross_check_tables()]
        inputs += [(fig_table, 4), (three_borel, 4)]
        return [(table, bound, brute_force_gb(table, bound)) for table, bound in inputs]

    def test_matches_the_scan_completion_in_order(self, completions):
        # The oracle reduces one star per fiber and forms no S-pair; the scan
        # runs the full Buchberger loop.  Elements and their order must agree.
        for table, bound, oracle in completions:
            assert [(el.lead, el.trail) for el in oracle.elements] == completion_by_scan(table, bound)

    def test_a_clean_completion_builds_no_combinations_and_no_key(self, fig_table, monkeypatch):
        # Every rule of these completions is quadratic, so no word is tested
        # by its sub-multisets, and a rule is marked by its reversed words:
        # no combinations iterator and no sink key, through any binding.
        # The elements are unchanged, in order.
        tables = [fig_table] + suite_tables(cap=200)[::10]
        expected = [completion_by_scan(table, 3) for table in tables]
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        monkeypatch.setattr(toric, "combinations", counted("combinations", toric.combinations))
        for name, module in list(sys.modules.items()):
            if name.startswith("borelfiber") and hasattr(module, "fiber_sink_key"):
                monkeypatch.setattr(
                    module, "fiber_sink_key", counted("fiber_sink_key", fiber_sink_key)
                )
        for table, pairs in zip(tables, expected):
            oracle = brute_force_gb(table, 3)
            assert [(el.lead, el.trail) for el in oracle.elements] == pairs
        assert calls == []

    def test_the_marking_compares_reversed_words(self):
        # Two words of one length: the reversed word is the larger exactly
        # when the sink key is the smaller, so the other word leads.
        for k in (2, 3, 4):
            words = list(combinations_with_replacement(range(6), k))
            for a, b in permutations(words, 2):
                assert (a[::-1] > b[::-1]) == (fiber_sink_key(a) < fiber_sink_key(b)), (a, b)

    def test_a_later_point_can_lead(self):
        # On {a^3, ac^2, b^2c} at bound 3, twice a star's first point reduces
        # to the normal form with the smaller sink key, so the later point's
        # normal form leads; the scan completion agrees element for element.
        table = build_table([(3, 0, 0), (1, 0, 2), (0, 2, 1)])
        oracle = brute_force_gb(table, 3)
        assert len(oracle.elements) == 17
        assert [(el.lead, el.trail) for el in oracle.elements] == completion_by_scan(table, 3)

    @pytest.mark.parametrize("which, bound", [("figure", 3), ("three_borel", 4)])
    def test_only_fibers_with_two_normal_words_are_reduced(
        self, fig_table, three_borel, monkeypatch, which, bound
    ):
        # Replays the oracle's elements fiber by fiber: the rules in force
        # when a fiber is reached are those that lead in earlier fibers, and
        # its normal words are its points that no lead of those rules divides
        # (step_by_scan).  Every point of a degree-2 fiber is normal when it
        # is reached, and the fiber's elements are its chain of consecutive
        # points, built with no normal_form call.  Above degree 2 normal_form
        # runs on the points of exactly the fibers with two normal words, and
        # the overlap walk never runs.
        table = fig_table if which == "figure" else three_borel
        calls = []
        reduce = _Rules.normal_form

        def counted(rules, word):
            calls.append(word)
            return reduce(rules, word)

        def refuse(*args):
            raise AssertionError("the overlap walk ran in the completion")

        monkeypatch.setattr(_Rules, "normal_form", counted)
        monkeypatch.setattr(toric, "_walked", refuse)
        oracle = brute_force_gb(table, bound)
        elements = [(el.lead, el.trail) for el in oracle.elements]
        expected, reached = [], 0
        for points in fibers(table.generators, bound).values():
            rules = elements[:reached]
            normal = sum(step_by_scan(rules, z) is None for z in points)
            if len(points[0]) == 2:
                assert normal == len(points)
                chain = list(zip(points, points[1:]))
                assert elements[reached : reached + len(chain)] == chain
            elif normal > 1:
                expected.extend(points)
            while reached < len(elements) and elements[reached][0] in points:
                reached += 1
        assert reached == len(elements)
        assert calls == expected
        if which == "figure":
            assert calls == []
        else:
            assert any(len(lead) == 3 for lead, _ in elements)
            assert any(len(z) == 3 for z in calls)

    def test_degree_two_is_each_fibers_chain(self):
        # The degree-2 elements are, in order, the consecutive points of each
        # degree-2 fiber, on the 250 tables and the three-root family.
        tables = suite_tables(cap=200) + random_tables(50, seed=20250809)
        tables += [family_table(r) for r in range(3, 7)]
        for table in tables:
            chains = [
                pair
                for points in fibers(table.generators, 2).values()
                for pair in zip(points, points[1:])
            ]
            elements = [(el.lead, el.trail) for el in brute_force_gb(table, 2).elements]
            assert elements == chains, table.roots

    def test_matches_the_scan_completion_at_bound_2(self):
        for table in suite_tables(cap=200) + random_tables(50, seed=20250809):
            pairs = [(el.lead, el.trail) for el in brute_force_gb(table, 2).elements]
            assert pairs == completion_by_scan(table, 2), table.roots

    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_one_generator_and_no_generator_give_an_empty_basis(self, bound):
        one = build_table([mono("a^2", VariableContext.default(1))])
        empty = reduce_for_fiber(build_two_borel(mono("a^2c"), mono("b^3")), mono("c^3"))
        assert (len(one.generators), len(empty.generators)) == (1, 0)
        for table in (one, empty):
            assert brute_force_gb(table, bound).elements == ()

    def test_equal_generators_are_refused(self, fig_table):
        table = dataclasses.replace(fig_table, generators=fig_table.generators[:1] * 2)
        with pytest.raises(ValueError, match="distinct generators"):
            brute_force_gb(table, 2)

    def test_a_two_borel_completion_neither_reduces_nor_tests_a_word(
        self, fig_table, monkeypatch
    ):
        # Degree 2 is a chain per fiber, and degree 3 extends each normal word
        # by its new pairs, looked up in the lead index: no _Rules.hits and
        # no _Rules.normal_form call.  The elements are unchanged.
        tables = [fig_table] + suite_tables(cap=200)[::10]
        expected = [completion_by_scan(table, 3) for table in tables]
        calls = []

        def counted(name):
            original = getattr(_Rules, name)

            def wrapper(rules, word):
                calls.append(name)
                return original(rules, word)

            return wrapper

        for name in ("hits", "normal_form"):
            monkeypatch.setattr(_Rules, name, counted(name))
        for table, pairs in zip(tables, expected):
            assert [(el.lead, el.trail) for el in brute_force_gb(table, 3).elements] == pairs
        assert calls == []

    @staticmethod
    def record_listings(monkeypatch) -> list[int]:
        """Patch every binding of ``fiber._fiber_groups`` to record its degree bound."""
        listed = []
        original = fiber._fiber_groups

        def recording(vectors, max_deg):
            listed.append(max_deg)
            return original(vectors, max_deg)

        for name, module in list(sys.modules.items()):
            if name.startswith("borelfiber") and hasattr(module, "_fiber_groups"):
                monkeypatch.setattr(module, "_fiber_groups", recording)
        return listed

    def test_two_borel_completions_list_only_degrees_1_and_2(self, fig_table, monkeypatch):
        # Above degree 2 a two-Borel completion builds only normal words, one
        # per fiber, so it lists no fiber above degree 2.
        tables = [fig_table] + suite_tables(cap=200)[::10]
        listed = self.record_listings(monkeypatch)
        for table in tables:
            brute_force_gb(table, 3)
        assert listed == [2] * len(tables)

    def test_a_fiber_with_two_normal_words_is_enumerated_alone(self, three_borel, monkeypatch):
        # The three-Borel table has a fiber above degree 2 with two normal
        # words, whose star is read off that fiber's own enumeration.
        expected = completion_by_scan(three_borel, 4)
        listed = self.record_listings(monkeypatch)
        oracle = brute_force_gb(three_borel, 4)
        assert listed == [2]
        assert [(el.lead, el.trail) for el in oracle.elements] == expected

    def test_the_cap_bounds_the_words_built_not_the_listing(self, three_borel, monkeypatch):
        # Its 15 generators make 3,875 words of degree 1..4, and its normal
        # words of degree 3 extend to 287 words of degree 4, the most the
        # oracle builds at once; the one fiber it enumerates has 2 points.
        expected = brute_force_gb(three_borel, 4).elements
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 287)
        assert brute_force_gb(three_borel, 4).elements == expected
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 286)
        message = (
            "the normal words of degree 3 extend to 287 words of degree 4,"
            " more than the cap of 286"
        )
        with pytest.raises(ValueError, match=message):
            brute_force_gb(three_borel, 4)

    def test_matches_the_scan_completion_at_bound_4(self):
        for table in suite_tables(cap=200)[::10]:
            pairs = [(el.lead, el.trail) for el in brute_force_gb(table, 4).elements]
            assert pairs == completion_by_scan(table, 4), table.roots

    def test_candidate_words_over_the_cap_are_refused(self, fig_table, monkeypatch):
        # The figure ideal lists 119 words of degree 1..2, and its normal words
        # of degree 2 extend to 187 words of degree 3.
        expected = brute_force_gb(fig_table, 3).elements
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 186)
        message = "the normal words of degree 2 extend to 187 words of degree 3, more than the cap of 186"
        with pytest.raises(ValueError, match=message):
            brute_force_gb(fig_table, 3)
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 187)
        assert brute_force_gb(fig_table, 3).elements == expected

    def test_every_fiber_has_one_normal_form(self, completions):
        for table, bound, oracle in completions:
            for mu, points in fibers(table.generators, bound).items():
                assert len({normal_form(z, oracle) for z in points}) == 1, (table.generators, mu)


class TestLeadIndex:
    """``_Rules`` finds the lowest-position applicable rule through ``by_lead``.

    ``normal_form_by_scan`` scans the rules in order instead.  Both must give
    the same normal forms, also on bases that are not Groebner bases, where
    the choice of rule shows in the result, and ``_Rules.hits`` must find a
    lead in exactly the words that ``step_by_scan`` steps.
    """

    @pytest.fixture(scope="class")
    def completion(self, three_borel):
        pairs = [(el.lead, el.trail) for el in brute_force_gb(three_borel, 3).elements]
        assert any(len(lead) == 3 for lead, _ in pairs)
        return pairs

    @staticmethod
    def agree(pairs, words):
        rules = _Rules(pairs)
        for word in words:
            assert bool(rules.hits(word)) == (step_by_scan(pairs, word) is not None), word
            assert rules.normal_form(word) == normal_form_by_scan(pairs, word), word

    def test_drop_one_mutants_of_the_figure_quadrics(self, fig_table, fig_quadrics):
        pairs = [(el.lead, el.trail) for el in fig_quadrics.elements]
        words = [z for points in fibers(fig_table.generators, 3).values() for z in points]
        for i in range(len(pairs)):
            # a tenth of the words per mutant, every word over all mutants
            self.agree(pairs[:i] + pairs[i + 1 :], words[i % 10 :: 10])

    def test_completion_with_a_cubic_lead(self, three_borel, completion):
        words = [z for points in fibers(three_borel.generators, 3).values() for z in points]
        self.agree(completion, words)

    def test_rees_codes(self, fig_table):
        pairs = [(_codes(el.lead), _codes(el.trail)) for el in rees_gb(fig_table).elements]
        codes = range(fig_table.context.n + len(fig_table.generators))
        words = [w for k in (1, 2, 3) for w in combinations_with_replacement(codes, k)]
        self.agree(pairs, words)
        self.agree(pairs[::2], words)

    @pytest.mark.parametrize("t", [20, 60, 150])
    def test_long_words(self, fig_table, fig_quadrics, three_borel, completion, t):
        rng = random.Random(t)
        quadrics = [(el.lead, el.trail) for el in fig_quadrics.elements]
        bases = [(fig_table, quadrics), (fig_table, quadrics[::2]), (three_borel, completion)]
        for table, pairs in bases:
            size = len(table.generators)
            self.agree(pairs, [tuple(sorted(rng.choices(range(size), k=t))) for _ in range(3)])

    def test_quadratic_words_of_four_and_five_codes(self, fig_table, fig_quadrics):
        # With every rule quadratic, these words step by their code pairs.
        # Steps are held to the scan on every word, and normal forms on a
        # tenth, over the full, the reduced and the Rees basis.  Each
        # drop-one mutant of the full basis, which is not a Groebner basis,
        # takes both checks on a hundredth of the words.
        full = [(el.lead, el.trail) for el in fig_quadrics.elements]
        reduced = [(el.lead, el.trail) for el in quadric_generators(fig_table, True).elements]
        rees = [(_codes(el.lead), _codes(el.trail)) for el in rees_gb(fig_table).elements]
        size = len(fig_table.generators)
        words = [w for k in (4, 5) for w in combinations_with_replacement(range(size), k)]
        rees_words = list(combinations_with_replacement(range(fig_table.context.n + size), 4))
        bases = [(full, words, 10), (reduced, words, 10), (rees, rees_words, 10)]
        bases += [(full[:i] + full[i + 1 :], words[i::100], 1) for i in range(len(full))]
        for pairs, some, every in bases:
            rules = _Rules(pairs)
            for word in some:
                assert rules.rewrite(word) == step_by_scan(pairs, word), word
            self.agree(pairs, some[::every])

    @staticmethod
    def index(rules):
        """What a rule index holds, with its position and key orders."""
        return (
            rules.leads,
            rules.trails,
            list(rules.by_lead.items()),
            rules.sizes,
        )

    @staticmethod
    def added(pairs):
        rules = _Rules()
        for lead, trail in pairs:
            rules.add(lead, trail)
        return rules

    def test_bulk_index_matches_adding_one_pair_at_a_time(self, completion):
        bases = []
        for table in suite_tables(cap=200):
            bases.append([(el.lead, el.trail) for el in quadric_generators(table).elements])
            bases.append([(el.lead, el.trail) for el in quadric_generators(table, True).elements])
            bases.append(list(rees_gb(table).pairs))
        assert any(len(pairs) > len(set(lead for lead, _ in pairs)) for pairs in bases)
        bases += [
            [],
            [((1, 2), (0, 0, 0))],
            [((1, 2), (0, 0, 0)), ((0, 3), (4, 4))],
            [((0, 1, 2), (3, 3, 3)), ((1, 2), (0, 3)), ((0, 1, 2), (0, 3, 3))],
            completion,
            completion[::-1],
        ]
        for pairs in bases:
            assert self.index(_Rules(pairs)) == self.index(self.added(pairs)), pairs

    def test_a_lead_that_repeats_a_code_needs_it_twice(self):
        # Position 0 leads with c twice; a word holding c once must use the
        # next applicable rule, and a word holding c twice must use position 0.
        c, d = 1, 2
        rules = _Rules([((c, c), (0, 0)), ((c, d), (0, 3))])
        assert rules.rewrite((c, d)) == (0, 3)
        assert rules.rewrite((0, c, d)) == (0, 0, 3)
        assert rules.rewrite((c, c, d)) == (0, 0, d)
        assert rules.rewrite((c, 3)) is None

    def test_add_drops_cached_normal_forms(self, completion):
        # Each completion lead was a normal form when its rule was added.
        rules = _Rules()
        for lead, trail in completion:
            assert rules.normal_form(lead) == lead
            rules.add(lead, trail)
            assert rules.normal_form(lead) == trail


class TestClosureComponents:
    def test_counterexample_separation(self, three_borel):
        comps = closure_components(three_borel, (6, 6, 6))
        fg2 = point_of(three_borel, "a^3c^3", "a^3c^3", "b^6")
        h3 = point_of(three_borel, "a^2b^2c^2", "a^2b^2c^2", "a^2b^2c^2")
        locations = {z: i for i, comp in enumerate(comps) for z in comp}
        assert locations[fg2] != locations[h3]

    def test_two_borel_low_degree_fibers_are_single_components(self, fig_table):
        count = 0
        for mu in [(2, 4, 4), (3, 9, 3), (4, 8, 3), (2, 8, 5), (4, 4, 2), (6, 9, 0)]:
            comps = closure_components(fig_table, mu)
            if comps:
                assert len(comps) == 1
                count += 1
        assert count >= 4

    def test_single_point_fiber(self, fig_table):
        comps = closure_components(fig_table, (1, 9, 0))
        assert len(comps) == 1
        assert len(comps[0]) == 1

    def test_degree_r_generator_family(self):
        # f^(r-1) g = h^r stays separated under (r-1)-factor swaps, the fiber's own bound
        ctx = VariableContext.default(3)
        for r in (3, 4):
            f = (r, 0, r * (r - 2))
            g = (0, r * (r - 1), 0)
            h = (r - 1, r - 1, (r - 1) * (r - 2))
            table = build_table([f, g, h], ctx)
            mu = tuple(a * r for a in h)
            comps = closure_components(table, mu)
            locations = {z: i for i, comp in enumerate(comps) for z in comp}
            a = tuple(sorted([table.index_of[f]] * (r - 1) + [table.index_of[g]]))
            b = tuple(sorted([table.index_of[h]] * r))
            assert locations[a] != locations[b]

    def test_empty_fiber_has_no_components(self, fig_table):
        # c^10 has degree 10 = 2 * 5 but no factorization into generators.
        assert closure_components(fig_table, (0, 0, 10)) == []

    @pytest.mark.parametrize(
        "r, stride, cubic_splits",
        # r = 4 checks every 50th of its 725 fibers and pins its two cubic splits.
        [(3, 1, [(6, 6, 6)]), (4, 50, [(9, 11, 16), (9, 12, 15)])],
    )
    def test_family_fibers_match_the_subset_search(self, r, stride, cubic_splits):
        table = build_table(family_roots(r))
        family_mu = tuple(a * r for a in family_roots(r)[2])
        for mu in list(fibers(table.generators, 3))[::stride] + cubic_splits + [family_mu]:
            t = sum(mu) // table.degree
            got = closure_components(table, mu)
            assert got == closure_components_by_search(table, mu, max(2, t - 1))
            if mu in cubic_splits + [family_mu]:
                assert len(got) == 2

    def test_suite_fibers_match_the_subset_search(self):
        for table in suite_tables(cap=200)[::50]:
            for mu, points in fibers(table.generators, 3).items():
                t = len(points[0])
                got = closure_components(table, mu)
                assert got == closure_components_by_search(table, mu, max(2, t - 1))


class TestBasisJson:
    def test_shape(self):
        table = build_two_borel((0, 2), (0, 2), CTX2)
        data = basis_to_json(quadric_generators(table))
        assert data["count"] == 1
        assert data["elements"] == [{"lead": ["ab", "ab"], "trail": ["a^2", "b^2"]}]
        assert data["variable_order"] == ["a^2", "ab", "b^2"]
