import pytest

from borelfiber.borel import build_table, build_two_borel
from borelfiber.fiber import (
    build_fiber_graph,
    enumerate_fiber,
    fiber_sink_key,
    fibers,
    find_sink_direct,
    point_product,
    sinks,
)
from borelfiber.instances import suite_tables
from borelfiber.monomials import VariableContext
from borelfiber.toric import (
    MarkedBasis,
    MarkedBinomial,
    basis_to_json,
    brute_force_gb,
    buchberger_verify,
    closure_components,
    normal_form,
    quadric_generators,
)

from helpers import closure_components_by_search, mono, monos, pairwise_buchberger

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
        assert len(reduced.elements) <= len(fig_quadrics.elements)
        leads = {el.lead for el in reduced.elements}
        assert len(leads) == len(reduced.elements)
        assert buchberger_verify(reduced).ok
        # trails are fully reduced
        for el in reduced.elements:
            assert normal_form(el.trail, reduced) == el.trail


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


class TestBuchbergerVerify:
    def test_fig_passes(self, fig_quadrics):
        report = buchberger_verify(fig_quadrics)
        assert report.ok
        assert report.status == "PASS"
        assert report.pairs_checked > 0
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


class TestClosureComponents:
    def test_counterexample_separation(self, three_borel):
        comps = closure_components(three_borel, (6, 6, 6), max_swap=2)
        fg2 = point_of(three_borel, "a^3c^3", "a^3c^3", "b^6")
        h3 = point_of(three_borel, "a^2b^2c^2", "a^2b^2c^2", "a^2b^2c^2")
        locations = {z: i for i, comp in enumerate(comps) for z in comp}
        assert locations[fg2] != locations[h3]

    def test_two_borel_low_degree_fibers_are_single_components(self, fig_table):
        count = 0
        for mu in [(2, 4, 4), (3, 9, 3), (4, 8, 3), (2, 8, 5), (4, 4, 2), (6, 9, 0)]:
            comps = closure_components(fig_table, mu, max_swap=2)
            if comps:
                assert len(comps) == 1
                count += 1
        assert count >= 4

    def test_single_point_fiber(self, fig_table):
        comps = closure_components(fig_table, (1, 9, 0), max_swap=2)
        assert len(comps) == 1
        assert len(comps[0]) == 1

    def test_degree_r_generator_family(self):
        # f^(r-1) g = h^r stays separated even allowing (r-1)-factor swaps
        ctx = VariableContext.default(3)
        for r in (3, 4):
            f = (r, 0, r * (r - 2))
            g = (0, r * (r - 1), 0)
            h = (r - 1, r - 1, (r - 1) * (r - 2))
            table = build_table([f, g, h], ctx)
            mu = tuple(a * r for a in h)
            comps = closure_components(table, mu, max_swap=r - 1)
            locations = {z: i for i, comp in enumerate(comps) for z in comp}
            a = tuple(sorted([table.index_of[f]] * (r - 1) + [table.index_of[g]]))
            b = tuple(sorted([table.index_of[h]] * r))
            assert locations[a] != locations[b]

    def test_swap_bound_validation(self, fig_table):
        with pytest.raises(ValueError):
            closure_components(fig_table, (2, 4, 4), max_swap=1)

    def test_swap_bound_below_t_minus_one_rejected(self, fig_table):
        with pytest.raises(ValueError, match="below t - 1"):
            closure_components(fig_table, (4, 12, 4), max_swap=2)

    @pytest.mark.parametrize(
        "r, stride, cubic_splits",
        # r = 4 checks every 50th of its 725 fibers and pins its two cubic splits.
        [(3, 1, [(6, 6, 6)]), (4, 50, [(9, 11, 16), (9, 12, 15)])],
    )
    def test_family_fibers_match_the_subset_search(self, r, stride, cubic_splits):
        table = build_table(family_roots(r))
        family_mu = tuple(a * r for a in family_roots(r)[2])
        for mu in list(fibers(table, 3))[::stride] + cubic_splits + [family_mu]:
            t = sum(mu) // table.degree
            for max_swap in sorted({max(2, t - 1), max(2, t)}):
                got = closure_components(table, mu, max_swap)
                assert got == closure_components_by_search(table, mu, max_swap)
                if mu in cubic_splits + [family_mu]:
                    assert len(got) == (2 if max_swap == t - 1 else 1)

    def test_suite_fibers_match_the_subset_search(self):
        for table in suite_tables(cap=200)[::50]:
            for mu, points in fibers(table, 3).items():
                t = len(points[0])
                for max_swap in sorted({max(2, t - 1), max(2, t)}):
                    got = closure_components(table, mu, max_swap)
                    assert got == closure_components_by_search(table, mu, max_swap)


class TestBasisJson:
    def test_shape(self):
        table = build_two_borel((0, 2), (0, 2), CTX2)
        data = basis_to_json(quadric_generators(table))
        assert data["count"] == 1
        assert data["elements"] == [{"lead": ["ab", "ab"], "trail": ["a^2", "b^2"]}]
        assert data["variable_order"] == ["a^2", "ab", "b^2"]
