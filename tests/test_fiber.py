import re

import pytest

from borelfiber import fiber
from borelfiber.borel import build_table, build_two_borel
from borelfiber.fiber import (
    _pack,
    _partners,
    _standard_levels,
    build_fiber_graph,
    enumerate_fiber,
    fiber_point_type,
    fiber_sink_key,
    fibers,
    find_sink_direct,
    graph_to_json,
    point_factors,
    sinks,
    to_dot,
    vertex_label,
)
from borelfiber.instances import random_tables, suite_tables
from borelfiber.monomials import multiply

from helpers import (
    all_monomials,
    brute_factorizations,
    family_table,
    lex_last_divisor,
    mono,
    monos,
    point_product,
    reduce_for_fiber,
    replacement_move,
    standard_words_by_fibers,
)


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


@pytest.fixture(scope="module")
def fig_graph(fig_table):
    return build_fiber_graph(fig_table, mono("a^3b^9c^3"))


def point_of(table, *factors):
    return tuple(sorted(table.index_of[mono(f)] for f in factors))


def as_monomial_sets(graph):
    """Vertex and directed edge sets keyed by factor monomials, not indices."""
    def name(v):
        return tuple(sorted(graph.table.generators[i] for i in v))

    vertices = frozenset(name(v) for v in graph.vertices)
    edges = frozenset(
        (name(graph.vertices[a]), name(graph.vertices[b])) for a, b in graph.edges
    )
    return vertices, edges


def undirected_components(graph):
    n = len(graph.vertices)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n)})


# the seven factorizations of a^3b^9c^3 and the twelve oriented swaps
FIG_VERTICES = [
    ("b^4c", "b^4c", "a^3bc"),
    ("b^4c", "b^5", "a^3c^2"),
    ("b^4c", "ab^3c", "a^2b^2c"),
    ("b^4c", "ab^4", "a^2bc^2"),
    ("ab^3c", "ab^3c", "ab^3c"),
    ("b^5", "ab^3c", "a^2bc^2"),
    ("b^5", "ab^4", "a^2c^3"),
]
FIG_EDGES = [
    (0, 1), (0, 2), (0, 3),
    (1, 3), (1, 5), (1, 6),
    (2, 3), (2, 5),
    (3, 6),
    (4, 2),
    (5, 3), (5, 6),
]


class TestEnumerateFiber:
    def test_figure_fiber_has_seven_points(self, fig_table):
        fiber = enumerate_fiber(fig_table, mono("a^3b^9c^3"))
        assert len(fiber) == 7
        expected = {point_of(fig_table, *factors) for factors in FIG_VERTICES}
        assert set(fiber) == expected

    def test_fiber_of_a_generator_is_that_generator(self, fig_table):
        assert enumerate_fiber(fig_table, mono("a^2c^3")) == [(13,)]
        assert enumerate_fiber(fig_table, mono("b^4c")) == [(0,)]

    def test_degree_not_multiple_of_d(self, fig_table):
        assert enumerate_fiber(fig_table, (3, 9, 1)) == []

    def test_unit_multidegree(self, fig_table):
        assert enumerate_fiber(fig_table, (0, 0, 0)) == [()]

    def test_matches_brute_force(self, fig_table):
        gens = list(fig_table.generators)
        for mu in [(3, 9, 3), (2, 4, 4), (1, 9, 0), (4, 11, 0), (0, 10, 0), (5, 5, 5)]:
            assert set(enumerate_fiber(fig_table, mu)) == brute_factorizations(gens, mu)

    def test_deterministic_ascending_order(self, fig_table):
        fiber = enumerate_fiber(fig_table, mono("a^3b^9c^3"))
        assert fiber == sorted(fiber)

    def test_deep_fiber(self):
        # 1,500 factors of b: deeper than the interpreter's recursion limit.
        assert enumerate_fiber(build_table([(0, 1)]), (0, 1500)) == [(1,) * 1500]

    def test_three_borel_fiber_contains_both_counterexample_points(self):
        table = build_table(monos("a^3c^3", "b^6", "a^2b^2c^2"))
        f, g, h = mono("a^3c^3"), mono("b^6"), mono("a^2b^2c^2")
        mu = multiply(multiply(f, f), g)
        assert mu == multiply(multiply(h, h), h) == (6, 6, 6)
        fiber = set(enumerate_fiber(table, mu))
        assert point_of(table, "a^3c^3", "a^3c^3", "b^6") in fiber
        assert point_of(table, "a^2b^2c^2", "a^2b^2c^2", "a^2b^2c^2") in fiber


class TestPrunedSearch:
    """``enumerate_fiber`` skips rests that no k generators can factor.

    The prune reads the Borel-product bounds that the direct sink reads too,
    so it is pinned here against the grouped pass, which knows no Borel
    theory: every multidegree of t-degree at most 3, factorable or not.
    ``test_properties`` holds it to the unpruned search on random tables.
    """

    def test_matches_the_fiber_groups_on_every_10th_suite_table(self):
        for i, table in enumerate(suite_tables(cap=200)[::10]):
            groups = fibers(table.generators, 3)
            for t in (1, 2, 3):
                for mu in all_monomials(table.context.n, t * table.degree):
                    fiber = sorted(enumerate_fiber(table, mu), key=fiber_sink_key, reverse=True)
                    assert fiber == groups.get(mu, []), (10 * i, mu)

    @pytest.mark.parametrize("r", [3, 4])
    def test_the_family_multidegree(self, r):
        # The three-root prune at the counterexample's multidegree h^r = f^(r-1) g.
        table = family_table(r)
        f, g, h = (r, 0, r * (r - 2)), (0, r * (r - 1), 0), (r - 1, r - 1, (r - 1) * (r - 2))
        mu = tuple(r * e for e in h)
        assert mu == point_product(table, sorted([table.index_of[f]] * (r - 1) + [table.index_of[g]]))
        fiber = sorted(enumerate_fiber(table, mu), key=fiber_sink_key, reverse=True)
        assert fiber == fibers(table.generators, r)[mu]
        assert len(fiber) == 2


class TestFibers:
    def test_figure_fiber_in_graph_order(self, fig_table, fig_graph):
        assert fibers(fig_table.generators, 3)[(3, 9, 3)] == list(fig_graph.vertices)

    def test_points_multiply_to_their_key(self, fig_table):
        groups = fibers(fig_table.generators, 2)
        for mu, points in groups.items():
            assert points
            for z in points:
                assert 1 <= len(z) <= 2 and z == tuple(sorted(z))
                assert point_product(fig_table, z) == mu
        assert sum(len(points) for points in groups.values()) == 14 + 14 * 15 // 2

    def test_generators_are_the_first_level(self, fig_table):
        groups = fibers(fig_table.generators, 1)
        assert groups == {g: [(i,)] for i, g in enumerate(fig_table.generators)}

    def test_bound_below_one_rejected(self, fig_table):
        with pytest.raises(ValueError):
            fibers(fig_table.generators, 0)

    def test_vectors_of_different_lengths_rejected(self):
        # Pairwise addition would stop at the shorter vector and put (0, 0)
        # and (0, 1) into one fiber keyed (2, 4).
        message = "configuration vectors differ in length: (1, 2) and (1, 2, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            fibers([(1, 2), (1, 2, 3)], 2)

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError, match="coordinates must be non-negative, got -1$"):
            fibers([(1, 0), (0, -1)], 2)

    def test_points_of_two_lengths_sharing_a_sum_rejected(self):
        # (0, 0) and (1,) both sum to (2,); a fiber holds points of one length.
        message = "points of different lengths share the sum (2,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            fibers([(1,), (2,)], 2)

    def test_vectors_without_coordinates_share_the_empty_sum(self):
        assert fibers([(), ()], 1) == {(): [(0,), (1,)]}


class TestFiberSinkOrder:
    def test_two_variable_example(self):
        table = build_two_borel((0, 2), (0, 2))
        # variable order Y_{a^2}, Y_{ab}, Y_{b^2}
        assert table.generators == ((2, 0), (1, 1), (0, 2))
        sq = (1, 1)
        split = (0, 2)
        assert fiber_sink_key(sq) > fiber_sink_key(split)

    def test_reflexive(self, fig_table):
        z = point_of(fig_table, "b^4c", "b^5", "a^3c^2")
        assert fiber_sink_key(z) == fiber_sink_key(z)

    def test_source_exceeds_sink(self, fig_table):
        source = point_of(fig_table, "b^4c", "b^4c", "a^3bc")
        sink = point_of(fig_table, "b^5", "ab^4", "a^2c^3")
        assert fiber_sink_key(source) > fiber_sink_key(sink)

    def test_strict_on_distinct_points(self, fig_table):
        fiber = enumerate_fiber(fig_table, mono("a^3b^9c^3"))
        keys = {fiber_sink_key(z) for z in fiber}
        assert len(keys) == len(fiber)


class TestBuildFiberGraph:
    def test_figure_graph_exactly(self, fig_graph):
        table = fig_graph.table
        assert len(fig_graph.vertices) == 7
        assert len(fig_graph.edges) == 12
        expected_vertices = [point_of(table, *fs) for fs in FIG_VERTICES]
        position = {v: i for i, v in enumerate(fig_graph.vertices)}
        expected_edges = {
            (position[expected_vertices[a]], position[expected_vertices[b]])
            for a, b in FIG_EDGES
        }
        assert set(fig_graph.edges) == expected_edges

    def test_single_vertex_no_edges(self, fig_table):
        g = build_fiber_graph(fig_table, mono("a^2c^3"))
        assert len(g.vertices) == 1
        assert g.edges == ()

    def test_edges_decrease_in_the_sink_order(self, fig_table):
        for mu in [(3, 9, 3), (4, 8, 3), (2, 8, 5), (5, 5, 5)]:
            g = build_fiber_graph(fig_table, mu)
            for a, b in g.edges:
                ka = fiber_sink_key(g.vertices[a])
                kb = fiber_sink_key(g.vertices[b])
                assert ka > kb

    def test_edge_endpoints_differ_in_exactly_two_slots(self, fig_graph):
        from collections import Counter

        for a, b in fig_graph.edges:
            ca = Counter(fig_graph.vertices[a])
            cb = Counter(fig_graph.vertices[b])
            moved = ca - cb
            assert sum(moved.values()) == 2
            u, v = sorted(moved.elements())
            gained = cb - ca
            up, vp = sorted(gained.elements())
            table = fig_graph.table
            assert multiply(
                multiply(table.generators[u], table.generators[v]), (0, 0, 0)
            ) == multiply(table.generators[up], table.generators[vp])

    def test_reduction_leaves_graph_unchanged(self, fig_table):
        for mu in [(3, 9, 3), (2, 4, 4), (1, 9, 0), (4, 11, 0), (0, 10, 0), (6, 9, 0), (2, 8, 5)]:
            reduced = reduce_for_fiber(fig_table, mu)
            g1 = build_fiber_graph(fig_table, mu)
            g2 = build_fiber_graph(reduced, mu)
            assert as_monomial_sets(g1) == as_monomial_sets(g2)

    def test_reduction_unchanged_for_comparable_roots_table(self):
        table = build_two_borel(mono("ac"), mono("b^2"))
        for mu in [(2, 1, 1), (2, 2, 2), (1, 3, 0), (3, 1, 2), (0, 4, 0)]:
            g1 = build_fiber_graph(table, mu)
            g2 = build_fiber_graph(reduce_for_fiber(table, mu), mu)
            assert as_monomial_sets(g1) == as_monomial_sets(g2)

    def test_reduction_unchanged_across_sampled_instances(self):
        from borelfiber.instances import suite_tables, sweep_multidegrees

        compared = 0
        for table in suite_tables(cap=40)[::7]:
            for mu in sweep_multidegrees(table, 3):
                reduced = reduce_for_fiber(table, mu)
                if reduced == table:
                    continue
                compared += 1
                g1 = build_fiber_graph(table, mu)
                g2 = build_fiber_graph(reduced, mu)
                assert as_monomial_sets(g1) == as_monomial_sets(g2)
        assert compared > 50


class TestPointTypes:
    def test_examples(self, fig_table):
        assert fiber_point_type(fig_table, point_of(fig_table, "b^4c", "b^4c", "a^3bc")) == "M"
        assert fiber_point_type(fig_table, point_of(fig_table, "ab^3c", "ab^3c", "ab^3c")) == "N"
        assert fiber_point_type(fig_table, point_of(fig_table, "b^5", "ab^4", "a^2c^3")) == "M"

    def test_any_point_with_the_m_root_is_type_m(self, fig_table):
        for z in enumerate_fiber(fig_table, multiply(mono("a^2c^3"), mono("b^4c"))):
            if fig_table.index_of[mono("a^2c^3")] in z:
                assert fiber_point_type(fig_table, z) == "M"

    def test_empty_point_rejected(self, fig_table):
        with pytest.raises(ValueError):
            fiber_point_type(fig_table, ())


class TestReplacementMove:
    def test_source_has_a_later_neighbor(self, fig_table):
        source = point_of(fig_table, "b^4c", "b^4c", "a^3bc")
        result = replacement_move(fig_table, (3, 9, 3), source)
        assert result is not None
        assert fiber_sink_key(source) > fiber_sink_key(result)

    def test_absent_on_point_containing_reduced_m_root(self, fig_table):
        sink = point_of(fig_table, "b^5", "ab^4", "a^2c^3")
        assert replacement_move(fig_table, (3, 9, 3), sink) is None

    def test_node_five_moves_to_node_six(self, fig_table):
        z = point_of(fig_table, "b^5", "ab^3c", "a^2bc^2")
        assert replacement_move(fig_table, (3, 9, 3), z) == point_of(
            fig_table, "b^5", "ab^4", "a^2c^3"
        )

    def test_result_is_an_out_neighbor(self, fig_graph):
        table = fig_graph.table
        position = {v: i for i, v in enumerate(fig_graph.vertices)}
        arrows = set(fig_graph.edges)
        for z in fig_graph.vertices:
            moved = replacement_move(table, fig_graph.mu, z)
            if moved is None:
                continue
            assert (position[z], position[moved]) in arrows

    def test_type_n_fiber(self):
        # all factorizations of b^10 over Borel(a^2c^3, b^4c) use only G_N
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        z = (1, 1)  # Y_{b^5}^2
        assert fiber_point_type(table, z) == "N"
        assert replacement_move(table, (0, 10, 0), z) is None


class TestSinks:
    def test_unique_figure_sink(self, fig_graph):
        assert sinks(fig_graph) == [point_of(fig_graph.table, "b^5", "ab^4", "a^2c^3")]

    def test_single_vertex_graph(self, fig_table):
        g = build_fiber_graph(fig_table, mono("b^4c"))
        assert sinks(g) == [(0,)]

    def test_sink_is_the_order_minimum(self, fig_table):
        for mu in [(3, 9, 3), (2, 4, 4), (4, 8, 3), (2, 8, 5)]:
            g = build_fiber_graph(fig_table, mu)
            assert sinks(g) == [g.vertices[-1]]

    def test_counterexample_fiber_breaks_uniqueness_or_connectivity(self):
        table = build_table(monos("a^3c^3", "b^6", "a^2b^2c^2"))
        g = build_fiber_graph(table, (6, 6, 6))
        assert len(sinks(g)) > 1 or undirected_components(g) > 1

    def test_sink_divisible_by_the_reduced_root_of_its_type(self, fig_table):
        for mu in [(3, 9, 3), (2, 4, 4), (4, 8, 3), (2, 8, 5), (0, 10, 0), (1, 9, 0), (6, 9, 0)]:
            g = build_fiber_graph(fig_table, mu)
            for sink in sinks(g):
                root = fig_table.roots[0 if fiber_point_type(fig_table, sink) == "M" else -1]
                reduced = lex_last_divisor(root, mu)
                assert reduced is not None
                assert fig_table.index_of[reduced] in sink

    def test_type_dichotomy(self, fig_table):
        # a type N sink rules out type M points anywhere in the fiber
        for mu in [(0, 10, 0), (1, 14, 0), (2, 4, 4), (3, 9, 3), (0, 15, 0), (1, 9, 0)]:
            g = build_fiber_graph(fig_table, mu)
            if not g.vertices:
                continue
            if any(fiber_point_type(fig_table, s) == "N" for s in sinks(g)):
                assert all(fiber_point_type(fig_table, v) == "N" for v in g.vertices)


class TestFindSinkDirect:
    def test_figure_sink(self, fig_table):
        assert find_sink_direct(fig_table, mono("a^3b^9c^3")) == point_of(
            fig_table, "b^5", "ab^4", "a^2c^3"
        )

    def test_unit_multidegree(self, fig_table):
        assert find_sink_direct(fig_table, (0, 0, 0)) == ()

    def test_empty_fiber(self, fig_table):
        assert find_sink_direct(fig_table, (0, 0, 7)) is None
        assert find_sink_direct(fig_table, (3, 9, 1)) is None

    @pytest.mark.parametrize("mu", [(5, 0), (2, 0, 3, 0)], ids=["short", "long"])
    def test_mu_of_another_length_rejected(self, fig_table, mu):
        # The same refusal as the enumeration's, not a lookup error.
        for find in (enumerate_fiber, find_sink_direct):
            with pytest.raises(ValueError, match="mu lives in a different variable context"):
                find(fig_table, mu)

    def test_agrees_with_graph_sinks(self, fig_table):
        mus = [
            (2, 4, 4), (3, 9, 3), (4, 8, 3), (2, 8, 5), (1, 9, 0),
            (0, 10, 0), (6, 9, 0), (5, 5, 5), (4, 4, 2), (2, 0, 3),
        ]
        for mu in mus:
            g = build_fiber_graph(fig_table, mu)
            expected = sinks(g)
            got = find_sink_direct(fig_table, mu)
            if not g.vertices:
                assert got is None
            else:
                assert [got] == expected

    def test_one_peel_per_run(self, fig_table, monkeypatch):
        # t = 100,000 factors, 4 of them distinct: each run of equal factors
        # is peeled in one step, so the divisor search runs once per run.
        calls = []

        def counted(bound, rest):
            calls.append(rest)
            return lex_last_sigma(bound, rest)

        lex_last_sigma = fiber._lex_last_sigma
        monkeypatch.setattr(fiber, "_lex_last_sigma", counted)
        mu = (100000, 300000, 100000)
        sink = find_sink_direct(fig_table, mu)
        assert len(sink) == 100000 and point_product(fig_table, sink) == mu
        assert len(calls) <= len(set(sink)) + 2

    def test_factors_are_formatted_once_each(self, fig_table, monkeypatch):
        formatted = []

        def counted(m, context):
            formatted.append(m)
            return format_monomial(m, context)

        format_monomial = fiber.format_monomial
        monkeypatch.setattr(fiber, "format_monomial", counted)
        sink = find_sink_direct(fig_table, (800, 2400, 800))
        names = point_factors(fig_table, sink)
        context = fig_table.context
        assert names == [format_monomial(fig_table.generators[idx], context) for idx in sink]
        assert len(formatted) == len(set(sink))

    def test_agrees_on_a_principal_table(self):
        table = build_two_borel(mono("b^4c"), mono("b^4c"))
        for mu in [(0, 8, 2), (1, 8, 1), (2, 7, 1), (3, 12, 0)]:
            g = build_fiber_graph(table, mu)
            got = find_sink_direct(table, mu)
            if not g.vertices:
                assert got is None
            else:
                assert [got] == sinks(g)


class TestDotAndJson:
    def test_figure_dot_counts(self, fig_graph):
        dot = to_dot(fig_graph)
        assert dot.count("label=") == 7
        assert dot.count(" -> ") == 12
        assert dot.startswith("digraph fiber {")

    def test_sink_label(self, fig_graph):
        assert vertex_label(fig_graph.table, fig_graph.vertices[-1]) == "Y_{b^5}Y_{ab^4}Y_{a^2c^3}"

    def test_repeated_factor_label(self, fig_graph):
        cubed = point_of(fig_graph.table, "ab^3c", "ab^3c", "ab^3c")
        assert vertex_label(fig_graph.table, cubed) == "Y_{ab^3c}^3"
        doubled = point_of(fig_graph.table, "b^4c", "b^4c", "a^3bc")
        assert vertex_label(fig_graph.table, doubled) == "Y_{b^4c}^2Y_{a^3bc}"

    def test_empty_fiber_dot(self, fig_table):
        dot = to_dot(build_fiber_graph(fig_table, (0, 0, 7)))
        assert dot == "digraph fiber {\n}\n"

    def test_deterministic(self, fig_table):
        a = to_dot(build_fiber_graph(fig_table, (3, 9, 3)))
        b = to_dot(build_fiber_graph(fig_table, (3, 9, 3)))
        assert a == b

    def test_json_shape(self, fig_graph):
        data = graph_to_json(fig_graph)
        assert data["mu"] == "a^3b^9c^3"
        assert len(data["vertices"]) == 7
        assert len(data["edges"]) == 12
        assert data["sinks"] == [6]
        assert data["vertices"][6]["factors"] == ["b^5", "ab^4", "a^2c^3"]
        assert data["vertices"][6]["type"] == "M"
        assert data["vertices"][4]["type"] in {"M", "N"}


class TestPointProduct:
    def test_products(self, fig_table):
        z = point_of(fig_table, "b^5", "ab^4", "a^2c^3")
        assert point_product(fig_table, z) == (3, 9, 3)
        assert point_product(fig_table, ()) == (0, 0, 0)


def scanned_standard_words(table, max_len: int) -> dict[int, list[tuple[int, ...]]]:
    """The scan's standard words by length, sorted, with the sweep's leads: the rows' keys."""
    partners = _partners(table.later_pairs, len(table.generators))
    packed, _ = _pack(table.generators, max_len)
    levels = _standard_levels(partners, packed, max_len)
    return {
        length: sorted(word for word, _, _ in level)
        for length, level in enumerate(levels, 1)
        if level
    }


def test_standard_word_scan_matches_the_fiber_oracle():
    # The rows' keys are the leads of the degree-2 fibers, and the scan finds
    # every point of every fiber that holds none of them, at t <= 3 on the
    # 250 tables and at t <= 4 on every 5th.
    tables = suite_tables(cap=200) + random_tables(50, seed=20250809)
    assert len(tables) == 250
    for k, table in enumerate(tables):
        max_len = 4 if k % 5 == 0 else 3
        assert scanned_standard_words(table, max_len) == standard_words_by_fibers(table, max_len)

