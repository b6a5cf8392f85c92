"""Property tests of the grouped fiber pass, the sink key, the direct sink,
the closed forms of Borel(root), the reduction engine, monomial syntax and
the sweep's parallel merge.

Tables are two-Borel ideals on three or four variables, of degree 2 to 5,
with at most 21 minimal generators; the direct sink test adds principal
tables, tables with comparable roots and fiber-reduced tables, and the sweep
test tables on five variables.  Examples are derandomized, so every run
checks the same tables.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelfiber import verify
from borelfiber.borel import (
    build_table,
    build_two_borel,
    expand_principal,
    lex_last_divisor,
    reduce_for_fiber,
)
from borelfiber.fiber import (
    _m_share_bounds,
    build_fiber_graph,
    enumerate_fiber,
    fiber_sink_key,
    fibers,
    find_sink_direct,
    point_product,
    sinks,
)
from borelfiber.instances import borel_incomparable_pairs, sweep_multidegrees
from borelfiber.monomials import (
    VariableContext,
    format_monomial,
    parse_monomial,
    sigma,
    unit,
)
from borelfiber.rees import ReesBasis, ReesMonomial, rees_gb, rees_normal_form
from borelfiber.toric import normal_form, quadric_generators

from helpers import (
    SerialPool,
    all_monomials,
    can_factor,
    count_vector_sink_key,
    cwr_multidegrees,
    has_gm_factorization,
    lex_last_divisor_by_scan,
    principal_by_filter,
    sink_by_peeling,
    split_rees_reducer,
)

MAX_GENERATORS = 21


def checked(max_examples):
    return settings(max_examples=max_examples, deadline=None, database=None, derandomize=True)


@lru_cache(maxsize=None)
def small_pairs() -> tuple:
    return tuple(
        (M, N)
        for n in (3, 4)
        for d in range(2, 6)
        for M, N in borel_incomparable_pairs(n, d)
        if len(build_two_borel(M, N).generators) <= MAX_GENERATORS
    )


tables = st.deferred(lambda: st.sampled_from(small_pairs())).map(
    lambda pair: build_two_borel(*pair)
)


@lru_cache(maxsize=None)
def small_roots() -> tuple:
    return tuple(
        root
        for n in (3, 4)
        for d in range(2, 6)
        for root in all_monomials(n, d)
        if len(expand_principal(root)) <= MAX_GENERATORS
    )


principal_tables = st.deferred(lambda: st.sampled_from(small_roots())).map(
    lambda root: build_table([root])
)


@st.composite
def comparable_tables(draw):
    """Two roots, one in the Borel ideal of the other, so one block holds all of Borel(M)."""
    root = draw(st.sampled_from(small_roots()))
    below = draw(st.sampled_from([m for m in expand_principal(root) if m != root] or [root]))
    return build_table([below, root])


@st.composite
def reduced_tables(draw):
    """Roots replaced by their lex-last divisors of a product, in their original roles."""
    table = draw(tables)
    return reduce_for_fiber(table, draw(st.sampled_from(sweep_multidegrees(table, 3))))


@checked(60)
@given(st.one_of(tables, principal_tables, comparable_tables(), reduced_tables()))
def test_closed_form_sink_matches_the_search_and_the_graph(table):
    groups = fibers(table, 3)
    s_m, s_n = sigma(table.roots[0]), sigma(table.roots[-1])
    for t in range(1, 4):
        for mu in all_monomials(table.context.n, t * table.degree):
            lo, hi = _m_share_bounds(t, sigma(mu), s_m, s_n)
            assert (lo <= hi) == can_factor(table, mu) == (mu in groups)
            assert (lo <= hi and hi >= 1) == has_gm_factorization(table, mu)
            if mu not in groups:
                assert find_sink_direct(table, mu) is None
    for mu, points in groups.items():
        assert sinks(build_fiber_graph(table, mu, points)) == [find_sink_direct(table, mu)]


@st.composite
def table_and_product(draw):
    """A table and the product of 4 to 12 of its generators, drawn with repeats."""
    table = draw(tables)
    index = st.integers(min_value=0, max_value=len(table.generators) - 1)
    return table, point_product(table, draw(st.lists(index, min_size=4, max_size=12)))


@checked(150)
@given(table_and_product())
def test_direct_sink_matches_per_step_peeling(case):
    table, mu = case
    assert find_sink_direct(table, mu) == sink_by_peeling(table, mu)


@checked(12)
@given(tables)
def test_grouped_pass_matches_per_fiber_enumeration(table):
    groups = fibers(table, 3)
    for mu, points in groups.items():
        expected = sorted(enumerate_fiber(table, mu), key=fiber_sink_key, reverse=True)
        assert points == expected


@checked(25)
@given(tables, st.integers(min_value=1, max_value=3))
def test_sweep_multidegrees_match_all_products(table, max_tdeg):
    assert sweep_multidegrees(table, max_tdeg) == cwr_multidegrees(table, max_tdeg)


@st.composite
def table_and_points(draw):
    table = draw(tables)
    index = st.integers(min_value=0, max_value=len(table.generators) - 1)
    point = st.lists(index, min_size=1, max_size=4).map(lambda p: tuple(sorted(p)))
    return table, draw(st.lists(point, min_size=2, max_size=12))


@checked(150)
@given(table_and_points())
def test_sink_key_orders_like_the_count_vector_key(case):
    table, points = case
    a, b = points[0], points[1]
    old = count_vector_sink_key(table, a) > count_vector_sink_key(table, b)
    assert (fiber_sink_key(a) > fiber_sink_key(b)) == old
    assert (fiber_sink_key(a) == fiber_sink_key(b)) == (a == b)
    assert sorted(points, key=fiber_sink_key) == sorted(
        points, key=lambda p: count_vector_sink_key(table, p)
    )


def rees_monomials(table, max_degree):
    """Every Rees monomial of joint degree 1..max_degree over the table."""
    n = table.context.n
    for d in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(n + len(table.generators)), d):
            xpart = [0] * n
            for c in combo:
                if c < n:
                    xpart[c] += 1
            yield ReesMonomial(tuple(xpart), tuple(c - n for c in combo if c >= n))


@checked(10)
@given(tables)
def test_rees_engine_matches_the_split_reference(table):
    full = rees_gb(table)
    # Every other element: not Groebner, so normal forms show which reducer is picked.
    for basis in (full, ReesBasis(table, full.elements[::2])):
        reference = split_rees_reducer(basis)
        for m in rees_monomials(table, 3):
            assert rees_normal_form(m, basis) == reference(m)
    quadrics = quadric_generators(table)
    one = unit(table.context.n)
    for points in fibers(table, 3).values():
        for z in points:
            expected = ReesMonomial(one, normal_form(z, quadrics))
            assert rees_normal_form(ReesMonomial(one, z), full) == expected


ROOTS_BY_N = {n: [root for d in range(1, 7) for root in all_monomials(n, d)] for n in range(1, 6)}


def test_expand_principal_matches_the_filter():
    for roots in ROOTS_BY_N.values():
        for root in roots:
            assert expand_principal(root) == principal_by_filter(root)


@checked(40)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=5))
def test_lex_last_divisor_matches_the_scan(mu):
    mu = tuple(mu)
    for root in ROOTS_BY_N[len(mu)]:
        assert lex_last_divisor(root, mu) == lex_last_divisor_by_scan(root, mu)


# Multi-letter names, one a prefix of another.  With y and yy, or a, b and ab,
# the alphabet is ambiguous ("yyy^2" reads two ways) and must be rejected.
NAMES = ("a", "ab", "b", "x1", "x12", "y", "yy")


@checked(150)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.one_of(
                st.just(VariableContext.default(n).names),
                st.permutations(NAMES).map(lambda names: tuple(names[:n])),
            ),
            st.lists(st.integers(min_value=0, max_value=12), min_size=n, max_size=n),
        )
    )
)
def test_parse_and_format_round_trip(case):
    names, exps = case
    ambiguous = any(
        a != b and a.startswith(b) and not a[len(b)].isdigit() for a in names for b in names
    )
    try:
        context = VariableContext(names)
    except ValueError:
        assert ambiguous
        return
    assert not ambiguous
    m = tuple(exps)
    text = format_monomial(m, context)
    assert parse_monomial(text, context) == m
    assert parse_monomial("[" + ",".join(map(str, m)) + "]", context) == m


@lru_cache(maxsize=None)
def sweep_pairs() -> tuple:
    return tuple(
        (M, N)
        for n in (3, 4, 5)
        for d in (2, 3)
        for M, N in borel_incomparable_pairs(n, d)
        if len(build_two_borel(M, N).generators) <= MAX_GENERATORS
    )


@checked(15)
@given(
    st.deferred(lambda: st.sampled_from(sweep_pairs())).map(lambda pair: build_two_borel(*pair)),
    st.integers(min_value=1, max_value=3),
)
def test_sweep_report_does_not_depend_on_the_width(table, max_tdeg):
    serial = verify.sweep_unique_sinks(table, max_tdeg, jobs=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "ProcessPoolExecutor", SerialPool)
        patch.setattr(verify.os, "cpu_count", lambda: 2)
        SerialPool.widths = []
        fanned = verify.sweep_unique_sinks(table, max_tdeg, jobs=2)
        assert SerialPool.widths == ([2] if serial.multidegrees_checked > 1 else [])
    assert fanned == serial
