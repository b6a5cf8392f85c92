"""Property tests of the grouped fiber pass, the sink key, the direct sink,
the unique-sink scan, the closed forms of Borel(root), the reduction engine,
monomial syntax and the sweep against the graph oracle.

Tables are two-Borel ideals on three or four variables, of degree 2 to 5,
with at most 21 minimal generators; the direct sink test adds principal
tables, tables with comparable roots and fiber-reduced tables, the pruned
search test principal and three-root tables, and the sweep test tables on
five variables.  Examples are derandomized, so every run
checks the same tables.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borelfiber import verify
from borelfiber.borel import (
    build_table,
    build_two_borel,
    expand_principal,
)
from borelfiber.fiber import (
    _m_share_bounds,
    build_fiber_graph,
    enumerate_fiber,
    fiber_sink_key,
    fibers,
    find_sink_direct,
    sinks,
)
from borelfiber.instances import borel_incomparable_pairs, suite_tables, sweep_multidegrees
from borelfiber.monomials import (
    VariableContext,
    degree,
    format_monomial,
    parse_monomial,
    sigma,
    unit,
)
from borelfiber.rees import ReesBasis, ReesMonomial, _configuration, rees_gb, rees_normal_form
from borelfiber.toric import normal_form, quadric_generators

from helpers import (
    all_monomials,
    can_factor,
    count_vector_sink_key,
    cwr_multidegrees,
    enumerate_fiber_unpruned,
    fibers_by_grouping,
    has_gm_factorization,
    has_gm_factorization_by_shares,
    lex_last_divisor,
    lex_last_divisor_by_scan,
    point_product,
    principal_by_filter,
    reduce_for_fiber,
    sink_by_peeling,
    split_rees_reducer,
    unique_sink_by_graph,
    with_cached,
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
    groups = fibers(table.generators, 3)
    s_m, s_n = sigma(table.roots[0]), sigma(table.roots[-1])
    for t in range(1, 4):
        for mu in all_monomials(table.context.n, t * table.degree):
            lo, hi = _m_share_bounds(t, sigma(mu), s_m, s_n)
            assert (lo <= hi) == can_factor(table, mu) == (mu in groups)
            assert (lo <= hi and hi >= 1) == has_gm_factorization(table, mu)
            if mu not in groups:
                assert find_sink_direct(table, mu) is None
    for mu in groups:
        assert sinks(build_fiber_graph(table, mu)) == [find_sink_direct(table, mu)]


@st.composite
def tables_with_dropped_moves(draw, base=tables):
    """A table of ``base`` whose paired-move rows each lose a drawn share of their moves.

    Every move left still leads forward, so the scan and the graph oracle
    see the same sinks, and a fiber split by the dropped moves gives both
    the same violations.
    """
    table = draw(base)
    drop = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rnd = draw(st.randoms(use_true_random=False))
    rows = {}
    for pair, moves in table.later_pairs.items():
        kept = tuple(move for move in moves if rnd.random() >= drop)
        if kept:
            rows[pair] = kept
    return with_cached(table, later_pairs=rows)


@checked(30)
@given(tables_with_dropped_moves())
def test_unique_sink_scan_matches_the_graph_oracle(table):
    for mu in fibers(table.generators, 3):
        assert verify.check_unique_sink(table, mu) == unique_sink_by_graph(table, mu)


@st.composite
def table_and_product(draw):
    """A table and the product of 4 to 12 of its generators, drawn with repeats."""
    table = draw(tables)
    index = st.integers(min_value=0, max_value=len(table.generators) - 1)
    return table, point_product(table, draw(st.lists(index, min_size=4, max_size=12)))


@st.composite
def table_and_runs(draw):
    """A table and a product of 1 to 3 of its generators, each up to 150 times: long runs."""
    table = draw(tables)
    index = st.integers(min_value=0, max_value=len(table.generators) - 1)
    picked = draw(st.lists(index, min_size=1, max_size=3, unique=True))
    counts = draw(st.lists(st.integers(1, 150), min_size=len(picked), max_size=len(picked)))
    point = [idx for idx, count in zip(picked, counts) for _ in range(count)]
    return table, point_product(table, point)


@checked(150)
@given(st.one_of(table_and_product(), table_and_runs()))
def test_direct_sink_matches_per_step_peeling(case):
    table, mu = case
    # The factorization search takes minutes on a product of more than a few dozen factors.
    short = degree(mu) <= 12 * table.degree
    has_gm = has_gm_factorization if short else has_gm_factorization_by_shares
    assert find_sink_direct(table, mu) == sink_by_peeling(table, mu, has_gm)


@st.composite
def three_root_tables(draw):
    """Three distinct roots of one degree in one variable count."""
    first = draw(st.sampled_from(small_roots()))
    same = [root for root in small_roots() if len(root) == len(first) and sum(root) == sum(first)]
    others = draw(st.lists(st.sampled_from(same), min_size=2, max_size=2, unique=True))
    return build_table([first, *others])


@st.composite
def table_and_multidegree(draw):
    """A one-, two- or three-root table and a multidegree of 2 to 4 times its degree.

    The multidegree is a product of generators, such a product with one
    unit moved to a later variable (the reverse of a Borel move), or any
    monomial of its degree; the last two are often not factorable.
    """
    # Three roots twice: their test has the most branches, one per share of the first root.
    table = draw(st.one_of(principal_tables, tables, three_root_tables(), three_root_tables()))
    n, k = table.context.n, draw(st.integers(2, 4))
    index = st.integers(min_value=0, max_value=len(table.generators) - 1)
    mu = list(point_product(table, draw(st.lists(index, min_size=k, max_size=k))))
    kind = draw(st.sampled_from(["product", "moved", "any"]))
    if kind == "moved":
        source = draw(st.integers(0, n - 2))
        if mu[source]:
            mu[source] -= 1
            mu[draw(st.integers(source + 1, n - 1))] += 1
    elif kind == "any":
        units = st.integers(0, n - 1)
        mu = [0] * n
        for v in draw(st.lists(units, min_size=k * table.degree, max_size=k * table.degree)):
            mu[v] += 1
    return table, tuple(mu)


@checked(150)
@given(table_and_multidegree())
def test_pruned_search_matches_the_unpruned_search(case):
    table, mu = case
    assert enumerate_fiber(table, mu) == enumerate_fiber_unpruned(table, mu)


@checked(12)
@given(tables)
def test_grouped_pass_matches_per_fiber_enumeration(table):
    groups = fibers(table.generators, 3)
    for mu, points in groups.items():
        expected = sorted(enumerate_fiber(table, mu), key=fiber_sink_key, reverse=True)
        assert points == expected


@st.composite
def configurations(draw):
    """Vectors of 1 to 5 coordinates and a degree bound of 1 to 4, summed up to the carry.

    For a drawn bit count w, the largest coordinate is the largest ``top``
    with max_deg * top < 2^w, so a word of max_deg copies of the vector that
    holds it fills its coordinate's w bits: exactly 2^w - 1 when max_deg
    divides that (always at bound 1, at even w for bound 3; an even bound
    never reaches an odd sum).  Half the configurations end in a coordinate
    1, so their sums determine the word length.
    """
    max_deg = draw(st.integers(min_value=1, max_value=4))
    graded = draw(st.booleans())
    size = draw(st.integers(min_value=1, max_value=5))
    bits = draw(st.integers(min_value=max_deg.bit_length(), max_value=9))
    top = (2**bits - 1) // max_deg
    free = size - graded
    entry = st.integers(min_value=0, max_value=top)
    vectors = draw(st.lists(st.lists(entry, min_size=free, max_size=free), min_size=1, max_size=6))
    if free:
        holder = draw(st.integers(min_value=0, max_value=len(vectors) - 1))
        vectors[holder][draw(st.integers(min_value=0, max_value=free - 1))] = top
    return [tuple(v) + (1,) * graded for v in vectors], max_deg


def assert_fibers_match_grouping(vectors, max_deg):
    expected = fibers_by_grouping(vectors, max_deg)
    sums = [total for _, total in expected]
    if len(set(sums)) < len(sums):
        with pytest.raises(ValueError, match="points of different lengths share the sum"):
            fibers(vectors, max_deg)
    else:
        want = [(total, points) for (_, total), points in expected.items()]
        assert list(fibers(vectors, max_deg).items()) == want


@checked(200)
@given(configurations())
@example(([(5, 0), (0, 5), (4, 1)], 3))  # 3 * 5 = 2^4 - 1 in both coordinates
@example(([(7, 1), (3, 1), (0, 1)], 1))  # 7 = 2^3 - 1
def test_grouped_pass_matches_grouping_by_tuple_sums(case):
    assert_fibers_match_grouping(*case)


def test_grouped_pass_matches_grouping_on_suite_configurations():
    for table in suite_tables(200)[::10]:
        assert_fibers_match_grouping(table.generators, 3)
        assert_fibers_match_grouping(_configuration(table), 3)


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
    for points in fibers(table.generators, 3).values():
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


sweep_tables = st.deferred(lambda: st.sampled_from(sweep_pairs())).map(
    lambda pair: build_two_borel(*pair)
)


@checked(15)
@given(tables_with_dropped_moves(sweep_tables), st.integers(min_value=1, max_value=3))
def test_sweep_matches_the_graph_oracle_on_every_fiber(table, max_tdeg):
    # The sweep checks only the multidegrees its scan marks; with every row
    # still forward, those are exactly the fibers the oracle faults.
    groups = fibers(table.generators, max_tdeg)
    report = verify.sweep_unique_sinks(table, max_tdeg)
    assert report.multidegrees_checked == len(groups)
    assert report.violations == tuple(
        v for mu in groups for v in unique_sink_by_graph(table, mu)
    )
