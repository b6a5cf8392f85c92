"""Fiber graphs built from their own points equal the two-way walk.

``build_fiber_graph`` enumerates the fiber itself, files each point under
every rest left once a pair of its factors is taken out, and joins two
points filed under one rest when the packed paired-move test
(``fiber._paired_moves``) finds a unit move between their pairs.  The
reference ``helpers.fiber_graph_by_pair_walk`` takes the points of
``fibers`` and follows every move of every ordered factor position pair,
from both ends, by exponent arithmetic (``helpers.pair_transitions``).  The
graphs, vertices included, must be equal on every fiber checked.  The
reference rows (``helpers.later_pairs``, read off the degree-2 fibers) must
list exactly the later moves of each pair, and every listed move must lead
back; the sweep's lead masks (``fiber._lead_masks``), built from the unit
moves with no pair listed, must be exactly the rows' keys.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelfiber.borel import build_table
from borelfiber.fiber import _lead_masks, build_fiber_graph, fibers
from borelfiber.instances import random_tables, suite_tables
from borelfiber.monomials import degree

from helpers import (
    family_table,
    fiber_graph_by_pair_walk,
    later_pairs,
    lead_masks_by_rows,
    mono,
    monos,
    pair_transitions,
)

FIG_MU = (3, 9, 3)


def counterexample_table():
    """The three-Borel table of ``counterexample --r 3``."""
    return build_table(monos("a^3c^3", "b^6", "a^2b^2c^2"))


def assert_graphs_match(table, max_tdeg, min_tdeg=1):
    """Compare both builders on every fiber of t-degree min_tdeg..max_tdeg; count them."""
    rows = pair_transitions(table)
    checked = 0
    for mu, points in fibers(table.generators, max_tdeg).items():
        if degree(mu) < min_tdeg * table.degree:
            continue
        expected = fiber_graph_by_pair_walk(table, mu, points, rows)
        assert build_fiber_graph(table, mu) == expected, mu
        checked += 1
    return checked


def moves_between(rows, a, b):
    """Sorted pairs one paired move away from the factors {a, b}, other than {a, b}."""
    found = {tuple(sorted(pair)) for pair in rows[a][b] + rows[b][a]}
    found.discard((a, b))
    return found


def test_suite_at_t_up_to_3():
    checked = sum(assert_graphs_match(table, 3) for table in suite_tables(cap=200))
    assert checked == 33198


def test_every_tenth_suite_table_at_t_4():
    assert sum(assert_graphs_match(table, 4, 4) for table in suite_tables(cap=200)[::10]) > 0


def test_figure_ideal():
    table = build_table(monos("a^2c^3", "b^4c"))
    assert assert_graphs_match(table, 4) > 0
    assert len(build_fiber_graph(table, FIG_MU).vertices) == 7


def test_counterexample_table():
    table = counterexample_table()
    assert assert_graphs_match(table, 3) > 0
    assert mono("a^6b^6c^6") in fibers(table.generators, 3)


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_seeded_random_tables(seed):
    (table,) = random_tables(1, seed)
    assert assert_graphs_match(table, 3) > 0


@pytest.mark.parametrize(
    "table",
    [
        build_table(monos("a^2c^3", "b^4c")),
        counterexample_table(),
        build_table([(0, 2, 3)]),
        family_table(4),
        max(random_tables(50, 20250809), key=lambda t: len(t.generators)),
    ]
    + suite_tables(cap=200)[::10],
    ids=lambda t: "+".join(map(str, t.roots)),
)
def test_later_pairs_are_the_later_moves_and_lead_back(table):
    rows = pair_transitions(table)
    size = len(table.generators)
    listed = later_pairs(table)
    assert all(a <= b and moves for (a, b), moves in listed.items())
    for a in range(size):
        for b in range(a, size):
            later = sorted((c, d) for c, d in moves_between(rows, a, b) if (d, c) > (b, a))
            assert listed.get((a, b), ()) == tuple(later)
            for c, d in later:
                assert (a, b) in moves_between(rows, c, d)
    assert _lead_masks(table) == lead_masks_by_rows(table)


def test_lead_masks_are_the_rows_keys():
    # On the 250 tables and the three-root family at r = 3..6.
    tables = suite_tables(cap=200) + random_tables(50, seed=20250809)
    tables += [family_table(r) for r in range(3, 7)]
    for table in tables:
        assert _lead_masks(table) == lead_masks_by_rows(table)
