"""Negative controls, the fast path and the graph oracle of the unique-sink
checker and the sweep.

The check reads every verdict off one fiber graph, built from the fiber's
own points and the paired-move test (``fiber._paired_moves``), and compares
its sink with the direct sink, which reads the table's suffix sums.  The
sweep reads the table's paired-move rows (``later_pairs``), which the graph
never does.  Each control corrupts one of these and pins the full violation
list; the CLI must then exit 1.  A corrupted row leaves the check with no
fault, and the sweep reports it: by its row check when an entry is not a
later point of its pair's fiber, and otherwise, when a row misses a move,
by the line "a standard word of the scan is not the graph's sink" at each
multidegree its scan marks (``helpers.marks_by_direct_sink``).  A control
that reorders a fiber's points swaps in its own
``fiber._fiber_in_sink_order``, the graph's one source of vertices.  The
sweep scans standard words, accepts each by one share test and one peel
onto the direct sink of a shorter accepted word, on the suffix sums its
packed sum carries, and hands only the multidegrees that fail the scan to
the check; it refuses a table of three roots before the scan.
"""

import sys

import pytest

from borelfiber import cli, fiber, monomials, verify
from borelfiber.borel import GeneratorTable, build_table, build_two_borel
from borelfiber.fiber import build_fiber_graph, fibers
from borelfiber.instances import random_tables, suite_tables
from borelfiber.monomials import VariableContext, format_monomial, sigma

from helpers import (
    NOT_THE_SINK,
    marks_by_direct_sink,
    mono,
    pair_transitions,
    point_product,
    sweep_lines_by_direct_sink,
    unique_sink_by_graph,
    with_cached,
)

FIG_MU = (3, 9, 3)
# A fiber of t-degree 2 with three points, small enough to give its moves by hand.
PAIR_MU = (2, 6, 2)
# The figure multidegrees of t-degree up to 3 whose direct sink goes wrong
# once sigma(M) and sigma(N) trade places, in (degree, mu) order.
SWAPPED_ROOTS_MARKS = """
a^2b^5c^3 a^2b^6c^2 a^2b^7c a^3b^4c^3 a^3b^5c^2 a^3b^6c a^3b^7 a^4b^3c^3 a^4b^4c^2 a^4b^5c
a^4b^6 a^5b^2c^3 a^5b^3c^2 a^5b^4c a^5b^5 a^6bc^3 a^6b^2c^2 a^6b^3c a^6b^4 a^7c^3 a^7bc^2
a^8c^2 a^2b^9c^4 a^2b^10c^3 a^2b^11c^2 a^2b^12c a^3b^8c^4 a^3b^9c^3 a^3b^10c^2 a^3b^11c
a^3b^12 a^4b^5c^6 a^4b^6c^5 a^4b^7c^4 a^4b^8c^3 a^4b^9c^2 a^4b^10c a^4b^11 a^5b^4c^6
a^5b^5c^5 a^5b^6c^4 a^5b^7c^3 a^5b^8c^2 a^5b^9c a^5b^10 a^6b^3c^6 a^6b^4c^5 a^6b^5c^4
a^6b^6c^3 a^6b^7c^2 a^6b^8c a^6b^9 a^7b^2c^6 a^7b^3c^5 a^7b^4c^4 a^7b^5c^3 a^7b^6c^2
a^7b^7c a^7b^8 a^8bc^6 a^8b^2c^5 a^8b^3c^4 a^8b^4c^3 a^8b^5c^2 a^8b^6c a^8b^7 a^9c^6
a^9bc^5 a^9b^2c^4 a^9b^3c^3 a^9b^4c^2 a^9b^5c a^9b^6 a^10c^5 a^10bc^4 a^10b^2c^3 a^10b^3c^2
a^10b^4c a^10b^5 a^11c^4 a^11bc^3 a^11b^2c^2 a^11b^3c a^11b^4 a^12c^3 a^12bc^2 a^13c^2
""".split()
TWO_ROOTS_ONLY = "the direct sink algorithm needs a two-Borel or principal table"


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


@pytest.fixture(scope="module")
def fig_label(fig_table):
    return format_monomial(FIG_MU, fig_table.context)


@pytest.fixture(scope="module")
def fig_points(fig_table):
    return fibers(fig_table.generators, 3)[FIG_MU]


@pytest.fixture(scope="module")
def pair_points(fig_table):
    points = fibers(fig_table.generators, 2)[PAIR_MU]
    assert len(points) == 3 and all(len(p) == 2 for p in points)
    return points


class TestNegativeControls:
    def test_true_graph_passes(self, fig_table):
        assert verify.check_unique_sink(fig_table, FIG_MU) == []

    def test_no_paired_moves(self, monkeypatch, fig_table, fig_label):
        # With no unit move every point is its own component and a sink.
        paired_moves = fiber._paired_moves
        monkeypatch.setattr(
            fiber, "_paired_moves", lambda table, codes: (paired_moves(table, codes)[0], set())
        )
        assert verify.check_unique_sink(fig_table, FIG_MU) == [
            f"{fig_label}: fiber graph is disconnected",
            f"{fig_label}: 7 sinks instead of one",
        ]

    def test_flipped_edge(self, fig_table, fig_points):
        # The sink (1,3,13) gets a move back to (0,3,12) by swapping the pair
        # (1,13) for (0,12).  The graph reads no rows, so the check passes;
        # the sweep's row check reports the backward entry.
        assert fig_points[5:] == [(0, 3, 12), (1, 3, 13)]
        corrupt = with_cached(fig_table, later_pairs={**fig_table.later_pairs, (1, 13): ((0, 12),)})
        assert verify.check_unique_sink(corrupt, FIG_MU) == []
        label = format_monomial(point_product(fig_table, (1, 13)), fig_table.context)
        assert verify.sweep_unique_sinks(corrupt, 3).violations == (
            f"{label}: row (1, 13) lists (0, 12), not a later point of its fiber",
        )

    def test_edges_removed(self, fig_table, fig_label):
        # With no rows every point is a standard word, so the scan marks each
        # fiber of more than one point, and its graph has no fault.
        corrupt = with_cached(fig_table, later_pairs={})
        assert verify.check_unique_sink(corrupt, FIG_MU) == []
        lines = verify.sweep_unique_sinks(corrupt, 3).violations
        assert lines == sweep_lines_by_direct_sink(corrupt, 3)
        assert f"{fig_label}: {NOT_THE_SINK}" in lines

    def test_two_cycle_beside_a_lone_sink(self, fig_table, pair_points):
        # The first two points move to each other and the last has no move.
        # The row check reports the backward entry; every pair without a row
        # is standard, so the scan marks the fibers that hold two of them.
        p0, p1, _ = pair_points
        corrupt = with_cached(fig_table, later_pairs={p0: (p1,), p1: (p0,)})
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == []
        marks = sweep_lines_by_direct_sink(corrupt, 2)
        assert marks and f"{label}: {NOT_THE_SINK}" not in marks
        assert verify.sweep_unique_sinks(corrupt, 2).violations == (
            f"{label}: row {p1} lists {p0}, not a later point of its fiber",
            *marks,
        )

    def test_move_to_itself(self, fig_table, pair_points):
        # A move that leaves the sink where it is goes nowhere later.
        sink = pair_points[-1]
        corrupt = with_cached(fig_table, later_pairs={**fig_table.later_pairs, sink: (sink,)})
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == []
        assert verify.sweep_unique_sinks(corrupt, 3).violations == (
            f"{label}: row {sink} lists {sink}, not a later point of its fiber",
        )

    def test_two_sinks(self, fig_table, pair_points):
        # The first point moves to both others, and the rows of every other
        # pair are gone: the last two points are both standard words.
        p0, p1, p2 = pair_points
        corrupt = with_cached(fig_table, later_pairs={p0: (p1, p2)})
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == []
        lines = verify.sweep_unique_sinks(corrupt, 2).violations
        assert lines == sweep_lines_by_direct_sink(corrupt, 2)
        assert f"{label}: {NOT_THE_SINK}" in lines

    def test_swapped_last_points_make_the_direct_sink_disagree(
        self, monkeypatch, fig_table, fig_points, fig_label
    ):
        # The last two points swapped: the edge between them still runs to
        # the last vertex, which is now (0,3,12), not the direct sink.
        reordered = fig_points[:5] + [fig_points[6], fig_points[5]]
        monkeypatch.setattr(fiber, "_fiber_in_sink_order", lambda table, mu: list(reordered))
        assert verify.check_unique_sink(fig_table, FIG_MU) == [
            f"{fig_label}: direct sink disagrees with the graph sink",
        ]

    def test_backward_move_after_a_forward_one(self, fig_table, pair_points):
        # The row of (0,11) lists the later (1,12) as before, then the
        # earlier (2,2): the row check must read every entry of a row.
        assert pair_points == [(2, 2), (0, 11), (1, 12)]
        rows = {**fig_table.later_pairs, (0, 11): ((1, 12), (2, 2))}
        corrupt = with_cached(fig_table, later_pairs=rows)
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == []
        assert verify.sweep_unique_sinks(corrupt, 3).violations == (
            f"{label}: row (0, 11) lists (2, 2), not a later point of its fiber",
        )

    def test_move_out_of_the_fiber(self, fig_table, pair_points):
        # The row of (0,11) lists (0,12), a pair of another multidegree: the
        # row check reports it, not a lookup error.
        rows = {**fig_table.later_pairs, (0, 11): ((0, 12),)}
        corrupt = with_cached(fig_table, later_pairs=rows)
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == []
        assert verify.sweep_unique_sinks(corrupt, 3).violations == (
            f"{label}: row (0, 11) lists (0, 12), not a later point of its fiber",
        )

    def test_wrong_direct_sink(self, fig_table, fig_label):
        # Generator 1's suffix sums read as generator 0's index, so the direct
        # sink peels (0,3,13) instead of the sink (1,3,13).
        s_m, s_n, by_sums = fig_table._peel_sums
        wrong = {**by_sums, sigma(fig_table.generators[1]): 0}
        corrupt = with_cached(fig_table, _peel_sums=(s_m, s_n, wrong))
        assert verify.check_unique_sink(corrupt, FIG_MU) == [
            f"{fig_label}: direct sink disagrees with the graph sink"
        ]

    def test_swapped_share_bounds(self, fig_table):
        # sigma(M) and sigma(N) trade places: the share test and every peel
        # read the wrong root, and each fiber whose direct sink then differs
        # from its graph sink is reported, in (degree, mu) order.
        s_m, s_n, by_sums = fig_table._peel_sums
        corrupt = with_cached(fig_table, _peel_sums=(s_n, s_m, by_sums))
        report = verify.sweep_unique_sinks(corrupt, 3)
        assert report.status == "FAIL" and report.multidegrees_checked == 149
        assert len(SWAPPED_ROOTS_MARKS) == 87 and SWAPPED_ROOTS_MARKS[0] == "a^2b^5c^3"
        assert report.violations == tuple(
            f"{label}: direct sink disagrees with the graph sink" for label in SWAPPED_ROOTS_MARKS
        )

    def test_sweep_reports_every_corrupted_fiber(self):
        table = with_cached(build_two_borel(mono("ac"), mono("b^2")), later_pairs={})
        report = verify.sweep_unique_sinks(table, 2)
        assert report.status == "FAIL"
        assert report.violations == sweep_lines_by_direct_sink(table, 2) != ()

    def test_cli_exits_one_on_a_violation(self, monkeypatch, capsys):
        monkeypatch.setattr(GeneratorTable, "later_pairs", property(lambda table: {}))
        code = cli.main(["verify-unique-sinks", "--ideal", "{ac,b^2}", "--bound", "2"])
        assert code == cli.EXIT_VIOLATION
        assert '"status": "FAIL"' in capsys.readouterr().out

    def test_backward_row(self, monkeypatch, capsys, fig_table):
        # A row that sends the standard pair (1,13) back to the earlier
        # (0,12) of its fiber fails the row check; (1,13) becomes a lead, so
        # the fibers that held it lose their sink and no later step sees them.
        rows = {**fig_table.later_pairs, (1, 13): ((0, 12),)}
        label = format_monomial(point_product(fig_table, (1, 13)), fig_table.context)
        report = verify.sweep_unique_sinks(with_cached(fig_table, later_pairs=rows), 3)
        assert report.violations == (f"{label}: row (1, 13) lists (0, 12), not a later point of its fiber",)
        monkeypatch.setattr(GeneratorTable, "later_pairs", property(lambda table: rows))
        code = cli.main(["verify-unique-sinks", "--ideal", "{a^2c^3,b^4c}", "--bound", "3"])
        assert code == cli.EXIT_VIOLATION
        assert '"status": "FAIL"' in capsys.readouterr().out


class TestFastPath:
    @pytest.fixture
    def graph_calls(self, monkeypatch):
        calls = []

        def counted(table, mu):
            calls.append(mu)
            return build_fiber_graph(table, mu)

        monkeypatch.setattr(verify, "build_fiber_graph", counted)
        return calls

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        check = verify.check_unique_sink

        def counted(table, mu):
            calls.append(mu)
            return check(table, mu)

        monkeypatch.setattr(verify, "check_unique_sink", counted)
        return calls

    @pytest.fixture
    def direct_calls(self, monkeypatch):
        calls = []
        direct = verify.find_sink_direct

        def counted(table, mu):
            calls.append(mu)
            return direct(table, mu)

        monkeypatch.setattr(verify, "find_sink_direct", counted)
        return calls

    def test_a_clean_sweep_builds_no_graph(self, fig_table, graph_calls, checked, direct_calls):
        report = verify.sweep_unique_sinks(fig_table, 3)
        assert report.ok and report.multidegrees_checked > 100
        assert graph_calls == checked == direct_calls == []

    def test_every_standard_word_is_held_to_the_direct_sink(self, checked, direct_calls):
        # Each word is accepted by one peel onto the direct sink of the
        # rest; an oracle that calls find_sink_direct on every standard word
        # of every fiber marks the same multidegrees, here none.
        tables = suite_tables(cap=200) + random_tables(50, seed=20250809)
        for max_tdeg, sample in ((3, tables), (4, tables[::5])):
            for table in sample:
                checked.clear()
                report = verify.sweep_unique_sinks(table, max_tdeg)
                assert checked == marks_by_direct_sink(table, max_tdeg) == []
                assert report.ok and direct_calls == []

    def test_a_clean_sweep_takes_sigma_once_per_generator(self, monkeypatch, checked, direct_calls):
        # Reading the table's peel sums takes sigma of each generator and
        # root once; they are read first, so the count is the sweep's own.
        # The words' suffix sums are packed sums, so no word takes sigma.
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        table._peel_sums
        calls, original = [], monomials.sigma

        def counted(m):
            calls.append(m)
            return original(m)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "borelfiber" and getattr(module, "sigma", None) is original:
                monkeypatch.setattr(module, "sigma", counted)
        assert fiber.sigma is counted
        report = verify.sweep_unique_sinks(table, 3)
        assert report.ok and report.multidegrees_checked == 149
        assert len(calls) <= len(table.generators) + 2
        assert checked == direct_calls == []

    def test_one_corrupted_fiber_builds_one_graph(self, fig_table, pair_points, graph_calls):
        # Without its row the first point of PAIR_MU's fiber is a second
        # standard word there; at t <= 2 no other fiber holds that pair.  The
        # graph has its move and no fault, so the scan's mark is the line.
        p0, _, _ = pair_points
        rows = {pair: row for pair, row in fig_table.later_pairs.items() if pair != p0}
        corrupt = with_cached(fig_table, later_pairs=rows)
        report = verify.sweep_unique_sinks(corrupt, 2)
        label = format_monomial(PAIR_MU, fig_table.context)
        assert report.violations == (f"{label}: {NOT_THE_SINK}",)
        assert report.violations == sweep_lines_by_direct_sink(corrupt, 2)
        assert graph_calls == [PAIR_MU]

    def test_a_wrong_direct_sink_builds_graphs_only_where_it_fails(
        self, fig_table, graph_calls, checked
    ):
        # Generator 1's suffix sums read as generator 0's index, so each
        # standard word holding generator 1 differs from its direct sink.
        s_m, s_n, by_sums = fig_table._peel_sums
        wrong = {**by_sums, sigma(fig_table.generators[1]): 0}
        corrupt = with_cached(fig_table, _peel_sums=(s_m, s_n, wrong))
        report = verify.sweep_unique_sinks(corrupt, 3)
        holding = [mu for mu, points in fibers(fig_table.generators, 3).items() if 1 in points[-1]]
        labels = [format_monomial(mu, fig_table.context) for mu in holding]
        assert len(holding) > 1 and graph_calls == checked == holding
        assert report.violations == tuple(
            f"{label}: direct sink disagrees with the graph sink" for label in labels
        )
        assert report.multidegrees_checked == len(fibers(fig_table.generators, 3))


class TestRefusals:
    def test_a_three_root_table_is_refused(self, monkeypatch):
        # Refused once, before the scan: no word reaches the direct sink.
        def direct(table, mu):
            pytest.fail(f"the sweep computed the direct sink of {mu}")

        monkeypatch.setattr(verify, "find_sink_direct", direct)
        table = build_table([(3, 0, 3), (0, 6, 0), (2, 2, 2)])
        with pytest.raises(ValueError) as refused:
            verify.sweep_unique_sinks(table, 2)
        assert str(refused.value) == TWO_ROOTS_ONLY

    def test_the_cli_exits_two_on_a_three_root_ideal(self, capsys):
        code = cli.main(
            ["verify-unique-sinks", "--ideal", "{a^3c^3,b^6,a^2b^2c^2}", "--bound", "2"]
        )
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert (out, err) == ("", f"error: {TWO_ROOTS_ONLY}\n")

    def test_a_table_with_no_generators_passes(self):
        empty = GeneratorTable(
            context=VariableContext.default(3), degree=2, roots=(), generators=(), tags=()
        )
        report = verify.sweep_unique_sinks(empty, 3)
        assert report.status == "PASS" and report.multidegrees_checked == 0
        assert report.violations == ()


def test_an_empty_fiber_has_no_violation(fig_table):
    # c^10 has degree 10 = 2 * 5 but no factorization into generators.
    assert verify.check_unique_sink(fig_table, (0, 0, 10)) == []


def test_scan_matches_the_graph_oracle_on_every_tenth_suite_table():
    for table in suite_tables(cap=200)[::10]:
        rows = pair_transitions(table)
        for mu in fibers(table.generators, 3):
            assert verify.check_unique_sink(table, mu) == unique_sink_by_graph(table, mu, rows)
