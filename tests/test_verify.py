"""Negative controls, the fast path and the graph oracle of the unique-sink
checker and the sweep.

The check reads every verdict off one fiber graph, built from the table's
paired-move rows (``later_pairs``) and the order of the fiber's points, and
compares its sink with the direct sink, which reads the table's suffix
sums.  Each control corrupts one of these and pins the full violation
list; the CLI must then exit 1.  A control that reorders a fiber's points
swaps in its own ``fiber._fiber_in_sink_order``, the graph's one source of
vertices.  The sweep scans standard words and hands only the multidegrees
that fail the scan to the check.
"""

import pytest

from borelfiber import cli, fiber, verify
from borelfiber.borel import GeneratorTable, build_two_borel
from borelfiber.fiber import build_fiber_graph, fibers
from borelfiber.instances import suite_tables
from borelfiber.monomials import format_monomial, sigma

from helpers import mono, unique_sink_by_graph, with_cached

FIG_MU = (3, 9, 3)
# A fiber of t-degree 2 with three points, small enough to give its moves by hand.
PAIR_MU = (2, 6, 2)


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

    def test_flipped_edge(self, fig_table, fig_points, fig_label):
        # The sink (1,3,13) gets a move back to (0,3,12) by swapping the pair
        # (1,13) for (0,12).  The graph keeps that move as the edge 6->5,
        # beside the true move 5->6.
        assert fig_points[5:] == [(0, 3, 12), (1, 3, 13)]
        corrupt = with_cached(fig_table, later_pairs={**fig_table.later_pairs, (1, 13): ((0, 12),)})
        assert verify.check_unique_sink(corrupt, FIG_MU) == [
            f"{fig_label}: edge 6->5 does not decrease in the sink order",
            f"{fig_label}: 0 sinks instead of one",
        ]

    def test_edges_removed(self, fig_table, fig_label):
        corrupt = with_cached(fig_table, later_pairs={})
        assert verify.check_unique_sink(corrupt, FIG_MU) == [
            f"{fig_label}: fiber graph is disconnected",
            f"{fig_label}: 7 sinks instead of one",
        ]

    def test_two_cycle_beside_a_lone_sink(self, fig_table, pair_points):
        # The first two points move to each other and the last has no move:
        # one sink, yet two components.  The check may not infer connectivity
        # from the lone sink once a move goes backward.
        p0, p1, _ = pair_points
        corrupt = with_cached(fig_table, later_pairs={p0: (p1,), p1: (p0,)})
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == [
            f"{label}: edge 1->0 does not decrease in the sink order",
            f"{label}: fiber graph is disconnected",
        ]

    def test_move_to_itself(self, fig_table, pair_points):
        # A move that leaves the sink where it is goes nowhere later.
        sink = pair_points[-1]
        corrupt = with_cached(fig_table, later_pairs={**fig_table.later_pairs, sink: (sink,)})
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == [
            f"{label}: edge 2->2 does not decrease in the sink order",
            f"{label}: 0 sinks instead of one",
        ]

    def test_two_sinks(self, fig_table, pair_points):
        # The first point moves to both others; the graph is connected.
        p0, p1, p2 = pair_points
        corrupt = with_cached(fig_table, later_pairs={p0: (p1, p2)})
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == [
            f"{label}: 2 sinks instead of one",
        ]

    def test_sink_is_not_the_order_minimum(self, monkeypatch, fig_table, fig_points, fig_label):
        # The last two points swapped: the sink is no longer last, and the
        # point now last moves back to it.
        reordered = fig_points[:5] + [fig_points[6], fig_points[5]]
        monkeypatch.setattr(fiber, "_fiber_in_sink_order", lambda table, mu: list(reordered))
        assert verify.check_unique_sink(fig_table, FIG_MU) == [
            f"{fig_label}: edge 6->5 does not decrease in the sink order",
            f"{fig_label}: sink differs from the sink-order minimum",
        ]

    def test_backward_move_after_a_forward_one(self, fig_table, pair_points):
        # The row of (0,11) lists the later (1,12) as before, then the
        # earlier (2,2): the backward move follows a forward one, so the
        # check must follow every listed move and keep its direction.
        assert pair_points == [(2, 2), (0, 11), (1, 12)]
        rows = {**fig_table.later_pairs, (0, 11): ((1, 12), (2, 2))}
        corrupt = with_cached(fig_table, later_pairs=rows)
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(corrupt, PAIR_MU) == [
            f"{label}: edge 1->0 does not decrease in the sink order"
        ]
        assert verify.sweep_unique_sinks(corrupt, 3).violations == (
            f"{label}: row (0, 11) lists (2, 2), not a later point of its fiber",
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

    def test_sweep_reports_every_corrupted_fiber(self):
        table = with_cached(build_two_borel(mono("ac"), mono("b^2")), later_pairs={})
        report = verify.sweep_unique_sinks(table, 2)
        assert report.status == "FAIL"
        assert any("fiber graph is disconnected" in v for v in report.violations)

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
        label = format_monomial(
            tuple(map(sum, zip(fig_table.generators[1], fig_table.generators[13]))),
            fig_table.context,
        )
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

    def test_a_clean_sweep_builds_no_graph(self, fig_table, graph_calls, checked):
        report = verify.sweep_unique_sinks(fig_table, 3)
        assert report.ok and report.multidegrees_checked > 100
        assert graph_calls == checked == []

    def test_one_corrupted_fiber_builds_one_graph(self, fig_table, pair_points, graph_calls):
        # Without its row the first point of PAIR_MU's fiber is a second
        # standard word there; at t <= 2 no other fiber holds that pair.
        p0, _, _ = pair_points
        rows = {pair: row for pair, row in fig_table.later_pairs.items() if pair != p0}
        report = verify.sweep_unique_sinks(with_cached(fig_table, later_pairs=rows), 2)
        label = format_monomial(PAIR_MU, fig_table.context)
        assert report.violations == (
            f"{label}: fiber graph is disconnected",
            f"{label}: 2 sinks instead of one",
        )
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


def test_an_empty_fiber_has_no_violation(fig_table):
    # c^10 has degree 10 = 2 * 5 but no factorization into generators.
    assert verify.check_unique_sink(fig_table, (0, 0, 10)) == []


def test_scan_matches_the_graph_oracle_on_every_tenth_suite_table():
    for table in suite_tables(cap=200)[::10]:
        for mu in fibers(table.generators, 3):
            assert verify.check_unique_sink(table, mu) == unique_sink_by_graph(table, mu)
