"""Negative controls, the fast path and the graph oracle of the unique-sink
checker and the sweep.

The check reads every verdict off one fiber graph, built from the fiber's
own points and the paired-move test (``fiber._paired_moves``), and compares
its sink with the direct sink, which reads the table's suffix sums.  The
sweep reads the lead masks (``fiber._lead_masks``, patched here as
``verify._lead_masks``), which the graph never does.  Each control
corrupts one of these and pins the full violation list; the CLI must then
exit 1.  A corrupted mask leaves the check with no fault.  A mask that
drops a lead bit is reported by the line "a standard word of the scan is
not the graph's sink" at each multidegree its scan marks
(``helpers.marks_by_direct_sink``).  A mask that adds a lead bit to a sink
pair leaves the sweep at PASS: the fibers whose sink holds that pair drop
out of ``multidegrees_checked``, and only a count of the fibers sees it.  A
control that reorders a fiber's points swaps in its own
``fiber.enumerate_fiber``, the graph's one source of vertices.  The
sweep scans standard words, accepts each by one packed peel onto the
direct sink of a shorter accepted word, and hands only the multidegrees
that fail the scan to the check; it refuses a table of three roots before
the scan, and counts its standard words before it builds them.
"""

import json
import sys
from itertools import combinations

import pytest

from borelfiber import cli, fiber, monomials, verify
from borelfiber.borel import GeneratorTable, build_table, build_two_borel
from borelfiber.fiber import build_fiber_graph, fibers
from borelfiber.instances import random_tables, suite_tables
from borelfiber.monomials import VariableContext, format_monomial, sigma

from helpers import (
    NOT_THE_SINK,
    later_pairs,
    lead_masks_by_rows,
    marks_by_direct_sink,
    mono,
    pair_transitions,
    sweep_lines_by_direct_sink,
    unique_sink_by_graph,
    with_cached,
    with_lead_bits,
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
def fig_masks(fig_table):
    return fiber._lead_masks(fig_table)


@pytest.fixture
def use_masks(monkeypatch):
    """Hand the sweep the given lead masks in place of the ones it builds."""

    def use(masks):
        monkeypatch.setattr(verify, "_lead_masks", lambda table: list(masks))
        return masks

    return use


def only_leads(table, pairs):
    """Lead masks that hold the given pairs and no other."""
    return with_lead_bits([0] * len(table.generators), pairs, True)


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

    def test_flipped_edge(self, fig_table, fig_masks, fig_points, use_masks):
        # The sink (1,3,13) gets a move back to (0,3,12) by swapping the pair
        # (1,13) for (0,12): a lead bit on the sink pair (1,13).  The graph
        # reads no masks, so the check passes; the scan loses every fiber
        # whose sink holds (1,13), and only the count shows it.
        assert fig_points[5:] == [(0, 3, 12), (1, 3, 13)]
        use_masks(with_lead_bits(fig_masks, [(1, 13)], True))
        assert verify.check_unique_sink(fig_table, FIG_MU) == []
        report = verify.sweep_unique_sinks(fig_table, 3)
        groups = fibers(fig_table.generators, 3).values()
        lost = [p for p in groups if (1, 13) in combinations(p[-1], 2)]
        assert report.violations == () and report.multidegrees_checked == 149 - len(lost) == 141

    def test_edges_removed(self, fig_table, fig_label, use_masks):
        # With no lead every point is a standard word, so the scan marks each
        # fiber of more than one point, and its graph has no fault.
        masks = use_masks([0] * len(fig_table.generators))
        assert verify.check_unique_sink(fig_table, FIG_MU) == []
        lines = verify.sweep_unique_sinks(fig_table, 3).violations
        assert lines == sweep_lines_by_direct_sink(fig_table, 3, masks)
        assert f"{fig_label}: {NOT_THE_SINK}" in lines

    def test_two_cycle_beside_a_lone_sink(self, fig_table, pair_points, use_masks):
        # The first two points move to each other and the last has no move:
        # the two are the only leads.  Every other pair is standard, so the
        # scan marks the fibers that hold two standard words; PAIR_MU holds
        # one, its sink.
        p0, p1, _ = pair_points
        masks = use_masks(only_leads(fig_table, [p0, p1]))
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(fig_table, PAIR_MU) == []
        marks = sweep_lines_by_direct_sink(fig_table, 2, masks)
        assert marks and f"{label}: {NOT_THE_SINK}" not in marks
        assert verify.sweep_unique_sinks(fig_table, 2).violations == marks

    def test_move_to_itself(self, fig_table, fig_masks, pair_points, use_masks):
        # A move that leaves the sink where it is makes the sink pair a lead:
        # PAIR_MU and every fiber whose sink holds (1,12) lose their one
        # standard word, and the sweep passes at a lower count.
        sink = pair_points[-1]
        assert sink == (1, 12)
        use_masks(with_lead_bits(fig_masks, [sink], True))
        assert verify.check_unique_sink(fig_table, PAIR_MU) == []
        report = verify.sweep_unique_sinks(fig_table, 3)
        assert report.violations == () and report.multidegrees_checked == 144

    def test_two_sinks(self, fig_table, pair_points, use_masks):
        # The first point moves to both others, and every other pair is
        # standard: the last two points are both standard words.
        p0, _, _ = pair_points
        masks = use_masks(only_leads(fig_table, [p0]))
        label = format_monomial(PAIR_MU, fig_table.context)
        assert verify.check_unique_sink(fig_table, PAIR_MU) == []
        lines = verify.sweep_unique_sinks(fig_table, 2).violations
        assert lines == sweep_lines_by_direct_sink(fig_table, 2, masks)
        assert f"{label}: {NOT_THE_SINK}" in lines

    def test_swapped_last_points_make_the_direct_sink_disagree(
        self, monkeypatch, fig_table, fig_points, fig_label
    ):
        # The last two points swapped: the edge between them still runs to
        # the last vertex, which is now (0,3,12), not the direct sink.
        reordered = fig_points[:5] + [fig_points[6], fig_points[5]]
        monkeypatch.setattr(fiber, "enumerate_fiber", lambda table, mu: list(reordered))
        assert verify.check_unique_sink(fig_table, FIG_MU) == [
            f"{fig_label}: direct sink disagrees with the graph sink",
        ]

    def test_backward_move_after_a_forward_one(self, fig_table, fig_masks, pair_points, use_masks):
        # (0,11) moves forward to (1,12), and a backward move to (2,2) as
        # well changes nothing: its lead bit is already set, and a mask
        # holds each pair once.
        assert pair_points == [(2, 2), (0, 11), (1, 12)]
        assert fig_masks[0] >> 11 & 1
        use_masks(with_lead_bits(fig_masks, [(0, 11)], True))
        assert verify.check_unique_sink(fig_table, PAIR_MU) == []
        report = verify.sweep_unique_sinks(fig_table, 3)
        assert report.violations == () and report.multidegrees_checked == 149

    def test_move_out_of_the_fiber(self, fig_table, fig_masks):
        # The masks take no move out of its fiber: each lead bit is a pair
        # with a later point of its own degree-2 fiber one move away, the
        # keys of the rows read off the fibers (``helpers.later_pairs``).
        rows = later_pairs(fig_table)
        assert fig_masks == lead_masks_by_rows(fig_table)
        assert len(rows) == 61 and sum(a == b for a, b in rows) == 9
        assert sum(mask.bit_count() for mask in fig_masks) == 2 * 61 - 9

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

    def test_sweep_reports_every_corrupted_fiber(self, use_masks):
        table = build_two_borel(mono("ac"), mono("b^2"))
        masks = use_masks([0] * len(table.generators))
        report = verify.sweep_unique_sinks(table, 2)
        assert report.status == "FAIL"
        assert report.violations == sweep_lines_by_direct_sink(table, 2, masks) != ()

    def test_cli_exits_one_on_a_violation(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "_lead_masks", lambda table: [0] * len(table.generators))
        code = cli.main(["verify-unique-sinks", "--ideal", "{ac,b^2}", "--bound", "2"])
        assert code == cli.EXIT_VIOLATION
        assert '"status": "FAIL"' in capsys.readouterr().out

    def test_backward_row(self, capsys, fig_masks, use_masks):
        # A lead bit that sends the standard pair (1,13) back to the earlier
        # (0,12) of its fiber makes (1,13) a lead, so the fibers that held it
        # lose their sink and no later step sees them: the CLI passes, and
        # only its count, 141 of the 149 fibers, shows the loss.
        use_masks(with_lead_bits(fig_masks, [(1, 13)], True))
        code = cli.main(["verify-unique-sinks", "--ideal", "{a^2c^3,b^4c}", "--bound", "3"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "status": "PASS",
            "multidegrees_checked": 141,
            "violations": [],
        }


class TestTheCount:
    """``multidegrees_checked`` is the only witness to a spurious lead bit."""

    def test_a_spurious_bit_on_any_sink_pair_passes_at_a_lower_count(
        self, fig_table, fig_masks, use_masks
    ):
        # Each of the 44 degree-2 sinks made a lead: the sweep still passes,
        # with 134 to 146 of the 149 fibers.
        groups = fibers(fig_table.generators, 3)
        pair_sinks = [points[-1] for points in groups.values() if len(points[-1]) == 2]
        assert len(pair_sinks) == 44
        counts = []
        for sink in pair_sinks:
            use_masks(with_lead_bits(fig_masks, [sink], True))
            report = verify.sweep_unique_sinks(fig_table, 3)
            lost = [p for p in groups.values() if sink in combinations(p[-1], 2)]
            assert report.violations == ()
            assert report.multidegrees_checked == len(groups) - len(lost) < 149
            counts.append(report.multidegrees_checked)
        assert (min(counts), max(counts)) == (134, 146)

    def test_the_count_is_every_fiber(self):
        tables = suite_tables(cap=200) + random_tables(50, seed=20250809)
        for table in tables:
            report = verify.sweep_unique_sinks(table, 3)
            assert report.multidegrees_checked == len(fibers(table.generators, 3))


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

    def test_one_corrupted_fiber_builds_one_graph(
        self, fig_table, pair_points, graph_calls, use_masks
    ):
        # Without its lead bit the first point of PAIR_MU's fiber is a second
        # standard word there; at t <= 2 no other fiber holds that pair.  The
        # graph has its move and no fault, so the scan's mark is the line.
        p0, _, _ = pair_points
        masks = use_masks(with_lead_bits(fiber._lead_masks(fig_table), [p0], False))
        report = verify.sweep_unique_sinks(fig_table, 2)
        label = format_monomial(PAIR_MU, fig_table.context)
        assert report.violations == (f"{label}: {NOT_THE_SINK}",)
        assert report.violations == sweep_lines_by_direct_sink(fig_table, 2, masks)
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

    def test_the_standard_words_are_counted_before_they_are_built(self, monkeypatch, fig_table):
        # The figure ideal's 44 standard pairs extend to 91 standard words of
        # length 3, one per fiber of t-degree 3.
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 90)
        with pytest.raises(ValueError) as refused:
            verify.sweep_unique_sinks(fig_table, 3)
        assert str(refused.value) == (
            "the standard words of length 2 extend to 91 words of length 3,"
            " more than the cap of 90"
        )
        monkeypatch.setattr(fiber, "MAX_FIBER_POINTS", 91)
        assert verify.sweep_unique_sinks(fig_table, 3).multidegrees_checked == 149

    def test_the_lead_masks_are_counted_before_they_are_built(self, monkeypatch, fig_table):
        # The figure ideal's 14 generators make masks of 14 * 14 // 8 = 24 bytes.
        monkeypatch.setattr(fiber, "MAX_LEAD_MASK_BYTES", 23)
        monkeypatch.setattr(fiber, "_paired_moves", None)  # refused before any move is packed
        with pytest.raises(ValueError) as refused:
            verify.sweep_unique_sinks(fig_table, 3)
        assert str(refused.value) == (
            "the lead masks of 14 generators take 24 bytes, more than the cap of 23"
        )
        monkeypatch.undo()
        monkeypatch.setattr(fiber, "MAX_LEAD_MASK_BYTES", 24)
        assert verify.sweep_unique_sinks(fig_table, 3).multidegrees_checked == 149

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
