"""Negative controls for the unique-sink checker and the sweep's worker clamp.

Each control patches a corrupted graph or direct sink into ``verify`` and
checks that the matching violation is reported; the CLI must then exit 1.
The clamp tests swap in a serial stand-in for the process pool, so they start
no processes.
"""

import dataclasses

import pytest

from borelfiber import cli, verify
from borelfiber.borel import build_two_borel
from borelfiber.fiber import build_fiber_graph
from borelfiber.monomials import format_monomial

from helpers import SerialPool, mono

FIG_MU = (3, 9, 3)


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


@pytest.fixture(scope="module")
def fig_label(fig_table):
    return format_monomial(FIG_MU, fig_table.context)


def patch_graph(monkeypatch, corrupt):
    """Make ``verify`` see ``corrupt(graph)`` instead of the true fiber graph."""

    def corrupted(table, mu, points=None):
        return corrupt(build_fiber_graph(table, mu, points))

    monkeypatch.setattr(verify, "build_fiber_graph", corrupted)


class TestNegativeControls:
    def test_true_graph_passes(self, fig_table):
        assert verify.check_unique_sink(fig_table, FIG_MU) == []

    def test_flipped_edge(self, monkeypatch, fig_table, fig_label):
        graph = build_fiber_graph(fig_table, FIG_MU)
        a, b = graph.edges[0]
        patch_graph(
            monkeypatch,
            lambda g: dataclasses.replace(g, edges=((b, a),) + g.edges[1:]),
        )
        violations = verify.check_unique_sink(fig_table, FIG_MU)
        assert f"{fig_label}: edge {b}->{a} does not decrease in the sink order" in violations

    def test_edges_removed(self, monkeypatch, fig_table, fig_label):
        patch_graph(monkeypatch, lambda g: dataclasses.replace(g, edges=()))
        violations = verify.check_unique_sink(fig_table, FIG_MU)
        assert f"{fig_label}: fiber graph is disconnected" in violations
        assert f"{fig_label}: 7 sinks instead of one" in violations

    def test_two_sinks(self, monkeypatch, fig_table, fig_label):
        graph = build_fiber_graph(fig_table, FIG_MU)
        source = graph.edges[0][0]
        patch_graph(
            monkeypatch,
            lambda g: dataclasses.replace(g, edges=tuple(e for e in g.edges if e[0] != source)),
        )
        violations = verify.check_unique_sink(fig_table, FIG_MU)
        assert f"{fig_label}: 2 sinks instead of one" in violations

    def test_sink_is_not_the_order_minimum(self, monkeypatch, fig_table, fig_label):
        # The same graph with its vertices listed in ascending sink order.
        def ascending(g):
            last = len(g.vertices) - 1
            return dataclasses.replace(
                g,
                vertices=g.vertices[::-1],
                edges=tuple(sorted((last - a, last - b) for a, b in g.edges)),
            )

        patch_graph(monkeypatch, ascending)
        violations = verify.check_unique_sink(fig_table, FIG_MU)
        assert violations == [f"{fig_label}: sink differs from the sink-order minimum"]

    def test_wrong_direct_sink(self, monkeypatch, fig_table, fig_label):
        source = build_fiber_graph(fig_table, FIG_MU).vertices[0]
        monkeypatch.setattr(verify, "find_sink_direct", lambda table, mu: source)
        violations = verify.check_unique_sink(fig_table, FIG_MU)
        assert violations == [f"{fig_label}: direct sink disagrees with the graph sink"]

    def test_sweep_reports_every_corrupted_fiber(self, monkeypatch):
        table = build_two_borel(mono("ac"), mono("b^2"))
        patch_graph(monkeypatch, lambda g: dataclasses.replace(g, edges=()))
        report = verify.sweep_unique_sinks(table, 2)
        assert report.status == "FAIL"
        assert any("fiber graph is disconnected" in v for v in report.violations)

    def test_cli_exits_one_on_a_violation(self, monkeypatch, capsys):
        patch_graph(monkeypatch, lambda g: dataclasses.replace(g, edges=()))
        code = cli.main(
            ["verify-unique-sinks", "--ideal", "{ac,b^2}", "--bound", "2", "--jobs", "1"]
        )
        assert code == cli.EXIT_VIOLATION
        assert '"status": "FAIL"' in capsys.readouterr().out


class TestJobsClamp:
    @pytest.fixture
    def serial_pool(self, monkeypatch):
        SerialPool.widths = []
        monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
        return SerialPool

    @pytest.fixture(scope="class")
    def table(self):
        return build_two_borel(mono("ac"), mono("b^2"))

    @pytest.fixture(scope="class")
    def serial(self, table):
        return verify.sweep_unique_sinks(table, 3)

    @pytest.mark.parametrize(
        "jobs, cpus, width",
        [(1000, 4, 4), (3, 64, 3), (1000, 64, "mus"), (2, None, None), (1, 8, None)],
    )
    def test_width(self, monkeypatch, serial_pool, table, serial, jobs, cpus, width):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        report = verify.sweep_unique_sinks(table, 3, jobs=jobs)
        assert report == serial
        if width == "mus":
            width = serial.multidegrees_checked
            assert width < 64
        assert serial_pool.widths == ([] if width is None else [width])
