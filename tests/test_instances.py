import pytest

from borelfiber.instances import (
    borel_incomparable_pairs,
    random_tables,
    suite_tables,
    sweep_multidegrees,
)
from borelfiber.borel import build_two_borel, expand_principal
from borelfiber.fiber import enumerate_fiber
from borelfiber.monomials import degree, sigma
from borelfiber.verify import check_unique_sink, sweep_unique_sinks

from helpers import all_monomials, mono, monos


class TestIncomparablePairs:
    def test_smallest_case(self):
        assert borel_incomparable_pairs(3, 2) == ((mono("ac"), mono("b^2")),)

    def test_pairs_are_incomparable_and_ordered(self):
        for n, d in [(3, 4), (4, 3)]:
            for M, N in borel_incomparable_pairs(n, d):
                assert M > N  # M lex-earlier
                sm, sn = sigma(M), sigma(N)
                assert not all(a <= b for a, b in zip(sm, sn))
                assert not all(a >= b for a, b in zip(sm, sn))

    def test_degree_one_has_none(self):
        assert borel_incomparable_pairs(3, 1) == ()

    def test_pair_counts(self):
        counts = {
            (3, 2): 1, (3, 3): 5, (3, 4): 15, (3, 5): 35,
            (4, 2): 5, (4, 3): 35, (4, 4): 140, (4, 5): 420,
        }
        assert {nd: len(borel_incomparable_pairs(*nd)) for nd in counts} == counts

    @pytest.mark.parametrize("n, d", [(1, 3), (2, 1), (2, 4), (3, 1), (3, 5), (4, 3), (5, 2)])
    def test_last_variable_power_generates_every_monomial(self, n, d):
        # the pairs range over Borel(x_n^d), which must be every degree-d monomial
        assert expand_principal((0,) * (n - 1) + (d,)) == all_monomials(n, d)


class TestSuite:
    def test_cap(self):
        suite = suite_tables(cap=200)
        assert len(suite) == 200
        assert all(len(t.roots) == 2 for t in suite)

    def test_small_cap_prefix(self):
        assert suite_tables(cap=3) == suite_tables(cap=200)[:3]

    def test_full_suite_size(self):
        assert len(suite_tables(10**6)) == 656

    def test_random_roots_are_pinned(self):
        # the benchmark keys its reference answers by these roots
        roots = [table.roots for table in random_tables(30, 20250809)[:8]]
        ac_b2 = tuple(monos("ac", "b^2"))
        assert roots == [
            ac_b2,
            ((0, 1, 0, 1), (0, 0, 2, 0)),
            ac_b2,
            ac_b2,
            ac_b2,
            ac_b2,
            tuple(monos("ac^2", "b^2c")),
            ((2, 0, 1, 2), (1, 2, 0, 2)),
        ]

    def test_random_tables_deterministic(self):
        a = random_tables(10, seed=7)
        b = random_tables(10, seed=7)
        assert a == b
        assert random_tables(10, seed=8) != a


class TestSweepMultidegrees:
    def test_products_cover_nonempty_fibers(self):
        table = build_two_borel(mono("ac"), mono("b^2"))
        mus = sweep_multidegrees(table, 3)
        assert mus == sorted(set(mus), key=lambda m: (degree(m), m))
        for mu in mus:
            assert enumerate_fiber(table, mu)

    def test_degrees_bounded(self):
        table = build_two_borel(mono("ac"), mono("b^2"))
        assert all(degree(mu) <= 3 * table.degree for mu in sweep_multidegrees(table, 3))


class TestSweepUniqueSinks:
    def test_running_example_passes(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        report = sweep_unique_sinks(table, 2)
        assert report.ok
        assert report.multidegrees_checked > 0
        assert report.to_json()["status"] == "PASS"

    def test_check_flags_nothing_on_good_fibers(self):
        table = build_two_borel(mono("ac"), mono("b^2"))
        for mu in sweep_multidegrees(table, 3):
            assert check_unique_sink(table, mu) == []

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_only_one_job(self, jobs):
        table = build_two_borel(mono("ac"), mono("b^2"))
        with pytest.raises(ValueError, match="no longer run in a process pool"):
            sweep_unique_sinks(table, 3, jobs=jobs)
        assert sweep_unique_sinks(table, 3, jobs=1) == sweep_unique_sinks(table, 3)

    def test_a_bound_below_one_is_refused(self):
        table = build_two_borel(mono("ac"), mono("b^2"))
        with pytest.raises(ValueError, match="at least 1"):
            sweep_unique_sinks(table, 0)
