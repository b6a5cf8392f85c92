from math import comb

import pytest

from borelfiber import borel
from borelfiber.borel import (
    build_table,
    build_two_borel,
    count_principal,
    expand_principal,
)
from borelfiber.monomials import multiply

from helpers import (
    all_monomials,
    borel_move,
    divides,
    is_borel_below,
    lex_last_divisor,
    minimal_borel_generators,
    mono,
    monos,
    principal_gens_by_reachability,
    reduce_for_fiber,
    reverse_borel_move,
)

FIG_GM = monos(
    "a^5", "a^4b", "a^4c", "a^3b^2", "a^3bc", "a^3c^2",
    "a^2b^3", "a^2b^2c", "a^2bc^2", "a^2c^3",
)
FIG_GN = monos("b^4c", "b^5", "ab^3c", "ab^4")


def greedy_lex_last_divisor(root, mu):
    """Witness construction: push a divisor lex-later by reverse moves until stuck."""
    current = next((g for g in expand_principal(root) if divides(g, mu)), None)
    if current is None:
        return None
    gens = set(expand_principal(root))
    changed = True
    while changed:
        changed = False
        for j in range(len(current)):
            if current[j] == 0:
                continue
            for k in range(j + 1, len(current)):
                cand = reverse_borel_move(current, j, k)
                if cand in gens and divides(cand, mu):
                    current = cand
                    changed = True
                    break
            if changed:
                break
    return current


class TestExpandPrincipal:
    def test_figure_generators(self):
        assert expand_principal(mono("a^2c^3")) == FIG_GM

    def test_pure_power(self):
        assert expand_principal((5, 0, 0)) == [(5, 0, 0)]

    def test_b4c_matches_brute_force(self):
        got = expand_principal(mono("b^4c"))
        assert len(got) == 11
        assert set(got) == {m for m in all_monomials(3, 5) if m[2] <= 1}
        assert set(got) == principal_gens_by_reachability(mono("b^4c"))

    @pytest.mark.parametrize("root", monos("a^2c^3", "b^4c", "a^3bc") + [(0, 0, 5)])
    def test_matches_reachability_oracle(self, root):
        assert set(expand_principal(root)) == principal_gens_by_reachability(root)

    @pytest.mark.parametrize("root", monos("a^2c^3", "b^4c", "bc^2"))
    def test_closed_under_borel_moves(self, root):
        gens = set(expand_principal(root))
        for m in gens:
            for j in range(3):
                if m[j] == 0:
                    continue
                for i in range(j):
                    assert borel_move(m, j, i) in gens

    def test_rejects_unit(self):
        with pytest.raises(ValueError):
            expand_principal((0, 0, 0))

    @pytest.mark.parametrize("n, d", [(1, 4), (2, 5), (3, 4), (4, 3), (5, 2)])
    def test_count_matches_the_listing(self, n, d):
        for root in all_monomials(n, d):
            assert count_principal(root) == len(expand_principal(root))

    def test_count_of_every_degree_40_monomial_in_8_variables(self):
        assert count_principal((0,) * 7 + (40,)) == comb(47, 7) == 62_891_499

    def test_block_over_the_cap_is_refused_before_listing(self, monkeypatch):
        root = mono("b^4c")  # 11 generators
        monkeypatch.setattr(borel, "MAX_BLOCK_GENERATORS", 10)
        with pytest.raises(ValueError, match="11 minimal generators, more than the cap of 10"):
            expand_principal(root)
        monkeypatch.setattr(borel, "MAX_BLOCK_GENERATORS", 11)
        assert len(expand_principal(root)) == 11

    def test_a_huge_degree_is_refused_before_any_count(self, monkeypatch):
        # Each first suffix sum s_1 <= sigma_1 starts a generator, so a root
        # with sigma_1 at the cap is refused before count_principal runs.
        def uncounted(root):
            raise AssertionError("counted")

        monkeypatch.setattr(borel, "count_principal", uncounted)
        for root in [(0, 0, 100_000_000_000), (1, 10**12)]:
            with pytest.raises(ValueError, match="more than the cap of 1,000,000$"):
                expand_principal(root)
        monkeypatch.setattr(borel, "MAX_BLOCK_GENERATORS", 5)
        with pytest.raises(ValueError, match="^Borel\\(0, 0, 5\\) has at least 6 minimal generators,"):
            expand_principal((0, 0, 5))


class TestBuildTwoBorel:
    def test_figure_table(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        assert len(table.generators) == 14
        assert table.tags.count("G_M") == 10
        assert table.tags.count("G_N") == 4
        assert table.generators[0] == mono("b^4c")
        assert table.generators[13] == mono("a^2c^3")
        assert list(table.generators) == FIG_GN + FIG_GM
        assert set(table.generators[:4]) == set(FIG_GN)

    def test_swaps_to_put_lex_earlier_first(self):
        t1 = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        t2 = build_two_borel(mono("b^4c"), mono("a^2c^3"))
        assert t1 == t2
        assert t1.roots == (mono("a^2c^3"), mono("b^4c"))

    def test_degenerate_equal_roots(self):
        table = build_two_borel(mono("b^4c"), mono("b^4c"))
        assert table.roots == (mono("b^4c"),)
        assert table.tags == ("G_M",) * 11

    def test_degenerate_comparable_roots_follow_the_definition(self):
        # ab lies in Borel(b^2): the ideal is principal but the pair still
        # partitions it, with b^2 alone outside Borel(ab)
        table = build_two_borel((1, 1), (0, 2))
        assert table.roots[0] == (1, 1)
        assert table.generators == ((0, 2), (2, 0), (1, 1))
        assert table.tags == ("G_N", "G_M", "G_M")

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            build_two_borel(mono("a^2"), mono("b^4c"))

    def test_inclusion_exclusion(self):
        cases = [
            ("a^2c^3", "b^4c"),
            ("a^3bc", "b^5"),
            ("ac", "b^2"),
            ("a^2b^2", "ab^2c"),
        ]
        for m_text, n_text in cases:
            M, N = mono(m_text), mono(n_text)
            table = build_two_borel(M, N)
            gm = set(expand_principal(M))
            gn = set(expand_principal(N))
            assert len(table.generators) == len(gm) + len(gn) - len(gm & gn)
            assert set(table.generators) == gm | gn

    def test_gm_closed_under_borel_moves_gn_not(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        gm = {g for g, t in zip(table.generators, table.tags) if t == "G_M"}
        gn = {g for g, t in zip(table.generators, table.tags) if t == "G_N"}
        for m in gm:
            for j in range(3):
                if m[j] == 0:
                    continue
                for i in range(j):
                    assert borel_move(m, j, i) in gm
        escapes = [
            borel_move(m, j, i)
            for m in gn
            for j in range(3)
            if m[j] > 0
            for i in range(j)
            if borel_move(m, j, i) not in gn
        ]
        assert escapes, "some Borel move must exit G_N"

    def test_three_borel_extension_order(self):
        roots = monos("a^3c^3", "b^6", "a^2b^2c^2")
        table = build_table(roots)
        assert table.roots[0] == mono("a^3c^3")
        # lex-latest root's block first, M block last
        assert table.generators[-1] == mono("a^3c^3")
        assert set(table.roots) == set(roots)
        gm = set(expand_principal(mono("a^3c^3")))
        for g, t in zip(table.generators, table.tags):
            assert (t == "G_M") == (g in gm)

    def test_rejects_too_many_roots(self):
        with pytest.raises(ValueError):
            build_table(monos("a^2", "ab", "b^2") + [(0, 1, 1)])


class TestMinimalBorelGenerators:
    def test_two_borel_roots_recovered(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        assert set(minimal_borel_generators(table.generators)) == {
            mono("a^2c^3"),
            mono("b^4c"),
        }

    def test_singleton(self):
        assert minimal_borel_generators([(4, 0, 0)]) == [(4, 0, 0)]

    def test_three_incomparable_roots(self):
        roots = monos("a^3c^3", "b^6", "a^2b^2c^2")
        table = build_table(roots)
        assert set(minimal_borel_generators(table.generators)) == set(roots)


class TestLexLastDivisor:
    def test_both_roots_divide_fig_multidegree(self):
        assert lex_last_divisor(mono("a^2c^3"), mono("a^3b^9c^3")) == mono("a^2c^3")
        assert lex_last_divisor(mono("b^4c"), mono("a^3b^9c^3")) == mono("b^4c")

    def test_divisor_filter_example(self):
        # survivors of Borel(a^2c^3) dividing a^4b^11: a^4b, a^3b^2, a^2b^3
        assert lex_last_divisor(mono("a^2c^3"), (4, 11, 0)) == mono("a^2b^3")

    def test_absent(self):
        assert lex_last_divisor(mono("a^2c^3"), mono("b^9c^3")) is None

    def test_root_divides_its_own_multiples(self):
        M = mono("a^2c^3")
        mu = multiply(M, mono("b^4c"))
        result = lex_last_divisor(M, mu)
        assert result is not None
        for g in expand_principal(M):
            if divides(g, mu):
                assert is_borel_below(g, result)

    @pytest.mark.parametrize("root", monos("a^2c^3", "b^4c", "a^3bc"))
    def test_greedy_witness_agrees(self, root):
        # the reverse-move construction reaches the same lex-last divisor
        others = monos("b^4c", "ab^4", "a^2bc^2", "b^5")
        for extra in others:
            mu = multiply(root, extra)
            assert greedy_lex_last_divisor(root, mu) == lex_last_divisor(root, mu)
        for mu in [(4, 11, 0), (1, 9, 0), (0, 5, 5), (10, 0, 0)]:
            assert greedy_lex_last_divisor(root, mu) == lex_last_divisor(root, mu)


class TestReduceForFiber:
    def test_no_change_when_roots_divide(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        reduced = reduce_for_fiber(table, mono("a^3b^9c^3"))
        assert reduced == table

    def test_product_of_roots_unchanged(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        mu = multiply(*table.roots)
        assert reduce_for_fiber(table, mu) == table

    def test_m_absent_gives_principal_table_of_reduced_n(self):
        # every G_M generator has a-exponent >= 2, so only the N root survives;
        # its divisors of ab^9 are b^5 and ab^4, and b^5 is the lex-latest
        # (it is also the only one the other stays Borel-below)
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        reduced = reduce_for_fiber(table, (1, 9, 0))
        assert reduced.roots == (mono("b^5"),)
        assert all(t == "G_M" for t in reduced.tags)
        assert is_borel_below(mono("ab^4"), mono("b^5"))
        assert not is_borel_below(mono("b^5"), mono("ab^4"))

    def test_both_absent_gives_empty_table(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        reduced = reduce_for_fiber(table, (0, 0, 7))
        assert reduced.is_empty
        assert reduced.degree == table.degree

    def test_idempotent(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        for mu in [(3, 9, 3), (1, 9, 0), (4, 11, 0), (2, 8, 5), (0, 0, 7)]:
            once = reduce_for_fiber(table, mu)
            assert reduce_for_fiber(once, mu) == once

    def test_roles_preserved_without_lex_resort(self):
        # reduced roots may invert the lex order of the originals; the M role
        # must survive as the first root regardless
        table = build_two_borel(mono("ac"), mono("b^2"))
        reduced = reduce_for_fiber(table, (2, 1, 1))
        assert reduced.roots[0] == lex_last_divisor(mono("ac"), (2, 1, 1))


class TestTableJson:
    def test_shape(self):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        data = table.to_json()
        assert data["variables"] == ["a", "b", "c"]
        assert data["degree"] == 5
        assert data["borel_generators"] == ["a^2c^3", "b^4c"]
        assert data["generators"][0] == {"monomial": "b^4c", "tag": "G_N"}
        assert data["generators"][13] == {"monomial": "a^2c^3", "tag": "G_M"}
