import itertools

import pytest

from borelfiber.monomials import (
    VariableContext,
    degree,
    format_monomial,
    from_sigma,
    multiply,
    parse_monomial,
    sigma,
    unit,
)

from helpers import (
    ABC,
    all_monomials,
    borel_move,
    borel_reachable,
    divides,
    find_reverse_move,
    is_borel_below,
    mono,
    monos,
    reverse_borel_move,
)


class TestAlgebra:
    def test_product(self):
        assert multiply(mono("a^2c^3"), mono("b^4c")) == mono("a^2b^4c^4")
        assert degree(multiply(mono("a^2c^3"), mono("b^4c"))) == 10

    def test_unit_divides_everything(self):
        for text in ("1", "a", "b^4c", "a^2c^3"):
            m = mono(text)
            assert divides(unit(3), m)

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            multiply((1, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            divides((1, 0), (1, 0, 0))


class TestSigma:
    def test_five_variable_example(self):
        ctx5 = VariableContext.default(5)
        m = parse_monomial("a^2cd^2e", ctx5)
        assert sigma(m) == (6, 4, 4, 3, 1)

    def test_pure_power_of_first_variable(self):
        assert sigma((4, 0, 0)) == (4, 0, 0)

    def test_b4c(self):
        assert sigma(mono("b^4c")) == (5, 5, 1)

    @pytest.mark.parametrize("m", list(all_monomials(4, 5)))
    def test_weakly_decreasing_and_degree(self, m):
        s = sigma(m)
        assert s[0] == degree(m)
        assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))
        # consecutive entries differ exactly when the variable divides m
        for i in range(len(m) - 1):
            assert (s[i] != s[i + 1]) == (m[i] > 0)

    def test_from_sigma_inverts_sigma(self):
        assert from_sigma((6, 4, 4, 3, 1)) == (2, 0, 1, 2, 1)
        assert from_sigma(()) == ()
        for d in range(4):
            for m in all_monomials(4, d):
                assert from_sigma(sigma(m)) == m


class TestMoves:
    def test_borel_move_examples(self):
        assert borel_move(mono("b^4c"), 2, 0) == mono("ab^4")
        assert borel_move(mono("a^2bc^2"), 2, 1) == mono("a^2b^2c")

    def test_reverse_borel_move_examples(self):
        assert reverse_borel_move(mono("a^2c^3"), 0, 1) == mono("abc^3")
        assert reverse_borel_move(mono("a^3bc"), 1, 2) == mono("a^3c^2")

    def test_moves_are_inverse_pairs(self):
        for m in all_monomials(3, 4):
            for j in range(3):
                if m[j] == 0:
                    continue
                for k in range(j + 1, 3):
                    assert borel_move(reverse_borel_move(m, j, k), k, j) == m
                for i in range(j):
                    assert reverse_borel_move(borel_move(m, j, i), i, j) == m

    def test_sigma_formula_for_reverse_move(self):
        # moving one exponent from position j to k > j bumps sigma by one
        # strictly between them and leaves the rest alone
        for m in all_monomials(4, 5):
            s = sigma(m)
            for j in range(4):
                if m[j] == 0:
                    continue
                for k in range(j + 1, 4):
                    s2 = sigma(reverse_borel_move(m, j, k))
                    expected = tuple(
                        s[idx] + 1 if j < idx <= k else s[idx] for idx in range(4)
                    )
                    assert s2 == expected

    def test_degree_preserved(self):
        m = mono("a^2bc^2")
        assert degree(borel_move(m, 2, 0)) == degree(m)
        assert degree(reverse_borel_move(m, 0, 2)) == degree(m)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            borel_move(mono("a^2"), 0, 0)
        with pytest.raises(ValueError):
            borel_move(mono("a^2"), 1, 0)  # b does not divide a^2
        with pytest.raises(ValueError):
            reverse_borel_move(mono("b^2"), 1, 1)
        with pytest.raises(ValueError):
            reverse_borel_move(mono("b^2"), 2, 1)


class TestBorelOrder:
    def test_figure_examples(self):
        assert is_borel_below(mono("a^3bc"), mono("a^2c^3"))
        assert not is_borel_below(mono("b^4c"), mono("a^2c^3"))

    def test_reflexive(self):
        for m in all_monomials(3, 5):
            assert is_borel_below(m, m)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_borel_below(mono("a"), mono("a^2"))

    @pytest.mark.parametrize("n,d", [(2, 6), (3, 5), (4, 4)])
    def test_matches_bfs_reachability(self, n, d):
        monomials = list(all_monomials(n, d))
        for mp in monomials:
            reachable = borel_reachable(mp)
            for m in monomials:
                assert is_borel_below(m, mp) == (m in reachable)


class TestFindReverseMove:
    def test_examples(self):
        m, mp = mono("a^2b^3"), mono("a^2c^3")
        i = find_reverse_move(m, mp, 2)
        assert i == 1
        assert reverse_borel_move(m, i, 2) == mono("a^2b^2c")

        m = mono("a^5")
        i = find_reverse_move(m, mp, 1)
        assert i == 0
        assert reverse_borel_move(m, i, 1) == mono("a^4b")

    def test_result_always_stays_borel_below(self):
        # exhaustive over a small grid: the returned move never leaves the
        # principal Borel set
        for mp in all_monomials(3, 4):
            for m in all_monomials(3, 4):
                if not is_borel_below(m, mp):
                    continue
                s, sp = sigma(m), sigma(mp)
                for j in range(3):
                    if s[j] == sp[j]:
                        continue
                    i = find_reverse_move(m, mp, j)
                    assert i < j
                    assert is_borel_below(reverse_borel_move(m, i, j), mp)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            find_reverse_move(mono("b^2"), mono("a^2"), 1)  # not Borel-below
        with pytest.raises(ValueError):
            find_reverse_move(mono("a^2"), mono("a^2"), 1)  # sigma agrees


class TestLexOrder:
    def test_examples(self):
        # monomials compare as exponent tuples, the lex-earlier one greater
        assert mono("ab^4") > mono("b^5")
        assert mono("b^5") < mono("ab^4")
        assert max(monos("b^5", "ab^4", "b^4c")) == mono("ab^4")

    def test_tuple_comparison_is_lex(self):
        # first differing exponent decides; bigger exponent there wins
        ms = list(all_monomials(3, 3))
        for m1, m2 in itertools.combinations(ms, 2):
            first_diff = next(i for i in range(3) if m1[i] != m2[i])
            assert (m1 > m2) == (m1[first_diff] > m2[first_diff])


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a^2c^3", (2, 0, 3)),
            ("b^4c", (0, 4, 1)),
            ("1", (0, 0, 0)),
            ("[2,0,3]", (2, 0, 3)),
            ("[0, 4, 1]", (0, 4, 1)),
            ("a*b^2*c", (1, 2, 1)),
            ("a a", (2, 0, 0)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_monomial(text, ABC) == expected

    def test_roundtrip(self):
        for m in all_monomials(3, 5):
            assert parse_monomial(format_monomial(m, ABC), ABC) == m

    def test_format(self):
        assert format_monomial((2, 0, 3), ABC) == "a^2c^3"
        assert format_monomial((0, 0, 0), ABC) == "1"
        assert format_monomial((1, 1, 0), ABC) == "ab"

    @pytest.mark.parametrize("bad", ["", "x^2", "a^", "[1,2]", "[1,2,3,4]", "[1,-2,3]", "2a"])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_monomial(bad, ABC)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            VariableContext(())
        with pytest.raises(ValueError):
            VariableContext(("a", "a"))
        assert VariableContext.default(5).names == ("a", "b", "c", "d", "e")

    @pytest.mark.parametrize(
        "names,longer,shorter",
        [(("y", "yy"), "yy", "y"), (("a", "b", "ab"), "ab", "a"), (("x1", "x1_"), "x1_", "x1")],
    )
    def test_ambiguous_alphabets_rejected(self, names, longer, shorter):
        # ("y", "yy") would format (1, 2) as yyy^2 and read it back as (2, 1).
        with pytest.raises(ValueError, match=f"'{longer}' reads as '{shorter}'"):
            VariableContext(names)

    @pytest.mark.parametrize("name", ["", "1a", "a b", "a^", "x-1", "\u00e9"])
    def test_non_identifier_names_rejected(self, name):
        with pytest.raises(ValueError, match="does not match"):
            VariableContext(("a", name))

    def test_digit_suffixes_allowed(self):
        assert VariableContext(("x1", "x10")).n == 2
        assert VariableContext(("x1", "x2", "x12")).n == 3
        assert VariableContext(("A", "a", "_a")).n == 3

    def test_multi_letter_names(self):
        ctx = VariableContext(("x1", "x2", "x12"))
        assert parse_monomial("x1^2x12", ctx) == (2, 0, 1)
        assert format_monomial((2, 0, 1), ctx) == "x1^2x12"
