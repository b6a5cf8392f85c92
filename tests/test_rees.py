import random
import re
from collections import defaultdict
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from borelfiber.borel import build_table, build_two_borel
from borelfiber.fiber import enumerate_fiber, fiber_sink_key, fibers
from borelfiber.monomials import VariableContext, unit
from borelfiber.rees import (
    ReesBasis,
    ReesBinomial,
    ReesMonomial,
    _codes,
    _configuration,
    _from_codes,
    _word_key,
    rees_basis_to_json,
    rees_buchberger_verify,
    rees_gb,
)
from borelfiber.instances import random_tables, suite_tables
from borelfiber.toric import normal_form, quadric_generators

from helpers import (
    family_table,
    linear_syzygies_by_diff,
    mono,
    monos,
    pairwise_rees_buchberger,
    rees_image,
    rees_key,
    rees_normal_form,
    rees_pairs_by_listing,
    rees_payload_by_points,
)

CTX2 = VariableContext.default(2)


@pytest.fixture(scope="module")
def square_table():
    return build_two_borel((0, 2), (0, 2), CTX2)


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


def linear_syzygies(table) -> list[ReesBinomial]:
    """The elements of ``rees_gb`` with a nonzero x-part, in order."""
    return [el for el in rees_gb(table).elements if any(el.lead.xpart)]


class TestLinearSyzygies:
    def test_three_generator_chain(self, square_table):
        syz = linear_syzygies(square_table)
        assert len(syz) == 2
        # b Y_{a^2} = a Y_{ab} and b Y_{ab} = a Y_{b^2}, led by the a-side
        assert syz[0].lead == ReesMonomial((1, 0), (1,))
        assert syz[0].trail == ReesMonomial((0, 1), (0,))
        assert syz[1].lead == ReesMonomial((1, 0), (2,))
        assert syz[1].trail == ReesMonomial((0, 1), (1,))

    def test_single_generator_has_none(self):
        table = build_two_borel((2, 0), (2, 0), CTX2)
        assert linear_syzygies(table) == []

    def test_matches_the_difference_oracle_in_order(self, fig_table):
        for table in [fig_table] + suite_tables(cap=200)[::5]:
            assert linear_syzygies(table) == linear_syzygies_by_diff(table)

    def test_defining_relation_holds(self, fig_table):
        for el in linear_syzygies(fig_table):
            assert rees_image(fig_table, el.lead) == rees_image(fig_table, el.trail)
            assert sum(el.lead.xpart) == sum(el.trail.xpart) == 1
            assert len(el.lead.ypart) == len(el.trail.ypart) == 1


class TestReesCompare:
    def test_x_part_decides_first(self):
        a_side = ReesMonomial((1, 0), (1,))
        b_side = ReesMonomial((0, 1), (0,))
        assert rees_key(a_side) > rees_key(b_side)
        assert rees_key(b_side) < rees_key(a_side)

    def test_equal(self):
        m = ReesMonomial((1, 0), (1,))
        assert rees_key(m) == rees_key(m)

    def test_pure_y_matches_fiber_sink_order(self, fig_table):
        for mu in [(2, 4, 4), (4, 8, 3)]:
            points = enumerate_fiber(fig_table, mu)
            for z1 in points:
                for z2 in points:
                    r1 = rees_key(ReesMonomial(unit(3), z1))
                    r2 = rees_key(ReesMonomial(unit(3), z2))
                    k1, k2 = fiber_sink_key(z1), fiber_sink_key(z2)
                    assert (r1 > r2) - (r1 < r2) == (k1 > k2) - (k1 < k2)

    def test_pure_x_is_lex(self):
        a = ReesMonomial((1, 0), ())
        b = ReesMonomial((0, 1), ())
        assert rees_key(a) > rees_key(b)


def sign(a, b) -> int:
    return (a > b) - (a < b)


def misranked(words, n: int) -> list[tuple]:
    """The pairs of ``words`` that ``_word_key`` and ``rees_key`` of their monomials rank apart."""
    keyed = [(w, _word_key(w, n), rees_key(_from_codes(w, n))) for w in words]
    return [
        (u, w)
        for (u, key_u, mono_u), (w, key_w, mono_w) in combinations(keyed, 2)
        if sign(key_u, key_w) != sign(mono_u, mono_w)
    ]


def code_words(size: int):
    """Ascending words of 0 to 4 codes in ``range(size)``."""
    return st.lists(st.integers(0, size - 1), max_size=4).map(lambda codes: tuple(sorted(codes)))


class TestWordKey:
    """``rees._word_key`` on code words is ``rees_key`` on the monomials they decode to."""

    def test_every_pair_of_words_of_every_tenth_suite_basis(self):
        pairs = 0
        for table in suite_tables(cap=200)[::10]:
            words = sorted({w for pair in rees_gb(table).pairs for w in pair})
            assert misranked(words, table.context.n) == [], table.roots
            pairs += len(words) * (len(words) - 1) // 2
        assert pairs == 203_191

    def test_random_words_mixing_x_and_y_codes(self, fig_table):
        rng = random.Random(20250809)
        n, size = 3, 3 + len(fig_table.generators)
        words = {tuple(sorted(rng.choices(range(size), k=rng.randint(0, 4)))) for _ in range(400)}
        assert any(w and w[0] < n <= w[-1] for w in words)
        assert misranked(sorted(words), n) == []

    @given(st.integers(1, 4), code_words(10), code_words(10))
    def test_any_two_words(self, n, u, w):
        # Codes below n are x codes, the rest Y codes.
        assert misranked([u, w], n) == []


class TestReesGb:
    def test_square_table_counts(self, square_table):
        basis = rees_gb(square_table)
        assert len(basis.elements) == 3  # two linear syzygies + one quadric

    def test_single_generator_linear_only(self):
        table = build_two_borel((1, 1), (1, 1), CTX2)
        basis = rees_gb(table)
        # Borel(ab) = {a^2, ab}: one linear syzygy, no quadrics
        assert len(basis.elements) == 1

    def test_joint_degree_at_most_two(self, fig_table):
        for el in rees_gb(fig_table).elements:
            assert sum(el.lead.xpart) + len(el.lead.ypart) == 2
            assert sum(el.trail.xpart) + len(el.trail.ypart) == 2

    def test_images_and_t_degrees_agree(self, fig_table):
        for el in rees_gb(fig_table).elements:
            assert rees_image(fig_table, el.lead) == rees_image(fig_table, el.trail)
            assert len(el.lead.ypart) == len(el.trail.ypart)

    def test_syzygies_then_the_quadrics_in_toric_order(self, fig_table):
        for table in [fig_table] + suite_tables(cap=200)[::5]:
            elements = rees_gb(table).elements
            syzygies = linear_syzygies(table)
            assert elements[: len(syzygies)] == tuple(syzygies)
            one = unit(table.context.n)
            assert elements[len(syzygies) :] == tuple(
                ReesBinomial(ReesMonomial(one, el.lead), ReesMonomial(one, el.trail))
                for el in quadric_generators(table).elements
            )

    def test_pairs_match_the_keyed_listing(self, square_table, fig_table):
        # An independent reference for the pairs and their order: the keyed
        # view names each fiber by its image and t-degree, and each kind of
        # fiber is paired by its own rule.
        tables = suite_tables(cap=200) + random_tables(50, seed=20250809)
        for table in [square_table, fig_table] + tables:
            syzygies, quadrics = [], []
            for key, words in fibers(_configuration(table).vectors, 2).items():
                if len(words) > 1:
                    if key[-1] == 1:
                        syzygies.extend(combinations(sorted(words), 2))
                    else:
                        assert key[-1] == 2
                        quadrics.extend(combinations(words, 2))
            syzygies.sort(key=lambda pair: sorted((pair[0][1], pair[1][1])))
            assert rees_gb(table).pairs == tuple(syzygies + quadrics), table.generators

    def test_pairs_match_the_rees_listing(self, square_table, fig_table):
        # rees_gb lists no Rees fiber: its syzygies come from unit moves and
        # its quadrics from the table's toric listing.  The reference lists
        # the Rees configuration, marks each pair by rank and sorts.
        tables = suite_tables(cap=200) + random_tables(50, seed=20250809)
        tables += [family_table(r) for r in range(3, 7)]
        for table in [square_table, fig_table] + tables:
            assert rees_gb(table).pairs == rees_pairs_by_listing(table), table.generators

    def test_configuration_fibers_group_by_image_and_t_degree(self, square_table, fig_table):
        # Grouping every code word by brute force; the t coordinate keeps
        # x_a x_b, x_a Y_b and Y_a Y_b apart in Borel(b), of degree one.
        tables = [square_table, fig_table, build_two_borel((0, 1), (0, 1), CTX2)]
        for table in tables + suite_tables(cap=200)[::40]:
            n = table.context.n
            groups = defaultdict(set)
            for k in (1, 2, 3):
                for word in combinations_with_replacement(range(n + len(table.generators)), k):
                    m = _from_codes(word, n)
                    groups[rees_image(table, m), len(m.ypart)].add(word)
            found = fibers(_configuration(table).vectors, 3)
            assert {(key[:n], key[n]): set(words) for key, words in found.items()} == groups


class TestReesVerify:
    def test_square_table_passes(self, square_table):
        report = rees_buchberger_verify(rees_gb(square_table))
        assert report.ok
        assert report.pairs_checked > 0

    def test_empty_basis_passes(self, square_table):
        assert rees_buchberger_verify(ReesBasis(square_table, ())).ok

    def test_fig_table_passes(self, fig_table):
        report = rees_buchberger_verify(rees_gb(fig_table))
        assert report.ok
        assert report.pairs_checked == 484

    def test_agrees_with_all_pairs_oracle(self, square_table, fig_table):
        for table in (square_table, fig_table):
            oracle = pairwise_rees_buchberger(rees_gb(table), all_pairs=True)
            assert oracle.ok
            assert rees_buchberger_verify(rees_gb(table)).ok == oracle.ok

    def test_inconsistent_marking_rejected(self, square_table):
        el = rees_gb(square_table).elements[0]
        bad = ReesBasis(square_table, (ReesBinomial(lead=el.trail, trail=el.lead),))
        with pytest.raises(ValueError):
            rees_buchberger_verify(bad)

    def test_lead_equal_to_trail_rejected(self, square_table):
        el = rees_gb(square_table).elements[0]
        bad = ReesBasis(square_table, (ReesBinomial(lead=el.lead, trail=el.lead),))
        with pytest.raises(ValueError, match="inconsistent marking"):
            rees_buchberger_verify(bad)

    @pytest.mark.parametrize(
        "lead, trail, what",
        [
            (ReesMonomial((1, 0), (2,)), ReesMonomial((0, 1), (0,)), "multidegree"),
            (ReesMonomial((0, 0), (0, 1)), ReesMonomial((0, 0), (2,)), "degree"),
        ],
        ids=["x_a*b^2-x_b*a^2", "joint-degree-2-vs-1"],
    )
    def test_binomial_outside_the_ideal_rejected(self, square_table, lead, trail, what):
        assert rees_key(lead) > rees_key(trail)
        assert rees_image(square_table, lead) != rees_image(square_table, trail)
        good = rees_gb(square_table).elements[0]
        bad = ReesBasis(square_table, (good, ReesBinomial(lead, trail)))
        with pytest.raises(ValueError, match=f"element 1 is not homogeneous.* differ in {what}$"):
            rees_buchberger_verify(bad)

    def test_t_degrees_that_differ_rejected(self):
        # Borel(b) in two variables, of degree one: x_a x_b and x_a Y_b share
        # the image ab but not the t-degree, so their difference is not in
        # the Rees ideal.
        table = build_two_borel((0, 1), (0, 1), CTX2)
        lead, trail = ReesMonomial((1, 1), ()), ReesMonomial((1, 0), (1,))
        assert rees_key(lead) > rees_key(trail)
        assert rees_image(table, lead) == rees_image(table, trail)
        bad = ReesBasis(table, (ReesBinomial(lead, trail),))
        with pytest.raises(ValueError, match="element 0 is not homogeneous.* differ in multidegree$"):
            rees_buchberger_verify(bad)

    @pytest.mark.parametrize(
        "trail, what",
        [
            (ReesMonomial((0, 0), (0, 7)), re.escape("must be in range(3): (0, 7)")),
            (ReesMonomial((0, 0, 0), (0, 0)), "x-part"),
        ],
        ids=["y-index-out-of-range", "three-exponent-x-part"],
    )
    def test_malformed_sides_rejected(self, square_table, trail, what):
        # Borel(b^2) has three generators: Y_7 names none, and a three-exponent
        # x-part does not fit two variables.  Both are refused before the
        # configuration is read.
        lead = ReesMonomial((0, 0), (0, 1))
        with pytest.raises(ValueError, match=what):
            rees_buchberger_verify(ReesBasis(square_table, (ReesBinomial(lead, trail),)))

    def test_shared_words_keep_both_marking_errors(self, square_table):
        # As on the toric side: each bad element shares a word with the valid
        # element before it, whose key and image are then taken from the memo.
        good = rees_gb(square_table).elements[0]  # a Y_{ab} - b Y_{a^2}
        late = ReesMonomial((0, 1), (2,))  # b Y_{b^2}
        assert rees_key(late) < rees_key(good.trail)
        assert rees_image(square_table, late) != rees_image(square_table, good.lead)
        outside = ReesBinomial(good.lead, late)
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"element 1 is not homogeneous: lead {good.lead} and trail {late} "
                "differ in multidegree"
            ),
        ):
            rees_buchberger_verify(ReesBasis(square_table, (good, outside)))
        backwards = ReesBinomial(late, good.trail)
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"inconsistent marking: lead {late} is not earlier than trail {good.trail}"
            ),
        ):
            rees_buchberger_verify(ReesBasis(square_table, (good, backwards)))

    def test_a_side_that_codes_to_a_checked_word_is_still_checked(self):
        # On Borel(b^2) in three variables, a Y_{ab} codes to (0, 4), and so
        # does the two-exponent x-part (1, 0) with Y_{b^2}: coding is not
        # injective on unchecked sides.  Either order refuses the bad side.
        table = build_table([(0, 2, 0)])
        good = rees_gb(table).elements[0]
        bad = ReesBinomial(ReesMonomial((1, 0), (2,)), good.trail)
        assert _codes(bad.lead) == _codes(good.lead) == (0, 4)
        for elements in [(good, bad), (bad, good)]:
            with pytest.raises(ValueError, match=re.escape("must have 3 exponents, got (1, 0)")):
                rees_buchberger_verify(ReesBasis(table, elements))

    def test_an_element_that_is_no_binomial_is_named(self, square_table):
        good = rees_gb(square_table).elements[0]
        message = "element 1 must be a ReesBinomial, got ('x', 'y')"
        with pytest.raises(ValueError, match=re.escape(message)):
            ReesBasis(square_table, [good, ("x", "y")])

    def test_a_side_that_is_no_monomial_is_named(self, square_table):
        good = rees_gb(square_table).elements[0]
        message = "the lead of element 0 must be a ReesMonomial, got (1, 0, 0)"
        with pytest.raises(ValueError, match=re.escape(message)):
            ReesBasis(square_table, [ReesBinomial((1, 0, 0), (0, 1, 0))])
        message = "the trail of element 1 must be a ReesMonomial, got (0, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            ReesBasis(square_table, [good, ReesBinomial(good.lead, (0, 1))])

    def test_negative_x_exponent_rejected(self):
        # Coded, (-1, 1, 0) would drop its -1 and read as b alone.
        table = build_table([(0, 2, 0)])
        lead, trail = ReesMonomial((1, 0, 0), (2,)), ReesMonomial((-1, 1, 0), (1,))
        with pytest.raises(ValueError, match=re.escape("non-negative, got (-1, 1, 0)")):
            rees_buchberger_verify(ReesBasis(table, (ReesBinomial(lead, trail),)))


class TestReesReduction:
    def test_common_x_part_reduces_like_the_toric_side(self, fig_table):
        basis = rees_gb(fig_table)
        quadrics = quadric_generators(fig_table)
        xpart = (1, 0, 2)
        for mu in [(2, 4, 4), (3, 9, 3)]:
            points = enumerate_fiber(fig_table, mu)
            toric_forms = {normal_form(z, quadrics) for z in points}
            assert len(toric_forms) == 1
            rees_forms = {
                rees_normal_form(ReesMonomial(xpart, z), basis) for z in points
            }
            assert len(rees_forms) == 1

    def test_normal_form_preserves_image(self, fig_table):
        basis = rees_gb(fig_table)
        m = ReesMonomial((2, 1, 0), (0, 0, 8))
        nf = rees_normal_form(m, basis)
        assert rees_image(fig_table, nf) == rees_image(fig_table, m)
        assert len(nf.ypart) == len(m.ypart)

    @pytest.mark.parametrize(
        "m, what",
        [
            (ReesMonomial((1, 0), (0,)), "x-part"),
            (ReesMonomial((1, 0, 0, 0), (0,)), "x-part"),
            (ReesMonomial((0, 0, 1), (8, 2)), "ascending"),
            (ReesMonomial((0, 0, 1), (2, 14)), "in range"),
            (ReesMonomial((0, 0, 1), (-1,)), "in range"),
        ],
    )
    def test_malformed_monomials_rejected(self, fig_table, m, what):
        # A two-exponent x-part would be coded as if it named b and c.
        with pytest.raises(ValueError, match=what):
            rees_normal_form(m, rees_gb(fig_table))

    def test_negative_x_exponent_rejected(self):
        table = build_table([(0, 2, 0)])
        with pytest.raises(ValueError, match=re.escape("non-negative, got (-1, 2, 0)")):
            rees_normal_form(ReesMonomial((-1, 2, 0), (0,)), rees_gb(table))

    @pytest.mark.parametrize(
        "reduce, what",
        [
            (lambda t: normal_form([0, 1], quadric_generators(t)), "a point"),
            (lambda t: normal_form((0.0, 1), quadric_generators(t)), "a point"),
            (lambda t: rees_normal_form(ReesMonomial((1.0, 0, 0), (0,)), rees_gb(t)), "the x-part"),
            (lambda t: rees_normal_form(ReesMonomial((1, 0, 0), [0]), rees_gb(t)), "the Y-part"),
        ],
        ids=["list-point", "float-point", "float-x-exponent", "list-y-part"],
    )
    def test_non_int_tuples_rejected(self, fig_table, reduce, what):
        # Before this check a list point raised TypeError, a float point came
        # back unreduced, and a float x exponent failed in the coding.
        with pytest.raises(ValueError, match=f"{what} must be a tuple of ints"):
            reduce(fig_table)


def split_fibers(table, max_deg: int) -> tuple[list, int]:
    """The keys of the Rees fibers up to ``max_deg`` with two ``rees_gb`` normal forms.

    Also returns the number of words walked.  A key is the image followed by
    the t-degree.
    """
    rules = rees_gb(table)._rules
    split, words_seen = [], 0
    for key, words in fibers(_configuration(table).vectors, max_deg).items():
        words_seen += len(words)
        if len({rules.normal_form(w) for w in words}) > 1:
            split.append(key)
    return split, words_seen


class TestLiftGeneratesTheReesIdeal:
    """Every Rees fiber has one normal form, so the lift generates the Rees ideal.

    The Rees ideal is spanned by the differences of words of one fiber, so
    the lift generates it through the joint degree at which no fiber splits.
    The overlap check only shows that the lift is a Groebner basis of the
    ideal it generates; this is the other half.
    """

    def test_suite_at_joint_degree_3(self):
        words = 0
        for table in suite_tables(cap=200):
            split, seen = split_fibers(table, 3)
            assert split == [], table.roots
            words += seen
        assert words == 239_575

    def test_every_tenth_suite_table_at_joint_degree_4(self):
        words = 0
        for table in suite_tables(cap=200)[::10]:
            split, seen = split_fibers(table, 4)
            assert split == [], table.roots
            words += seen
        assert words == 148_814

    @pytest.mark.parametrize(
        "roots, split",
        [
            (("a^3c^3", "b^6", "a^2b^2c^2"), [("a^6b^6c^6", 3)]),
            (("a^4c^8", "b^12", "a^3b^3c^6"), [("a^9b^11c^16", 3), ("a^9b^12c^15", 3)]),
        ],
        ids=["r=3", "r=4"],
    )
    def test_three_borel_families_split(self, roots, split):
        # The negative controls: the three-Borel families need a minimal
        # generator of t-degree r, which no quadric of the lift reaches.
        table = build_table(monos(*roots))
        assert split_fibers(table, 3)[0] == [mono(m) + (t,) for m, t in split]


class TestReesJson:
    def test_shape(self, square_table):
        data = rees_basis_to_json(rees_gb(square_table))
        assert data["count"] == 3
        assert data["elements"][0] == {
            "x_lead": "a",
            "y_lead": ["ab"],
            "x_trail": "b",
            "y_trail": ["a^2"],
        }

    def test_a_user_built_basis_with_x_parts_of_degree_two(self, square_table):
        # The payload reads the word pairs, not the decoded elements; x-parts
        # of degree two, repeated, and the unit x-part format as the reference.
        elements = [
            ReesBinomial(ReesMonomial((2, 0), (0,)), ReesMonomial((1, 1), (1,))),
            ReesBinomial(ReesMonomial((1, 1), ()), ReesMonomial((0, 0), (0, 2))),
            ReesBinomial(ReesMonomial((2, 0), (2,)), ReesMonomial((0, 2), (0,))),
        ]
        basis = ReesBasis(square_table, elements)
        data = rees_basis_to_json(basis)
        assert "elements" not in vars(basis)  # no word was decoded
        assert data == rees_payload_by_points(basis)
        assert [(el["x_lead"], el["x_trail"]) for el in data["elements"]] == [
            ("a^2", "ab"),
            ("ab", "1"),
            ("a^2", "b^2"),
        ]
        assert data["count"] == 3
