"""The basis check by columns: one integer rank per two-code word.

Every basis the package builds holds words of two codes, and
``toric._checked_rules`` checks those by columns: each word's marking key
is one integer, ``fiber.fiber_sink_ranks`` on the toric side and
``rees._word_ranks`` on the Rees side, the smaller rank the larger key.
``TestRanksMirrorTheKeys`` holds each rank to its key on every pair of
two-code words of every 10th suite table, and on random ones.
``TestNegativeControls`` spoils the last element of a real basis and holds
each to the exact ``ValueError`` of the ordered walk, and
``TestNoKeyCalls`` holds a clean basis, and a clean sweep, to no key call
at all.  ``TestSweepRows`` holds the sweep's lead masks, which take the
place of the table's paired-move rows, at both ends: a spurious lead bit
changes only the count, and dropped lead bits at the first and last codes
are each marked where they sit.  ``TestLeadSizes`` holds the one-pass lead index of
``_Rules`` to one built a rule at a time, over the whole suite.
"""

from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelfiber import fiber, rees, toric, verify
from borelfiber.borel import build_two_borel
from borelfiber.fiber import fiber_sink_key, fiber_sink_ranks
from borelfiber.instances import suite_tables
from borelfiber.rees import ReesBasis, _word_key, _word_ranks, rees_buchberger_verify, rees_gb
from borelfiber.toric import (
    MarkedBasis,
    _Rules,
    buchberger_verify,
    quadric_generators,
)

from helpers import later_pairs, mono, sweep_lines_by_direct_sink, with_lead_bits


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


def disagreements(words, keys, ranks) -> tuple[int, list]:
    """The number of pairs of ``words``, and those whose ranks do not order them as the keys.

    A rank orders a pair as the keys do when the larger key has the smaller rank.
    """
    ranked = list(zip(words, keys, ranks))
    bad = [
        (u, v)
        for (u, ku, ru), (v, kv, rv) in combinations(ranked, 2)
        if (ku > kv) != (ru < rv) or (ku < kv) != (ru > rv)
    ]
    return len(ranked) * (len(ranked) - 1) // 2, bad


class TestRanksMirrorTheKeys:
    def test_toric_ranks_on_every_tenth_suite_table(self):
        pairs = 0
        for table in suite_tables()[::10]:
            size = len(table.generators)
            words = list(combinations_with_replacement(range(size), 2))
            count, bad = disagreements(
                words, map(fiber_sink_key, words), fiber_sink_ranks(words, size)
            )
            assert bad == [], table.roots
            pairs += count
        assert pairs == 138_552

    def test_rees_ranks_on_every_tenth_suite_table(self):
        # Every pair, so words with different x counts are compared too.
        pairs = 0
        for table in suite_tables()[::10]:
            n = table.context.n
            size = n + len(table.generators)
            words = list(combinations_with_replacement(range(size), 2))
            keys = (_word_key(w, n) for w in words)
            count, bad = disagreements(words, keys, _word_ranks(words, size, n))
            assert bad == [], table.roots
            pairs += count
        assert pairs == 308_634

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_ranks_on_random_words(self, data):
        size = data.draw(st.integers(min_value=1, max_value=60))
        n = data.draw(st.integers(min_value=0, max_value=size))
        word = st.lists(st.integers(min_value=0, max_value=size - 1), min_size=2, max_size=2)
        u, v = (tuple(sorted(data.draw(word))) for _ in range(2))
        (ru, rv), (su, sv) = _word_ranks([u, v], size, n), fiber_sink_ranks([u, v], size)
        assert (_word_key(u, n) > _word_key(v, n)) == (ru < rv)
        assert (fiber_sink_key(u) > fiber_sink_key(v)) == (su < sv)
        assert (ru == rv) == (su == sv) == (u == v)


# Each spoils a (lead, trail) word pair of a basis over ``size`` codes.
SPOILERS = {
    "reversed": lambda lead, trail, size: (trail, lead),
    "lead-is-trail": lambda lead, trail, size: (lead, lead),
    "other-fiber": lambda lead, trail, size: (lead, (size - 1, size - 1)),
    "descending": lambda lead, trail, size: (lead, trail[::-1]),
    "out-of-range": lambda lead, trail, size: (lead, (trail[0], size)),
    "bool": lambda lead, trail, size: (lead, (True, trail[1])),
    "three-codes": lambda lead, trail, size: (lead, trail + trail[-1:]),
    "list": lambda lead, trail, size: (lead, list(trail)),
    "three-words": lambda lead, trail, size: (lead, trail, trail),
}

# The ordered walk's message for each spoiled last element of the
# figure ideal's full basis, lead (5, 5) and trail (4, 7) over 14 codes.
TORIC_MESSAGES = {
    "reversed": "inconsistent marking: lead (4, 7) is not earlier than trail (5, 5)",
    "lead-is-trail": "inconsistent marking: lead (5, 5) is not earlier than trail (5, 5)",
    "other-fiber": "element 104 is not homogeneous: lead (5, 5) and trail (13, 13) "
    "differ in multidegree",
    "descending": "the trail of element 104 must be ascending, got (7, 4)",
    "out-of-range": "the trail of element 104 must be in range(14): (4, 14)",
    "bool": "the trail of element 104 must be a tuple of ints, got (True, 7)",
    "three-codes": "inconsistent marking: lead (5, 5) is not earlier than trail (4, 7, 7)",
    "list": "the trail of element 104 must be a tuple of ints, got [4, 7]",
    "three-words": "element 104 must be a (lead, trail) pair of words, got ((5, 5), (4, 7), (4, 7))",
}


def rees_side(ypart) -> str:
    return f"ReesMonomial(xpart=(0, 0, 0), ypart={ypart})"


# The same for its Rees basis, whose last element is the words (8, 8) and
# (7, 10) over 17 codes: the quadric Y_5^2 - Y_4 Y_7 with unit x-parts.
REES_MESSAGES = {
    "reversed": f"inconsistent marking: lead {rees_side((4, 7))} is not earlier than trail "
    f"{rees_side((5, 5))}",
    "lead-is-trail": f"inconsistent marking: lead {rees_side((5, 5))} is not earlier than trail "
    f"{rees_side((5, 5))}",
    "other-fiber": f"element 130 is not homogeneous: lead {rees_side((5, 5))} and trail "
    f"{rees_side((13, 13))} differ in multidegree",
    "descending": "the trail of element 130 must be ascending, got (10, 7)",
    "out-of-range": "the trail of element 130 must be in range(17): (7, 17)",
    "bool": "the trail of element 130 must be a tuple of ints, got (True, 10)",
    "three-codes": f"inconsistent marking: lead {rees_side((5, 5))} is not earlier than trail "
    f"{rees_side((4, 7, 7))}",
    "list": "the trail of element 130 must be a tuple of ints, got [7, 10]",
    "three-words": "element 130 must be a (lead, trail) pair of words, got "
    "((8, 8), (7, 10), (7, 10))",
}


class TestNegativeControls:
    @pytest.mark.parametrize("kind", SPOILERS)
    def test_toric(self, fig_table, kind):
        pairs = quadric_generators(fig_table).pairs
        assert pairs[-1] == ((5, 5), (4, 7)) and len(fig_table.generators) == 14
        basis = MarkedBasis(fig_table, pairs[:-1] + (SPOILERS[kind](*pairs[-1], 14),))
        with pytest.raises(ValueError) as raised:
            buchberger_verify(basis)
        assert str(raised.value) == TORIC_MESSAGES[kind]

    @pytest.mark.parametrize("kind", SPOILERS)
    def test_rees(self, fig_table, kind):
        pairs = rees_gb(fig_table).pairs
        assert pairs[-1] == ((8, 8), (7, 10)) and len(rees._configuration(fig_table).vectors) == 17
        basis = ReesBasis(fig_table, pairs=pairs[:-1] + (SPOILERS[kind](*pairs[-1], 17),))
        with pytest.raises(ValueError) as raised:
            rees_buchberger_verify(basis)
        assert str(raised.value) == REES_MESSAGES[kind]

    def test_a_reversed_syzygy(self, fig_table):
        # The x branch of the Rees rank: element 0 is x_b Y_0 - x_c Y_1.
        pairs = rees_gb(fig_table).pairs
        assert pairs[0] == ((1, 3), (2, 4))
        basis = ReesBasis(fig_table, pairs=(pairs[0][::-1],) + pairs[1:])
        lead = "ReesMonomial(xpart=(0, 0, 1), ypart=(1,))"
        trail = "ReesMonomial(xpart=(0, 1, 0), ypart=(0,))"
        with pytest.raises(ValueError) as raised:
            rees_buchberger_verify(basis)
        message = f"inconsistent marking: lead {lead} is not earlier than trail {trail}"
        assert str(raised.value) == message


@pytest.fixture
def key_calls(monkeypatch):
    """Count every call of ``fiber_sink_key`` and ``rees._word_key``, through any binding."""
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module in (fiber, toric, rees, verify):
        if hasattr(module, "fiber_sink_key"):
            monkeypatch.setattr(module, "fiber_sink_key", counted("fiber_sink_key", fiber_sink_key))
    monkeypatch.setattr(rees, "_word_key", counted("_word_key", _word_key))
    return calls


class TestNoKeyCalls:
    @pytest.mark.parametrize("kind", ["full", "reduced", "rees"])
    def test_a_clean_basis_takes_no_key(self, fig_table, key_calls, kind):
        basis = {
            "full": lambda: quadric_generators(fig_table),
            "reduced": lambda: quadric_generators(fig_table, interreduce=True),
            "rees": lambda: rees_gb(fig_table),
        }[kind]()
        key_calls.clear()
        assert basis._rules.leads
        assert key_calls == []

    def test_the_counter_sees_a_spoiled_basis(self, fig_table, key_calls):
        pairs = rees_gb(fig_table).pairs
        basis = ReesBasis(fig_table, pairs=pairs[:-1] + (pairs[-1][::-1],))
        with pytest.raises(ValueError):
            basis._rules
        assert "_word_key" in key_calls and "fiber_sink_key" in key_calls

    def test_a_clean_sweep_takes_no_key(self, key_calls):
        table = build_two_borel(mono("a^2c^3"), mono("b^4c"))
        key_calls.clear()
        assert verify.sweep_unique_sinks(table, 3).ok
        assert key_calls == []


def one_at_a_time(pairs) -> _Rules:
    rules = _Rules()
    for lead, trail in pairs:
        rules.add(lead, trail)
    return rules


class TestLeadSizes:
    def test_the_one_pass_index_on_the_suite(self):
        for table in suite_tables():
            for basis in (quadric_generators(table), quadric_generators(table, interreduce=True)):
                built, added = _Rules(basis.elements), one_at_a_time(basis.elements)
                assert built.sizes == added.sizes == {2}
                assert built.by_lead == added.by_lead
            pairs = rees_gb(table).pairs
            assert _Rules(pairs).sizes == one_at_a_time(pairs).sizes == {2}

    def test_mixed_lead_sizes(self):
        pairs = [((0, 1, 2), (3, 3, 3)), ((1, 4), (2, 2)), ((0, 5, 6), (1, 1, 1)), ((7,), (8,))]
        built = _Rules(pairs)
        assert built.sizes == one_at_a_time(pairs).sizes == {3, 2, 1}


class TestSweepRows:
    """The sweep's lead masks at both ends; its lines stay as they were."""

    def test_a_point_that_lists_itself(self, monkeypatch, fig_table):
        # (1, 12) is the last point of its fiber, so it is no lead; a bit
        # that makes it one leaves five fibers without a standard word.
        masks = fiber._lead_masks(fig_table)
        assert not masks[1] >> 12 & 1
        spoiled = with_lead_bits(masks, [(1, 12)], True)
        monkeypatch.setattr(verify, "_lead_masks", lambda table: spoiled)
        report = verify.sweep_unique_sinks(fig_table, 3)
        assert report.multidegrees_checked == 144
        assert report.violations == ()

    def test_bad_entries_in_the_first_second_and_last_rows(self, monkeypatch, fig_table):
        # The first two leads and the last, in the rows' order, lose their
        # bits: codes 0, 1, 2, 5 and 12 of the masks are read, and each
        # fiber that then holds two standard words is marked where it sits.
        rows = list(later_pairs(fig_table))
        first, second, last = rows[0], rows[1], rows[-1]
        assert (first, second, last) == ((1, 2), (0, 12), (5, 5))
        spoiled = with_lead_bits(fiber._lead_masks(fig_table), [first, second, last], False)
        monkeypatch.setattr(verify, "_lead_masks", lambda table: spoiled)
        report = verify.sweep_unique_sinks(fig_table, 3)
        assert report.multidegrees_checked == 149
        assert report.violations == sweep_lines_by_direct_sink(fig_table, 3, spoiled)
        assert report.violations[:3] == (
            "ab^8c: a standard word of the scan is not the graph's sink",
            "a^2b^5c^3: a standard word of the scan is not the graph's sink",
            "a^8b^2: a standard word of the scan is not the graph's sink",
        )