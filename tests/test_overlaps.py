"""The overlap check of the toric and Rees bases against the pairwise oracle.

``buchberger_verify`` and ``rees_buchberger_verify`` check critical monomials
(diamond lemma); the oracles in ``helpers`` reduce both sides of every S-pair
with overlapping leads.  Both must give the same verdict on passing bases and
on the drop-one mutants of the figure ideal's bases, which are the negative
controls.  The check reduces through ``_Rules``, which finds the leads of
every word by one sub-multiset lookup (``_Rules.hits``);
``TestClosedFormReducer`` holds those steps, and the hits the check takes as
a cubic monomial's reducts, to the scan helpers, and
``TestPinnedMutantReports`` holds every mutant's report to a pinned one.
The check walks reducts only in fibers that hold two standard words;
``TestWalkOnlyCollidingFibers`` holds its reports to the walk over every
critical monomial and pins the fibers it walks.  The check finds the critical monomials it walks from the shared
sums; wherever a test reaches that walk, the ``walks`` fixture holds its list
to the one of stepping every counted code (``walked_by_bits``).
"""

import json
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelfiber.borel import build_table, build_two_borel
from borelfiber import toric
from borelfiber.fiber import (
    _pack,
    _partners,
    _shared,
    _standard_levels,
    _unpack,
    enumerate_fiber,
    fiber_sink_key,
    fibers,
)
from borelfiber.instances import random_tables, suite_tables
from borelfiber.monomials import format_monomial, unit
from borelfiber.rees import (
    ReesBasis,
    ReesBinomial,
    ReesMonomial,
    _codes,
    _configuration,
    rees_buchberger_verify,
    rees_gb,
)
from borelfiber.toric import (
    MarkedBasis,
    MarkedBinomial,
    _Rules,
    buchberger_verify,
    normal_form,
    quadric_generators,
)

import helpers
from helpers import (
    contains,
    critical_monomials_by_pairs,
    family_table,
    lcm,
    mono,
    normal_form_by_scan,
    overlap_report_by_walk,
    pairwise_buchberger,
    pairwise_rees_buchberger,
    point_product,
    rees_apply,
    rees_image,
    rees_word,
    split_rees_reducer,
    step_by_scan,
    swap,
    walked_by_bits,
)


@pytest.fixture(scope="module")
def fig_table():
    return build_two_borel(mono("a^2c^3"), mono("b^4c"))


DROP_ONE_REPORTS = Path(__file__).resolve().parent / "data" / "drop_one_reports.json"


@pytest.fixture(scope="module")
def cross_check_tables():
    return helpers.cross_check_tables()


def _toric_witnesses(basis, failure):
    """Points of the failure's multidegree where its two reducers disagree."""
    f, g = basis.elements[failure.first], basis.elements[failure.second]
    return [
        z
        for z in enumerate_fiber(basis.table, failure.multidegree)
        if len(z) <= 3
        and contains(z, f.lead)
        and contains(z, g.lead)
        and normal_form(swap(z, f.lead, f.trail), basis)
        != normal_form(swap(z, g.lead, g.trail), basis)
    ]


def _rees_witnesses(basis, failure):
    """Multiples of the two reducers' lcm by at most one variable, of the
    failure's multidegree, where the two reducers disagree."""
    table = basis.table
    n = table.context.n
    f, g = basis.elements[failure.first], basis.elements[failure.second]
    top = ReesMonomial(
        tuple(max(a, b) for a, b in zip(f.lead.xpart, g.lead.xpart)),
        lcm(f.lead.ypart, g.lead.ypart),
    )
    candidates = [top]
    for v in range(n):
        xpart = tuple(e + (i == v) for i, e in enumerate(top.xpart))
        candidates.append(ReesMonomial(xpart, top.ypart))
    for gen in range(len(table.generators)):
        candidates.append(ReesMonomial(top.xpart, tuple(sorted(top.ypart + (gen,)))))
    reduce = split_rees_reducer(basis)
    return [
        m
        for m in candidates
        if sum(m.xpart) + len(m.ypart) <= 3
        and rees_image(table, m) == failure.multidegree
        and reduce(rees_apply(m, f)) != reduce(rees_apply(m, g))
    ]


class TestAgreementWithOracle:
    def test_toric(self, cross_check_tables):
        for table in cross_check_tables:
            basis = quadric_generators(table)
            report = buchberger_verify(basis)
            assert report.ok
            assert report.ok == pairwise_buchberger(basis).ok

    def test_rees(self, cross_check_tables):
        for table in cross_check_tables:
            basis = rees_gb(table)
            report = rees_buchberger_verify(basis)
            assert report.ok
            assert report.ok == pairwise_rees_buchberger(basis).ok


class TestCopiesOfOneLead:
    """Two copies of one lead whose trails are distinct normal forms.

    The lead is the first point of a degree-2 fiber with three points, and
    the trails are the other two; no element leads with either, so the
    copies disagree at the lead itself.
    """

    @pytest.fixture(scope="class")
    def fiber(self, fig_table):
        return next(words for words in fibers(fig_table.generators, 2).values() if len(words) == 3)

    def test_toric(self, fig_table, fiber):
        lead, *trails = fiber
        basis = MarkedBasis(fig_table, tuple(MarkedBinomial(lead, z) for z in trails))
        report = buchberger_verify(basis)
        assert report.status == "FAIL"
        assert report.pairs_checked == 1
        assert [f.multidegree for f in report.failures] == [point_product(fig_table, lead)]
        assert (report.failures[0].first, report.failures[0].second) == (0, 1)
        assert not pairwise_buchberger(basis).ok

    def test_rees(self, fig_table, fiber):
        one = unit(3)
        lead, *trails = (ReesMonomial(one, z) for z in fiber)
        basis = ReesBasis(fig_table, tuple(ReesBinomial(lead, z) for z in trails))
        report = rees_buchberger_verify(basis)
        assert report.status == "FAIL"
        assert [f.multidegree for f in report.failures] == [rees_image(fig_table, lead)]
        assert not pairwise_rees_buchberger(basis).ok


class TestDropOneMutants:
    def test_toric(self, fig_table):
        elements = quadric_generators(fig_table).elements
        assert len(elements) == 105
        failing = 0
        for i in range(len(elements)):
            mutant = MarkedBasis(fig_table, elements[:i] + elements[i + 1 :])
            report = buchberger_verify(mutant)
            assert report.ok == pairwise_buchberger(mutant).ok, f"deletion {i}"
            if not report.ok:
                failing += 1
                assert report.failures
                assert report.to_json()["status"] == "FAIL"
                for failure in report.failures:
                    assert failure.first != failure.second
                    assert _toric_witnesses(mutant, failure), f"deletion {i}: {failure}"
        assert failing == 30

    def test_rees(self, fig_table):
        elements = rees_gb(fig_table).elements
        assert len(elements) == 131
        failing = 0
        for i in range(len(elements)):
            mutant = ReesBasis(fig_table, elements[:i] + elements[i + 1 :])
            report = rees_buchberger_verify(mutant)
            assert report.ok == pairwise_rees_buchberger(mutant).ok, f"deletion {i}"
            if not report.ok:
                failing += 1
                assert report.failures
                for failure in report.failures:
                    assert failure.first != failure.second
                    assert _rees_witnesses(mutant, failure), f"deletion {i}: {failure}"
        assert failing == 46


class TestCriticalMonomialCount:
    """``pairs_checked`` counts the critical monomials built from all pairs.

    The overlap check builds them from the codes that share a lead with a
    lead's codes; ``critical_monomials_by_pairs`` takes the lcm of every two
    overlapping leads and adds every lead carried twice.
    """

    @staticmethod
    def toric_count(basis):
        return len(critical_monomials_by_pairs([el.lead for el in basis.elements]))

    @staticmethod
    def rees_count(basis):
        return len(critical_monomials_by_pairs([rees_word(el.lead) for el in basis.elements]))

    def test_toric(self, cross_check_tables):
        for table in cross_check_tables:
            for basis in (quadric_generators(table), quadric_generators(table, interreduce=True)):
                assert buchberger_verify(basis).pairs_checked == self.toric_count(basis)

    def test_rees(self, cross_check_tables):
        for table in cross_check_tables:
            basis = rees_gb(table)
            assert rees_buchberger_verify(basis).pairs_checked == self.rees_count(basis)

    def test_drop_one_mutants(self, fig_table):
        elements = quadric_generators(fig_table).elements
        for i in range(len(elements)):
            mutant = MarkedBasis(fig_table, elements[:i] + elements[i + 1 :])
            assert buchberger_verify(mutant).pairs_checked == self.toric_count(mutant), i
        elements = rees_gb(fig_table).elements
        for i in range(len(elements)):
            mutant = ReesBasis(fig_table, elements[:i] + elements[i + 1 :])
            assert rees_buchberger_verify(mutant).pairs_checked == self.rees_count(mutant), i


class TestQuadraticLeads:
    @pytest.fixture(scope="class")
    def cubic_pair(self, fig_table):
        points = enumerate_fiber(fig_table, (3, 9, 3))
        points = sorted(points, key=lambda z: fiber_sink_key(z), reverse=True)
        return points[0], points[-1]

    def test_toric_rejects_a_cubic_lead(self, fig_table, cubic_pair):
        lead, trail = cubic_pair
        assert len(lead) == 3
        assert point_product(fig_table, lead) == point_product(fig_table, trail)
        with pytest.raises(ValueError, match="quadratic"):
            buchberger_verify(MarkedBasis(fig_table, (MarkedBinomial(lead, trail),)))

    def test_rees_rejects_a_cubic_lead(self, fig_table, cubic_pair):
        lead, trail = cubic_pair
        el = ReesBinomial(ReesMonomial(unit(3), lead), ReesMonomial(unit(3), trail))
        with pytest.raises(ValueError, match="quadratic"):
            rees_buchberger_verify(ReesBasis(fig_table, (el,)))


def _drop_one(elements):
    return [elements[:i] + elements[i + 1 :] for i in range(len(elements))]


@pytest.fixture
def walks(monkeypatch):
    """Every call of ``toric._walked`` in the test, as (arguments, answer)."""
    calls = []
    walked = toric._walked

    def record(by_lead, masks, *rest):
        args = (by_lead, list(masks), *rest)  # the masks come as a one-pass iterator
        answer = walked(*args)
        calls.append((args, answer))
        return answer

    monkeypatch.setattr(toric, "_walked", record)
    return calls


def assert_walks_match_the_bits(walks):
    """Each recorded walk, read off the shared sums, lists what stepping every bit lists."""
    for args, answer in walks:
        assert answer == walked_by_bits(*args)


class TestClosedFormReducer:
    """``_Rules`` steps words of two and three codes as the scan helpers do.

    Every word steps by its first hit (``_Rules.hits``), and a word holds a
    lead exactly when it has a hit.  Every word of length two and three over
    the figure ideal's codes is stepped and reduced by ``_Rules`` and by
    ``step_by_scan`` and ``normal_form_by_scan``, over the full, the reduced
    and the Rees basis and over every drop-one mutant of the full and the
    Rees basis.  The mutants
    are not confluent, so there a normal form depends on which rule applies
    first, and the two agree only if both take the lowest position.
    """

    @staticmethod
    def words(codes):
        return [w for k in (2, 3) for w in combinations_with_replacement(codes, k)]

    @staticmethod
    def first_steps_by_scan(pairs, word):
        """``(position, reduct)`` by the first rule of each distinct lead the word contains."""
        steps = {}
        for pos, (lead, trail) in enumerate(pairs):
            if lead not in steps and contains(word, lead):
                steps[lead] = (pos, swap(word, lead, trail))
        return list(steps.values())

    def agree(self, pairs, codes):
        rules = _Rules(pairs)
        for word in self.words(codes):
            assert rules.rewrite(word) == step_by_scan(pairs, word), word
            assert bool(rules.hits(word)) == (rules.rewrite(word) is not None), word
            assert rules.normal_form(word) == normal_form_by_scan(pairs, word), word
            if len(word) == 3:
                # the overlap check takes every one of these as a reduct
                steps = [(pos, swap(word, *pairs[pos])) for pos in rules.hits(word)]
                assert steps == self.first_steps_by_scan(pairs, word), word

    @staticmethod
    def toric_pairs(elements):
        return [(el.lead, el.trail) for el in elements]

    @staticmethod
    def rees_pairs(elements):
        return [(_codes(el.lead), _codes(el.trail)) for el in elements]

    def test_toric(self, fig_table):
        codes = range(len(fig_table.generators))
        for interreduce in (False, True):
            self.agree(self.toric_pairs(quadric_generators(fig_table, interreduce).elements), codes)

    def test_rees(self, fig_table):
        codes = range(fig_table.context.n + len(fig_table.generators))
        self.agree(self.rees_pairs(rees_gb(fig_table).elements), codes)

    def test_drop_one_mutants(self, fig_table):
        # Each word's applicable positions are scanned once per basis; a
        # mutant's step is by the first of them that it keeps.  Normal forms
        # are scanned for a tenth of the words per mutant, every word over
        # all mutants.
        toric = self.toric_pairs(quadric_generators(fig_table).elements)
        rees = self.rees_pairs(rees_gb(fig_table).elements)
        bases = [
            (toric, range(len(fig_table.generators))),
            (rees, range(fig_table.context.n + len(fig_table.generators))),
        ]
        assert (len(toric), len(rees)) == (105, 131)
        for pairs, codes in bases:
            words = self.words(codes)
            hits = {w: [pos for pos, (lead, _) in enumerate(pairs) if contains(w, lead)] for w in words}
            for i, mutant in enumerate(_drop_one(pairs)):
                rules = _Rules(mutant)
                for word in words:
                    pos = next((pos for pos in hits[word] if pos != i), None)
                    expected = None if pos is None else swap(word, *pairs[pos])
                    assert rules.rewrite(word) == expected, (i, word)
                for word in words[i % 10 :: 10]:
                    assert rules.normal_form(word) == normal_form_by_scan(mutant, word), (i, word)

    def test_other_lengths_step_by_code_pairs(self, fig_table):
        # Words of length 0, 1 and 4 are looked up by their code pairs as
        # every word is: none for 0 and 1, so they are normal.
        bases = [
            (self.toric_pairs(quadric_generators(fig_table).elements), range(len(fig_table.generators))),
            (
                self.rees_pairs(rees_gb(fig_table).elements),
                range(fig_table.context.n + len(fig_table.generators)),
            ),
        ]
        for pairs, codes in bases:
            rules = _Rules(pairs)
            for k in (0, 1, 4):
                for word in combinations_with_replacement(codes, k):
                    assert rules.normal_form(word) == normal_form_by_scan(pairs, word), word

    def test_a_trail_of_another_length_keeps_the_lookup(self):
        # A quadratic lead with a cubic trail is not homogeneous, but the
        # rewriter still answers as the scan does.
        pairs = [((1, 2), (0, 0, 0)), ((0, 3), (4, 4))]
        rules = _Rules(pairs)
        for word in [(1, 2), (1, 2, 3), (0, 1, 2), (0, 3), (0, 3, 5)]:
            assert rules.rewrite(word) == step_by_scan(pairs, word), word
            assert rules.normal_form(word) == normal_form_by_scan(pairs, word), word


class TestPinnedMutantReports:
    """Every drop-one mutant's full report is the one pinned in ``data``.

    ``drop_one_reports.json`` lists the ``to_json()`` of each mutant of the
    figure ideal's full toric and Rees bases, in deletion order, as computed
    by the overlap check through the sub-multiset lookup.  Failure positions, multidegrees and their order must
    not move.
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(DROP_ONE_REPORTS.read_text())

    @staticmethod
    def tally(reports):
        fails = [r for r in reports if r["status"] == "FAIL"]
        return len(fails), sum(len(r["failures"]) for r in fails)

    def test_toric(self, fig_table, pinned, walks):
        reports = [
            buchberger_verify(MarkedBasis(fig_table, mutant)).to_json()
            for mutant in _drop_one(quadric_generators(fig_table).elements)
        ]
        assert self.tally(pinned["toric"]) == (30, 308)
        assert reports == pinned["toric"]
        assert len(walks) >= 30
        assert_walks_match_the_bits(walks)

    def test_rees(self, fig_table, pinned, walks):
        reports = [
            rees_buchberger_verify(ReesBasis(fig_table, mutant)).to_json()
            for mutant in _drop_one(rees_gb(fig_table).elements)
        ]
        assert self.tally(pinned["rees"]) == (46, 498)
        assert reports == pinned["rees"]
        assert len(walks) >= 46
        assert_walks_match_the_bits(walks)


@lru_cache(maxsize=None)
def reference_tables() -> tuple:
    return tuple(suite_tables(cap=200) + random_tables(50, seed=20250809))


BASES = {
    "full": (quadric_generators, buchberger_verify, lambda table: table.generators),
    "reduced": (
        lambda table: quadric_generators(table, interreduce=True),
        buchberger_verify,
        lambda table: table.generators,
    ),
    "rees": (rees_gb, rees_buchberger_verify, lambda table: _configuration(table).vectors),
}


@st.composite
def sub_bases(draw):
    """A toric or Rees basis of a suite or random table, with up to 3 elements dropped."""
    table = draw(st.sampled_from(reference_tables()))
    kind = draw(st.sampled_from(sorted(BASES)))
    build, verify, configuration = BASES[kind]
    basis = build(table)
    size = len(basis.elements)
    dropped = draw(st.sets(st.integers(0, size - 1), max_size=min(3, size))) if size else set()
    elements = tuple(el for i, el in enumerate(basis.elements) if i not in dropped)
    return type(basis)(table, elements), verify, configuration(table)


def colliding_multidegrees(basis):
    """The shared sums of the toric basis's standard words, as (length, multidegree text)."""
    vectors = basis.table.generators
    partners = _partners(basis._rules.by_lead, len(vectors))
    packed, width = _pack(vectors, 3)
    context = basis.table.context
    return {
        (length, format_monomial(total, context))
        for length, level in enumerate(_standard_levels(partners, packed, 3), 1)
        for total in _unpack(list(_shared([total for _, total, _ in level])), width, context.n)
    }


class TestWalkOnlyCollidingFibers:
    """The overlap check walks only the fibers that hold two standard words.

    Its report, failures and their order included, must be the one of the
    walk over every critical monomial (``overlap_report_by_walk``).  The
    critical monomials it walks are found from the shared sums; each such
    list must be the one of stepping every counted code (``walked_by_bits``).
    """

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(sub_bases())
    def test_reports_match_the_full_walk(self, drawn):
        basis, verify, vectors = drawn
        assert verify(basis).to_json() == overlap_report_by_walk(basis, vectors).to_json()

    def test_drop_one_mutants_of_the_reduced_basis(self, cross_check_tables, walks):
        # Every deletion from a reduced basis loses its lead, so most mutants fail.
        failing = 0
        for table in cross_check_tables[:4]:
            elements = quadric_generators(table, interreduce=True).elements
            for mutant in _drop_one(elements):
                basis = MarkedBasis(table, mutant)
                report = buchberger_verify(basis).to_json()
                assert report == overlap_report_by_walk(basis, table.generators).to_json()
                failing += report["status"] == "FAIL"
        assert failing > 0
        assert len(walks) >= failing
        assert_walks_match_the_bits(walks)

    def test_a_lead_carried_twice_with_one_trail(self, fig_table, walks):
        # Dropping element 1 of the reduced basis makes its lead standard, so
        # fibers collide; the copy of element 24 carries its lead twice with
        # one trail, which is walked but has a single reduct.
        elements = quadric_generators(fig_table, interreduce=True).elements
        copied = elements[24]
        basis = MarkedBasis(fig_table, elements[:1] + elements[2:] + (copied,))
        report = buchberger_verify(basis).to_json()
        assert (report["status"], report["pairs_checked"]) == ("FAIL", 290)
        assert report == overlap_report_by_walk(basis, fig_table.generators).to_json()
        ((_, walked),) = walks
        assert copied.lead in walked
        assert {basis.elements[pos].trail for pos in basis._rules.by_lead[copied.lead]} == {
            copied.trail
        }
        assert_walks_match_the_bits(walks)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_walks_of_the_counterexample_family(self, r, walks):
        # The CLI checks the reduced basis; the full list walks the same
        # fibers and is checked where it is cheap.
        table = family_table(r)
        bases = [quadric_generators(table, interreduce=True)]
        if r < 5:
            bases.append(quadric_generators(table))
        for basis in bases:
            assert buchberger_verify(basis).ok
        # Every basis shares a cubic sum, so every check reaches the walk.
        assert len(walks) == len(bases) and all(args[-1] for args, _ in walks)
        assert_walks_match_the_bits(walks)

    @pytest.mark.parametrize(
        "r, expected",
        [(3, {"a^6b^6c^6"}), (4, {"a^9b^11c^16", "a^9b^12c^15"})],
    )
    def test_counterexample_family(self, r, expected):
        # The quadrics generate less than the toric ideal there: the cubic
        # fibers with a minimal cubic generator hold two standard words.
        # They are walked, and the quadrics still pass.
        table = family_table(r)
        for interreduce in (False, True):
            basis = quadric_generators(table, interreduce)
            assert colliding_multidegrees(basis) == {(3, mu) for mu in expected}
            assert buchberger_verify(basis).status == "PASS"

    def test_no_critical_monomial_skips_the_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the scan ran without a critical monomial")

        monkeypatch.setattr(toric, "_standard_levels", refuse)
        table = family_table(5)
        assert len(table.generators) == 153
        report = buchberger_verify(MarkedBasis(table, ()))
        assert (report.status, report.pairs_checked) == ("PASS", 0)


class TestPackedSumWidth:
    """Packed sums need bits for the longest word, not for one vector.

    On the cubics in three variables, Borel(c^3), the largest exponent 3
    fits in two bits, but a quadric's multidegree reaches 6 and a cubic
    critical monomial's 9.  Two bits per coordinate would let a^2c . c^3 =
    a^2c^4 and ab^2 . b^3 = ab^5 share a packed sum (2 * 16 + 4 = 16 + 5 * 4),
    and would misname failures whose exponents pass 3.  On the septics,
    Borel(c^7), bits for two vectors instead of three make the overlap scan
    walk fibers that hold one standard word.
    """

    NOT_HOMOGENEOUS = "element 0 is not homogeneous.* differ in multidegree$"

    @pytest.fixture(scope="class")
    def cubics(self):
        return build_table([mono("c^3")], helpers.ABC)

    def sides(self, table):
        """The two degree-2 points a^2c . c^3 and ab^2 . b^3, earlier first."""
        points = [
            tuple(sorted(table.index_of[mono(text)] for text in pair))
            for pair in (("a^2c", "c^3"), ("ab^2", "b^3"))
        ]
        assert [point_product(table, z) for z in points] == [mono("a^2c^4"), mono("ab^5")]
        return sorted(points, key=fiber_sink_key, reverse=True)

    def test_toric_sides_sharing_only_a_narrow_packing_rejected(self, cubics):
        lead, trail = self.sides(cubics)
        basis = MarkedBasis(cubics, (MarkedBinomial(lead, trail),))
        with pytest.raises(ValueError, match=self.NOT_HOMOGENEOUS):
            buchberger_verify(basis)

    def test_rees_sides_sharing_only_a_narrow_packing_rejected(self, cubics):
        lead, trail = (ReesMonomial(unit(3), z) for z in self.sides(cubics))
        basis = ReesBasis(cubics, (ReesBinomial(lead, trail),))
        with pytest.raises(ValueError, match=self.NOT_HOMOGENEOUS):
            rees_buchberger_verify(basis)

    @pytest.mark.parametrize("kind", sorted(BASES))
    def test_a_groebner_basis_walks_nothing(self, kind, monkeypatch):
        # The septics' standard words meet each fiber once.  The scan sums
        # three vectors: with bits for two (4, for 2 * 7), the standard words
        # of a^4b^17 and a^5c^16 would share a packed sum (4 * 256 + 17 * 16 =
        # 5 * 256 + 16), and 113 to 141 critical monomials would be walked.
        def refuse(*args):
            raise AssertionError("a critical monomial was walked")

        build, verify, _ = BASES[kind]
        basis = build(build_table([mono("c^7")], helpers.ABC))
        monkeypatch.setattr(toric, "_walked", refuse)
        assert verify(basis).status == "PASS"

    @pytest.mark.parametrize("kind", sorted(BASES))
    def test_failures_named_past_one_vectors_bits(self, cubics, kind, walks):
        build, verify, configuration = BASES[kind]
        elements = build(cubics).elements
        names = []
        for mutant in _drop_one(elements):
            basis = type(build(cubics))(cubics, mutant)
            report = verify(basis)
            reference = overlap_report_by_walk(basis, configuration(cubics))
            assert report.to_json() == reference.to_json()
            names.extend(f.multidegree for f in report.failures)
        assert max(map(max, names)) > 3
        assert_walks_match_the_bits(walks)
