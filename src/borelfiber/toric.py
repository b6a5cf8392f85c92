"""Toric ideals of Borel ideals: binomial Groebner machinery.

The toric ideal lives in one Y variable per minimal generator and is
generated by differences of fiber points with equal product.  For two-Borel
tables the set of *all* quadric binomials, marked by the fiber sink order,
is a Groebner basis; :func:`buchberger_verify` rechecks that claim overlap
by overlap, and :func:`brute_force_gb` is the independent truncated-completion
oracle, which brings every fiber up to a bound to one normal form.
Everything is coefficient free: binomials are ordered pairs of Y-monomials,
and reduction replaces sub-multisets.

A point with k later points in its degree-2 fiber leads k quadrics, but
reduction applies only the first.  So the reduced basis is read off the
fibers, and the overlap check uses every copy of a lead only at the lead.

One code path per concept serves the toric and Rees sides alike.  The Rees
algebra is the toric ring of a larger configuration, so each side is one
:class:`Configuration`, its vectors and the marking of its words, and both
take their full bases from one pairing of the degree-2 fibers
(:func:`_degree_two_pairs`), which counts the pairs before it takes any.
Every basis holds its elements as (lead, trail) pairs of words, ascending
tuples of integer codes, from construction through the check; a
:class:`MarkedBinomial` or a Rees monomial is built only when a caller
reads ``elements``.  A basis's :class:`_Rules`, the one reduction engine,
is built only by :func:`_checked_rules`, the one check of words, marking
and homogeneity, so :func:`normal_form` and both verifiers refuse a
malformed basis alike and never reduce by a rule that fails to end.  Words
of two codes, as in every basis built here, are checked by two columns,
their first and second codes, and by one packed sum and one integer rank
per word; any other basis, and one that fails a column test, is walked in
element order, which names the first fault.  The lead index ``by_lead`` is
the one place that says which rules carry a lead: the rewriter looks up a
word's sub-multisets there (:meth:`_Rules.hits`), whatever the lengths of
the word and the rules, :func:`brute_force_gb` asks it whether a word holds
a lead, and :func:`_check_overlaps`, the one Groebner verifier, reads its
critical monomials off it.

The completion oracle reduces no word of degree 2: each degree-2 fiber adds
the chain of its consecutive points, in closed form.  Above degree 2 it
builds only the normal words, each a normal word of the degree before
extended by one code, and tests only the extension's new pairs for a lead
while every lead is quadratic.  It lists a fiber (``fiber.enumerate_fiber``)
only when the fiber holds two normal words, and reduces only those fibers.
The overlap check counts its critical monomials from each lead's masks,
built as it reaches the lead, again for a walk, and never kept in a table;
it walks only those whose fiber holds two standard words (words with no
lead in them) of their length, found by ``fiber._standard_levels``, the
scan behind the unique-sink sweep too.  A Groebner basis of the whole toric
ideal walks none, since its standard words meet each fiber once (Sturmfels,
*Groebner Bases and Convex Polytopes*, 1996, ch. 4).

Every configuration sum here is one integer, packed by ``fiber._pack``, the
one sum path of the fiber listing too, so a word's packed sum is one
integer addition per code, and two words share it exactly when they share
their sum.  A basis's rule index keeps its configuration packed, for the
overlap check too, and a failure's name is unpacked from its sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat, starmap
from math import comb
from operator import countOf, itemgetter, le, lt, or_
from typing import Callable, Iterable, NamedTuple, Sequence

from borelfiber import fiber
from borelfiber.borel import GeneratorTable
from borelfiber.fiber import (
    FiberPoint,
    _bits,
    _component_labels,
    _fiber_groups,
    _pack,
    _partners,
    _shared,
    _standard_levels,
    _unpack,
    enumerate_fiber,
    fiber_sink_key,
    fiber_sink_ranks,
)
from borelfiber.monomials import Monomial, VariableContext, format_monomial

# Measured at about 140 bytes a full quadric and 85 a Rees element, so a capped basis
# stays under about 1.7 GB.
MAX_BASIS_ELEMENTS = 12_000_000


def _replace(point: FiberPoint, old: FiberPoint, new: FiberPoint) -> FiberPoint:
    out = list(point)
    for x in old:
        out.remove(x)
    out.extend(new)
    out.sort()
    return tuple(out)


class MarkedBinomial(NamedTuple):
    """Ordered difference of two Y-monomials with the same multidegree: a word pair."""

    lead: FiberPoint
    trail: FiberPoint


class Configuration(NamedTuple):
    """One vector per code, and the marking of its words, shared by the toric and Rees sides.

    ``key(word)`` is larger for the earlier word, and ``ranks(words, len(vectors))``
    gives each two-code word one integer, the smaller rank the larger key.
    """

    vectors: Sequence[Monomial]
    key: Callable
    ranks: Callable


def _configuration(table: GeneratorTable) -> Configuration:
    """The toric configuration: the table's generators, marked by the fiber sink order."""
    return Configuration(table.generators, fiber_sink_key, fiber_sink_ranks)


class _Rules:
    """Marked rewrite rules on ascending code tuples: the one reduction engine.

    ``leads`` and ``trails`` list the rules' words, ascending tuples of
    integer codes; a word contains a lead when the lead is a sub-multiset of
    it.  ``by_lead``, the one lead index, maps each distinct lead to the
    positions of its rules, ascending, and ``sizes`` holds the leads'
    lengths; a word's leads are found by one lookup of its sub-multisets
    (:meth:`hits`).  An index from :func:`_checked_rules` also keeps its
    configuration's ``packed`` codes, ``width`` and vector ``size``.

    ``_Rules(pairs)`` builds the index of a whole basis's (lead, trail)
    words in one pass, as :meth:`add` would one pair at a time: positions
    ascending, leads in order of first occurrence.
    """

    def __init__(self, pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]] = ()) -> None:
        self.leads: list[tuple[int, ...]] = list(map(itemgetter(0), pairs))
        self.trails: list[tuple[int, ...]] = list(map(itemgetter(1), pairs))
        self.by_lead: dict[tuple[int, ...], list[int]] = {}
        for pos, lead in enumerate(self.leads):
            if (positions := self.by_lead.get(lead)) is None:
                self.by_lead[lead] = [pos]
            else:
                positions.append(pos)
        self.sizes: set[int] = set(map(len, self.by_lead))
        self.cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def add(self, lead: tuple[int, ...], trail: tuple[int, ...]) -> None:
        """Append a rule; a cached normal form may now reduce further, so drop them."""
        self.by_lead.setdefault(lead, []).append(len(self.leads))
        self.sizes.add(len(lead))
        self.leads.append(lead)
        self.trails.append(trail)
        self.cache.clear()

    def hits(self, word: tuple[int, ...]) -> list[int]:
        """The first position of each distinct lead that ``word`` contains, ascending.

        The candidates are the word's k-combinations for each lead length k
        in ``sizes``, with each code kept at most k times: that leaves the set
        of combinations as it is but keeps long words from multiplying it.
        """
        # ascending: a code past its k-th copy equals the code k before it
        subs = chain.from_iterable(
            combinations([c for i, c in enumerate(word) if i < k or word[i - k] != c], k)
            for k in self.sizes
        )
        found = filter(None, map(self.by_lead.get, set(subs)))
        return sorted(positions[0] for positions in found)

    def rewrite(self, word: tuple[int, ...]) -> tuple[int, ...] | None:
        """The one-step reduct by the lowest-position rule whose lead ``word`` contains.

        That rule is the first of :meth:`hits`.  Returns None when no lead is
        contained, so a word is normal exactly when this is None.
        """
        hits = self.hits(word)
        return _replace(word, self.leads[hits[0]], self.trails[hits[0]]) if hits else None

    def normal_form(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """Rewrite until no lead is contained; cache every word on the way."""
        cache = self.cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        chain = [word]
        current = word
        while (nxt := self.rewrite(current)) is not None:
            current = nxt
            cached = cache.get(current)
            if cached is not None:
                current = cached
                break
            chain.append(current)
        for z in chain:
            cache[z] = current
        return current


@dataclass(frozen=True)
class MarkedBasis:
    """A table's marked binomials, held as their (lead, trail) word pairs in ``pairs``.

    A :class:`MarkedBinomial` is such a pair, so ``MarkedBasis(table,
    elements)`` holds the elements themselves, and a built basis holds plain
    tuples.  ``elements`` views the pairs as :class:`MarkedBinomial` tuples,
    built on first read.  The words are checked when the rule index is built
    (:func:`_checked_rules`).
    """

    table: GeneratorTable
    pairs: tuple[tuple[FiberPoint, FiberPoint], ...]

    @cached_property
    def elements(self) -> tuple[MarkedBinomial, ...]:
        return tuple(starmap(MarkedBinomial, self.pairs))

    @cached_property
    def _rules(self) -> _Rules:
        return _checked_rules(self, self.pairs, _configuration(self.table))


def _check_ints(value, what: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a tuple of ints; a bool is not an int here."""
    if type(value) is not tuple or not all(type(c) is int for c in value):
        raise ValueError(f"{what} must be a tuple of ints, got {value!r}")


def _check_point(point: FiberPoint, size: int, what: str = "a point") -> None:
    """Raise ``ValueError`` unless ``point`` is a tuple of ints in ``range(size)``, ascending."""
    _check_ints(point, what)
    if list(point) != sorted(point):
        raise ValueError(f"{what} must be ascending, got {point}")
    if point and not 0 <= point[0] <= point[-1] < size:
        raise ValueError(f"{what} must be in range({size}): {point}")


def _checked_rules(basis, pairs, config: Configuration) -> _Rules:
    """The rule index of a basis's word ``pairs``, built once they pass the one check of a basis.

    Both sides call it with their :class:`Configuration`; the index keeps
    its vectors packed for sums of three codes or of the longest word.
    Raises ``ValueError`` on an element that is not a (lead, trail) tuple of
    two, then on a word that :func:`_check_point` refuses, then unless every
    lead has a larger ``key`` than its trail and the same length and
    configuration sum: a binomial that is not homogeneous is not in the
    ideal.  So every rewrite ends and keeps its word's fiber.  The index is
    built in one pass (:class:`_Rules`).

    A verdict comes one of two ways.  Words of two codes, as in every basis
    built here, are checked by two columns, each word's first code and its
    second, taken once: one type test, one range test (the least first code,
    the largest second code) and one order test, and no word is hashed.
    Then each word's packed sum is two lookups and one add, and its key one
    integer, its ``ranks``, so a lead must have the smaller rank
    (``fiber.fiber_sink_ranks``, ``rees._word_ranks``).  Any other basis,
    and one that fails a column test, is walked in element order:
    :func:`_check_point` on every lead and trail first, so a malformed word
    is named before any marking, then each element's keys, lengths and
    packed sums, raising at the first fault and reading ``basis.elements``
    only to name it.  No column outlives the check, so the collector walks
    none while the index grows.
    """
    tuples = all(issubclass(kind, tuple) for kind in set(map(type, pairs)))
    if not tuples or not {2} >= set(map(len, pairs)):  # len only once every element is a tuple
        for pos, pair in enumerate(pairs):
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ValueError(f"element {pos} must be a (lead, trail) pair of words, got {pair!r}")
    vectors, key, ranks = config
    words, count = list(chain.from_iterable(pairs)), len(vectors)
    if by_columns := {tuple} >= set(map(type, words)) and {2} >= set(map(len, words)):
        firsts, seconds = list(map(itemgetter(0), words)), list(map(itemgetter(1), words))
        by_columns = {int} >= {*map(type, firsts), *map(type, seconds)} and (
            not words or 0 <= min(firsts) and max(seconds) < count
        ) and all(map(le, firsts, seconds))
        del firsts, seconds
    if by_columns:
        packed, width = _pack(vectors, 3)
        totals = [packed[a] + packed[b] for a, b in words]
        ranked = ranks(words, count)
        by_columns = totals[0::2] == totals[1::2] and all(map(lt, ranked[0::2], ranked[1::2]))
        del totals, ranked
    if not by_columns:  # the ordered walk: a malformed word first, then the first faulty element
        for pos, (lead, trail) in enumerate(pairs):
            _check_point(lead, count, f"the lead of element {pos}")
            _check_point(trail, count, f"the trail of element {pos}")
        packed, width = _pack(vectors, max([3, *map(len, words)]))
        vector = packed.__getitem__
        for pos, (lead, trail) in enumerate(pairs):
            marked, same_length = key(lead) > key(trail), len(lead) == len(trail)
            if marked and same_length and sum(map(vector, lead)) == sum(map(vector, trail)):
                continue
            el = basis.elements[pos]
            if not marked:
                raise ValueError(
                    f"inconsistent marking: lead {el.lead} is not earlier than trail {el.trail}"
                )
            what = "multidegree" if same_length else "degree"
            raise ValueError(
                f"element {pos} is not homogeneous: lead {el.lead} and trail {el.trail} "
                f"differ in {what}"
            )
    del words
    rules = _Rules(pairs)
    rules.packed, rules.width = packed, width
    rules.size = len(vectors[0]) if vectors else 0
    return rules


def normal_form(point: FiberPoint, basis: MarkedBasis) -> FiberPoint:
    """Reduce by the lowest-index applicable lead until none applies.

    Each step is strictly later in the fiber sink order, so this terminates;
    when the basis is a Groebner basis the result only depends on the point's
    multidegree class.  Raises ``ValueError`` on a point that
    :func:`_check_point` refuses, and on a basis that :func:`_checked_rules`
    refuses.
    """
    _check_point(point, len(basis.table.generators))
    return basis._rules.normal_form(point)


def _degree_two_pairs(
    groups: Sequence[Sequence[FiberPoint]], shift: int = 0, others: int = 0
) -> list[tuple[FiberPoint, FiberPoint]]:
    """Every pair of words within each of the fibers ``groups``, earlier word first.

    The one pairing of degree-2 fibers, behind the full bases of both sides,
    which pass a table's listing (``GeneratorTable._quadric_fibers``).  Each
    fiber's pairs come in the order of its listing, descending sink order, so
    every pair is already (lead, trail) on both sides.  ``shift`` is added
    to every code: ``rees.rees_gb`` shifts the generators' codes by n.  The
    pairs, C(k, 2) for a fiber of k points, and the ``others`` elements of
    the caller's basis are counted before any word is shifted or paired, and
    more than ``MAX_BASIS_ELEMENTS`` raise ``ValueError``.
    """
    count = others + sum(map(comb, map(len, groups), repeat(2)))
    if count > MAX_BASIS_ELEMENTS:
        raise ValueError(
            f"the pairs within the degree-2 fibers make {count:,} basis elements,"
            f" more than the cap of {MAX_BASIS_ELEMENTS:,}"
        )
    if shift:
        groups = [[(a + shift, b + shift) for a, b in words] for words in groups]
    return list(chain.from_iterable(map(combinations, groups, repeat(2))))


def quadric_generators(table: GeneratorTable, interreduce: bool = False) -> MarkedBasis:
    """All quadric binomials of the toric ideal, marked by the sink order.

    One element per unordered pair of distinct degree-2 fiber points sharing
    a multidegree (:func:`_degree_two_pairs`), read off the table's listing
    of its fibers of two or more points (``GeneratorTable._quadric_fibers``).
    With ``interreduce`` the basis is the reduced one, read off the same
    fibers: every point of a fiber but the last leads once, with the fiber's
    last point as its trail, so every trail is already reduced.  The leads
    are distinct, so their integer ranks (``fiber.fiber_sink_ranks``),
    sorted descending, put the elements in ascending sink order of their
    leads.  Either way the basis holds plain word pairs.
    """
    groups = table._quadric_fibers
    if interreduce:
        pairs = [(lead, words[-1]) for words in groups for lead in words[:-1]]
        ranks = fiber_sink_ranks(map(itemgetter(0), pairs), len(table.generators))
        ranked = dict(zip(ranks, pairs))
        pairs = [ranked[rank] for rank in sorted(ranked, reverse=True)]
    else:
        pairs = _degree_two_pairs(groups)
    return MarkedBasis(table, tuple(pairs))


@dataclass(frozen=True)
class SPairFailure:
    first: int
    second: int
    multidegree: Monomial


@dataclass(frozen=True)
class GroebnerReport:
    pairs_checked: int
    failures: tuple[SPairFailure, ...]
    context_names: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        ctx = VariableContext(self.context_names)
        return {
            "status": self.status,
            "pairs_checked": self.pairs_checked,
            "failures": [
                {"pair": [f.first, f.second], "multidegree": format_monomial(f.multidegree, ctx)}
                for f in self.failures
            ],
        }


def _counted(by_lead: dict, partners: list[int]):
    """Each lead (a, b)'s masks of counted codes w >= b and a < w < b, in ``by_lead`` order."""
    for a, b in by_lead:
        pa, pb = partners[a], partners[b]
        if a == b:
            yield pa >> (a + 1) << (a + 1), 0
        else:  # the codes a < w < b are (1 << b) - (2 << a)
            yield (pa & ~(1 << b) | pb) >> b << b, pb & ~pa & (1 << b) - (2 << a)


def _walked(
    by_lead: dict, masks: Iterable, packed: list[int], pairs: set[int], cubics: set[int]
) -> list[tuple[int, ...]]:
    """The critical monomials whose sum two standard words share, ascending.

    ``masks`` yields each lead (a, b) with its counted codes w (see
    :func:`_check_overlaps`): a mask ``high`` giving (a, b, w) and a mask
    ``low`` giving (a, w, b).  ``pairs`` and ``cubics`` are the sums shared
    by two standard words of two, and of three, codes.  A lead carried twice
    is walked when its own sum is shared.  w completes (a, b) to a shared
    sum s exactly when packed[w] = s - (packed[a] + packed[b]), so instead of
    stepping its bits, a lead looks up each shared cubic sum once and keeps
    the codes it names among its counted codes; walked bases share few sums.
    """
    code_of: dict[int, int] = {}
    for code, vector in enumerate(packed):
        code_of[vector] = code_of.get(vector, 0) | 1 << code
    critical = []
    for lead, (high, low) in masks:
        a, b = lead
        pair = packed[a] + packed[b]
        if pair in pairs and len(by_lead[lead]) > 1:
            critical.append(lead)
        completes = 0
        for total in cubics:
            completes |= code_of.get(total - pair, 0)
        if completes:
            critical.extend((a, b, w) for w in _bits(high & completes))
            critical.extend((a, w, b) for w in _bits(low & completes))
    critical.sort()
    return critical


def _check_overlaps(rules: _Rules, n: int) -> tuple[int, list[SPairFailure]]:
    """Diamond-lemma check of marked rules with quadratic leads.

    ``rules`` keep their configuration packed (:func:`_checked_rules`); the
    first ``n`` coordinates of a critical monomial's sum name it in a failure.
    Reduction terminates (:func:`_checked_rules`), so by Newman's lemma the rules form a Groebner
    basis exactly when every one-step reduct of every critical monomial
    reaches the same normal form.  Two leads that share no code commute
    (product criterion), and two overlapping quadratic leads have as lcm
    either a lead carried twice or a lead times one more code; those are the
    critical monomials.

    A lead carried by several rules is checked with all its copies.  At the
    lcm of two distinct leads only the first rule of each lead reduces, so a
    cubic critical monomial is reduced by at most three rules.  That is
    enough: copies that join at their lead join at every multiple of it, and
    in the induction along the reduction order that proves Newman's lemma,
    every monomial below the one at hand has one normal form, so joining each
    copy to the first, and the first rules to each other, joins all one-step
    reducts.  Returns the number of critical monomials and one failure for
    each that disagrees, in ascending order of the monomial.

    Reducts are walked only where two standard words could disagree.  Every
    rule keeps its word's length and configuration sum (:func:`_checked_rules`),
    so every normal form of a critical monomial m is a standard word of m's
    fiber, and if that fiber holds one standard word of m's length, m cannot
    fail.  So only the critical monomials whose sum two standard words of two
    or three codes share (``fiber._standard_levels``) are walked, found from
    the shared sums by :func:`_walked`.  The scan lists the standard words of
    two codes; those of three are read only as sums, each standard pair's
    sum plus each code it allows.  The scan is skipped when there is no
    critical monomial, and the walk when no sum is shared.

    Critical monomials are counted, not built: each once, from its least
    lead divisor.  ``partners[c]`` has bit w set when (c, w) is a lead.  A
    lead (a, b) with a < b counts the partners w of a or b, other than the
    lead's own codes, with w >= b, and the partners w of b with a < w < b
    that are not partners of a; a lead (a, a) counts the partners w > a; a
    lead carried by two or more rules counts itself.  Those codes are two
    masks per lead, built by one generator (:func:`_counted`) as the count
    reaches the lead, and built again, one lead at a time, only by a walk;
    no table of them is kept.

    Every lead must be quadratic: a lead length other than 2 in
    ``rules.sizes`` raises ``ValueError``, naming the first such lead's
    rule.  Every trail then has two codes too, as :func:`_checked_rules`
    keeps a rule's length.  A lead's one-step reducts are its rules'
    trails, and a cubic critical monomial's are one for each distinct lead
    it holds, by that lead's first rule (:meth:`_Rules.hits`), the one
    lookup that :meth:`_Rules.rewrite` steps every word by.
    """
    by_lead, packed = rules.by_lead, rules.packed
    if rules.sizes - {2}:
        for lead, positions in by_lead.items():
            if len(lead) != 2:
                raise ValueError(
                    f"lead of element {positions[0]} has degree {len(lead)}; "
                    "the overlap check needs quadratic leads"
                )
    partners = _partners(by_lead, len(packed))
    checked = len(by_lead) - countOf(map(len, by_lead.values()), 1)  # leads carried twice
    checked += sum(map(int.bit_count, starmap(or_, _counted(by_lead, partners))))
    if not checked:
        return 0, []
    # Standard words of three codes are needed only for their sums.
    _, level = _standard_levels(partners, packed, 2)
    pairs = _shared([total for _, total, _ in level])
    cubics = _shared([total + packed[c] for _, total, allowed in level for c in _bits(allowed)])
    if not pairs and not cubics:
        return checked, []
    leads, trails, normal_form = rules.leads, rules.trails, rules.normal_form
    failures = []
    masks = zip(by_lead, _counted(by_lead, partners))
    for m in _walked(by_lead, masks, packed, pairs, cubics):
        reducts = {}
        if len(m) == 2:
            for pos in by_lead[m]:
                reducts.setdefault(trails[pos], pos)  # a lead's reduct by its own rule
        else:
            for pos in rules.hits(m):
                reducts.setdefault(_replace(m, leads[pos], trails[pos]), pos)
        if len(reducts) == 1:
            continue
        first_reduct, *rest = reducts.items()
        target = normal_form(first_reduct[0])
        for z, pos in rest:
            if normal_form(z) != target:
                (total,) = _unpack([sum(map(packed.__getitem__, m))], rules.width, rules.size)
                failures.append(SPairFailure(first_reduct[1], pos, total[:n]))
                break
    return checked, failures


def _verify(basis) -> GroebnerReport:
    """The overlap check of a basis; the verifier behind both sides.

    Building ``basis._rules`` has checked the words, the marking and the
    homogeneity and packed the configuration (:func:`_checked_rules`), so
    only :func:`_check_overlaps` runs here, and reports the critical
    monomials whose reducts disagree.  A failure is named by the first n
    coordinates of its sum, the multidegree or the image.
    """
    checked, failures = _check_overlaps(basis._rules, basis.table.context.n)
    return GroebnerReport(
        pairs_checked=checked,
        failures=tuple(failures),
        context_names=basis.table.context.names,
    )


def buchberger_verify(basis: MarkedBasis) -> GroebnerReport:
    """Overlap check of a quadric basis; PASS exactly when it is Groebner.

    Checks every critical monomial of degree two or three (see
    :func:`_check_overlaps`); ``pairs_checked`` counts those monomials.
    Raises ``ValueError`` on a basis that :func:`_checked_rules` refuses: a
    lead or trail that :func:`_check_point` refuses, a lead that is not
    earlier than its trail in the fiber sink order, or an element that is
    not homogeneous; and on a lead that is not quadratic.
    """
    return _verify(basis)


def brute_force_gb(table: GeneratorTable, degree_bound: int) -> MarkedBasis:
    """Degree-truncated completion: one normal form per fiber up to the bound.

    Walks the fibers of t-degree up to the bound in ``fiber._fiber_groups``
    order, ascending degree and then ascending packed sum, and reduces the
    star of each that holds two normal words: the pairs (first point, w)
    for every later point w.  When the normal forms differ, the earlier one
    in the fiber sink order (the larger ``fiber_sink_key``) becomes a lead,
    rewritten to the later one, whichever point it came from.  Independent
    of the unique-sink theory, of the scan of standard words and of the
    overlap check: a word is normal when no lead of the oracle's own rules
    divides it, as the one lookup of their index finds (:meth:`_Rules.hits`),
    which every reduction step takes too.  Used as the oracle.

    Degree 2 is in closed form.  When a fiber of degree 2 is reached, no
    rule divides any of its points: the generators are distinct, so every
    fiber of degree 1 is one point and adds no rule; every rule so far leads
    in another fiber of degree 2 by a word of two codes, and a lead of two
    codes divides a word of two codes only by being it.  So each point is
    its own normal form.  The fiber p0, ..., p(k-1) is listed in descending
    sink order, so when the star reaches w = p_i the carried normal form a
    (below) is p(i-1), the earlier point: it adds p(i-1) -> p_i, and a
    becomes p_i.  The stars of degree 2 thus add exactly the chains
    p0 -> p1, ..., p(k-2) -> p(k-1), fiber after fiber in listing order,
    and ``_Rules(pairs)`` builds them in one pass as :meth:`_Rules.add`
    would one at a time.  Raises ``ValueError`` when two generators are
    equal, as their fiber of degree 1 would add a rule of one code.

    Only fibers with two normal words are reduced.  Every rule joins two
    points of one fiber, and its lead comes earlier in the sink order than
    its trail.  So a step keeps a word's fiber, and every normal form of a
    point is a normal word of the point's own fiber.  The fiber's last
    point is always normal: a lead dividing it would rewrite it to a later
    point of its fiber, and there is none, as the sink order is a monomial
    order.  So a fiber whose other points all rewrite holds one normal word,
    every point's normal form is that word, and its star adds nothing.
    Above degree 2 the fibers come from :func:`_stars`, which builds only
    the normal words and lists a fiber only when it holds two of them; for
    two-Borel tables none does, as the quadrics are a Groebner basis and
    each fiber holds one standard word.

    The first point's normal form a is computed once per star and carried,
    so each point of a star is reduced once.  Let b be w's normal form.
    Rules are only appended and the rewriter applies the lowest-position
    rule, so after a new rule the first point's chain repeats every old
    step up to a.  After ``add(a, b)`` it steps on to b, which is normal: b
    was normal under the old rules, and the new lead a has b's length and
    differs from it, so it does not divide b.  So the first point's normal
    form becomes b.  After ``add(b, a)`` the new lead b likewise does not
    divide a, so it stays a.  Either way it becomes the new rule's trail.

    The marking builds no sink key: b leads exactly when
    ``a[::-1] > b[::-1]``.  Proof: a and b are normal forms of points of one
    fiber, so they have one length, and ``fiber_sink_key`` of a word is (its
    length, its reversed codes negated).  The lengths tie, so the keys
    compare as the negated reversed words, which have one length and differ
    as a != b.  At their first difference the word with the smaller code has
    the larger key.  So b has the larger key, the earlier point in the sink
    order, exactly when a's reversed word is the larger there, that is when
    ``a[::-1] > b[::-1]``; one length leaves no prefix case.

    The result is the truncated Buchberger completion seeded with every
    binomial between two points of one fiber, element for element and in
    order, although no S-pair is formed:

    - The rewriter applies the lowest-position applicable rule, and rules
      are only appended.  So once two words have one normal form they keep
      it: both chains still reach the old common normal form and continue
      from it together.
    - So after a fiber's star every point of that fiber has one normal
      form, and the completion's other seeds within the fiber reduce to
      zero when they are reached.
    - An S-pair joins two points of one fiber of t-degree at most the bound,
      and it is queued behind every seed, so it reduces to zero too.

    Every binomial of the toric ideal of t-degree at most the bound thus
    reduces to zero, so the result is a Groebner basis through the bound
    (Sturmfels, *Groebner Bases and Convex Polytopes*, 1996, ch. 4).
    """
    if degree_bound < 2:
        raise ValueError("the completion bound must be at least 2")
    if len(set(table.generators)) < len(table.generators):
        raise ValueError("the completion needs distinct generators")
    groups = list(_fiber_groups(table.generators, 2)[0].values())
    rules = _Rules([pair for words in groups for pair in zip(words, words[1:])])
    for points in _stars(table, degree_bound, rules, groups):
        first, *rest = points
        a = rules.normal_form(first)
        for w in rest:
            b = rules.normal_form(w)
            if a == b:
                continue
            if a[::-1] > b[::-1]:  # b has the larger fiber_sink_key: see the docstring
                rules.add(b, a)
            else:
                rules.add(a, b)
                a = b
    return MarkedBasis(table, tuple(zip(rules.leads, rules.trails)))


def _stars(table: GeneratorTable, bound: int, rules: _Rules, groups: list[list[FiberPoint]]):
    """Yield the points of each fiber of degree 3 up to ``bound`` that holds two normal words.

    ``groups`` are the fibers of degrees 1 and 2 as :func:`brute_force_gb`
    listed them, and ``rules`` hold their chains, so the normal words of
    degree 2 are the last point of each fiber of degree 2.  The caller adds
    a fiber's rules before the next fiber is yielded.  A word's prefix
    divides it, so a normal word's prefix is normal, and each normal word of
    degree k is a normal word w of degree k - 1 extended by a code z at
    least its last; so no normal word is missed.  Every lead of two codes
    is a link of those chains, and w's own pairs are not leads, so w + (z,)
    holds a lead of two codes exactly when some pair (c, z) with c in w is
    one: one set test per candidate, against an index of the chains built
    once, and a word is built only when it is kept.  While every lead has
    two codes that decides; once a longer lead exists, a word that passes is
    normal when ``rules.hits`` finds no lead in it.  The normal words are
    grouped by packed sum, and a fiber of two or more is yielded as
    ``enumerate_fiber`` lists it, its multidegree unpacked from the sum; a
    fiber with at most one is skipped unlisted.  A rule added at degree k
    leads by a word of length k and of its own fiber's sum, so it divides no
    word of another fiber of the level, and after the level exactly the
    words that became leads stop being normal; a level whose sums are all
    distinct adds no rule.  Raises ``ValueError`` before building a degree
    whose candidate words outnumber ``fiber.MAX_FIBER_POINTS``, and on a
    fiber of more points (``enumerate_fiber``).
    """
    packed, width = _pack(table.generators, bound)
    singles = [(c,) for c in range(len(packed))]
    normal = [(w, packed[w[0]] + packed[w[1]]) for w in (ws[-1] for ws in groups) if len(w) == 2]
    # For each code z, the codes c of the leads (c, z); no lead of two codes comes later.
    below: list[set[int]] = [set() for _ in packed]
    for c, z in rules.by_lead:
        below[z].add(c)
    for k in range(3, bound + 1):
        count = sum(len(packed) - word[-1] for word, _ in normal)
        if count > fiber.MAX_FIBER_POINTS:
            raise ValueError(
                f"the normal words of degree {k - 1} extend to {count:,} words of degree {k},"
                f" more than the cap of {fiber.MAX_FIBER_POINTS:,}"
            )
        quadratic = rules.sizes <= {2}
        kept = [
            (word + singles[z], total + packed[z])
            for word, total in normal
            for z in range(word[-1], len(packed))
            if below[z].isdisjoint(word) and (quadratic or not rules.hits(word + singles[z]))
        ]
        shared = _shared([total for _, total in kept])
        for mu in _unpack(sorted(shared), width, table.context.n):
            yield enumerate_fiber(table, mu)
        normal = [(word, total) for word, total in kept if word not in rules.by_lead] if shared else kept


def closure_components(table: GeneratorTable, mu: Monomial) -> list[list[FiberPoint]]:
    """Connected components of the fiber of mu under exchanges of fewer than t factors.

    Two points are adjacent when one becomes the other by replacing at most
    max(2, t - 1) factors, t the fiber's t-degree, with another factorization
    of the same sub-product; an exchange moves at least two.  Points in
    distinct components witness a minimal generator of the toric ideal of
    t-degree t at mu.

    At t <= 2 the bound is 2 >= t, so any point becomes any other in one
    exchange and the fiber is one component.  From t = 3 on two points are
    adjacent exactly when they share a factor (keep it, exchange the other
    t - 1; and an exchange of at most t - 1 factors keeps one), so the
    components are the classes of a union-find over the generator indices
    that the points use.  Components come in the order of their first point,
    and each lists its points in the fiber's descending sink order
    (``enumerate_fiber``); an empty fiber has none.
    """
    fiber = enumerate_fiber(table, mu)
    if not fiber:
        return []
    if len(fiber[0]) <= 2:
        return [fiber]
    labels = _component_labels(len(table.generators), fiber)
    components: dict[int, list[FiberPoint]] = {}
    for z in fiber:
        components.setdefault(labels[z[0]], []).append(z)
    return list(components.values())


def basis_to_json(basis: MarkedBasis) -> dict:
    """Each element's sides as factor names, read off ``basis.pairs``: each generator once."""
    names = [format_monomial(g, basis.table.context) for g in basis.table.generators]
    return {
        "variable_order": names,
        "elements": [
            {"lead": [names[c] for c in lead], "trail": [names[c] for c in trail]}
            for lead, trail in basis.pairs
        ],
        "count": len(basis.pairs),
    }
