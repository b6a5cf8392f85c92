"""Rees ideals of Borel ideals: the Rees algebra as a toric ring.

A Rees monomial is a pair of an x-part (ordinary monomial) and a Y-part
(multiset of generator indices).  The Rees algebra k[x, g t] is the toric
ring of one configuration (Herzog-Hibi-Vladoiu, 2005), :func:`_configuration`:
x variable ``v`` is code ``v`` with vector (e_v, 0), and generator ``g`` is
code ``n + g`` with vector (g, 1), so a monomial's sum is its image followed
by its t-degree.  The Groebner basis of the Rees ideal is the pairs within
the fibers of joint degree two, marked by the elimination order, defined
once on code words (:func:`_word_key`): x-parts by lex first, ties by the
fiber sink order on Y-parts.  The fibers of bidegree (1, 1) give the linear
syzygies ``x_j Y_u - x_i Y_v`` (for ``x_j u = x_i v``), read off the unit
moves between generators, and those of t-degree 2 the toric quadrics, read
off the table's own listing of its degree-2 fibers; no Rees fiber is listed
(:func:`rees_gb`).  Both sides share ``toric``'s pairing of degree-2
fibers, basis check, reduction engine and verifier, each given a
``toric.Configuration``, and all run on words: a :class:`ReesBasis` holds
each element as its pair of code words (see :func:`_codes`), decoded only
where a monomial is read, never to rank it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from operator import neg
from typing import Iterable

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import FiberPoint, _paired_moves, fiber_sink_key
from borelfiber.monomials import Monomial, format_monomial
from borelfiber.toric import Configuration, GroebnerReport, _checked_rules, _degree_two_pairs
from borelfiber.toric import _check_ints, _check_point, _Rules, _verify


@dataclass(frozen=True)
class ReesMonomial:
    xpart: Monomial
    ypart: FiberPoint


@dataclass(frozen=True)
class ReesBinomial:
    lead: ReesMonomial
    trail: ReesMonomial


def _codes(m: ReesMonomial) -> tuple[int, ...]:
    """The monomial as an ascending tuple of configuration codes.

    Variable ``v`` of ``n`` codes as ``v`` and generator ``g`` as ``n + g``,
    so one tuple holds both parts, x factors first.
    """
    n = len(m.xpart)
    return tuple([v for v, e in enumerate(m.xpart) for _ in range(e)] + [n + g for g in m.ypart])


def _from_codes(codes: tuple[int, ...], n: int) -> ReesMonomial:
    xpart = [0] * n
    for c in codes:
        if c < n:
            xpart[c] += 1
    return ReesMonomial(tuple(xpart), tuple(c - n for c in codes if c >= n))


def _word_key(word: tuple[int, ...], n: int) -> tuple:
    """Elimination-order sort key of a code word; larger key means larger monomial.

    The x codes (below ``n``), negated, compare as the exponent vectors in
    lex: where two x parts first differ, the smaller code names an earlier
    variable its word has more of, and a proper prefix ranks lower.  Ties
    go to :func:`~borelfiber.fiber.fiber_sink_key` of the Y codes.
    """
    return tuple(map(neg, word[: (split := bisect_left(word, n))])), fiber_sink_key(word[split:])


def _word_ranks(words: Iterable[tuple[int, ...]], size: int, n: int) -> list[int]:
    """:func:`_word_key` of each two-code word as one integer, the smaller rank the larger key.

    The codes must lie in ``range(size)``.  A word (a, b) ranks a * size + b
    when a is an x code (a < n), and b * size + a otherwise.  Proof: an x
    part outranks an empty one, and x words rank below n * size <= every Y
    word's rank.  Two x words first compare by -a, the smaller a winning;
    with equal a the smaller b wins, since an x code b gives the longer x
    part and otherwise both parts compare on -b.  Two Y words compare by
    their sink keys, as ``fiber.fiber_sink_ranks`` ranks them.
    """
    return [a * size + b if a < n else b * size + a for a, b in words]


def _configuration(table: GeneratorTable) -> Configuration:
    """(e_v, 0) for x variable v, then (g, 1) for generator g, marked by :func:`_word_key`."""
    n = table.context.n
    units = [(0,) * v + (1,) + (0,) * (n - v) for v in range(n)]
    vectors = units + [g + (1,) for g in table.generators]
    return Configuration(vectors, partial(_word_key, n=n), partial(_word_ranks, n=n))


def _check_monomial(m: ReesMonomial, table: GeneratorTable, what: str) -> tuple[int, ...]:
    """Return ``m``'s code word; raise ``ValueError`` unless ``m`` is a monomial over ``table``.

    ``m`` must be a :class:`ReesMonomial` (else ``what`` names it), both parts
    tuples of ints, the x-part one non-negative exponent per variable, and
    ``toric._check_point`` must accept the Y-part.
    """
    if not isinstance(m, ReesMonomial):
        raise ValueError(f"{what} must be a ReesMonomial, got {m!r}")
    xpart, n = m.xpart, table.context.n
    _check_ints(xpart, "the x-part")
    if len(xpart) != n:
        raise ValueError(f"the x-part must have {n} exponents, got {xpart}")
    if min(xpart, default=0) < 0:
        raise ValueError(f"x exponents must be non-negative, got {xpart}")
    _check_point(m.ypart, len(table.generators), "the Y-part")
    return _codes(m)


@dataclass(frozen=True, init=False)
class ReesBasis:
    """Each element's (lead, trail) code words over :func:`_configuration`, in ``pairs``.

    ``ReesBasis(table, elements)`` checks and codes each side of each
    :class:`ReesBinomial` once (:func:`_check_monomial`), so a malformed side
    raises ``ValueError`` here, before coding can hide it, and so does an
    element or side of the wrong type, named by position.  ``rees_gb``
    passes its words as ``pairs``.  The words themselves are checked where
    the rule index is built (``toric._checked_rules``).
    """

    table: GeneratorTable
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __init__(self, table: GeneratorTable, elements=(), *, pairs=None) -> None:
        if pairs is None:
            pairs = []
            for pos, el in enumerate(elements):
                if not isinstance(el, ReesBinomial):
                    raise ValueError(f"element {pos} must be a ReesBinomial, got {el!r}")
                lead = _check_monomial(el.lead, table, f"the lead of element {pos}")
                trail = _check_monomial(el.trail, table, f"the trail of element {pos}")
                pairs.append((lead, trail))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "pairs", tuple(pairs))

    @cached_property
    def elements(self) -> tuple[ReesBinomial, ...]:
        decode = partial(_from_codes, n=self.table.context.n)
        return tuple(ReesBinomial(decode(lead), decode(trail)) for lead, trail in self.pairs)

    @cached_property
    def _rules(self) -> _Rules:
        return _checked_rules(self, self.pairs, _configuration(self.table))


def rees_gb(table: GeneratorTable) -> ReesBasis:
    """The pairs within the Rees fibers of joint degree two: syzygies, then quadrics.

    No Rees fiber is listed.  A fiber of bidegree (1, 1) holds the words
    x_j Y_u with one image g_u + e_j, and two of them share it exactly when
    g_v = g_u + e_j - e_i, a unit move of ``fiber._paired_moves``, which
    labels the move e_j - e_i by (j, i).  So each pair u < v of generators
    one move apart gives one syzygy, (j, n + u) against (i, n + v), led by
    the word with the smaller x code, the larger x-part in lex; syzygies
    come in (u, v) order.  A fiber of t-degree 2 is a toric fiber of
    degree 2 with every code shifted by n, and its pairs are the toric ones
    (``toric._degree_two_pairs`` over ``GeneratorTable._quadric_fibers``),
    already marked, since Y words rank by the sink order, and in
    ``quadric_generators`` order.  Fibers of two x codes are single points.
    The syzygies are found as labels and counted with the quadrics before
    any word is built; more than ``toric.MAX_BASIS_ELEMENTS`` raise
    ``ValueError``.

    Every element has joint degree two, which is the executable form of
    Koszulness of the Rees algebra for two-Borel tables.
    """
    n = table.context.n
    packed, moves = _paired_moves(table, range(len(table.generators)))
    code_of = {total: c for c, total in packed.items()}
    linked = sorted(
        (u, v, j, i)
        for u, total in packed.items()
        for move, (j, i) in moves.items()
        if (v := code_of.get(total + move, -1)) > u
    )
    quadrics = _degree_two_pairs(table._quadric_fibers, shift=n, others=len(linked))
    syzygies = [
        ((j, n + u), (i, n + v)) if j < i else ((i, n + v), (j, n + u)) for u, v, j, i in linked
    ]
    return ReesBasis(table, pairs=syzygies + quadrics)


def rees_buchberger_verify(basis: ReesBasis) -> GroebnerReport:
    """Overlap check over mixed monomials; PASS exactly when it is Groebner.

    Every critical monomial of joint degree two or three is checked (see
    ``toric._check_overlaps``); ``pairs_checked`` counts those monomials.
    Raises ``ValueError`` on a basis that ``toric._checked_rules`` refuses:
    a malformed word, a lead that is not larger than its trail under
    :func:`_word_key`, or an element whose sides differ in image or t-degree
    (their sums over :func:`_configuration`); and on a lead whose joint
    degree is not two.  A failure is named by the image of its critical
    monomial.
    """
    return _verify(basis)


def rees_basis_to_json(basis: ReesBasis) -> dict:
    """Each element's x-parts as monomials and Y-parts as factor names, read off ``basis.pairs``.

    No word is decoded: a word's x codes (below n) come first, and each
    distinct run of them is formatted once, as is each generator.
    """
    context, n = basis.table.context, basis.table.context.n
    names = [None] * n + [format_monomial(g, context) for g in basis.table.generators]
    xparts: dict[tuple[int, ...], str] = {}

    def sides(word: tuple[int, ...]) -> tuple[str, list[str]]:
        split = bisect_left(word, n)
        x = word[:split]
        if x not in xparts:
            xparts[x] = format_monomial(tuple(map(x.count, range(n))), context)
        return xparts[x], [names[c] for c in word[split:]]

    elements = []
    for lead, trail in basis.pairs:
        (x_lead, y_lead), (x_trail, y_trail) = sides(lead), sides(trail)
        elements.append({"x_lead": x_lead, "y_lead": y_lead, "x_trail": x_trail, "y_trail": y_trail})
    return {"elements": elements, "count": len(basis.pairs)}
