"""Borel ideals presented by one to three Borel generators.

The central object is the :class:`GeneratorTable`: the minimal monomial
generators of the ideal listed in the *fiber sink variable order*.  For a
two-Borel ideal with presentation roots M (lex-earlier) and N the order is

* first the generators outside Borel(M), tagged ``G_N``, lex-latest first
  (so position 0 holds N),
* then the generators of Borel(M), tagged ``G_M``, lex-earliest first
  (so the final position holds M).

Tables with a single root are principal: everything sits in the ``G_M``
block.  Tables with three roots extend the same scheme block by block, from
the lex-latest root to the lex-earliest; this extension is only used by the
counterexample harness, since no canonical order exists for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence

from borelfiber.fiber import FiberPoint, _fiber_groups
from borelfiber.monomials import (
    Monomial,
    VariableContext,
    degree,
    format_monomial,
    sigma,
)


MAX_BLOCK_GENERATORS = 1_000_000


def count_principal(root: Monomial) -> int:
    """Number of minimal generators of the principal Borel ideal of ``root``.

    Counts the suffix-sum sequences of :func:`expand_principal` one variable
    at a time without listing them: ``ways[s]`` is the number of prefixes
    whose rest has suffix sum s, and the next sum is any s' <= s within the
    next bound.  The first sum is any s <= sigma_1(root), each once, and the
    bounds never rise, so each step keeps bound + 1 entries: O(n * sigma_1).
    """
    bounds = sigma(root)[1:]
    if not bounds:
        return 1
    ways = [1] * (bounds[0] + 1)
    for bound in bounds[1:]:
        ways = list(accumulate(reversed(ways)))[::-1][: bound + 1]  # sums of ways[s:]
    return sum(ways)


def expand_principal(root: Monomial) -> list[Monomial]:
    """Minimal generators of the principal Borel ideal of ``root``.

    These are exactly the degree-d monomials whose cumulative exponent vector
    is componentwise at most sigma(root); returned lex-earliest first.  They
    are built one variable at a time from their suffix sums d = s_0 >= s_1
    >= ... >= s_{n-1} >= 0 with s_k <= sigma_k(root): exponent k is
    s_k - s_{k+1}, and taking each s_{k+1} in ascending order lists the
    monomials lex-earliest first.  A block of more than
    ``MAX_BLOCK_GENERATORS`` raises ``ValueError`` before any is listed: it
    is counted first (:func:`count_principal`, O(n * sigma_1)).  With two or
    more variables each first sum s_1 <= sigma_1(root) starts a generator,
    so a sigma_1 at the cap is refused before any count.
    """
    d = degree(root)
    if d < 1:
        raise ValueError("the unit monomial generates no proper Borel ideal")
    first = sigma(root)[1:2]
    if first and first[0] >= MAX_BLOCK_GENERATORS:
        raise ValueError(
            f"Borel{root} has at least {first[0] + 1:,} minimal generators,"
            f" more than the cap of {MAX_BLOCK_GENERATORS:,}"
        )
    size = count_principal(root)
    if size > MAX_BLOCK_GENERATORS:
        raise ValueError(
            f"Borel{root} has {size:,} minimal generators,"
            f" more than the cap of {MAX_BLOCK_GENERATORS:,}"
        )
    prefixes = [((), d)]  # (exponents so far, suffix sum of the rest)
    for bound in sigma(root)[1:]:
        prefixes = [
            (m + (rest - s,), s) for m, rest in prefixes for s in range(min(rest, bound) + 1)
        ]
    return [m + (rest,) for m, rest in prefixes]


@dataclass(frozen=True)
class GeneratorTable:
    """Minimal generators of a Borel ideal in fiber sink variable order.

    ``roots`` holds the presentation (Borel generating set) in role order:
    the lex-earlier root M first.  ``tags[i]`` is ``"G_M"`` when
    ``generators[i]`` lies in Borel(M) and ``"G_N"`` otherwise.
    """

    context: VariableContext
    degree: int
    roots: tuple[Monomial, ...]
    generators: tuple[Monomial, ...]
    tags: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return not self.generators

    @cached_property
    def index_of(self) -> dict[Monomial, int]:
        return {g: i for i, g in enumerate(self.generators)}

    @cached_property
    def _peel_sums(self) -> tuple[Monomial, Monomial, dict[Monomial, int]]:
        """sigma(M), sigma(N) and each generator's index by its suffix sums.

        The direct sink peels factors as suffix sums (see
        ``fiber.find_sink_direct``) and reads each one's index here; the
        unique-sink sweep (``verify.sweep_unique_sinks``) reads the same
        three for its packed share and peel tests, so a corrupted entry
        reaches both.
        """
        by_sums = {sigma(g): i for i, g in enumerate(self.generators)}
        return sigma(self.roots[0]), sigma(self.roots[-1]), by_sums

    @cached_property
    def _quadric_fibers(self) -> tuple[tuple[FiberPoint, ...], ...]:
        """The fibers of degree 2 with two or more points, listed once, each a tuple of pairs.

        ``fiber._fiber_groups`` lists the products of up to two generators,
        fibers in (degree, multidegree) order and each in descending sink
        order; the fibers kept are those of two-code words with more than one
        point.  Both full quadric bases read them: ``toric.quadric_generators``,
        and ``rees.rees_gb``, whose quadrics are these words with every code
        shifted by n.  Tuples, as every reader shares them.
        """
        groups = _fiber_groups(self.generators, 2)[0].values()
        return tuple(tuple(words) for words in groups if len(words) > 1 and len(words[0]) == 2)

    def to_json(self) -> dict:
        return {
            "variables": list(self.context.names),
            "degree": self.degree,
            "borel_generators": [format_monomial(r, self.context) for r in self.roots],
            "generators": [
                {"monomial": format_monomial(g, self.context), "tag": t}
                for g, t in zip(self.generators, self.tags)
            ],
        }


def build_table(
    roots: Sequence[Monomial],
    context: Optional[VariableContext] = None,
    normalize: bool = True,
) -> GeneratorTable:
    """Assemble a GeneratorTable from 1..3 Borel generators of equal degree.

    With ``normalize`` the roots are deduplicated and sorted lex-earliest
    first, the convention for fresh ideals.  Without it they keep their
    roles, as the tests' ``helpers.reduce_for_fiber`` needs.
    """
    roots = list(roots)
    if not roots:
        raise ValueError("need at least one Borel generator")
    if len(roots) > 3:
        raise ValueError("tables support at most three Borel generators")
    degrees = {degree(r) for r in roots}
    if len(degrees) != 1:
        raise ValueError(f"generators must share one degree, got degrees {sorted(degrees)}")
    d = degrees.pop()
    if d < 1:
        raise ValueError("generators must have positive degree")
    lengths = {len(r) for r in roots}
    if len(lengths) != 1:
        raise ValueError("generators live in different variable contexts")
    if normalize:
        roots = sorted(dict.fromkeys(roots), reverse=True)
    if context is None:
        context = VariableContext.default(len(roots[0]))
    elif context.n != len(roots[0]):
        raise ValueError(f"context has {context.n} variables, generators have {len(roots[0])}")

    m_block = expand_principal(roots[0])
    m_set = set(m_block)
    # one block per remaining root, lex-latest root first, each block anti-lex
    blocks: list[list[Monomial]] = []
    claimed = set(m_set)
    for root in reversed(roots[1:]):
        block = [g for g in expand_principal(root) if g not in claimed]
        claimed.update(block)
        blocks.append(sorted(block))
    generators: list[Monomial] = [g for block in blocks for g in block]
    tags = ["G_N"] * len(generators)
    generators.extend(sorted(m_block, reverse=True))
    tags.extend(["G_M"] * len(m_block))
    return GeneratorTable(
        context=context,
        degree=d,
        roots=tuple(roots),
        generators=tuple(generators),
        tags=tuple(tags),
    )


def build_two_borel(
    M: Monomial, N: Monomial, context: Optional[VariableContext] = None
) -> GeneratorTable:
    """Table for the smallest Borel ideal containing M and N."""
    return build_table([M, N], context=context)
