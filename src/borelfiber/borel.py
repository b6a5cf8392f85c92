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
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from borelfiber.monomials import (
    Monomial,
    VariableContext,
    degree,
    degree_monomials,
    divides,
    format_monomial,
    is_borel_below,
    sigma,
)


@lru_cache(maxsize=4096)
def _expand_principal(root: Monomial) -> tuple[Monomial, ...]:
    d = degree(root)
    if d < 1:
        raise ValueError("the unit monomial generates no proper Borel ideal")
    bound = sigma(root)
    out = []
    for m in degree_monomials(len(root), d):
        s = sigma(m)
        if all(a <= b for a, b in zip(s, bound)):
            out.append(m)
    return tuple(out)


def expand_principal(root: Monomial) -> list[Monomial]:
    """Minimal generators of the principal Borel ideal of ``root``.

    These are exactly the degree-d monomials whose cumulative exponent vector
    is componentwise at most sigma(root); returned lex-earliest first.
    """
    return list(_expand_principal(root))


def minimal_borel_generators(gens: Sequence[Monomial]) -> list[Monomial]:
    """Borel-order-maximal elements of an equigenerated list."""
    unique = list(dict.fromkeys(gens))
    return [
        m
        for m in unique
        if not any(g != m and is_borel_below(m, g) for g in unique)
    ]


@lru_cache(maxsize=65536)
def lex_last_divisor(root: Monomial, mu: Monomial) -> Optional[Monomial]:
    """Lex-latest generator of Borel(root) dividing mu, or None.

    Every element of Borel(root) dividing mu is Borel-below the result, so
    substituting the result for the root leaves fibers of mu untouched.
    """
    candidates = [g for g in _expand_principal(root) if divides(g, mu)]
    if not candidates:
        return None
    return min(candidates)


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
    def M(self) -> Optional[Monomial]:
        return self.roots[0] if self.roots else None

    @property
    def N(self) -> Optional[Monomial]:
        return self.roots[-1] if len(self.roots) >= 2 else None

    @property
    def is_empty(self) -> bool:
        return not self.generators

    @cached_property
    def index_of(self) -> dict[Monomial, int]:
        return {g: i for i, g in enumerate(self.generators)}

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
    first, the convention for fresh ideals.  Fiber reduction passes
    ``normalize=False`` to keep the surviving roots in their original roles.
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
    if len(M) != len(N):
        raise ValueError("generators live in different variable contexts")
    if degree(M) != degree(N):
        raise ValueError(f"degree mismatch: {M} vs {N}")
    return build_table([M, N], context=context)


def reduce_for_fiber(table: GeneratorTable, mu: Monomial) -> GeneratorTable:
    """Replace each root by its lex-latest divisor of mu.

    Roots with no divisor of mu are dropped; if none survives the result is
    an empty table.  The fiber graph at mu is unchanged by this reduction,
    so the surviving roots keep their original roles rather than being
    re-sorted by lex.
    """
    if len(mu) != table.context.n:
        raise ValueError("mu lives in a different variable context")
    survivors = []
    for root in table.roots:
        reduced = lex_last_divisor(root, mu)
        if reduced is not None and reduced not in survivors:
            survivors.append(reduced)
    if not survivors:
        return GeneratorTable(
            context=table.context,
            degree=table.degree,
            roots=(),
            generators=(),
            tags=(),
        )
    return build_table(survivors, context=table.context, normalize=False)

