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
from typing import Optional, Sequence

from borelfiber.monomials import (
    Monomial,
    VariableContext,
    borel_move,
    degree,
    format_monomial,
    is_borel_below,
    reverse_borel_move,
    sigma,
)


def expand_principal(root: Monomial) -> list[Monomial]:
    """Minimal generators of the principal Borel ideal of ``root``.

    These are exactly the degree-d monomials whose cumulative exponent vector
    is componentwise at most sigma(root); returned lex-earliest first.  They
    are built one variable at a time from their suffix sums d = s_0 >= s_1
    >= ... >= s_{n-1} >= 0 with s_k <= sigma_k(root): exponent k is
    s_k - s_{k+1}, and taking each s_{k+1} in ascending order lists the
    monomials lex-earliest first.
    """
    d = degree(root)
    if d < 1:
        raise ValueError("the unit monomial generates no proper Borel ideal")
    prefixes = [((), d)]  # (exponents so far, suffix sum of the rest)
    for bound in sigma(root)[1:]:
        prefixes = [
            (m + (rest - s,), s) for m, rest in prefixes for s in range(min(rest, bound) + 1)
        ]
    return [m + (rest,) for m, rest in prefixes]


def minimal_borel_generators(gens: Sequence[Monomial]) -> list[Monomial]:
    """Borel-order-maximal elements of an equigenerated list."""
    unique = list(dict.fromkeys(gens))
    return [
        m
        for m in unique
        if not any(g != m and is_borel_below(m, g) for g in unique)
    ]


def _from_sigma(sums: Sequence[int]) -> Monomial:
    """The monomial with the given cumulative exponent vector."""
    return tuple(a - b for a, b in zip(sums, (*sums[1:], 0)))


def _lex_last_sigma(bound: Sequence[int], mu: Monomial) -> Optional[tuple[int, ...]]:
    """Suffix sums of the lex-latest divisor of mu with sigma at most ``bound``.

    With c_n = 0 and c_k = min(bound_k, mu_k + c_{k+1}), c_k is the largest
    suffix sum from position k that a divisor of mu within the bound can
    reach, and taking every suffix sum at its largest gives the lex-latest
    such divisor.  One of degree bound_0 exists exactly when c_0 = bound_0.
    """
    sums = [0] * len(mu)
    c = 0
    for k in range(len(mu) - 1, -1, -1):
        c = min(bound[k], mu[k] + c)
        sums[k] = c
    return tuple(sums) if c == bound[0] else None


def lex_last_divisor(root: Monomial, mu: Monomial) -> Optional[Monomial]:
    """Lex-latest generator of Borel(root) dividing mu, or None.

    Every element of Borel(root) dividing mu is Borel-below the result, so
    substituting the result for the root leaves fibers of mu untouched.
    """
    if len(mu) != len(root):
        raise ValueError(f"variable contexts differ: {len(root)} vs {len(mu)} variables")
    sums = _lex_last_sigma(sigma(root), mu)
    return None if sums is None else _from_sigma(sums)


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

    @cached_property
    def pair_transitions(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """For each ordered generator pair, the paired-move replacements.

        ``pair_transitions[g1][g2]`` lists the pairs ``(h1, h2)`` where h1
        arises from g1 by a Borel move and h2 from g2 by the matching reverse
        move, with both results again minimal generators.  The rows live and
        die with the table.
        """
        gens = self.generators
        index_of = self.index_of
        n = self.context.n
        rows = []
        for e1 in gens:
            row = []
            for e2 in gens:
                moves = []
                for j in range(1, n):
                    if e1[j] == 0:
                        continue
                    for i in range(j):
                        if e2[i] == 0:
                            continue
                        h1 = index_of.get(borel_move(e1, j, i))
                        if h1 is None:
                            continue
                        h2 = index_of.get(reverse_borel_move(e2, i, j))
                        if h2 is not None:
                            moves.append((h1, h2))
                row.append(tuple(moves))
            rows.append(tuple(row))
        return tuple(rows)

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

