"""Instance suites for exhaustive and randomized verification sweeps."""

from __future__ import annotations

import random
from itertools import combinations
from operator import ge, le

from borelfiber.borel import GeneratorTable, build_two_borel, expand_principal
from borelfiber.fiber import fibers
from borelfiber.monomials import Monomial, sigma


def borel_incomparable_pairs(n: int, d: int) -> tuple[tuple[Monomial, Monomial], ...]:
    """All pairs (M, N), M lex-earlier, incomparable in the Borel order.

    M and N range over the degree-d monomials in n variables, d >= 1: these
    are Borel(x_n^d), listed lex-earliest first, so each pair comes out in
    order.  Nothing is cached; callers that need a table twice keep it.
    """
    with_sigma = [(m, sigma(m)) for m in expand_principal((0,) * (n - 1) + (d,))]
    return tuple(
        (M, N)
        for (M, sm), (N, sn) in combinations(with_sigma, 2)
        if not all(map(le, sm, sn)) and not all(map(ge, sm, sn))
    )


def suite_tables(cap: int = 200) -> list[GeneratorTable]:
    """The exhaustive two-Borel suite: all incomparable pairs, capped.

    Pairs come on three variables, then four, each by degree 2..5.
    """
    tables = []
    for n in (3, 4):
        for d in range(2, 6):
            for M, N in borel_incomparable_pairs(n, d):
                tables.append(build_two_borel(M, N))
                if len(tables) >= cap:
                    return tables
    return tables


def random_tables(count: int, seed: int) -> list[GeneratorTable]:
    """Seeded random two-Borel instances drawn from the incomparable pairs.

    Each draw picks a nonempty pair table of the suite's shapes, then a pair
    from it; the eight pair tables are built once per call.
    """
    rng = random.Random(seed)
    shapes = [borel_incomparable_pairs(n, d) for n in (3, 4) for d in range(2, 6)]
    choices = [pairs for pairs in shapes if pairs]
    return [build_two_borel(*rng.choice(rng.choice(choices))) for _ in range(count)]


def sweep_multidegrees(table: GeneratorTable, max_tdeg: int) -> list[Monomial]:
    """Distinct products of up to ``max_tdeg`` generators: every nonempty fiber."""
    return list(fibers(table, max_tdeg))
