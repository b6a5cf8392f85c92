"""Instance suites for exhaustive and randomized verification sweeps."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from borelfiber.borel import GeneratorTable, build_two_borel
from borelfiber.fiber import fibers
from borelfiber.monomials import Monomial, degree_monomials, sigma


@lru_cache(maxsize=None)
def borel_incomparable_pairs(n: int, d: int) -> tuple[tuple[Monomial, Monomial], ...]:
    """All pairs (M, N), M lex-earlier, incomparable in the Borel order."""
    monomials = list(degree_monomials(n, d))
    sigmas = {m: sigma(m) for m in monomials}
    pairs = []
    for M, N in itertools.combinations(monomials, 2):
        sm, sn = sigmas[M], sigmas[N]
        below = all(a <= b for a, b in zip(sm, sn))
        above = all(a >= b for a, b in zip(sm, sn))
        if not below and not above:
            pairs.append((M, N) if M > N else (N, M))
    return tuple(pairs)


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
    """Seeded random two-Borel instances drawn from the incomparable pairs."""
    rng = random.Random(seed)
    choices = [
        (n, d)
        for n in (3, 4)
        for d in range(2, 6)
        if borel_incomparable_pairs(n, d)
    ]
    tables = []
    for _ in range(count):
        n, d = rng.choice(choices)
        M, N = rng.choice(borel_incomparable_pairs(n, d))
        tables.append(build_two_borel(M, N))
    return tables


def sweep_multidegrees(table: GeneratorTable, max_tdeg: int) -> list[Monomial]:
    """Distinct products of up to ``max_tdeg`` generators: every nonempty fiber."""
    return list(fibers(table, max_tdeg))
