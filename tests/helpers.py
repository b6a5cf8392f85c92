"""Brute-force oracles shared by the test modules.

Everything here recomputes library answers from first principles (breadth
first search, exhaustive filters) so the tests stay independent of the code
paths they check.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, deque
from functools import lru_cache
from typing import Callable

from borelfiber.borel import GeneratorTable, build_table
from borelfiber.fiber import (
    FiberGraph,
    FiberPoint,
    _component_labels,
    _lex_last_sigma,
    enumerate_fiber,
    fiber_point_type,
    fiber_sink_key,
    fibers,
    find_sink_direct,
)
from borelfiber.instances import suite_tables
from borelfiber.monomials import (
    Monomial,
    VariableContext,
    _check_same_length,
    degree,
    format_monomial,
    multiply,
    parse_monomial,
    sigma,
    unit,
)
from borelfiber.rees import ReesBasis, ReesBinomial, ReesMonomial
from borelfiber.toric import (
    GroebnerReport,
    MarkedBasis,
    MarkedBinomial,
    SPairFailure,
    _cubic_steps,
    normal_form,
)

ABC = VariableContext.default(3)


# The paper's proof constructions that no library code calls.  They live
# here, beside the oracles, and their tests import them from here.


def _from_sigma(sums) -> Monomial:
    """The monomial with the given cumulative exponent vector."""
    return tuple(a - b for a, b in zip(sums, (*sums[1:], 0)))


def divides(m1: Monomial, m2: Monomial) -> bool:
    """True when m1 divides m2, i.e. componentwise m1 <= m2."""
    _check_same_length(m1, m2)
    return all(a <= b for a, b in zip(m1, m2))


def is_borel_below(m: Monomial, mp: Monomial) -> bool:
    """True when m is reachable from mp by Borel moves.

    Equivalent to sigma(m) <= sigma(mp) componentwise; both monomials must
    have the same degree.
    """
    _check_same_length(m, mp)
    if degree(m) != degree(mp):
        raise ValueError(f"degree mismatch: {m} has degree {degree(m)}, {mp} has {degree(mp)}")
    return all(a <= b for a, b in zip(sigma(m), sigma(mp)))


def find_reverse_move(m: Monomial, mp: Monomial, j: int) -> int:
    """Greatest i < j with sigma_i(m) != sigma_j(m).

    Requires m Borel-below mp with sigma_j(m) != sigma_j(mp); then
    reverse_borel_move(m, i, j) stays Borel-below mp.
    """
    if not is_borel_below(m, mp):
        raise ValueError(f"{m} is not Borel-below {mp}")
    s, sp = sigma(m), sigma(mp)
    if s[j] == sp[j]:
        raise ValueError(f"sigma agrees at position {j}; no reverse move needed")
    for i in range(j - 1, -1, -1):
        if s[i] != s[j]:
            return i
    raise RuntimeError("unreachable: sigma_0 is the degree, which exceeds sigma_j here")


def minimal_borel_generators(gens: list[Monomial]) -> list[Monomial]:
    """Borel-order-maximal elements of an equigenerated list."""
    unique = list(dict.fromkeys(gens))
    return [
        m
        for m in unique
        if not any(g != m and is_borel_below(m, g) for g in unique)
    ]


def lex_last_divisor(root: Monomial, mu: Monomial) -> Monomial | None:
    """Lex-latest generator of Borel(root) dividing mu, or None.

    Every element of Borel(root) dividing mu is Borel-below the result, so
    substituting the result for the root leaves fibers of mu untouched.
    """
    if len(mu) != len(root):
        raise ValueError(f"variable contexts differ: {len(root)} vs {len(mu)} variables")
    sums = _lex_last_sigma(sigma(root), sigma(mu))
    return None if sums is None else _from_sigma(sums)


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


def replacement_move(table: GeneratorTable, mu: Monomial, point: FiberPoint) -> FiberPoint | None:
    """One strictly-later neighbor of ``point``, or None at the blocking factor.

    For a type M point the last factor w is pushed lex-later by the reverse
    Borel move toward the lex-last divisor M' of mu in Borel(M); the freed
    variable is absorbed by a Borel move on another factor.  Type N works the
    same way on the first factor toward N'.  No move exists once the point
    contains Y_{M'} (type M) or Y_{N'} (type N).
    """
    if not point:
        raise ValueError("the empty fiber point has no replacement")
    if len(table.roots) > 2:
        raise ValueError("replacement moves need a two-Borel or principal table")
    if point_product(table, point) != mu:
        raise ValueError("point is not in the fiber of mu")
    typ = fiber_point_type(table, point)
    if typ == "M":
        root, slot = table.roots[0], len(point) - 1
    else:
        root, slot = table.roots[-1], 0
    reduced_root = lex_last_divisor(root, mu)
    if reduced_root is None:
        raise ValueError("no generator of the relevant block divides mu")
    w = table.generators[point[slot]]
    if w == reduced_root:
        return None
    s, sp = sigma(w), sigma(reduced_root)
    j = max(idx for idx in range(len(w)) if s[idx] < sp[idx])
    i = find_reverse_move(w, reduced_root, j)
    moved = table.index_of[reverse_borel_move(w, i, j)]
    for r, pos in enumerate(point):
        if r == slot or table.generators[pos][j] == 0:
            continue
        companion = table.index_of[borel_move(table.generators[pos], j, i)]
        out = list(point)
        out[slot] = moved
        out[r] = companion
        out.sort()
        return tuple(out)
    raise RuntimeError("another factor must carry the freed variable")


def point_product(table: GeneratorTable, point: FiberPoint) -> Monomial:
    """Product of the point's factors; the unit monomial for the empty point."""
    out = [0] * table.context.n
    for idx in point:
        for pos, e in enumerate(table.generators[idx]):
            out[pos] += e
    return tuple(out)


def rees_key(m: ReesMonomial) -> tuple:
    """Elimination-order sort key of a Rees monomial; larger key means larger monomial.

    The x-parts by lex first, ties by the fiber sink order on the Y-parts:
    the monomial oracle of the code-word key ``rees._word_key``.
    """
    return (m.xpart, fiber_sink_key(m.ypart))


def rees_image(table, m: ReesMonomial) -> Monomial:
    """Multidegree of a Rees monomial: the x-part times the Y factors' product."""
    return multiply(m.xpart, point_product(table, m.ypart))


def contains(word: tuple[int, ...], part: tuple[int, ...]) -> bool:
    """Multiset containment for ascending tuples, by one merge scan."""
    i = 0
    for x in part:
        while i < len(word) and word[i] < x:
            i += 1
        if i >= len(word) or word[i] != x:
            return False
        i += 1
    return True


def swap(word: tuple[int, ...], old: tuple[int, ...], new: tuple[int, ...]) -> tuple[int, ...]:
    """``word`` with the sub-multiset ``old`` replaced by ``new``, ascending.

    Raises ``ValueError`` when ``old`` is not a sub-multiset of ``word``.
    """
    rest = list(word)
    for x in old:
        rest.remove(x)
    return tuple(sorted(rest + list(new)))


def lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Least common multiple of two ascending tuples, as multisets."""
    rest = list(b)
    for x in a:
        if x in rest:
            rest.remove(x)
    return tuple(sorted(a + tuple(rest)))


def step_by_scan(pairs, word: tuple[int, ...]) -> tuple[int, ...] | None:
    """Reference one-step reduct: by the first pair whose lead is a sub-multiset of the word.

    Returns None when no lead is.
    """
    for lead, trail in pairs:
        if contains(word, lead):
            return swap(word, lead, trail)
    return None


def normal_form_by_scan(pairs, word: tuple[int, ...]) -> tuple[int, ...]:
    """Reference normal form of a code word under marked (lead, trail) pairs.

    Takes :func:`step_by_scan` until no lead is a sub-multiset of the word.
    It keeps no lead index and no cache, so it checks the lookup of
    ``toric._Rules``.
    """
    while (nxt := step_by_scan(pairs, word)) is not None:
        word = nxt
    return word


def completion_by_scan(table, bound: int) -> list[tuple[FiberPoint, FiberPoint]]:
    """Reference truncated Buchberger completion: every new lead meets every rule.

    Seeds with the pairs within each fiber of t-degree up to ``bound``, in
    :func:`fibers` order, and pairs each new lead with every earlier rule in
    position order, queueing an S-pair when the two leads share a code and
    their lcm has at most ``bound`` codes.  Normal forms come from
    :func:`normal_form_by_scan`, remembered until the next rule is added.
    Returns the (lead, trail) rules in order.
    """
    queue = deque(
        pair
        for points in fibers(table.generators, bound).values()
        for pair in itertools.combinations(points, 2)
    )
    rules: list[tuple[FiberPoint, FiberPoint]] = []
    known: dict[FiberPoint, FiberPoint] = {}
    while queue:
        x, y = queue.popleft()
        for word in (x, y):
            if word not in known:
                known[word] = normal_form_by_scan(rules, word)
        a, b = known[x], known[y]
        if a == b:
            continue
        if fiber_sink_key(a) < fiber_sink_key(b):
            a, b = b, a
        for lead, trail in rules:
            if not set(a) & set(lead):
                continue
            top = lcm(a, lead)
            if len(top) <= bound:
                queue.append((swap(top, a, b), swap(top, lead, trail)))
        rules.append((a, b))
        known.clear()
    return rules


def rees_word(m: ReesMonomial) -> tuple:
    """A Rees monomial as an ascending tuple of tagged variables ("x", v) and ("y", g)."""
    xs = [("x", v) for v, e in enumerate(m.xpart) for _ in range(e)]
    return tuple(sorted(xs + [("y", g) for g in m.ypart]))


def critical_monomials_by_pairs(leads: list[tuple]) -> set[tuple]:
    """Critical monomials of a rule list, from all pairs of its leads.

    The lcm of every two distinct leads that share a variable, and every lead
    carried by two rules or more.  Leads are ascending tuples of variables.
    """
    carried = Counter(leads)
    out = {lead for lead, count in carried.items() if count > 1}
    for p, q in itertools.combinations(carried, 2):
        if set(p) & set(q):
            out.add(lcm(p, q))
    return out


def overlap_report_by_walk(basis, vectors) -> GroebnerReport:
    """Reference overlap check: build, sort and reduce every critical monomial.

    The overlap check as it was before it learned to skip the fibers with
    one standard word: the critical monomials are built from the codes that
    share a lead with a lead's codes, and every one of them is reduced, so
    it checks which monomials ``toric._check_overlaps`` walks.  ``vectors``
    is the basis's configuration; a failure is named by the first n
    coordinates of its critical monomial's sum.  Assumes the marking and
    homogeneity checks of ``toric._verify`` pass.
    """
    rules = basis._rules
    by_lead, trails = rules.by_lead, rules.trails
    partners: dict[int, set[int]] = {}
    for a, b in by_lead:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    critical = {lead for lead, positions in by_lead.items() if len(positions) > 1}
    for a, b in by_lead:
        extra = partners[a] - {a} if a == b else (partners[a] - {b}) | (partners[b] - {a})
        critical.update(tuple(sorted((a, b, w))) for w in extra)
    n = basis.table.context.n
    failures = []
    for m in sorted(critical):
        if len(m) == 2:
            steps = [(pos, trails[pos]) for pos in by_lead[m]]
        else:
            steps = _cubic_steps(rules, m)
        reducts: dict = {}
        for pos, z in steps:
            reducts.setdefault(z, pos)
        first, *rest = reducts.items()
        target = rules.normal_form(first[0])
        for z, pos in rest:
            if rules.normal_form(z) != target:
                total = tuple(map(sum, zip(*[vectors[c] for c in m])))
                failures.append(SPairFailure(first[1], pos, total[:n]))
                break
    return _report(failures, critical, basis.table)


def walked_by_bits(by_lead, extras, packed, pairs, cubics) -> list[tuple[int, ...]]:
    """Reference for ``toric._walked``: step every counted code of every lead.

    The walk as it was before it read its codes off the shared sums: for a
    lead (a, b), each w in its ``high`` mask gives (a, b, w) and each in its
    ``low`` mask (a, w, b), kept when the sum of the three codes is shared;
    a lead carried twice is kept when its own sum is.  Sorted ascending.
    """
    critical = []
    for lead, (high, low) in extras.items():
        a, b = lead
        pair = packed[a] + packed[b]
        if len(by_lead[lead]) > 1 and pair in pairs:
            critical.append(lead)
        for w in range(max(high, low).bit_length()):
            if pair + packed[w] in cubics:
                if high >> w & 1:
                    critical.append((a, b, w))
                if low >> w & 1:
                    critical.append((a, w, b))
    return sorted(critical)


def mono(text: str, context: VariableContext = ABC) -> Monomial:
    return parse_monomial(text, context)


def monos(*texts: str, context: VariableContext = ABC) -> list[Monomial]:
    return [parse_monomial(t, context) for t in texts]


def cross_check_tables() -> list:
    """The figure ideal, the three-Borel example and every 10th suite table."""
    three_borel = build_table(monos("a^3c^3", "b^6", "a^2b^2c^2"))
    return [build_table(monos("a^2c^3", "b^4c")), three_borel] + suite_tables(cap=200)[::10]


def family_table(r: int) -> GeneratorTable:
    """The three-Borel table of ``counterexample --r r``: f, g and h in three variables."""
    f = (r, 0, r * (r - 2))
    g = (0, r * (r - 1), 0)
    h = (r - 1, r - 1, (r - 1) * (r - 2))
    return build_table([f, g, h], ABC)


def borel_move(m: Monomial, j: int, i: int) -> Monomial:
    """Replace one factor of the variable at position j by the one at i < j."""
    if not 0 <= i < j < len(m):
        raise ValueError(f"borel move needs 0 <= i < j < {len(m)}, got i={i}, j={j}")
    if m[j] == 0:
        raise ValueError(f"variable {j} does not divide {m}")
    out = list(m)
    out[j] -= 1
    out[i] += 1
    return tuple(out)


def reverse_borel_move(m: Monomial, j: int, k: int) -> Monomial:
    """Replace one factor of the variable at position j by the one at k > j."""
    if not 0 <= j < k < len(m):
        raise ValueError(f"reverse borel move needs 0 <= j < k < {len(m)}, got j={j}, k={k}")
    if m[j] == 0:
        raise ValueError(f"variable {j} does not divide {m}")
    out = list(m)
    out[j] -= 1
    out[k] += 1
    return tuple(out)


def pair_transitions(table) -> list[list[list[tuple[int, int]]]]:
    """``rows[p][q]``: the (h1, h2) with h1 = g_p x_i / x_j and h2 = g_q x_j / x_i.

    That is, h1 arises from generator p by a Borel move j -> i (i < j) and
    h2 from generator q by the matching reverse move, both again minimal
    generators.  Every ordered pair (p, q) gets a row, so each move is
    listed from both of its ends.
    """
    gens, index_of, n = table.generators, table.index_of, table.context.n
    rows = []
    for e1 in gens:
        row = []
        for e2 in gens:
            moves = []
            for j in range(1, n):
                for i in range(j):
                    if e1[j] == 0 or e2[i] == 0:
                        continue
                    up = list(e1)
                    up[j] -= 1
                    up[i] += 1
                    down = list(e2)
                    down[i] -= 1
                    down[j] += 1
                    h1, h2 = index_of.get(tuple(up)), index_of.get(tuple(down))
                    if h1 is not None and h2 is not None:
                        moves.append((h1, h2))
            row.append(moves)
        rows.append(row)
    return rows


def fiber_graph_by_pair_walk(table, mu: Monomial, points: list[FiberPoint], rows=None):
    """The fiber graph by the walk over every ordered pair of factor positions.

    ``points`` is the fiber in descending sink order.  From every vertex,
    every move of every ordered position pair is followed, in both
    directions, and each edge joins its two endpoints from the smaller
    vertex index to the larger.  ``rows`` is :func:`pair_transitions` of the
    table, computed when not given.
    """
    if rows is None:
        rows = pair_transitions(table)
    vindex = {v: i for i, v in enumerate(points)}
    edges = set()
    for vi, z in enumerate(points):
        for s1, s2 in itertools.permutations(range(len(z)), 2):
            for h1, h2 in rows[z[s1]][z[s2]]:
                moved = list(z)
                moved[s1], moved[s2] = h1, h2
                w = tuple(sorted(moved))
                if w != z:
                    wi = vindex[w]
                    edges.add((min(vi, wi), max(vi, wi)))
    return FiberGraph(table=table, mu=mu, vertices=tuple(points), edges=tuple(sorted(edges)))


def borel_reachable(mp: Monomial) -> set[Monomial]:
    """All monomials reachable from mp by sequences of Borel moves (BFS)."""
    seen = {mp}
    queue = deque([mp])
    while queue:
        m = queue.popleft()
        for j in range(1, len(m)):
            if m[j] == 0:
                continue
            for i in range(j):
                moved = list(m)
                moved[j] -= 1
                moved[i] += 1
                t = tuple(moved)
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
    return seen


def principal_gens_by_reachability(mp: Monomial) -> set[Monomial]:
    """Degree-d generators of the principal Borel ideal of mp, via BFS."""
    return borel_reachable(mp)


def brute_factorizations(gens: list[Monomial], mu: Monomial) -> set[tuple[int, ...]]:
    """All multisets of generator indices whose product is mu, by plain search."""
    out: set[tuple[int, ...]] = set()

    def rec(remaining: Monomial, start: int, picked: tuple[int, ...]) -> None:
        if degree(remaining) == 0:
            out.add(picked)
            return
        for idx in range(start, len(gens)):
            g = gens[idx]
            if divides(g, remaining):
                rec(tuple(r - e for r, e in zip(remaining, g)), idx, picked + (idx,))

    rec(mu, 0, ())
    return out


def enumerate_fiber_unpruned(table: GeneratorTable, mu: Monomial) -> list[FiberPoint]:
    """``fiber.enumerate_fiber`` without its Borel-product prune, as it was before it.

    The same iterative depth-first search, in the same order: a partial
    point is extended by every generator index at least its last one that
    divides the rest, the last factor is looked up directly, and a (rest,
    least index) state that completed no point is not searched again.  It
    never asks whether a rest can be factored at all, so it shares no Borel
    theory with the pruned search or the direct sink.
    """
    if degree(mu) == 0:
        return [()]
    if table.is_empty or degree(mu) % table.degree != 0:
        return []
    gens, index_of, d = table.generators, table.index_of, table.degree
    if degree(mu) == d:
        return [(index_of[mu],)] if mu in index_of else []
    out: list[FiberPoint] = []
    dead: set[tuple[Monomial, int]] = set()
    picked: list[int] = []
    frames = [[mu, 0, 0, 0]]  # rest, least index, next index, points found before
    while frames:
        frame = frames[-1]
        rest, start, idx, found = frame
        if idx == len(gens):
            frames.pop()
            if len(out) == found:
                dead.add((rest, start))
            if picked:
                picked.pop()
            continue
        frame[2] = idx + 1
        g = gens[idx]
        if any(e > r for e, r in zip(g, rest)):
            continue
        smaller = tuple(r - e for r, e in zip(rest, g))
        if degree(smaller) == d:
            last = index_of.get(smaller)
            if last is not None and last >= idx:
                out.append((*picked, idx, last))
        elif (smaller, idx) not in dead:
            picked.append(idx)
            frames.append([smaller, idx, idx, len(out)])
    return out


@lru_cache(maxsize=8)
def _factor_search(table) -> Callable[[Monomial, int], bool]:
    gens = table.generators
    known: dict[tuple[Monomial, int], bool] = {}

    def search(remaining: Monomial, start: int) -> bool:
        if degree(remaining) == 0:
            return True
        key = (remaining, start)
        if key not in known:
            known[key] = any(
                divides(gens[idx], remaining)
                and search(tuple(r - e for r, e in zip(remaining, gens[idx])), idx)
                for idx in range(start, len(gens))
            )
        return known[key]

    return search


def can_factor(table, mu: Monomial) -> bool:
    """Does mu factor into table generators?  A memoized search over indices."""
    return _factor_search(table)(mu, 0)


def has_gm_factorization(table, mu: Monomial) -> bool:
    """Does some factorization of mu into table generators use a G_M generator?

    A search over generator indices (see :func:`can_factor`); it shares no
    code with the closed form that ``find_sink_direct`` uses for the same
    question.
    """
    return any(
        tag == "G_M"
        and divides(g, mu)
        and can_factor(table, tuple(r - e for r, e in zip(mu, g)))
        for g, tag in zip(table.generators, table.tags)
    )


def with_cached(table: GeneratorTable, **values) -> GeneratorTable:
    """A copy of ``table`` whose cached properties read the given values.

    The negative controls use it to hand the checks corrupted move rows
    (``later_pairs``) or suffix sums (``_peel_sums``).
    """
    copy = dataclasses.replace(table)
    copy.__dict__.update(values)
    return copy


def standard_words_by_fibers(table, max_deg: int) -> dict[int, list[FiberPoint]]:
    """The points of ``fibers`` through ``max_deg`` that contain no lead pair, by length.

    A lead is a point of a degree-2 fiber other than its last point, read off
    the fibers rather than the table's paired-move rows; a point contains
    one when two of its positions form it.  Each length's points are sorted.
    """
    groups = fibers(table.generators, max_deg)
    leads = {p for points in groups.values() if len(points[0]) == 2 for p in points[:-1]}
    out: dict[int, list[FiberPoint]] = {}
    for points in groups.values():
        for p in points:
            if leads.isdisjoint(itertools.combinations(p, 2)):
                out.setdefault(len(p), []).append(p)
    return {length: sorted(words) for length, words in out.items()}


def marks_by_direct_sink(table, max_tdeg: int) -> list[Monomial]:
    """The multidegrees a sweep must hand to its check, in (degree, mu) order.

    Lists every fiber through ``max_tdeg`` by ``fibers`` and holds each of
    its standard words, the points none of whose factor pairs has a
    nonempty row in ``table.later_pairs``, to ``find_sink_direct``; a fiber
    with a word that differs is marked.
    """
    leads = {pair for pair, row in table.later_pairs.items() if row}
    out = []
    for mu, points in fibers(table.generators, max_tdeg).items():
        words = [p for p in points if leads.isdisjoint(itertools.combinations(p, 2))]
        if any(word != find_sink_direct(table, mu) for word in words):
            out.append(mu)
    return out


def unique_sink_by_graph(table, mu: Monomial) -> list[str]:
    """``verify.check_unique_sink`` read off a fiber graph built here.

    The vertices are ``enumerate_fiber`` in descending sink order.  The edges
    come straight from ``table.later_pairs``: for every point, every pair of
    factor positions and every entry of that pair's row, the edge (point,
    target).  Checks that each edge decreases by comparing the endpoints'
    sink keys, counts the sinks by out-degree, and counts components
    whenever an edge goes backward or the sinks are not one.  Reports the
    same messages in the same order as the check.
    """
    points = sorted(enumerate_fiber(table, mu), key=fiber_sink_key, reverse=True)
    if not points:
        return []
    index = {p: i for i, p in enumerate(points)}
    edges = sorted(
        {
            (i, index[tuple(sorted(p[:s1] + p[s1 + 1 : s2] + p[s2 + 1 :] + q))])
            for i, p in enumerate(points)
            for s1, s2 in itertools.combinations(range(len(p)), 2)
            for q in table.later_pairs.get((p[s1], p[s2]), ())
        }
    )
    violations = []
    keys = list(map(fiber_sink_key, points))
    for a, b in edges:
        if keys[a] <= keys[b]:
            violations.append(f"edge {a}->{b} does not decrease in the sink order")
    starts = {a for a, _ in edges}
    graph_sinks = [p for i, p in enumerate(points) if i not in starts]
    if violations or len(graph_sinks) != 1:
        if len(set(_component_labels(len(points), edges))) != 1:
            violations.append("fiber graph is disconnected")
    if len(graph_sinks) != 1:
        violations.append(f"{len(graph_sinks)} sinks instead of one")
    else:
        if graph_sinks[0] != points[-1]:
            violations.append("sink differs from the sink-order minimum")
        if find_sink_direct(table, mu) != graph_sinks[0]:
            violations.append("direct sink disagrees with the graph sink")
    label = format_monomial(mu, table.context)
    return [f"{label}: {v}" for v in violations]


def has_gm_factorization_by_shares(table, mu: Monomial) -> bool:
    """:func:`has_gm_factorization` without a search, for products too long to search.

    Some factorization of mu, of t-degree k, uses a G_M generator exactly
    when mu lies in Borel(M)^i Borel(N)^(k-i) = Borel(M^i N^(k-i)) for some
    share i >= 1, that is when sigma(mu) <= i sigma(M) + (k-i) sigma(N)
    (Francisco-Mermin-Schweig, "Borel generators", 2011).  Each share is
    tried in turn, with no interval solved.
    """
    k = degree(mu) // table.degree
    s_m, s_n = sigma(table.roots[0]), sigma(table.roots[-1])
    return any(
        all(s <= i * m + (k - i) * n for s, m, n in zip(sigma(mu), s_m, s_n))
        for i in range(1, k + 1)
    )


def sink_by_peeling(table, mu: Monomial, has_gm=has_gm_factorization) -> FiberPoint:
    """The direct sink one factor at a time, for a mu that factors.

    Peels the lex-last divisor in Borel(M) while some factorization of the
    rest uses a G_M generator, else the one in Borel(N), by the searches
    :func:`has_gm_factorization` (or the given ``has_gm``) and
    :func:`lex_last_divisor_by_scan`.
    """
    picked = []
    while degree(mu):
        root = table.roots[0] if has_gm(table, mu) else table.roots[-1]
        factor = lex_last_divisor_by_scan(root, mu)
        picked.append(table.index_of[factor])
        mu = tuple(a - b for a, b in zip(mu, factor))
    return tuple(sorted(picked))


def linear_syzygies_by_diff(table) -> list[ReesBinomial]:
    """Linear syzygies from the exponent difference of each generator pair.

    A pair t < u gives x_j Y_t - x_i Y_u when gens[t] - gens[u] is +1 at i,
    -1 at j and 0 elsewhere; the larger side under ``rees_key`` leads.
    """
    n = table.context.n
    gens = table.generators
    out = []
    for t, u in itertools.combinations(range(len(gens)), 2):
        diff = [a - b for a, b in zip(gens[t], gens[u])]
        plus = [pos for pos, v in enumerate(diff) if v == 1]
        minus = [pos for pos, v in enumerate(diff) if v == -1]
        if len(plus) != 1 or len(minus) != 1 or any(abs(v) > 1 for v in diff):
            continue
        xi, xj = list(unit(n)), list(unit(n))
        xi[plus[0]] += 1
        xj[minus[0]] += 1
        first = ReesMonomial(tuple(xj), (t,))
        second = ReesMonomial(tuple(xi), (u,))
        if rees_key(first) > rees_key(second):
            out.append(ReesBinomial(lead=first, trail=second))
        else:
            out.append(ReesBinomial(lead=second, trail=first))
    return out


def interreduce_by_scan(basis: MarkedBasis) -> MarkedBasis:
    """Minimalize by a divisibility scan over the kept leads, then reduce trails.

    Elements are taken in (t-degree, lead, trail) sink order, and one is kept
    when no kept lead divides its lead.
    """
    table = basis.table
    ordered = sorted(
        basis.elements,
        key=lambda el: (len(el.lead), fiber_sink_key(el.lead), fiber_sink_key(el.trail)),
    )
    kept: list[MarkedBinomial] = []
    for el in ordered:
        if not any(contains(el.lead, other.lead) for other in kept):
            kept.append(el)
    minimal = MarkedBasis(table, tuple(kept))
    reduced = tuple(
        MarkedBinomial(lead=el.lead, trail=normal_form(el.trail, minimal)) for el in kept
    )
    return MarkedBasis(table, tuple(dict.fromkeys(reduced)))


def all_monomials(n: int, d: int) -> list[Monomial]:
    """Every degree-d monomial in n variables, lex-earliest first."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return sorted(out, reverse=True)


def suffix_sums(m: Monomial) -> list[int]:
    return [sum(m[k:]) for k in range(len(m))]


@lru_cache(maxsize=None)
def principal_by_filter(root: Monomial) -> list[Monomial]:
    """Borel(root) as the degree-d monomials with suffix sums at most root's."""
    bound = suffix_sums(root)
    return [
        m
        for m in all_monomials(len(root), sum(root))
        if all(a <= b for a, b in zip(suffix_sums(m), bound))
    ]


def lex_last_divisor_by_scan(root: Monomial, mu: Monomial):
    """Lex-latest element of Borel(root) dividing mu, by scanning all of it."""
    divisors = [g for g in principal_by_filter(root) if all(a <= b for a, b in zip(g, mu))]
    return min(divisors) if divisors else None


def closure_components_by_search(table, mu: Monomial, max_swap: int) -> list[list[FiberPoint]]:
    """Components of the fiber of mu under exchanges of 2..max_swap factors.

    Searches every subset of at most ``max_swap`` factors of every point and
    every refactorization of its product, starting each component from the
    first point not yet reached; components list their points in ascending
    tuple order, the order of the library's enumeration.
    """
    gens = list(table.generators)
    fiber = sorted(brute_factorizations(gens, mu))
    position = {z: i for i, z in enumerate(fiber)}
    refactor: dict[Monomial, list[tuple[int, ...]]] = {}
    seen = [False] * len(fiber)
    components = []
    for start in range(len(fiber)):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [fiber[start]]
        while stack:
            z = stack.pop()
            for j in range(2, min(max_swap, len(z)) + 1):
                for slots in itertools.combinations(range(len(z)), j):
                    kept = [z[s] for s in range(len(z)) if s not in slots]
                    product = tuple(map(sum, zip(*(gens[z[s]] for s in slots))))
                    if product not in refactor:
                        refactor[product] = sorted(brute_factorizations(gens, product))
                    for alt in refactor[product]:
                        idx = position[tuple(sorted(kept + list(alt)))]
                        if not seen[idx]:
                            seen[idx] = True
                            comp.append(idx)
                            stack.append(fiber[idx])
        components.append([fiber[i] for i in sorted(comp)])
    return components


def cwr_multidegrees(table, max_tdeg: int) -> list[Monomial]:
    """Distinct products of every multiset of 1..max_tdeg generators, by brute force."""
    mus: set[Monomial] = set()
    for t in range(1, max_tdeg + 1):
        for combo in itertools.combinations_with_replacement(range(len(table.generators)), t):
            mus.add(point_product(table, combo))
    return sorted(mus, key=lambda m: (degree(m), m))


def fibers_by_grouping(vectors, max_deg: int) -> dict[tuple[int, Monomial], list[FiberPoint]]:
    """Every word of 1..max_deg codes, grouped by (length, tuple sum), by brute force.

    Keys ascend, and each group lists its words in descending fiber sink
    order: the order ``fibers`` promises for its keys and points.
    """
    groups: dict[tuple[int, Monomial], list[FiberPoint]] = {}
    for length in range(1, max_deg + 1):
        for word in itertools.combinations_with_replacement(range(len(vectors)), length):
            total = tuple(map(sum, zip(*[vectors[c] for c in word])))
            groups.setdefault((length, total), []).append(word)
    return {key: sorted(groups[key], key=fiber_sink_key, reverse=True) for key in sorted(groups)}


def count_vector_sink_key(table, point: FiberPoint) -> tuple:
    """The fiber sink order by multiplicity vectors; larger key, earlier point.

    Scans generator indices from the last backward; the first difference in
    multiplicity decides, and the smaller multiplicity is the larger point.
    """
    counts = [0] * len(table.generators)
    for idx in point:
        counts[idx] += 1
    counts.reverse()
    return (len(point), tuple(-c for c in counts))


def rees_apply(m: ReesMonomial, el: ReesBinomial) -> ReesMonomial:
    """One-step reduct of m by el, whose lead divides m."""
    xpart = tuple(a - b + c for a, b, c in zip(m.xpart, el.lead.xpart, el.trail.xpart))
    return ReesMonomial(xpart, swap(m.ypart, el.lead.ypart, el.trail.ypart))


def split_rees_reducer(basis: ReesBasis) -> Callable[[ReesMonomial], ReesMonomial]:
    """Reference Rees normal form that keeps the x-part and the Y-part apart.

    Reduces by the lowest-index applicable lead until none applies: a lead
    applies when its x-part divides the monomial's exponentwise and its
    Y-part is a sub-multiset.  Reducers are searched by the smallest Y factor
    of their lead.  It shares no code with the library's coded engine
    (``toric._Rules``), so the Rees oracles do not run the code they check.
    The returned function caches every monomial it passes on the way.
    """
    elements = basis.elements
    buckets: dict[int, list[int]] = {}
    for pos, el in enumerate(elements):
        buckets.setdefault(el.lead.ypart[0], []).append(pos)
    shapes = [
        (tuple((v, e) for v, e in enumerate(el.lead.xpart) if e), el.lead.ypart)
        for el in elements
    ]
    cache: dict[ReesMonomial, ReesMonomial] = {}

    def reduce(m: ReesMonomial) -> ReesMonomial:
        chain = []
        current = m
        while current not in cache:
            chain.append(current)
            xpart, ypart = current.xpart, current.ypart
            candidates = sorted({p for g in set(ypart) for p in buckets.get(g, ())})
            for pos in candidates:
                xreq, ylead = shapes[pos]
                for v, e in xreq:
                    if xpart[v] < e:
                        break
                else:
                    if contains(ypart, ylead):
                        current = rees_apply(current, elements[pos])
                        break
            else:
                cache[current] = current
        for z in chain:
            cache[z] = cache[current]
        return cache[m]

    return reduce


def _report(failures: list[SPairFailure], pairs: set, table) -> GroebnerReport:
    return GroebnerReport(
        pairs_checked=len(pairs),
        failures=tuple(failures),
        context_names=table.context.names,
    )


def pairwise_buchberger(basis, all_pairs: bool = False) -> GroebnerReport:
    """Slow toric oracle: reduce both sides of every S-pair.

    By default only pairs whose leads share a generator are reduced (disjoint
    leads pass by the product criterion); ``all_pairs`` reduces those too.
    """
    table = basis.table
    elements = basis.elements
    if all_pairs:
        pairs = set(itertools.combinations(range(len(elements)), 2))
    else:
        buckets: dict[int, list[int]] = {}
        for pos, el in enumerate(elements):
            for g in set(el.lead):
                buckets.setdefault(g, []).append(pos)
        pairs = set()
        for positions in buckets.values():
            pairs.update(itertools.combinations(positions, 2))
    failures = []
    for p, q in sorted(pairs):
        f, g = elements[p], elements[q]
        top = lcm(f.lead, g.lead)
        a = swap(top, f.lead, f.trail)
        b = swap(top, g.lead, g.trail)
        if a != b and normal_form(a, basis) != normal_form(b, basis):
            failures.append(SPairFailure(p, q, point_product(table, top)))
    return _report(failures, pairs, table)


def pairwise_rees_buchberger(basis, all_pairs: bool = False) -> GroebnerReport:
    """Slow Rees oracle: reduce both sides of every S-pair of mixed monomials.

    By default only pairs whose leads share an x or a Y variable are reduced;
    ``all_pairs`` reduces every pair.
    """
    table = basis.table
    elements = basis.elements
    if all_pairs:
        pairs = set(itertools.combinations(range(len(elements)), 2))
    else:
        buckets: dict[tuple[str, int], list[int]] = {}
        for pos, el in enumerate(elements):
            for g in set(el.lead.ypart):
                buckets.setdefault(("y", g), []).append(pos)
            for v, e in enumerate(el.lead.xpart):
                if e > 0:
                    buckets.setdefault(("x", v), []).append(pos)
        pairs = set()
        for positions in buckets.values():
            pairs.update(itertools.combinations(positions, 2))
    reduce = split_rees_reducer(basis)
    failures = []
    for p, q in sorted(pairs):
        f, g = elements[p], elements[q]
        top = ReesMonomial(
            tuple(max(a, b) for a, b in zip(f.lead.xpart, g.lead.xpart)),
            lcm(f.lead.ypart, g.lead.ypart),
        )
        a = rees_apply(top, f)
        b = rees_apply(top, g)
        if a != b and reduce(a) != reduce(b):
            failures.append(SPairFailure(p, q, rees_image(table, top)))
    return _report(failures, pairs, table)
