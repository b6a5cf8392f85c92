"""Fiber graphs of a Borel ideal and the fiber sink order.

A fiber point is a factorization of a multidegree mu into minimal
generators, stored as an ascending tuple of generator indices into a
:class:`~borelfiber.borel.GeneratorTable`.  Two points are adjacent in the
fiber graph when one becomes the other by a Borel move on one factor paired
with the matching reverse Borel move on another; each edge is directed
toward the point that is later (smaller) in the fiber sink order, the
graded reverse lex order on the table's variable order.

Fibers come from two enumerations.  :func:`fibers` builds every point of a
configuration (one vector per code) up to a degree bound in one pass, level
by level, and groups the points by vector sum, each sum carried as one
packed integer (:func:`_pack`).  The toric configuration is
the table's generators, and the Rees algebra is the toric ring of a larger
one (see ``rees``).  The quadrics, the Rees lift and the completion oracle
use it, because they need every fiber up to the bound anyway.
:func:`enumerate_fiber` factors a single multidegree by one iterative
depth-first search, which never enters a rest that no generators factor
(:func:`_factorable`); it serves one-mu callers, whose t can be far too
large to list every product up to it.

A point's later paired moves come from :func:`_later_moves`, which reads the
table's paired-move rows (``GeneratorTable.later_pairs``, read off the degree-2
fibers of :func:`fibers`, so each move is listed from its earlier end).
:func:`build_fiber_graph` drains it for every point and keeps each move as
the edge it yields, so the unique-sink check in ``verify`` reads every
verdict, a backward move's included, off that one graph.  A point is a
sink exactly when it has no later move, so the sinks are the standard
words of the rows' keys, and :func:`_standard_levels`, the one scan of
standard words, serves the sweep in ``verify`` and the overlap check in
``toric``.  No fiber state outlives a call, except those rows and the
suffix sums the direct sink reads, which live and die with the table.

For two-Borel tables every nonempty fiber graph is a connected DAG with a
unique sink, which :func:`find_sink_direct` computes without building the
graph or searching, by one interval test on i from Borel(M)^i Borel(N)^(t-i)
= Borel(M^i N^(t-i)) and then one peel per run of equal factors;
:func:`build_fiber_graph` is the explicit oracle.  The
peels after the first are the direct sink of the rest, so the sweep in
``verify`` checks each standard word by its first peel (:func:`_peel`)
against the word it accepted for the rest.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import le, neg, sub
from typing import TYPE_CHECKING, Optional, Sequence

from borelfiber.monomials import Monomial, degree, format_monomial, sigma

if TYPE_CHECKING:
    from borelfiber.borel import GeneratorTable

FiberPoint = tuple[int, ...]


def fiber_sink_key(point: FiberPoint) -> tuple:
    """Sort key for the fiber sink order; larger key means earlier point.

    Graded reverse lex: among points of one t-degree, scanning generator
    indices from the last backward, the first difference in multiplicity
    decides, and the point with the smaller multiplicity there is the larger
    one.  On ascending index tuples that is the first difference between the
    reversed tuples, where the smaller index wins.
    """
    return (len(point), tuple(map(neg, point[::-1])))


def _pack(vectors: Sequence[Monomial], length: int) -> tuple[list[int], int]:
    """Each vector as one non-negative integer, and the bits of one coordinate.

    Coordinate 0 takes the highest bits, and every coordinate gets ``width``
    bits, enough for ``length`` times the largest coordinate.  So a sum of at
    most ``length`` vectors never carries from one coordinate into the next:
    the sum of the packed vectors is the packed sum, which :func:`_unpack`
    reads back.  Packing is then injective on those sums, and integer order
    on them is lex order on the unpacked sums.  Raises ``ValueError`` when the
    vectors differ in length or a coordinate is negative.
    """
    size = len(vectors[0]) if vectors else 0
    for vector in vectors:
        if len(vector) != size:
            raise ValueError(
                f"configuration vectors differ in length: {tuple(vectors[0])} and {tuple(vector)}"
            )
    coordinates = [x for vector in vectors for x in vector]
    if coordinates and min(coordinates) < 0:
        raise ValueError(f"configuration coordinates must be non-negative, got {min(coordinates)}")
    width = max(1, (length * max(coordinates, default=0)).bit_length())
    packed = []
    for vector in vectors:
        total = 0
        for x in vector:
            total = total << width | x
        packed.append(total)
    return packed, width


def _unpack(totals: list[int], width: int, size: int) -> list[Monomial]:
    """The ``size`` coordinates of each sum packed by :func:`_pack` with ``width`` bits each.

    One pass over the sums per coordinate; the tuples are zipped from the columns.
    """
    if not size:
        return [()] * len(totals)
    mask = (1 << width) - 1
    shifts = range(width * (size - 1), -1, -width)
    return list(zip(*[[total >> shift & mask for total in totals] for shift in shifts]))


def fibers(vectors: Sequence[Monomial], max_deg: int) -> dict[Monomial, list[FiberPoint]]:
    """Every nonempty fiber of degree 1..max_deg of a configuration, keyed by sum.

    A configuration lists one vector per code, and a point is an ascending
    code tuple; the toric configuration is ``table.generators``.  Builds the
    points one degree at a time, extending each point of the last level by
    every code at least its last one.  A point's sum is carried packed into
    one integer (:func:`_pack`, sized for ``max_deg`` codes), so extending a
    point adds one integer, and each level's points are grouped by that
    integer, which is injective on sums of up to ``max_deg`` vectors.  A
    level's keys are sorted as integers, which is lex order on the sums, and
    unpacked together.  So keys come in ascending (point length, key) order,
    (degree, mu) order on the toric side, and each fiber lists its points in
    descending sink order, as :func:`build_fiber_graph` orders its vertices.

    Raises ``ValueError`` when the vectors differ in length, when a
    coordinate is negative (packing needs non-negative sums), and when points
    of two lengths share a sum, since a fiber holds points of one length.
    """
    if max_deg < 1:
        raise ValueError("the degree bound must be at least 1")
    packed, width = _pack(vectors, max_deg)
    size = len(vectors[0]) if vectors else 0
    singles = [(idx,) for idx in range(len(packed))]
    groups: dict[int, list[FiberPoint]] = defaultdict(list)
    for single, total in zip(singles, packed):
        groups[total].append(single)
    levels = [groups]
    for _ in range(max_deg - 1):
        grown: dict[int, list[FiberPoint]] = defaultdict(list)
        for total, points in groups.items():
            for point in points:
                last = point[-1]
                for single, vector in zip(singles[last:], packed[last:]):
                    grown[total + vector].append(point + single)
        levels.append(grown)
        groups = grown
    out: dict[Monomial, list[FiberPoint]] = {}
    for groups in levels:
        totals = sorted(groups)
        for total, key in zip(totals, _unpack(totals, width, size)):
            if key in out:
                raise ValueError(f"points of different lengths share the sum {key}")
            points = groups[total]
            if len(points) > 1:
                # One length per fiber: reversed tuples ascend in descending sink order.
                points.sort(key=lambda p: p[::-1])
            out[key] = points
    return out


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _partners(pairs, size: int) -> list[int]:
    """For each code c < ``size``, a mask with bit w set when (c, w) or (w, c) is in ``pairs``."""
    partners = [0] * size
    for a, b in pairs:
        partners[a] |= 1 << b
        partners[b] |= 1 << a
    return partners


def _standard_levels(partners: list[int], packed: list[int], max_len: int):
    """Yield the standard words of each length 1..max_len as (word, sum, allowed) triples.

    A word is standard when none of its code pairs is a lead, (c, w) with bit
    w of ``partners[c]``; ``packed`` is packed for sums of ``max_len`` codes
    (:func:`_pack`).  Standard words are closed under division, so each one
    extends its prefix by a code c of the prefix's ``allowed`` mask, and the
    codes allowed after c are ``allowed & standard[c]``, with ``standard[c]``
    the codes d >= c that make (c, d) standard.  A level lives until the next.
    """
    every = (1 << len(packed)) - 1
    standard = [every >> a << a & ~mask for a, mask in enumerate(partners)]
    level = [((a,), total, standard[a]) for a, total in enumerate(packed)]
    for _ in range(max_len - 1):
        yield level
        level = [
            (word + (c,), total + packed[c], allowed & standard[c])
            for word, total, allowed in level
            for c in _bits(allowed)
        ]
    yield level


def _shared(sums: list[int]) -> set[int]:
    """The values that occur more than once in ``sums``."""
    if len(set(sums)) == len(sums):
        return set()
    return {total for total, count in Counter(sums).items() if count > 1}


def enumerate_fiber(table: GeneratorTable, mu: Monomial) -> list[FiberPoint]:
    """All factorizations of mu into generators, ascending index tuples.

    Empty when the degree of mu is not a multiple of the generating degree;
    the fiber of the unit monomial is the single empty point.  One iterative
    depth-first search: a partial point is extended by every generator index
    at least its last one that divides the rest, the last factor is looked up
    directly, and a (rest, least index) state that completed no point is
    remembered for the rest of the call and not searched again.  A rest of
    t-degree k is entered only when some k generators factor it
    (:func:`_factorable`), so a search that cannot complete a point stops
    where it would first go wrong rather than after trying every divisor.
    """
    if len(mu) != table.context.n:
        raise ValueError("mu lives in a different variable context")
    if degree(mu) == 0:
        return [()]
    if table.is_empty or degree(mu) % table.degree != 0:
        return []
    gens, index_of, d = table.generators, table.index_of, table.degree
    if degree(mu) == d:
        return [(index_of[mu],)] if mu in index_of else []
    t = degree(mu) // d
    root_sums = [sigma(root) for root in table.roots]
    if not _factorable(root_sums, sigma(mu), t):
        return []
    out: list[FiberPoint] = []
    dead: set[tuple[Monomial, int]] = set()
    picked: list[int] = []
    # One frame per open state: the rest, its least index, the next index to
    # try, and the number of points found before the state was entered.
    frames = [[mu, 0, 0, 0]]
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
        if not all(map(le, g, rest)):
            continue
        smaller = tuple(map(sub, rest, g))
        k = t - len(picked) - 1  # the t-degree of smaller
        if k == 1:
            last = index_of.get(smaller)
            if last is not None and last >= idx:
                out.append((*picked, idx, last))
        elif (smaller, idx) not in dead and _factorable(root_sums, sigma(smaller), k):
            picked.append(idx)
            frames.append([smaller, idx, idx, len(out)])
    return out


@dataclass(frozen=True)
class FiberGraph:
    """Directed fiber graph; vertices sorted earliest-first, one edge (from, to) per listed move.

    ``strays`` holds each listed move to a point outside the fiber as
    (from, point); only a corrupted row lists one, and it is no edge.
    """

    table: GeneratorTable
    mu: Monomial
    vertices: tuple[FiberPoint, ...]
    edges: tuple[tuple[int, int], ...]
    strays: tuple[tuple[int, FiberPoint], ...] = ()

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        out = [0] * len(self.vertices)
        for a, _ in self.edges:
            out[a] += 1
        return tuple(out)


def _fiber_in_sink_order(table: GeneratorTable, mu: Monomial) -> list[FiberPoint]:
    """The fiber of mu in descending sink order, as :func:`fibers` lists it.

    The one source of :func:`build_fiber_graph`'s vertices.
    """
    points = enumerate_fiber(table, mu)
    points.sort(key=fiber_sink_key, reverse=True)
    return points


def _later_moves(later: dict, point: FiberPoint):
    """Yield each point one listed paired move later than ``point``.

    ``later`` is the table's ``later_pairs``.  The sink order is a monomial
    order on the factor multiplicities, so a move replacing the pair p of a
    point by q leads to a later point exactly when q is later than p; each
    distinct value pair of the point is looked up once, at its first
    positions, and its moves are yielded in row order.
    """
    t = len(point)
    for s1 in range(t - 1):
        a = point[s1]
        if s1 and point[s1 - 1] == a:
            continue
        for s2 in range(s1 + 1, t):
            b = point[s2]
            if s2 > s1 + 1 and point[s2 - 1] == b:
                continue
            moves = later.get((a, b))
            if moves is None:
                continue
            rest = point[:s1] + point[s1 + 1 : s2] + point[s2 + 1 :]
            for pair in moves:
                yield tuple(sorted(rest + pair))


def build_fiber_graph(table: GeneratorTable, mu: Monomial) -> FiberGraph:
    """Enumerate the fiber of mu and keep each listed paired move as an edge.

    Vertices come from :func:`_fiber_in_sink_order`, in descending fiber
    sink order, and each move :func:`_later_moves` yields from a point is
    the edge (point, target).  On a true table every move leads to a later
    point, so every edge runs from a smaller vertex index to a larger one and
    the graph is acyclic; an edge that does not stays as it is, and a move
    out of the fiber is kept as a stray, for the unique-sink check to report.
    """
    vertices = _fiber_in_sink_order(table, mu)
    vindex = {v: i for i, v in enumerate(vertices)}
    later = table.later_pairs if vertices else {}
    moves = {(vi, w) for vi, z in enumerate(vertices) for w in _later_moves(later, z)}
    return FiberGraph(
        table=table,
        mu=mu,
        vertices=tuple(vertices),
        edges=tuple(sorted((vi, vindex[w]) for vi, w in moves if w in vindex)),
        strays=tuple(sorted((vi, w) for vi, w in moves if w not in vindex)),
    )


def _component_labels(size: int, groups) -> list[int]:
    """Union-find over 0..size-1: merge each group, return each element's root.

    Two elements get the same label exactly when a chain of groups links them.
    """
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        root = find(group[0])
        for x in group[1:]:
            other = find(x)
            if other != root:
                parent[other] = root
    return [find(x) for x in range(size)]


def sinks(graph: FiberGraph) -> list[FiberPoint]:
    """Vertices with no outgoing edge, earliest first."""
    return [v for v, d in zip(graph.vertices, graph.out_degrees) if d == 0]


def fiber_point_type(table: GeneratorTable, point: FiberPoint) -> str:
    """``"N"`` when every factor is tagged G_N, ``"M"`` otherwise.

    Since the G_M block follows the G_N block in the variable order, the tag
    of the last factor decides.
    """
    if not point:
        raise ValueError("the empty fiber point has no type")
    return "M" if table.tags[point[-1]] == "G_M" else "N"


def _m_share_bounds(
    t: int, s_mu: tuple[int, ...], s_m: tuple[int, ...], s_n: tuple[int, ...]
) -> tuple[int, int]:
    """The integers lo..hi of i with s_mu <= i*s_m + (t-i)*s_n componentwise.

    With s_mu, s_m and s_n the cumulative exponent vectors of mu, M and N,
    mu of degree t*d lies in Borel(M)^i Borel(N)^(t-i) = Borel(M^i N^(t-i))
    exactly for those i; each coordinate bounds i on one side.
    """
    lo, hi = 0, t
    for s, m, n in zip(s_mu, s_m, s_n):
        need, step = s - t * n, m - n  # i * step >= need
        if step > 0:
            lo = max(lo, -(-need // step))
        elif step < 0:
            hi = min(hi, need // step)
        elif need > 0:
            return 1, 0
    return lo, hi


def _factorable(root_sums: list[tuple[int, ...]], s_rest: tuple[int, ...], k: int) -> bool:
    """Whether a monomial of degree k*d with suffix sums ``s_rest`` factors into k generators.

    ``root_sums`` holds sigma of each of the table's one to three roots.  The
    degree-kd part of I^k is the union of Borel(f^a g^b h^c) over a+b+c = k,
    since Borel(f)^a Borel(g)^b Borel(h)^c = Borel(f^a g^b h^c)
    (Francisco-Mermin-Schweig, "Borel generators", 2011), and a monomial of
    its degree lies in Borel(u) exactly when its sigma is at most sigma(u).
    So one root is one comparison with k*sigma(root), two roots the interval
    of :func:`_m_share_bounds`, and three roots the two-root test on g and h
    once per share a of f, with a*sigma(f) taken off the rest.
    """
    if len(root_sums) == 1:
        return all(map(le, s_rest, [k * s for s in root_sums[0]]))
    if len(root_sums) == 2:
        lo, hi = _m_share_bounds(k, s_rest, *root_sums)
        return lo <= hi
    s_f, *others = root_sums
    return any(
        _factorable(others, [s - a * f for s, f in zip(s_rest, s_f)], k - a) for a in range(k + 1)
    )


def _lex_last_sigma(bound: Sequence[int], rest: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Suffix sums of the lex-latest divisor with sigma at most ``bound``.

    ``rest`` holds the suffix sums of the monomial mu to divide.  With c_n = 0
    and c_k = min(bound_k, mu_k + c_{k+1}), c_k is the largest suffix sum
    from position k that a divisor of mu within the bound can reach, and
    taking every suffix sum at its largest gives the lex-latest such divisor.
    One of degree bound_0 exists exactly when c_0 = bound_0.
    """
    sums = [0] * len(rest)
    c = below = 0  # below = rest_{k+1}, so mu_k = rest_k - below
    for k in range(len(rest) - 1, -1, -1):
        r = rest[k]
        c = min(bound[k], r - below + c)
        below = r
        sums[k] = c
    return tuple(sums) if c == bound[0] else None


def _sink_plan(table: GeneratorTable, mu: Monomial) -> Optional[tuple[tuple[int, ...], int, int]]:
    """sigma(mu), the t-degree t of mu and the largest share hi of M-factors.

    None when the fiber of mu is empty: when d does not divide the degree of
    mu, or when the interval lo..hi of :func:`_m_share_bounds` is.  The unit
    monomial has t = hi = 0.  Raises ``ValueError`` on a table of more than
    two roots and on a mu of another variable context.
    """
    if len(table.roots) > 2:
        raise ValueError("the direct sink algorithm needs a two-Borel or principal table")
    if len(mu) != table.context.n:
        raise ValueError("mu lives in a different variable context")
    s_mu = sigma(mu)
    total = s_mu[0] if s_mu else 0
    if not total:
        return s_mu, 0, 0
    if table.is_empty or total % table.degree:
        return None
    s_m, s_n, _ = table._peel_sums
    t = total // table.degree
    lo, hi = _m_share_bounds(t, s_mu, s_m, s_n)
    return (s_mu, t, hi) if lo <= hi else None


def _peel(table: GeneratorTable, rest: tuple[int, ...], hi: int) -> tuple[int, tuple[int, ...]]:
    """The index and suffix sums of the factor the direct sink peels next.

    ``rest`` holds the suffix sums of what is left to factor, and ``hi``
    the M-factors still to peel: the factor is the lex-last divisor of the
    rest in Borel(M) while hi > 0, in Borel(N) after.  The peels after it
    are the direct sink of the rest, whose hi is max(hi - 1, 0) (the proof
    of :func:`find_sink_direct`), so the sweep in ``verify`` checks a word
    by this one peel.
    """
    s_m, s_n, by_sums = table._peel_sums
    s_factor = _lex_last_sigma(s_m if hi else s_n, rest)
    if s_factor is None:
        raise RuntimeError("a factorable multidegree admits a block divisor")
    return by_sums[s_factor], s_factor


def find_sink_direct(table: GeneratorTable, mu: Monomial) -> Optional[FiberPoint]:
    """The unique sink of the fiber of mu, computed without the graph.

    With lo..hi the interval of :func:`_m_share_bounds` (empty exactly when
    the fiber is; then None), the sink peels the lex-last divisor M' of the
    rest in Borel(M) hi times, then N' in Borel(N) t - hi times.  The rest
    is kept as suffix sums, each peeled factor's sums are subtracted from
    it, and its index is read off the table by its sums (:func:`_peel`).
    Each divisor f is peeled q times in one step, q the peels left in its
    phase or, if fewer, the largest j with f^j dividing the rest: the least
    e_k // phi_k over the k with phi_k > 0, e and phi the exponents of the
    rest and of f, read off their suffix sums.  So the peels cost O(n) per
    run of equal factors, and listing the sink O(t).

    Proof.  Let h = hi(mu) and rho = mu/M'.  If hi(rho) >= h, then mu lies in
    Borel(M^(h+1) N^(t-1-h)), against the choice of h; so hi(rho) <= h - 1.
    Conversely, let c_k = min(sigma_k(M), mu_k + c_(k+1)) be the suffix sums
    of M'.  Then sigma_k(mu) - c_k <= (h-1) sigma_k(M) + (t-h) sigma_k(N) at
    every k: when c_k = sigma_k(M) by mu's own bound, otherwise by position
    k + 1, as sigma never rises with k.  So hi(rho) = h - 1, and the same
    argument with N' keeps hi at 0.  The rest stays factorable, and M' is
    peeled exactly while some factorization of the rest touches G_M.

    Runs.  Every divisor of rest/f divides the rest, so while f divides
    rest/f it is still the lex-latest divisor of rest/f within the bound;
    once it does not, it is no longer a candidate, and as the rest only
    shrinks it never is again.  So f is peeled exactly while f^(j+1)
    divides the rest, j the peels of f so far, and the phase lasts.
    """
    plan = _sink_plan(table, mu)
    if plan is None:
        return None
    rest, t, hi = plan
    counts: Counter = Counter()
    while t:
        index, s_factor = _peel(table, rest, hi)
        exponents = map(sub, rest, rest[1:] + (0,))
        phi = map(sub, s_factor, s_factor[1:] + (0,))
        q = min(hi or t, *[e // f for e, f in zip(exponents, phi) if f])
        counts[index] += q
        rest = tuple(r - q * f for r, f in zip(rest, s_factor))
        t, hi = t - q, hi and hi - q
    return tuple(chain.from_iterable(repeat(index, counts[index]) for index in sorted(counts)))


def point_factors(table: GeneratorTable, point: FiberPoint) -> list[str]:
    """The point's factors as formatted generators, one per index, e.g. ``["b^5", "ab^4"]``."""
    names = {idx: format_monomial(table.generators[idx], table.context) for idx in set(point)}
    return [names[idx] for idx in point]


def vertex_label(table: GeneratorTable, point: FiberPoint) -> str:
    """Product-style label, e.g. ``Y_{b^5}Y_{ab^4}Y_{a^2c^3}``; ``1`` for the empty point."""
    counts = Counter(point)  # ascending, as the point is
    names = point_factors(table, counts)
    return "".join(
        f"Y_{{{name}}}" + (f"^{k}" if k > 1 else "") for name, k in zip(names, counts.values())
    ) or "1"


def to_dot(graph: FiberGraph) -> str:
    """Deterministic DOT rendering with node ids v0..vk in vertex order."""
    lines = ["digraph fiber {"]
    for i, v in enumerate(graph.vertices):
        lines.append(f'  v{i} [label="{vertex_label(graph.table, v)}"];')
    for a, b in graph.edges:
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: FiberGraph) -> dict:
    table = graph.table
    return {
        "mu": format_monomial(graph.mu, table.context),
        "vertices": [
            {
                "factors": point_factors(table, v),
                "type": fiber_point_type(table, v) if v else None,
            }
            for v in graph.vertices
        ],
        "edges": [list(e) for e in graph.edges],
        "sinks": [i for i, d in enumerate(graph.out_degrees) if d == 0],
    }
