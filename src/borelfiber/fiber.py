"""Fiber graphs of a Borel ideal and the fiber sink order.

A fiber point is a factorization of a multidegree mu into minimal
generators, stored as an ascending tuple of generator indices into a
:class:`~borelfiber.borel.GeneratorTable`.  Two points are adjacent in the
fiber graph when one becomes the other by a Borel move on one factor paired
with the matching reverse Borel move on another; each edge is directed
toward the point that is later (smaller) in the fiber sink order, the
graded reverse lex order on the table's variable order.

Fibers come from two enumerations.  :func:`_fiber_groups` builds every
point of a configuration (one vector per code) up to a degree bound in one
pass, level by level, each level in colex order, and groups the points by
vector sum, each sum carried as one packed integer (:func:`_pack`); so every
fiber comes out in descending sink order without a sort.  It counts the
points first and refuses more than ``MAX_FIBER_POINTS``.  Its fibers stay
keyed by packed sum, for callers that read only the points: the table's
listing of degree 2, which both sides' full bases read, and the completion
oracle's degrees 1 and 2.
:func:`fibers` is the keyed view of the same listing, each fiber named by
its unpacked sum; its one src caller is ``instances.sweep_multidegrees``.
The toric configuration is the table's generators, and the Rees algebra
is the toric ring of a larger one (see ``rees``), whose degree-2 pairs are
the toric ones and the unit moves, so it is never listed.
:func:`enumerate_fiber` factors a single multidegree by one iterative
depth-first search, which picks each point's codes from the largest down,
so it lists the fiber in the same descending sink order, and never enters
a rest that no generators factor (:func:`_factorable`).  It serves the
one-mu callers, whose t can be far too large to list every product up to
it: the fiber graph, the closure components, and each fiber above degree
2 where the completion oracle finds two normal words.

What counts as a paired move is defined once, by :func:`_paired_moves`:
two pairs with one sum are one move apart when a factor of one is a unit
move e_i - e_j away from a factor of the other, tested on packed integers.
:func:`build_fiber_graph` applies it to the fiber's own points, filed by
the rest left once a pair of factors is taken out; it packs only the codes
they use and lists no pair of the table, so a one-point fiber of a large
table costs one point.  The unique-sink check in ``verify`` reads every
verdict off that graph.  The sweep alone reads :func:`_lead_masks`, one
mask per code of the pairs with a later move, built from the unit moves of
every code with no degree-2 pair listed: a point is a sink exactly when it
has no later move, so the sinks are the standard words of the masks, and
:func:`_standard_levels`, the one scan of standard words, serves the sweep
in ``verify`` and the overlap check in ``toric``.  No fiber state outlives
a call, except what lives and dies with the table: the suffix sums the
direct sink reads, and the fibers of two or more points of degree 2 that
both full quadric bases read (``GeneratorTable._quadric_fibers``).

For two-Borel tables every nonempty fiber graph is a connected DAG with a
unique sink, which :func:`find_sink_direct` computes without building the
graph or searching, by one interval test on i from Borel(M)^i Borel(N)^(t-i)
= Borel(M^i N^(t-i)) and then one peel per run of equal factors;
:func:`build_fiber_graph` is the explicit oracle.  The peels after the
first are the direct sink of the rest, so the sweep in ``verify`` checks
each standard word by its first peel against the word it accepted for the
rest, by a few integer operations on packed suffix sums, and hands any
other word to :func:`find_sink_direct`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, groupby, islice, permutations, repeat
from math import comb
from operator import le, neg, sub
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from borelfiber.monomials import Monomial, degree, format_monomial, from_sigma, sigma

if TYPE_CHECKING:
    from borelfiber.borel import GeneratorTable

FiberPoint = tuple[int, ...]

MAX_FIBER_POINTS = 20_000_000

# G masks of up to G bits: building them peaked at about 2.1 times G * G / 8 bytes (measured
# on 1,731 and 3,349 generators), so capped masks stay under about 1.7 GB.
MAX_LEAD_MASK_BYTES = 800_000_000


def fiber_sink_key(point: FiberPoint) -> tuple:
    """Sort key for the fiber sink order; larger key means earlier point.

    Graded reverse lex: among points of one t-degree, scanning generator
    indices from the last backward, the first difference in multiplicity
    decides, and the point with the smaller multiplicity there is the larger
    one.  On ascending index tuples that is the first difference between the
    reversed tuples, where the smaller index wins.
    """
    return (len(point), tuple(map(neg, point[::-1])))


def fiber_sink_ranks(points: Iterable[FiberPoint], size: int) -> list[int]:
    """:func:`fiber_sink_key` of each two-code point as one integer: (a, b) ranks b * size + a.

    The codes must lie in ``range(size)``.  Then the smaller rank is the
    larger key, the earlier point.  Proof: the key of (a, b) is
    (2, (-b, -a)), larger for the smaller b and then for the smaller a,
    and as 0 <= a < size that is the smaller b * size + a.
    """
    return [b * size + a for a, b in points]


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


def _fiber_groups(
    vectors: Sequence[Monomial], max_deg: int
) -> tuple[dict[int, list[FiberPoint]], int]:
    """Every nonempty fiber of degree 1..max_deg of a configuration, keyed by packed sum.

    The listing behind :func:`fibers`, which names each fiber by its sum;
    callers that read only the fibers take them here, in the same order,
    with no sum unpacked.  The completion oracle (``toric.brute_force_gb``)
    and the table's listing (``GeneratorTable._quadric_fibers``) take
    degrees 1 and 2 here.  Returns the fibers and the bits of one
    coordinate of their keys (:func:`_pack`, sized for ``max_deg`` codes).

    A configuration lists one vector per code, and a point is an ascending
    code tuple; the toric configuration is ``table.generators``.  Builds the
    points one degree at a time, each level in colex order (reversed tuples
    ascending), so each fiber's points come out in descending sink order, as
    :func:`enumerate_fiber` lists them, and no fiber is sorted.
    The points of a level that end in code c are the points p + (c,) with p
    in the level before and p's last code at most c.  In colex order those p
    are a prefix of their level, as long as the count of its points ending
    in a code at most c, and extending that prefix by c keeps its order; so
    taking c ascending lists the level in colex order.  The level before is
    kept as two lists, its points and their sums, with those counts taken as
    it is built, and the last level is only grouped.  A point's sum is
    carried packed into one integer, so extending a point adds one integer,
    and each level's points are grouped by that integer, which is injective
    on sums of up to ``max_deg`` vectors.  A level's keys are sorted as
    integers, which is lex order on the sums, so fibers come in ascending
    (point length, sum) order, (degree, mu) order on the toric side.

    Raises ``ValueError`` before listing anything when there are more than
    ``MAX_FIBER_POINTS`` points, and then when the vectors differ in length,
    when a coordinate is negative (packing needs non-negative sums), and
    when points of two lengths share a sum, since a fiber holds points of
    one length.  Every key has the same width, so two lengths share a sum
    exactly when they share a key.
    """
    if max_deg < 1:
        raise ValueError("the degree bound must be at least 1")
    count = sum(comb(len(vectors) + k - 1, k) for k in range(1, max_deg + 1))
    if count > MAX_FIBER_POINTS:
        raise ValueError(
            f"{len(vectors):,} codes make {count:,} fiber points of degree 1..{max_deg},"
            f" more than the cap of {MAX_FIBER_POINTS:,}"
        )
    packed, width = _pack(vectors, max_deg)
    singles = [(c,) for c in range(len(packed))]
    # The level before, its sums, and for each code c the count of its points ending in a
    # code at most c; every code extends the empty point.
    points, sums, ends = [()], [0], repeat(1)
    levels = []
    for _ in range(max_deg - 1):
        groups: dict[int, list[FiberPoint]] = defaultdict(list)
        grown, grown_sums, grown_ends = [], [], []
        for single, vector, end in zip(singles, packed, ends):
            words = [point + single for point in islice(points, end)]
            totals = [total + vector for total in islice(sums, end)]
            for total, word in zip(totals, words):
                groups[total].append(word)
            grown += words
            grown_sums += totals
            grown_ends.append(len(grown))
        levels.append(groups)
        points, sums, ends = grown, grown_sums, grown_ends
    groups = defaultdict(list)
    for single, vector, end in zip(singles, packed, ends):
        for point, total in zip(islice(points, end), islice(sums, end)):
            groups[total + vector].append(point + single)
    levels.append(groups)
    out: dict[int, list[FiberPoint]] = {}
    for groups in levels:
        if not out.keys().isdisjoint(groups.keys()):
            size = len(vectors[0])
            (key,) = _unpack([min(out.keys() & groups.keys())], width, size)
            raise ValueError(f"points of different lengths share the sum {key}")
        out.update((total, groups[total]) for total in sorted(groups))
    return out, width


def fibers(vectors: Sequence[Monomial], max_deg: int) -> dict[Monomial, list[FiberPoint]]:
    """Every nonempty fiber of degree 1..max_deg of a configuration, keyed by sum.

    The keyed view of :func:`_fiber_groups`, in its order and with its
    errors: all keys are unpacked together.
    """
    groups, width = _fiber_groups(vectors, max_deg)
    size = len(vectors[0]) if vectors else 0
    return dict(zip(_unpack(list(groups), width, size), groups.values()))


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
    Before a level is built its words are counted, one popcount per word of
    the level before, and more than ``MAX_FIBER_POINTS`` raise ``ValueError``.
    """
    every = (1 << len(packed)) - 1
    standard = [every >> a << a & ~mask for a, mask in enumerate(partners)]
    level = [((a,), total, standard[a]) for a, total in enumerate(packed)]
    for length in range(2, max_len + 1):
        yield level
        count = sum(allowed.bit_count() for _, _, allowed in level)
        if count > MAX_FIBER_POINTS:
            raise ValueError(
                f"the standard words of length {length - 1} extend to {count:,} words"
                f" of length {length}, more than the cap of {MAX_FIBER_POINTS:,}"
            )
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
    """All factorizations of mu into generators, ascending index tuples in descending sink order.

    Empty when the degree of mu is not a multiple of the generating degree;
    the fiber of the unit monomial is the single empty point.  One iterative
    depth-first search that picks a point's codes from its largest down: the
    largest code is taken ascending, and each next code ascending up to the
    one before, among the codes that divide mu, listed once per call.  The
    last factor is looked up directly and kept when it is at most the code
    before.  So the points come out in colex order (reversed tuples
    ascending), the order :func:`fibers` lists them in, with no sort.  A
    rest of t-degree k is entered only when some k generators factor it
    (:func:`_factorable`), so a search that cannot complete a point stops
    where it would first go wrong rather than after trying every divisor.
    Raises ``ValueError`` as soon as it has found more than
    ``MAX_FIBER_POINTS`` points, and on a mu of another variable context.
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
    divisors = [c for c, g in enumerate(gens) if all(map(le, g, mu))]
    out: list[FiberPoint] = []
    # One frame per open rest: the rest, its codes left to try, each with its
    # position in divisors, and the codes taken so far, ascending.
    frames = [(mu, enumerate(divisors), ())]
    while frames:
        rest, codes, taken = frames[-1]
        k = t - 1 - len(taken)  # the t-degree of rest / g
        if k > 1:
            for i, c in codes:
                g = gens[c]
                if all(map(le, g, rest)):
                    smaller = tuple(map(sub, rest, g))
                    if _factorable(root_sums, sigma(smaller), k):
                        frames.append((smaller, enumerate(islice(divisors, i + 1)), (c, *taken)))
                        break
            else:
                frames.pop()
            continue
        frames.pop()  # a rest of t-degree 2: each code left completes at most one point
        for _, c in codes:
            g = gens[c]
            if all(map(le, g, rest)):
                last = index_of.get(tuple(map(sub, rest, g)))
                if last is not None and last <= c:
                    out.append((last, c, *taken))
        if len(out) > MAX_FIBER_POINTS:
            name = format_monomial(mu, table.context)
            raise ValueError(
                f"the fiber of {name} holds more than the cap of {MAX_FIBER_POINTS:,} points"
            )
    return out


@dataclass(frozen=True)
class FiberGraph:
    """Directed fiber graph; vertices sorted earliest-first, one edge (from, to) per paired move."""

    table: GeneratorTable
    mu: Monomial
    vertices: tuple[FiberPoint, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        out = [0] * len(self.vertices)
        for a, _ in self.edges:
            out[a] += 1
        return tuple(out)


def _paired_moves(
    table: GeneratorTable, codes: Sequence[int]
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """The generators of ``codes`` packed with the n unit vectors, and each packed unit move.

    The moves map each packed e_i - e_j to its label (i, j).  The one test
    of a paired move (a Borel move on one factor, the reverse move on
    another): two pairs (a, b) and (c, d) with one sum are one move apart
    exactly when ``packed[a] - packed[c]`` or ``packed[a] - packed[d]`` is
    a move, since g_a - g_c = g_d - g_b.  ``_pack`` sizes a coordinate for
    sums of two of the packed vectors, more bits than twice the largest
    one, so each coordinate of a difference lies strictly between
    -2^(width-1) and 2^(width-1), and the integer determines the vector.
    The sweep's lead masks (:func:`_lead_masks`) and the Rees syzygies
    (``rees.rees_gb``, which reads the labels) pack every code;
    :func:`build_fiber_graph` packs only the codes its points use.
    """
    n = table.context.n
    identity = [(0,) * v + (1,) + (0,) * (n - 1 - v) for v in range(n)]
    packed, _ = _pack(identity + [table.generators[c] for c in codes], 2)
    units = enumerate(packed[:n])
    moves = {u - v: (i, j) for (i, u), (j, v) in permutations(units, 2)}
    return dict(zip(codes, packed[n:])), moves


def _lead_masks(table: GeneratorTable) -> list[int]:
    """For each code b, the mask of the codes a for which the pair {a, b} is a lead.

    A lead is a pair with a later paired move: a move m with g_a' = g_a + m
    and g_b' = g_b - m both generators, where {a', b'} comes later in the
    sink order than {a, b} (:func:`fiber_sink_ranks`: the larger maximum,
    then the larger minimum).  One pass per unit move m of
    :func:`_paired_moves` finds a' for every a; then, b' being the code
    that reaches b, the a that make {a, b} a lead by m are

    * every a with an a' and a < b', when b' > b;
    * every a with a' > max(a, b), kept as a running mask while b descends.

    Proof.  Either kind puts a code of {a', b'} above max(a, b).
    Conversely a' != a and b' != b, so a move that keeps the larger code
    swaps the two (a' = b, b' = a) and gives the same pair; a later pair
    thus has a' or b' above max(a, b), and b' > max(a, b) is b' > b and
    a < b'.  The move -m is m with the roles of a and b swapped, so the
    masks come out symmetric.  Every move keeps the sum and goes forward by
    construction, and no degree-2 pair is listed.

    The masks take up to G * G / 8 bytes for G generators, counted before
    any is built: more than ``MAX_LEAD_MASK_BYTES`` raise ``ValueError``.
    """
    size = len(table.generators)
    if size * size // 8 > MAX_LEAD_MASK_BYTES:
        raise ValueError(
            f"the lead masks of {size:,} generators take {size * size // 8:,} bytes,"
            f" more than the cap of {MAX_LEAD_MASK_BYTES:,}"
        )
    packed, moves = _paired_moves(table, range(size))
    code_of = {total: c for c, total in packed.items()}
    leads = [0] * size
    for move in moves:
        # back[a'] = a when g_a + move = g_a'; the codes with an a', and by a' those below it.
        back, defined, rising = {}, 0, defaultdict(int)
        for a, total in packed.items():
            to = code_of.get(total + move)
            if to is not None:
                back[to] = a
                defined |= 1 << a
                if to > a:
                    rising[to] |= 1 << a
        running = 0  # the a with a' > max(a, b), for the current b
        for b in range(size - 1, -1, -1):
            running |= rising.get(b + 1, 0)
            to = back.get(b)
            if to is not None:
                leads[b] |= running | defined & ((1 << to) - 1) if to > b else running
    return leads


def build_fiber_graph(table: GeneratorTable, mu: Monomial) -> FiberGraph:
    """Enumerate the fiber of mu and join the points one paired move apart.

    Vertices come from :func:`enumerate_fiber`, in descending fiber sink
    order.  Each vertex is filed under every rest left once two of its
    factors, a pair of values, are taken out; two vertices filed under one
    rest differ in that pair alone, and they are joined when
    :func:`_paired_moves` finds a unit move between a factor of one pair
    and a factor of the other.  Every edge runs from the smaller vertex
    index to the larger, toward the later point, so the graph is acyclic
    and its last vertex is a sink.  No pair of the table is listed and only
    the codes of the fiber's points are packed, so a fiber costs its own
    points, whatever the size of its table.
    """
    vertices = enumerate_fiber(table, mu)
    codes = sorted(set(chain.from_iterable(vertices))) if len(vertices) > 1 else []
    packed, moves = _paired_moves(table, codes) if codes else ({}, {})
    # rest -> {vertex index: the pair taken out}; a repeated value pair files once.
    filed: dict[FiberPoint, dict[int, tuple[int, int]]] = defaultdict(dict)
    for vi, z in enumerate(vertices):
        for s1, s2 in combinations(range(len(z)), 2):
            filed[z[:s1] + z[s1 + 1 : s2] + z[s2 + 1 :]][vi] = z[s1], z[s2]
    edges = set()
    for pairs in filed.values():
        later = list(pairs.items())
        for k, (vi, (a, _)) in enumerate(later[:-1]):
            first = packed[a]
            edges.update(
                (vi, wi)
                for wi, (c, d) in later[k + 1 :]
                if first - packed[c] in moves or first - packed[d] in moves
            )
    return FiberGraph(table=table, mu=mu, vertices=tuple(vertices), edges=tuple(sorted(edges)))


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
            bound = -(-need // step)
            if bound > lo:
                lo = bound
        elif step < 0:
            bound = need // step
            if bound < hi:
                hi = bound
        elif need > 0:
            return 1, 0
    return lo, hi


def _factorable(root_sums: list[tuple[int, ...]], s_rest: tuple[int, ...], k: int) -> bool:
    """Whether a monomial of degree k*d with suffix sums ``s_rest`` factors into k generators.

    ``root_sums`` holds sigma of each root, one or more; tables have up to
    three.  With roots f, g, ..., the degree-kd part of I^k is the union of
    Borel(f^a g^b ...) over a + b + ... = k, since Borel(f)^a Borel(g)^b =
    Borel(f^a g^b) (Francisco-Mermin-Schweig, "Borel generators", 2011), and
    a monomial of its degree lies in Borel(u) exactly when its sigma is at
    most sigma(u).  So one root is one comparison with k*sigma(root), two
    roots the interval of :func:`_m_share_bounds`, and more roots the test
    on the others once per share a of the first root f, with a*sigma(f)
    taken off the rest: a recursion that ends at two roots, whatever their
    number.
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
    sums = []
    c = below = 0  # below = rest_{k+1}, so mu_k = rest_k - below
    for b, r in zip(reversed(bound), reversed(rest)):
        c += r - below
        if c > b:
            c = b
        below = r
        sums.append(c)
    return tuple(sums[::-1]) if c == bound[0] else None


def _sink_plan(table: GeneratorTable, s_mu: tuple[int, ...], t: int) -> Optional[int]:
    """The largest share hi of M-factors in the fiber of t-degree t at suffix sums s_mu.

    None when that fiber is empty, that is when the interval lo..hi of
    :func:`_m_share_bounds` is.  :func:`find_sink_direct` passes sigma(mu)
    and t = deg(mu) / d.  The sweep in ``verify`` passes the sum of a word
    it holds to the whole direct sink, unpacked from packed sigma, and t =
    the word's length.  The table has one or two roots; both callers refuse
    three before they call it.
    """
    s_m, s_n, _ = table._peel_sums
    lo, hi = _m_share_bounds(t, s_mu, s_m, s_n)
    return hi if lo <= hi else None


def find_sink_direct(table: GeneratorTable, mu: Monomial) -> Optional[FiberPoint]:
    """The unique sink of the fiber of mu, computed without the graph.

    With lo..hi the interval of :func:`_m_share_bounds` (empty exactly when
    the fiber is; then None), the sink peels the lex-last divisor M' of the
    rest in Borel(M) hi times, then N' in Borel(N) t - hi times.  The rest
    is kept as suffix sums: each peel reads the divisor's suffix sums off
    the rest's (:func:`_lex_last_sigma`), subtracts them, and reads the
    factor's index off the table by its sums.  Each divisor f is peeled q
    times in one step, q the peels left in its phase or, if fewer, the
    largest j with f^j dividing the rest: the least e_k // phi_k over the k
    with phi_k > 0, e and phi the exponents of the rest and of f, read off
    their suffix sums.  So the peels cost O(n) per run of equal factors,
    and listing the sink O(t).  Raises ``ValueError`` on a table of more
    than two roots, on a mu of another variable context, and before listing
    a sink of more than ``MAX_FIBER_POINTS`` factors.

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
    if len(table.roots) > 2:
        raise ValueError("the direct sink algorithm needs a two-Borel or principal table")
    if len(mu) != table.context.n:
        raise ValueError("mu lives in a different variable context")
    rest = sigma(mu)
    total = rest[0] if rest else 0
    if not total:
        return ()
    if table.is_empty or total % table.degree:
        return None
    t = total // table.degree
    hi = _sink_plan(table, rest, t)
    if hi is None:
        return None
    if t > MAX_FIBER_POINTS:
        raise ValueError(
            f"the sink of {t:,} factors is longer than the cap of {MAX_FIBER_POINTS:,}"
        )
    s_m, s_n, by_sums = table._peel_sums
    counts: Counter = Counter()
    while t:
        s_factor = _lex_last_sigma(s_m if hi else s_n, rest)
        if s_factor is None:
            raise RuntimeError("a factorable multidegree admits a block divisor")
        index = by_sums[s_factor]
        exponents, phi = from_sigma(rest), from_sigma(s_factor)
        q = min(hi or t, *[e // f for e, f in zip(exponents, phi) if f])
        counts[index] += q
        rest = tuple(r - q * f for r, f in zip(rest, s_factor))
        t, hi = t - q, hi and hi - q
    return tuple(chain.from_iterable(repeat(index, counts[index]) for index in sorted(counts)))


def point_factors(table: GeneratorTable, point: FiberPoint) -> list[str]:
    """The point's factors as formatted generators, one per index, e.g. ``["b^5", "ab^4"]``."""
    names = {idx: format_monomial(table.generators[idx], table.context) for idx in set(point)}
    return [names[idx] for idx in point]


def factors_label(names: Sequence[str]) -> str:
    """Product-style label of a point's factor names, e.g. ``Y_{b^5}Y_{ab^4}^2``; ``1`` for none.

    A run-length pass: distinct generators have distinct names, so in the
    point's ascending order each run of one name is one factor and its power.
    """
    runs = [(name, len(list(run))) for name, run in groupby(names)]
    return "".join(f"Y_{{{name}}}^{k}" if k > 1 else f"Y_{{{name}}}" for name, k in runs) or "1"


def to_dot(graph: FiberGraph) -> str:
    """Deterministic DOT rendering, node ids v0..vk in vertex order, labels read off the JSON."""
    data = graph_to_json(graph)
    labels = [factors_label(v["factors"]) for v in data["vertices"]]
    lines = ["digraph fiber {", *(f'  v{i} [label="{label}"];' for i, label in enumerate(labels))]
    lines += [f"  v{a} -> v{b};" for a, b in data["edges"]]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: FiberGraph) -> dict:
    """Vertices as factor names and types, edges and sinks; each code the fiber uses named once."""
    table, codes = graph.table, tuple(set(chain.from_iterable(graph.vertices)))
    names = dict(zip(codes, point_factors(table, codes)))
    return {
        "mu": format_monomial(graph.mu, table.context),
        "vertices": [
            {"factors": [names[c] for c in v], "type": fiber_point_type(table, v) if v else None}
            for v in graph.vertices
        ],
        "edges": [list(e) for e in graph.edges],
        "sinks": [i for i, d in enumerate(graph.out_degrees) if d == 0],
    }
