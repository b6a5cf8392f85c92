"""Sweep-style checks of the unique-sink claim: one scan of standard words,
and a check (:func:`check_unique_sink`) of each multidegree that fails it,
read off its whole fiber graph, the only graphs a sweep builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from borelfiber.borel import GeneratorTable
from borelfiber.fiber import (
    _component_labels,
    _lead_masks,
    _pack,
    _sink_plan,
    _standard_levels,
    _unpack,
    build_fiber_graph,
    find_sink_direct,
    sinks,
)
from borelfiber.monomials import Monomial, format_monomial, from_sigma, sigma


def check_unique_sink(table: GeneratorTable, mu: Monomial) -> list[str]:
    """Violation descriptions for the fiber graph at mu; empty when all good.

    Every verdict is read off :func:`build_fiber_graph`, which joins the
    fiber's own points and reads no lead mask, so it is independent of
    the sweep's scan.  Its edges all lead to later points, so its last
    point is a sink; the graph must be connected, that sink, the one vertex
    of out-degree 0, must be its only one, and the direct sink algorithm
    must return it.
    """
    graph = build_fiber_graph(table, mu)
    points = graph.vertices
    if not points:
        return []
    violations = []
    if len(set(_component_labels(len(points), graph.edges))) != 1:
        violations.append("fiber graph is disconnected")
    fiber_sinks = sinks(graph)
    if len(fiber_sinks) != 1:
        violations.append(f"{len(fiber_sinks)} sinks instead of one")
    elif find_sink_direct(table, mu) != fiber_sinks[0]:
        violations.append("direct sink disagrees with the graph sink")
    if not violations:
        return []
    label = format_monomial(mu, table.context)
    return [f"{label}: {v}" for v in violations]


@dataclass(frozen=True)
class SweepReport:
    multidegrees_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "multidegrees_checked": self.multidegrees_checked,
            "violations": list(self.violations),
        }


def sweep_unique_sinks(table: GeneratorTable, max_tdeg: int, jobs: int = 1) -> SweepReport:
    """Check every nonempty fiber of t-degree 1..max_tdeg, in three steps.

    1. A pair is a lead when it has a later paired move, and the unit moves
       give each code's leads as one mask (``fiber._lead_masks``).  The
       standard words, the points none of whose factor pairs is a lead, are
       then the sinks.
    2. Standard words are scanned up to ``max_tdeg`` codes
       (``fiber._standard_levels``).  The scan sums the generators' suffix
       sums, packed (``fiber._pack``) for sums of 2 * max_tdeg of them, so
       every coordinate keeps a spare top bit, its guard: sigma is linear
       and injective, so a word's sum T is sigma(mu) of its multidegree mu,
       one integer per multidegree.
    3. A standard word that is not ``find_sink_direct`` of its sum marks
       its multidegree.  Of two that share a sum at most one is the direct
       sink, so a shared sum is marked too.  Each level keeps its accepted
       words, {sum: (word, hi)}, hi the largest share of M-factors (the hi
       of ``fiber._m_share_bounds``), the level before the first holding
       the empty word at sum 0 with hi 0.  A word is accepted at once by
       the direct sink's first peel g, a code whose suffix sums the table
       indexes as g (``_peel_sums``), in one of two steps, R = T - sigma(g):

       * M step: g is the last code and sigma(g) <= sigma(M); the rest of
         the word was accepted at R with hi h - 1, and h is T's share.
       * N step: g is the first code and sigma(g) <= sigma(N); the rest of
         the word was accepted at R with hi 0, and 0 is T's share.

       Let B_i = i sigma(M) + (t - i) sigma(N) at length t.  R's entry
       puts R within B_(h-1) at length t - 1 (B_0 for an N step), and g is
       within its root, so T <= B_h, and the shares of T form an interval;
       so h is T's share exactly when h = t or T is not <= B_(h+1).  On
       packed sums T <= B holds exactly when every guard survives
       ``(B | guard) - T``, since no field borrows from the next.  g is the
       lex-last divisor of T within its root exactly when R's exponent is 0
       wherever sigma_k(g) is below the root's sigma_k (the slack lemma
       below), that is when ``R ^ R << width``, whose field k is 0 exactly
       when sigma_k(R) = sigma_(k+1)(R), is 0 on those fields.  Then the
       word is the direct sink's own loop: the peel of g, then the direct
       sink of the rest at the share the peels go on with.  Every other
       word is held to ``find_sink_direct``, its hi read off
       ``fiber._sink_plan``, and a clean sweep calls it not once.  mu is
       read back from its suffix sums only for a word held to
       ``find_sink_direct`` or marked.

    Slack lemma.  Let g be a generator that divides mu with sigma(g) <=
    bound, and rho = mu/g.  Then g is the lex-last such divisor exactly when
    rho_k = 0 at every k with sigma_k(g) < bound_k.  Proof: the lex-last
    divisor has the suffix sums c_k = min(bound_k, mu_k + c_(k+1)), c_n = 0
    (``fiber._lex_last_sigma``).  Going down from k = n - 1, if
    sigma_(k+1)(g) = c_(k+1) then mu_k + c_(k+1) = sigma_k(g) + rho_k, so
    c_k = min(bound_k, sigma_k(g) + rho_k), which is sigma_k(g) exactly
    when rho_k = 0 or sigma_k(g) = bound_k.  So sigma(g) = c exactly when
    that holds at every k.

    Proof of the sweep.  Every lead has a later move in its fiber, so every
    fiber's last point is standard.  With no sum shared, that point is the
    fiber's one sink and every point walks forward to it, so the graph is
    connected, and the distinct sums, ``multidegrees_checked``, are the
    nonempty fibers.  Each marked multidegree, in (degree, mu) order, gets
    its lines from :func:`check_unique_sink`, the only place a sweep
    enumerates a fiber or builds a graph.  That graph reads no lead mask,
    so a mask that misses a lead can leave a fiber it finds no fault in:
    the scan then took a point with a later move for a sink, and the
    multidegree gets the line "a standard word of the scan is not the
    graph's sink".  A mask that holds a spurious lead can leave a fiber
    with no standard word; then only ``multidegrees_checked``, against an
    independent count of the fibers, sees it.  ``jobs`` other than 1
    raises ``ValueError``, and so does a table of more than two roots,
    which the direct sink refuses; a table with no generators passes with
    no fiber checked.
    """
    if jobs != 1:
        raise ValueError(f"sweeps no longer run in a process pool, so jobs must be 1, got {jobs}")
    if max_tdeg < 1:
        raise ValueError("the degree bound must be at least 1")
    if len(table.roots) > 2:
        raise ValueError("the direct sink algorithm needs a two-Borel or principal table")
    if table.is_empty:
        return SweepReport(multidegrees_checked=0, violations=())
    context, n = table.context, table.context.n
    s_m, s_n, by_sums = table._peel_sums
    sums = [sigma(g) for g in table.generators]
    (*packed, p_m, p_n), width = _pack([*sums, s_m, s_n], 2 * max_tdeg)
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)  # a 1 in every coordinate
    guard = ones << width - 1
    fields = [((1 << width) - 1) << shift for shift in range(width * (n - 1), -1, -width)]
    # Each code's slack: the fields where its sigma stays below its root's, by step.
    m_slack, n_slack = {}, {}
    for code, s_g in enumerate(sums):
        if by_sums.get(s_g) == code:
            for slack, bound in ((m_slack, s_m), (n_slack, s_n)):
                if all(map(le, s_g, bound)):
                    slack[code] = sum(f for f, x, b in zip(fields, s_g, bound) if x < b)
                    break
    checked, marked, accepted = 0, set(), {0: ((), 0)}
    for length, level in enumerate(_standard_levels(_lead_masks(table), packed, max_tdeg), 1):
        checked += len({total for _, total, _ in level})
        above = [(i * p_m + (length - i) * p_n) | guard for i in range(1, length + 1)]
        shorter, accepted = accepted, {}
        for word, total, _ in level:
            g = word[-1]
            slack = m_slack.get(g)
            if slack is None:
                g = word[0]
                step, rest_word, slack = 0, word[1:], n_slack.get(g)
            else:
                step, rest_word = 1, word[:-1]
            rest = total - packed[g]
            entry = shorter.get(rest)
            if slack is not None and entry is not None and entry[0] == rest_word:
                hi = entry[1] + step  # an N step needs the rest at hi 0
                if (step or not hi) and not (rest ^ rest << width) & slack and (
                    hi == length or (above[hi] - total) & guard != guard
                ):
                    accepted[total] = word, hi
                    continue
            s_mu = _unpack([total], width, n)[0]
            hi = _sink_plan(table, s_mu, length)
            if hi is not None and find_sink_direct(table, from_sigma(s_mu)) == word:
                accepted[total] = word, hi
            else:
                marked.add((length, from_sigma(s_mu)))
    # Packed sigma does not sort as mu does, so the marks are sorted by mu.
    violations = []
    for _, mu in sorted(marked):
        line = f"{format_monomial(mu, context)}: a standard word of the scan is not the graph's sink"
        violations += check_unique_sink(table, mu) or [line]
    return SweepReport(multidegrees_checked=checked, violations=tuple(violations))
