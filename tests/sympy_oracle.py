"""Groebner bases of the toric and Rees ideals by sympy, which shares no code with borelfiber.

Only sympy's Buchberger algorithm and polynomial arithmetic run here, on a
table's generator exponent vectors; nothing is imported from the package.
Answers come back in the package's terms, so tests can compare them:

- a Y-monomial is a word, the ascending tuple of its generator indices;
- a binomial is its (lead, trail) pair of words;
- a Rees monomial is its exponent vector over x_0, ..., x_{n-1}, then
  Y_0, ..., Y_{G-1}.

Toric side (Sturmfels, *Groebner Bases and Convex Polytopes*, 1996,
Alg. 4.5): the x-free elements of the lex basis of y_j - x^{a_j}, x first,
generate the toric ideal; their reduced basis in grevlex on y_0 > ... >
y_{G-1} is the reduced Groebner basis in the fiber sink order, in every
degree.  Rees side: the Rees ideal is the kernel of y_j -> T x^{a_j}, so T
is eliminated from y_j - T x^{a_j}, and the result is reduced under the
product of lex on x_0 > ... > x_{n-1} and grevlex on the y's, the Rees
elimination order.
"""

from math import prod

from sympy import Poly, groebner, symbols
from sympy.polys.orderings import ProductOrder, grevlex, lex


def _word(exponents) -> tuple[int, ...]:
    """An exponent vector as the ascending tuple of its variables' indices."""
    return tuple(v for v, e in enumerate(exponents) for _ in range(e))


def _ring(generators):
    """The x variables, one y variable per generator, and each generator's x-monomial."""
    xs = symbols(f"x:{len(generators[0])}")
    ys = symbols(f"y:{len(generators)}")
    return xs, ys, [prod(x**e for x, e in zip(xs, g)) for g in generators]


def _terms(poly: Poly, order) -> list:
    """The exponent vectors of a binomial with coefficients 1 and -1, lead first."""
    (lead, one), (trail, minus_one) = poly.terms(order=order)
    if (one, minus_one) != (1, -1):
        raise AssertionError(f"not a marked binomial: {poly}")
    return [lead, trail]


class ToricOracle:
    """The reduced Groebner basis of a table's toric ideal in the fiber sink order."""

    def __init__(self, generators) -> None:
        xs, self.ys, images = _ring(generators)
        lex_basis = groebner([y - m for y, m in zip(self.ys, images)], *xs, *self.ys, order="lex")
        kernel = [p for p in lex_basis.exprs if not p.free_symbols & set(xs)]
        self.basis = groebner(kernel, *self.ys, order="grevlex")

    def elements(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each element's (lead, trail) words, sorted."""
        polys = [Poly(p, *self.ys) for p in self.basis.exprs]
        return sorted(tuple(map(_word, _terms(p, grevlex))) for p in polys)

    def normal_form(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """The remainder of a Y-monomial on division by the basis, as a word."""
        _, remainder = self.basis.reduce(prod(self.ys[c] for c in word))
        ((exponents, coefficient),) = Poly(remainder, *self.ys).terms()
        if coefficient != 1:
            raise AssertionError(f"not a monomial remainder: {remainder}")
        return _word(exponents)


def rees_leads(generators) -> list[tuple[int, ...]]:
    """The leads of the reduced Groebner basis of the Rees ideal, as exponent vectors, sorted."""
    xs, ys, images = _ring(generators)
    (t,) = symbols("T:1")
    eliminate = ProductOrder((lex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))
    basis = groebner([y - t * m for y, m in zip(ys, images)], t, *xs, *ys, order=eliminate)
    kernel = [p for p in basis.exprs if t not in p.free_symbols]
    n = len(xs)
    order = ProductOrder((lex, lambda m: m[:n]), (grevlex, lambda m: m[n:]))
    reduced = groebner(kernel, *xs, *ys, order=order)
    return sorted(_terms(Poly(p, *xs, *ys), order)[0] for p in reduced.exprs)
