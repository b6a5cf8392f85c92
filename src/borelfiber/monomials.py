"""Monomials as exponent vectors, with the Borel and reverse Borel move calculus.

A monomial in ``n`` ordered variables is a plain tuple of ``n`` nonnegative
integer exponents.  Position 0 holds the lex-greatest variable (``a`` when the
variables are named ``a, b, c``), so builtin tuple comparison of exponent
vectors coincides with the lex order on monomials: the bigger tuple is the
lex-earlier monomial.  A Borel move shifts one unit of exponent toward
position 0; a reverse Borel move shifts it away.

All functions are pure; monomials are never mutated.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class VariableContext:
    """An ordered variable alphabet; position 0 is the lex-greatest variable.

    Names are identifiers, and none is another followed by a letter or ``_``
    (``x1`` and ``x12`` may meet, ``y`` and ``yy`` not: ``yyy^2`` reads two ways).
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("need at least one variable")
        names = set(self.names)
        if len(names) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        for name in self.names:
            if not (name.isascii() and name.isidentifier()):
                raise ValueError(f"variable name {name!r} does not match [A-Za-z_][A-Za-z0-9_]*")
            for k in range(1, len(name)):
                if name[:k] in names and name[k] not in string.digits:
                    raise ValueError(
                        f"variable name {name!r} reads as {name[:k]!r} followed by {name[k:]!r}"
                    )

    @property
    def n(self) -> int:
        return len(self.names)

    @classmethod
    def default(cls, n: int) -> "VariableContext":
        """Context named a, b, c, ... for n <= 26 variables."""
        if not 1 <= n <= 26:
            raise ValueError(f"default contexts support 1..26 variables, got {n}")
        return cls(tuple(string.ascii_lowercase[:n]))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} in context {self.names}") from None


def unit(n: int) -> Monomial:
    return (0,) * n


def degree(m: Monomial) -> int:
    return sum(m)


def _check_same_length(m1: Monomial, m2: Monomial) -> None:
    if len(m1) != len(m2):
        raise ValueError(f"variable contexts differ: {len(m1)} vs {len(m2)} variables")


def multiply(m1: Monomial, m2: Monomial) -> Monomial:
    _check_same_length(m1, m2)
    return tuple(a + b for a, b in zip(m1, m2))


def divides(m1: Monomial, m2: Monomial) -> bool:
    """True when m1 divides m2, i.e. componentwise m1 <= m2."""
    _check_same_length(m1, m2)
    return all(a <= b for a, b in zip(m1, m2))


def sigma(m: Monomial) -> tuple[int, ...]:
    """Cumulative exponent vector: sigma_i = sum of exponents from position i on.

    The result is weakly decreasing, starts at deg(m), and two consecutive
    entries differ exactly when the variable at the first position divides m.
    """
    out = []
    total = 0
    for e in reversed(m):
        total += e
        out.append(total)
    return tuple(reversed(out))


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


def parse_monomial(text: str, context: VariableContext) -> Monomial:
    """Parse compact (``a^2c^3``, ``1``) or vector (``[2,0,3]``) syntax."""
    s = text.strip()
    if not s:
        raise ValueError("empty monomial")
    if s == "1":
        return unit(context.n)
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated exponent vector: {text!r}")
        parts = [p.strip() for p in s[1:-1].split(",")] if s[1:-1].strip() else []
        try:
            exps = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"invalid exponent vector: {text!r}") from None
        if len(exps) != context.n:
            raise ValueError(f"expected {context.n} exponents, got {len(exps)}: {text!r}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {text!r}")
        return exps
    # longest-name-first so multi-letter names never shadow their prefixes
    names = sorted(context.names, key=len, reverse=True)
    exps = [0] * context.n
    i = 0
    while i < len(s):
        if s[i] in " *":
            i += 1
            continue
        for name in names:
            if s.startswith(name, i):
                i += len(name)
                break
        else:
            raise ValueError(f"cannot read a variable at {s[i:]!r} in {text!r}")
        e = 1
        if i < len(s) and s[i] == "^":
            i += 1
            start = i
            while i < len(s) and s[i] in string.digits:
                i += 1
            if start == i:
                raise ValueError(f"missing exponent after '^' in {text!r}")
            e = int(s[start:i])
        exps[context.index(name)] += e
    return tuple(exps)


def format_monomial(m: Monomial, context: VariableContext) -> str:
    """Compact form; exponent 1 implicit, the unit monomial prints as ``1``."""
    if len(m) != context.n:
        raise ValueError(f"monomial has {len(m)} exponents, context has {context.n} variables")
    parts = []
    for name, e in zip(context.names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "".join(parts) or "1"
