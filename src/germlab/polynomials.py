"""Exact bivariate polynomials over Q and the text format used everywhere else.

A polynomial is stored in its integer form: one integer numerator per
exponent pair (deg_x, deg_y) over one denominator L > 0, with no factor common
to L and every numerator. Zero numerators are never stored, so structural
equality, the hash and the printed form are all canonical. Parsing, the shear,
the partials, arithmetic and printing work on the numerators; ``terms``,
``coefficient`` and evaluation hand out `fractions.Fraction`. Polynomials are
immutable and hashable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import ItemsView, Mapping, Optional, Union

from .errors import (
    DegreeCapError,
    NotAGermError,
    ParseError,
    SingularMatrixError,
    UnknownVariableError,
    ZeroPolynomialError,
)

#: Largest total degree accepted from external input.
DEFAULT_DEGREE_CAP = 512

Exponent = tuple[int, int]


@dataclass(frozen=True)
class Slope:
    """Tangent direction along the line y = t*x."""

    t: Fraction

    def __str__(self) -> str:
        return f"y = {self.t}*x"


@dataclass(frozen=True)
class Vertical:
    """Tangent direction along the line x = 0."""

    def __str__(self) -> str:
        return "x = 0"


VERTICAL = Vertical()

Direction = Union[Slope, Vertical]


class Polynomial:
    """A polynomial in x and y with exact rational coefficients.

    Built from a mapping (deg_x, deg_y) -> coefficient; zero coefficients are dropped.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Exponent, object] = {}):
        clean: dict[Exponent, Fraction] = {}
        for (i, j), c in terms.items():
            if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                raise ValueError(f"bad exponent pair {(i, j)!r}")
            c = Fraction(c)
            if c:
                clean[(i, j)] = c
        self._den = lcm(*(c.denominator for c in clean.values()))
        self._terms = {k: c.numerator * (self._den // c.denominator) for k, c in clean.items()}

    @classmethod
    def _raw(cls, terms: dict[Exponent, int], den: int = 1) -> "Polynomial":
        # internal fast path: nonzero integer numerators over den > 0; a
        # factor common to den and every numerator is divided out here
        if den != 1 and (g := gcd(den, *terms.values())) != 1:
            terms = {k: a // g for k, a in terms.items()}
            den //= g
        p = object.__new__(cls)
        p._terms = terms
        p._den = den
        return p

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The exponent-to-coefficient map as Fractions, in storage order; a new dict."""
        den = self._den
        return {k: Fraction(a, den) for k, a in self._terms.items()}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, deg_x: int, deg_y: int) -> Fraction:
        return Fraction(self._terms.get((deg_x, deg_y), 0), self._den)

    def order(self) -> int:
        """Smallest total degree of a term, i.e. the multiplicity at the origin."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no order")
        return min(map(sum, self._terms))

    def total_degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(map(sum, self._terms))

    def initial_form(self) -> "Polynomial":
        """Sum of the terms of minimal total degree."""
        m = self.order()
        return Polynomial._raw(
            {k: a for k, a in self._terms.items() if k[0] + k[1] == m}, self._den
        )

    def tangent_direction(self) -> Optional[Direction]:
        """The single direction of the tangent cone, or None if it has several.

        The initial form must be c * l^m, l = x if y^m is missing, else y - t*x.
        With c_i the numerator of x^i y^(m-i), x = 0 needs x^m as its only term,
        and c_0 * (y - t*x)^m with t = -c_1 / (m c_0) needs
        c_i (m c_0)^i = c_0 C(m, i) c_1^i for every i <= m.
        A nonzero constant term raises ``require_germ``'s NotAGermError.
        """
        m = self.order()
        if not m:
            self.require_germ()
        init = {i: a for (i, j), a in self._terms.items() if i + j == m}
        top = init.get(0)
        if top is None:
            return VERTICAL if init.keys() == {m} else None
        c1, scale = init.get(1, 0), m * top
        if all(init.get(i, 0) * scale**i == top * comb(m, i) * c1**i for i in range(m + 1)):
            return Slope(Fraction(-c1, scale))
        return None

    def partials(self) -> tuple["Polynomial", "Polynomial"]:
        """Both first partial derivatives, x first."""
        dx: dict[Exponent, int] = {}
        dy: dict[Exponent, int] = {}
        for (i, j), a in self._terms.items():
            if i:
                dx[(i - 1, j)] = a * i
            if j:
                dy[(i, j - 1)] = a * j
        return Polynomial._raw(dx, self._den), Polynomial._raw(dy, self._den)

    def __call__(self, x: object, y: object) -> Fraction:
        xv, yv = Fraction(x), Fraction(y)
        total = sum((a * xv**i * yv**j for (i, j), a in self._terms.items()), Fraction(0))
        return total / self._den

    # -- arithmetic ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({k: -a for k, a in self._terms.items()}, self._den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        den = lcm(self._den, other._den)
        mine, theirs = den // self._den, den // other._den
        out = {k: a * mine for k, a in self._terms.items()}
        for k, b in other._terms.items():
            v = out.get(k, 0) + b * theirs
            if v:
                out[k] = v
            else:
                del out[k]
        return Polynomial._raw(out, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial._raw({})
            scaled = {k: a * c.numerator for k, a in self._terms.items()}
            return Polynomial._raw(scaled, self._den * c.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Exponent, int] = {}
        for (i1, j1), a1 in self._terms.items():
            for (i2, j2), a2 in other._terms.items():
                k = (i1 + i2, j1 + j2)
                v = out.get(k, 0) + a1 * a2
                if v:
                    out[k] = v
                else:
                    del out[k]
        return Polynomial._raw(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- substitutions ---------------------------------------------------

    def swap_variables(self) -> "Polynomial":
        """Exchange the roles of x and y."""
        return Polynomial._raw({(j, i): a for (i, j), a in self._terms.items()}, self._den)

    def substitute(self, px: "Polynomial", py: "Polynomial") -> "Polynomial":
        """Exact composition f(px(x, y), py(x, y))."""
        xpows: dict[int, Polynomial] = {0: ONE}
        ypows: dict[int, Polynomial] = {0: ONE}

        def power(cache: dict[int, Polynomial], base: Polynomial, n: int) -> Polynomial:
            top = max(cache)
            while top < n:
                cache[top + 1] = cache[top] * base
                top += 1
            return cache[n]

        acc = Polynomial._raw({})
        for (i, j), a in sorted(self._terms.items()):
            acc = acc + power(xpows, px, i) * power(ypows, py, j) * a
        return acc * Fraction(1, self._den)

    def substitute_linear(
        self, matrix: tuple[tuple[object, object], tuple[object, object]]
    ) -> "Polynomial":
        """Compose with an invertible linear change of coordinates.

        With matrix ((a, b), (c, d)) this returns f(a*x + b*y, c*x + d*y),
        computed exactly; the origin stays fixed, so a germ stays a germ.
        """
        (a, b), (c, d) = matrix
        a, b, c, d = (Fraction(v) for v in (a, b, c, d))
        if a * d - b * c == 0:
            raise SingularMatrixError("substitution matrix is singular")
        px = Polynomial({(1, 0): a, (0, 1): b})
        py = Polynomial({(1, 0): c, (0, 1): d})
        return self.substitute(px, py)

    def _integer_form(self) -> tuple[int, ItemsView[Exponent, int]]:
        """(L, pairs (exponent, a)) as stored: each coefficient is a / L, L the lcm denominator."""
        return self._den, self._terms.items()

    def _shear(self, t: Fraction) -> "Polynomial":
        """f(x, t*x + y), equal to ``substitute_linear(((1, 0), (t, 1)))``.

        With t = p/q, J = deg_y f and coefficients a_ij / L, each term is an integer
        sum of a_ij C(j, k) p^k q^(J - k) over L q^J, reduced by one gcd.
        """
        if t == 0:
            return self
        p, q = t.numerator, t.denominator
        top = max((j for _, j in self._terms), default=0)
        weights = [p**k * q ** (top - k) for k in range(top + 1)]
        acc: dict[Exponent, int] = {}
        for (i, j), a in self._terms.items():
            for k in range(j + 1):
                key = (i + k, j - k)
                acc[key] = acc.get(key, 0) + a * comb(j, k) * weights[k]
        return Polynomial._raw({key: v for key, v in acc.items() if v}, self._den * q**top)

    def align_tangent(self, direction: Direction) -> "Polynomial":
        """Move a tangent direction onto the line y = 0.

        Swaps x and y for the vertical direction and shears y -> t*x + y for
        the slope t, so an initial form c * l^m becomes c * y^m.
        """
        if isinstance(direction, Vertical):
            return self.swap_variables()
        return self._shear(Fraction(direction.t))

    def require_germ(self) -> None:
        """Raise NotAGermError unless the polynomial is nonzero and vanishes at the origin."""
        if not self._terms:
            raise NotAGermError("the zero polynomial defines no germ")
        if (0, 0) in self._terms:
            raise NotAGermError("the polynomial does not vanish at the origin")

    def aligned(self) -> tuple["Polynomial", Optional[Direction], int]:
        """(aligned germ, tangent direction, multiplicity m), after the germ check.

        A single tangent of a singular germ is moved onto y = 0 by ``align_tangent``;
        a smooth germ or a split tangent cone comes back as is, with direction None.
        """
        self.require_germ()
        m = self.order()
        direction = self.tangent_direction() if m >= 2 else None
        return (self if direction is None else self.align_tangent(direction)), direction, m

    # -- printing --------------------------------------------------------

    @staticmethod
    def _monomial_str(i: int, j: int) -> str:
        parts = []
        if i:
            parts.append("x" if i == 1 else f"x^{i}")
        if j:
            parts.append("y" if j == 1 else f"y^{j}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        den = self._den
        pieces: list[str] = []
        # ascending total degree, then ascending x-degree
        for (i, j), a in sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0][0])):
            mono = self._monomial_str(i, j)
            # |a| / den in lowest terms, printed as Fraction prints it
            g = gcd(a, den)
            mag = f"{abs(a) // g}" if g == den else f"{abs(a) // g}/{den // g}"
            if mono and abs(a) == den:
                body = mono
            elif mono:
                body = f"{mag} {mono}"
            else:
                body = mag
            if not pieces:
                pieces.append(f"-{body}" if a < 0 else body)
            else:
                pieces.append(f"- {body}" if a < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


ZERO = Polynomial()
ONE = Polynomial({(0, 0): 1})
X = Polynomial({(1, 0): 1})
Y = Polynomial({(0, 1): 1})


# -- parsing ---------------------------------------------------------------

# every character outside the grammar's alphabet, and the grammar's tokens:
# an unsigned integer, or a single letter or operator
_BAD = re.compile(r"[^\s\dA-Za-z+\-*/^]")
_TOKEN = re.compile(r"\d+|\S")


def _tokenize(text: str) -> list[str]:
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} in {text!r}")
    return _TOKEN.findall(text)


def _parse_terms(tokens: list[str]) -> tuple[dict[Exponent, int], int]:
    """Sum the signed rational-coefficient monomials of a token list.

    Returns integer numerators over one common denominator, not yet reduced:
    a coefficient a/d with d not dividing it grows it to the lcm.
    """
    tokens = tokens + [""]  # "" marks the end of input
    terms: dict[Exponent, int] = {}
    den = 1
    sign = -1 if tokens[0] == "-" else 1
    pos = 1 if tokens[0] in ("+", "-") else 0
    while True:
        tok = tokens[pos]
        has_coef = tok.isdecimal()
        num = den
        if has_coef:
            pos += 1
            if tokens[pos] != "/":
                num = int(tok) * den
            elif not tokens[pos + 1].isdecimal():
                raise ParseError("expected an integer denominator after '/'")
            else:
                d = int(tokens[pos + 1])
                pos += 2
                if not d:
                    raise ParseError("zero denominator in coefficient")
                if den % d:
                    scale = d // gcd(den, d)
                    terms = {k: a * scale for k, a in terms.items()}
                    den *= scale
                num = int(tok) * (den // d)

        ex = ey = 0
        have_factor = False
        while True:
            tok = tokens[pos]
            starred = tok == "*"
            if starred:
                if not has_coef and not have_factor:
                    raise ParseError("'*' cannot start a term")
                pos += 1
                tok = tokens[pos]
            if not tok.isalpha():
                if starred:
                    raise ParseError("dangling '*' with no factor after it")
                break
            pos += 1
            if tok not in ("x", "y"):
                raise UnknownVariableError(
                    f"unknown variable {tok!r}; only x and y are allowed"
                )
            e = 1
            if tokens[pos] == "^":
                if not tokens[pos + 1].isdecimal():
                    raise ParseError("expected an integer exponent after '^'")
                e = int(tokens[pos + 1])
                pos += 2
                if e < 1:
                    raise ParseError("exponent must be a positive integer")
            if tok == "x":
                ex += e
            else:
                ey += e
            have_factor = True

        if not has_coef and not have_factor:
            if not tok:
                raise ParseError("unexpected end of input where a term was expected")
            raise ParseError(f"unexpected token {tok!r} where a term was expected")
        expo = (ex, ey)
        c = terms.get(expo, 0) + sign * num
        if c:
            terms[expo] = c
        elif expo in terms:
            del terms[expo]

        tok = tokens[pos]
        if not tok:
            return terms, den
        if tok not in ("+", "-"):
            val = int(tok) if tok.isdecimal() else tok
            raise ParseError(f"expected '+' or '-' before token {val!r}")
        sign = -1 if tok == "-" else 1
        pos += 1


def parse_polynomial(text: str, max_degree: int = DEFAULT_DEGREE_CAP) -> Polynomial:
    """Parse text like ``"y^2 - x^3"`` or ``"3/2 x*y + x^2"`` into a Polynomial.

    A term is an optional rational coefficient followed by an optional
    monomial in x and y; '*' between factors is optional. Raises ParseError
    (or UnknownVariableError) on malformed input and DegreeCapError when the
    result exceeds ``max_degree``.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    try:
        poly = Polynomial._raw(*_parse_terms(tokens))
    except ValueError as exc:
        # int() refuses a token past the interpreter's integer-string limit
        longest = max(len(tok) for tok in tokens if tok.isdecimal())
        raise ParseError(f"integer of {longest} digits is too long to read") from exc
    if poly and poly.total_degree() > max_degree:
        raise DegreeCapError(
            f"total degree {poly.total_degree()} exceeds the cap {max_degree}"
        )
    return poly
