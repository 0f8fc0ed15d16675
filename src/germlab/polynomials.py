"""Exact bivariate polynomials over Q and the text format used everywhere else.

Coefficients are `fractions.Fraction`, exponents are pairs (deg_x, deg_y).
Polynomials are immutable and hashable; zero coefficients are never stored,
so structural equality and the printed form are both canonical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Iterator, Mapping, Optional, Union

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
    """A polynomial in x and y with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, object] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for (i, j), c in items:
            if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                raise ValueError(f"bad exponent pair {(i, j)!r}")
            c = Fraction(c)
            if not c:
                continue
            acc = clean.get((i, j))
            if acc is None:
                clean[(i, j)] = c
            elif acc + c:
                clean[(i, j)] = acc + c
            else:
                del clean[(i, j)]
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[Exponent, Fraction]) -> "Polynomial":
        # internal fast path: terms must already be canonical (no zeros)
        p = object.__new__(cls)
        p._terms = terms
        return p

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Copy of the exponent-to-coefficient map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, deg_x: int, deg_y: int) -> Fraction:
        return self._terms.get((deg_x, deg_y), Fraction(0))

    def order(self) -> int:
        """Smallest total degree of a term, i.e. the multiplicity at the origin."""
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no order")
        return min(i + j for i, j in self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return max(i + j for i, j in self._terms)

    def initial_form(self) -> "Polynomial":
        """Sum of the terms of minimal total degree."""
        m = self.order()
        return Polynomial._raw(
            {k: c for k, c in self._terms.items() if k[0] + k[1] == m}
        )

    def tangent_direction(self) -> Optional[Direction]:
        """The single direction of the tangent cone, or None if it has several.

        The initial form must be c * l^m, l = x if y^m is missing, else y - t*x:
        moving l onto y = 0 (a swap, or ``_shear``) must leave c * y^m alone.
        """
        m = self.order()
        init = self.initial_form()
        top = init.coefficient(0, m)
        if top == 0:
            direction, moved = VERTICAL, init.swap_variables()
        else:
            direction = Slope(-init.coefficient(1, m - 1) / (top * m))
            moved = init._shear(direction.t)
        return direction if moved._terms.keys() == {(0, m)} else None

    def partials(self) -> tuple["Polynomial", "Polynomial"]:
        """Both first partial derivatives, x first."""
        dx: dict[Exponent, Fraction] = {}
        dy: dict[Exponent, Fraction] = {}
        for (i, j), c in self._terms.items():
            if i:
                dx[(i - 1, j)] = c * i
            if j:
                dy[(i, j - 1)] = c * j
        return Polynomial._raw(dx), Polynomial._raw(dy)

    def __call__(self, x: object, y: object) -> Fraction:
        xv, yv = Fraction(x), Fraction(y)
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            total += c * xv**i * yv**j
        return total

    # -- arithmetic ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            v = out.get(k)
            if v is None:
                out[k] = c
            elif v + c:
                out[k] = v + c
            else:
                del out[k]
        return Polynomial._raw(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial._raw({})
            return Polynomial._raw({k: v * c for k, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                k = (i1 + i2, j1 + j2)
                v = out.get(k, Fraction(0)) + c1 * c2
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return Polynomial._raw(out)

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
        return Polynomial._raw({(j, i): c for (i, j), c in self._terms.items()})

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

        acc: dict[Exponent, Fraction] = {}
        for (i, j), c in sorted(self._terms.items()):
            piece = power(xpows, px, i) * power(ypows, py, j)
            for k, v in piece._terms.items():
                w = acc.get(k, Fraction(0)) + c * v
                if w:
                    acc[k] = w
                elif k in acc:
                    del acc[k]
        return Polynomial._raw(acc)

    def substitute_linear(
        self,
        matrix: tuple[tuple[object, object], tuple[object, object]],
        translation: tuple[object, object] = (0, 0),
    ) -> "Polynomial":
        """Compose with an invertible affine change of coordinates.

        With matrix ((a, b), (c, d)) and translation (e, g) this returns
        f(a*x + b*y + e, c*x + d*y + g), computed exactly.
        """
        (a, b), (c, d) = matrix
        a, b, c, d = (Fraction(v) for v in (a, b, c, d))
        if a * d - b * c == 0:
            raise SingularMatrixError("substitution matrix is singular")
        e, g = (Fraction(v) for v in translation)
        px = Polynomial({(1, 0): a, (0, 1): b, (0, 0): e})
        py = Polynomial({(1, 0): c, (0, 1): d, (0, 0): g})
        return self.substitute(px, py)

    def _integer_form(self) -> tuple[int, Iterator[tuple[Exponent, int]]]:
        """(L, pairs (exponent, a)): L the lcm of the denominators, each coefficient a / L."""
        common = lcm(*(c.denominator for c in self._terms.values()))
        pairs = ((k, c.numerator * (common // c.denominator)) for k, c in self._terms.items())
        return common, pairs

    def _shear(self, t: Fraction) -> "Polynomial":
        """f(x, t*x + y), equal to ``substitute_linear(((1, 0), (t, 1)))``.

        With t = p/q, J = deg_y f and coefficients a_ij / L, each term is an integer
        sum of a_ij C(j, k) p^k q^(J - k) over L q^J, reduced by one Fraction.
        """
        if t == 0:
            return self
        p, q = t.numerator, t.denominator
        common, numerators = self._integer_form()
        top = max((j for _, j in self._terms), default=0)
        weights = [p**k * q ** (top - k) for k in range(top + 1)]
        acc: dict[Exponent, int] = {}
        for (i, j), a in numerators:
            for k in range(j + 1):
                key = (i + k, j - k)
                acc[key] = acc.get(key, 0) + a * comb(j, k) * weights[k]
        den = common * q**top
        return Polynomial._raw({key: Fraction(v, den) for key, v in acc.items() if v})

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

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in print order: ascending total degree, then ascending x-degree."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

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
        pieces: list[str] = []
        for (i, j), c in self.sorted_terms():
            mono = self._monomial_str(i, j)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag} {mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


ZERO = Polynomial()
ONE = Polynomial({(0, 0): 1})
X = Polynomial({(1, 0): 1})
Y = Polynomial({(0, 1): 1})


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z])|(?P<op>[-+*/^]))")


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in {text!r}")
        pos = m.end()
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def _parse_terms(tokens: list[tuple[str, object]]) -> dict[Exponent, Fraction]:
    """Sum the signed rational-coefficient monomials of a token list."""
    tokens = tokens + [(None, None)]
    signs = (("op", "+"), ("op", "-"))

    def integer_after(op: str, message: str) -> Optional[int]:
        # the integer after `op` when `op` comes next, else None
        nonlocal pos
        if tokens[pos] != ("op", op):
            return None
        kind, val = tokens[pos + 1]
        if kind != "int":
            raise ParseError(message)
        pos += 2
        return val

    terms: dict[Exponent, Fraction] = {}
    sign = -1 if tokens[0] == ("op", "-") else 1
    pos = 1 if tokens[0] in signs else 0
    while True:
        coef: Fraction | None = None
        kind, val = tokens[pos]
        if kind == "int":
            pos += 1
            den = integer_after("/", "expected an integer denominator after '/'")
            if den == 0:
                raise ParseError("zero denominator in coefficient")
            coef = Fraction(val, 1 if den is None else den)

        ex = ey = 0
        have_factor = False
        while True:
            kind, val = tokens[pos]
            starred = kind == "op" and val == "*"
            if starred:
                if coef is None and not have_factor:
                    raise ParseError("'*' cannot start a term")
                pos += 1
                kind, val = tokens[pos]
            if kind != "name":
                if starred:
                    raise ParseError("dangling '*' with no factor after it")
                break
            pos += 1
            if val not in ("x", "y"):
                raise UnknownVariableError(
                    f"unknown variable {val!r}; only x and y are allowed"
                )
            e = integer_after("^", "expected an integer exponent after '^'")
            if e is None:
                e = 1
            elif e < 1:
                raise ParseError("exponent must be a positive integer")
            if val == "x":
                ex += e
            else:
                ey += e
            have_factor = True

        if coef is None and not have_factor:
            if kind is None:
                raise ParseError("unexpected end of input where a term was expected")
            raise ParseError(f"unexpected token {val!r} where a term was expected")
        expo = (ex, ey)
        c = terms.get(expo, Fraction(0)) + sign * (1 if coef is None else coef)
        if c:
            terms[expo] = c
        elif expo in terms:
            del terms[expo]

        kind, val = tokens[pos]
        if kind is None:
            return terms
        if (kind, val) not in signs:
            raise ParseError(f"expected '+' or '-' before token {val!r}")
        sign = -1 if val == "-" else 1
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
    terms = _parse_terms(tokens)
    poly = Polynomial._raw(terms)
    if poly and poly.total_degree() > max_degree:
        raise DegreeCapError(
            f"total degree {poly.total_degree()} exceeds the cap {max_degree}"
        )
    return poly
