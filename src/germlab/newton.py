"""The Newton number of a convenient plane curve germ (Kouchnirenko).

A germ f is convenient when its support holds a pure power x^a and a pure
power y^b. Its lower Newton boundary then runs from (0, b) to (a, 0), and
with V the area between it and the axes, the Newton number is
nu = 2V - a - b + 1. Kouchnirenko (*Polyèdres de Newton et nombres de
Milnor*, Invent. Math. 1976) proves mu >= nu, with equality when f is
Newton non-degenerate. In two variables that means no compact edge
polynomial has a repeated root in C*. An edge from (i0, j0) to (i1, j1) with
g = gcd(i1 - i0, j0 - j1) lattice steps has the edge polynomial
sum c_k t^k, with c_k the coefficient of x^(i0 + kp) y^(j0 - kq) and
(p, q) one step; c_0 and c_g are nonzero, so a repeated root is one of
gcd(P, P'), computed over Z with primitive pseudo-remainders.

Both numbers depend on the coordinates; mu does not. When the boundary is
the single edge from (0, m) to (pm, 0), m >= 2, with edge polynomial
e0 (y + r x^p)^m, the substitution y -> y - r x^p moves the germ off that
degenerate edge; ``newton_polygon`` reports (r, p) for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .polynomials import Polynomial, _power_root


class Newton(NamedTuple):
    """The Newton number nu of a convenient germ and whether the germ is non-degenerate."""

    number: int
    non_degenerate: bool


def newton_number(f: Polynomial) -> Optional[Newton]:
    """nu and whether f is Newton non-degenerate; None unless f is convenient."""
    polygon = newton_polygon(f)
    return None if polygon is None else polygon[0]


def newton_polygon(f: Polynomial) -> Optional[tuple[Newton, Optional[tuple[Fraction, int]]]]:
    """``newton_number(f)`` and the shift (r, p) of a single power edge; None unless convenient.

    The shift is None unless the lower boundary is one edge from (0, m) to
    (pm, 0), m >= 2, whose edge polynomial is e0 (y + r x^p)^m.
    """
    support = dict(f._integer_form()[1])
    a = min((i for i, j in support if j == 0 and i), default=None)
    b = min((j for i, j in support if i == 0 and j), default=None)
    if a is None or b is None:
        return None
    # lowest point of each column up to x^a, then the lower hull from (0, b)
    lowest: dict[int, int] = {}
    for i, j in support:
        if i <= a and j < lowest.get(i, b + 1):
            lowest[i] = j
    hull: list[tuple[int, int]] = []
    for point in sorted(lowest.items()):
        while len(hull) > 1 and _turn(hull[-2], hull[-1], point) <= 0:
            hull.pop()
        hull.append(point)
    twice_area, non_degenerate = 0, True
    for (i0, j0), (i1, j1) in zip(hull, hull[1:]):
        twice_area += (i1 - i0) * (j0 + j1)
        steps = gcd(i1 - i0, j0 - j1)
        p, q = (i1 - i0) // steps, (j0 - j1) // steps
        edge = [support.get((i0 + k * p, j0 - k * q), 0) for k in range(steps + 1)]
        non_degenerate = non_degenerate and _squarefree(edge)
    # one edge of b > 1 unit steps (p, 1) whose polynomial is c_0 (1 + r t)^b
    r = _power_root(edge) if len(hull) == 2 and q == 1 < b else None
    return Newton(twice_area - a - b + 1, non_degenerate), None if r is None else (r, p)


def _turn(o: tuple[int, int], u: tuple[int, int], v: tuple[int, int]) -> int:
    # positive when o -> u -> v turns counterclockwise
    return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])


def _squarefree(c: list[int]) -> bool:
    """Whether sum c_k t^k (c_0 and the top coefficient nonzero) has no repeated root."""
    a, b = c, _primitive([k * v for k, v in enumerate(c)][1:])
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return len(a) == 1


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    # coefficient lists, lowest degree first, top coefficient nonzero
    r, top = list(a), b[-1]
    while len(r) >= len(b):
        shift, lead = len(r) - len(b), r[-1]
        r = [top * v for v in r]
        for k, v in enumerate(b):
            r[k + shift] -= lead * v
        while r and not r[-1]:
            r.pop()
    return r


def _primitive(r: list[int]) -> list[int]:
    g = gcd(*r)
    return [v // g for v in r] if g > 1 else r
