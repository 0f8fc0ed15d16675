"""Local standard bases and colengths of ideals in Q[[x, y]].

Monomials are compared in a local order: smaller total degree means a
*larger* monomial (so 1 is the largest of all), with ties broken by x-degree
(x above y). Leading terms are therefore the lowest-degree corners of a
series, which is what makes Mora's normal form terminate where ordinary
division would not.

Two independent colength computations live here on purpose:

* ``standard_basis`` + ``colength`` count the staircase of the leading ideal
  computed by Mora's tangent cone algorithm (exact, complete); the
  completion skips pairs whose leading monomials are coprime, a pure power
  of x against a pure power of y, because two such generators share no
  tangent and so already form a standard basis of the ideal they span;
  mu takes one route, ``_colength``: on a convenient, Newton non-degenerate
  germ the Jacobian ideal is completed modulo m^(nu+1), nu the Newton number,
  and kept only when its own highest corner proves the cut harmless, and
  every other germ gets the uncut ``standard_basis``; before that,
  ``_newton_coordinates`` moves a germ whose Newton boundary is the single
  edge e0 (y + r x^p)^m by y -> y - r x^p, so one that is degenerate only in
  its coordinates takes the cut, while an edge that is a power of y^2 - x^3
  has no such shift and stays uncut; tau, in ``_tjurina``, extends mu's basis
  with f and drops every term at or above its highest corner D (m^D lies in
  the Jacobian ideal), so each normal form of the extension ends within
  D(D+1)/2 steps; ``tjurina_number`` takes that route wherever mu's
  completion is cut, and elsewhere completes the Tjurina ideal uncut; the
  public ``standard_basis`` and the oracle are never cut;
* ``colength_oracle`` computes the codimension of a degree-truncated ideal by
  integer Gaussian elimination, certifying exactness via stability at two
  consecutive caps.

They share only the input format: ``Polynomial._integer_form`` reads the
integer numerators a polynomial stores, ``_encode`` codes monomials as
integers in the local order, and ``_normalized`` divides out the content and
makes the leading coefficient positive. The oracle never calls Mora's
reduction, normal form or completion, so a fault there cannot cancel out in
the cross-check. Its codimension is a rank, which no pivot order changes: it
needs the codes only injective, additive and ordered by degree (pinned up to
degree 600), and pivots in the local order only because that keeps the
elimination sparse.

Mu and tau run on the germ as ``Polynomial.aligned`` returns it; that keeps both
colengths, and Mora avoids long cancellation chains when the initial form is y^m.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Collection, Iterable, Optional, Sequence

from .errors import NonIsolatedSingularityError, ZeroIdealError
from .newton import Newton, newton_polygon
from .polynomials import ONE, Polynomial

Exponent = tuple[int, int]

#: Sentinel returned by ``colength`` for ideals of infinite colength.
INFINITE = object()

#: Sentinel returned by ``colength_oracle`` when truncation did not stabilize.
UNSTABLE = object()


def _order_key(mono: Exponent) -> tuple[int, int]:
    # smaller key = larger monomial in the local order
    i, j = mono
    return (i + j, -i)


# -- integer monomial codes, shared by both pipelines ------------------------

# Both pipelines code the monomial x^i y^j as the integer (i + j) * 2**32 - i.
# For every x-degree below 2**32 integer order is then exactly the local order
# (the smallest code is the leading monomial, the largest has the top degree),
# and multiplying two monomials adds their codes.  The monomials of degree >= D
# are exactly the codes >= (D << 32) - D, so cutting them off at a highest
# corner D is one comparison per term.
_SHIFT = 32
_BELOW = (1 << _SHIFT) - 1
CodeTerms = dict[int, int]


def _encode(mono: Exponent) -> int:
    i, j = mono
    return ((i + j) << _SHIFT) - i


def _degree(code: int) -> int:
    return (code + _BELOW) >> _SHIFT


def _decode(code: int) -> Exponent:
    d = _degree(code)
    i = (d << _SHIFT) - code
    return (i, d - i)


def _normalized(terms: CodeTerms) -> tuple[CodeTerms, int | None]:
    """Divide by the content, make the leading coefficient positive, return the lead."""
    if not terms:
        return terms, None
    lead = min(terms)
    g = gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    if g != 1:
        terms = {k: c // g for k, c in terms.items()}
    return terms, lead


# -- truncation oracle (independent of the standard basis machinery) --------


def colength_oracle(generators: Iterable[Polynomial], degree_cap: int):
    """Codimension of the span of all truncated monomial multiples.

    Computes the codimension at ``degree_cap - 1`` and ``degree_cap``; if the
    two agree the common value is the exact colength (the quotient staircase
    is a lower set, so its counting function is constant in the cap exactly
    once every staircase monomial lies below it). Returns UNSTABLE otherwise;
    an infinite colength never stabilizes.
    """
    if degree_cap < 2:
        raise ValueError("degree_cap must be at least 2")
    polys = [p for p in generators if p]
    low = _truncated_codimension(polys, degree_cap - 1)
    high = _truncated_codimension(polys, degree_cap)
    return high if low == high else UNSTABLE


def _truncated_codimension(polys: Sequence[Polynomial], cap: int) -> int:
    """Monomials of degree at most cap, minus the rank of their truncated multiples."""
    cut = _encode((cap + 1, 0))
    pivots: dict[int, CodeTerms] = {}
    for p in polys:
        base = {_encode(k): a for k, a in p._integer_form()[1]}
        for d in range(cap - _degree(min(base)) + 1):
            for mi in range(d, -1, -1):
                shift = _encode((mi, d - mi))
                row, lead = _normalized({k + shift: c for k, c in base.items() if k + shift < cut})
                while lead is not None:
                    pivot = pivots.get(lead)
                    if pivot is None:
                        pivots[lead] = row
                        break
                    # cross-multiply so that the leading terms cancel
                    a, b = pivot[lead], row[lead]
                    out = {k: a * c for k, c in row.items()}
                    for k, c in pivot.items():
                        v = out.get(k, 0) - b * c
                        if v:
                            out[k] = v
                        else:
                            del out[k]
                    row, lead = _normalized(out)
    return (cap + 1) * (cap + 2) // 2 - len(pivots)


# -- Mora standard bases -----------------------------------------------------


@dataclass(frozen=True)
class StandardBasis:
    """A standard basis together with the minimal exponents of its leading ideal."""

    generators: tuple[Polynomial, ...]
    leading_exponents: frozenset[Exponent]


# a cut above every code in use: nothing is dropped
_NO_CUT = 1 << (2 * _SHIFT)

# a reducer with its cached leading data: terms, leading code, leading
# exponent (i, j) and its rank (ecart, i + j, i) in the reducer choice
PoolEntry = tuple[CodeTerms, int, int, int, tuple[int, int, int]]


def _ecart(terms: CodeTerms, lead: int) -> int:
    # gap between the highest and lowest total degree present
    return _degree(max(terms)) - _degree(lead)


def _pool_entry(terms: CodeTerms, lead: int) -> PoolEntry:
    i, j = _decode(lead)
    return (terms, lead, i, j, (_ecart(terms, lead), i + j, i))


def _reduce_leading(
    h: CodeTerms, lead_h: int, g: CodeTerms, lead_g: int, cut: int = _NO_CUT
) -> tuple[CodeTerms, int | None]:
    """One exact reduction step: kill the leading term of h with a multiple of g.

    Terms of the multiple at or above ``cut`` are dropped; h must have none.
    """
    shift = lead_h - lead_g
    a, b = g[lead_g], h[lead_h]
    # dividing both multipliers by their gcd changes only the content,
    # which _normalized divides out anyway
    d = gcd(a, b)
    a, b = a // d, b // d
    out = {k: a * c for k, c in h.items()}
    for k, c in g.items():
        k += shift
        if k >= cut:
            continue
        v = out.get(k, 0) - b * c
        if v:
            out[k] = v
        else:
            del out[k]
    return _normalized(out)


def _mora_normal_form(
    h: CodeTerms, lead: int, reducers: list[PoolEntry], cut: int = _NO_CUT
) -> tuple[CodeTerms, int | None]:
    """Mora's weak normal form of h against the reducer list.

    Reducers whose ecart exceeds the current remainder's are avoided when a
    better one exists; when none exists the remainder itself joins the local
    reducer pool, which is what forces termination in the local order.
    Terms at or above ``cut`` are dropped after every step; h must have none.

    Nothing counts the steps. Uncut, the loop ends by Mora's termination
    theorem (Greuel and Pfister, *A Singular Introduction to Commutative
    Algebra*, §1.7), which bounds neither the steps nor the coefficient
    size. Under a cut at degree D each step strictly lowers the leading
    monomial among the D(D+1)/2 monomials of degree below D, so the loop
    ends within D(D+1)/2 steps.

    Appending h also at equal ecart gives the same normal forms: a later
    remainder h' that h could reduce has lead(best) | lead(h) | lead(h'), so
    best is a candidate for h' too, of rank (ecart, degree, x-degree) at most
    h's, and wins a tie as the earlier entry; h is never chosen.
    """
    pool = list(reducers)
    while h:
        hi, hj = _decode(lead)
        best = None
        for entry in pool:
            # prefer small ecart, then the smallest leading monomial (lowest
            # degree first), then first inserted; preferring low-degree
            # reducers keeps coefficient growth tame
            if entry[2] <= hi and entry[3] <= hj and (best is None or entry[4] < best[4]):
                best = entry
        if best is None:
            return h, lead
        reducer_ecart = best[4][0]
        if reducer_ecart and reducer_ecart > _ecart(h, lead):
            pool.append(_pool_entry(h, lead))
        h, lead = _reduce_leading(h, lead, best[0], best[1], cut)
    return h, lead


def _s_polynomial(
    f: PoolEntry, g: PoolEntry, cut: int = _NO_CUT
) -> tuple[CodeTerms, int | None]:
    # move f to the lcm of both leading monomials, then cancel g against it;
    # the lcm must lie below the cut (``_complete`` queues no other pair)
    f_terms, f_lead, fi, fj, _ = f
    g_terms, g_lead, gi, gj, _ = g
    lcm = _encode((max(fi, gi), max(fj, gj)))
    shift = lcm - f_lead
    moved = {k + shift: c for k, c in f_terms.items() if k + shift < cut}
    return _reduce_leading(moved, lcm, g_terms, g_lead, cut)


def _entry(p: Polynomial, cut: int = _NO_CUT) -> PoolEntry | None:
    """The pool entry of p without its terms at or above the cut; None if none remain."""
    terms, lead = _normalized({c: a for k, a in p._integer_form()[1] if (c := _encode(k)) < cut})
    return None if lead is None else _pool_entry(terms, lead)


def _truncated(entry: PoolEntry, cut: int) -> PoolEntry | None:
    """The entry without its terms at or above the cut; None if none remain."""
    terms, lead = _normalized({k: c for k, c in entry[0].items() if k < cut})
    return None if lead is None else _pool_entry(terms, lead)


def _complete(pool: list[PoolEntry], first_new: int, cut: int = _NO_CUT) -> None:
    """Complete the pool in place to a standard basis for the local order.

    ``pool[:first_new]`` must already be a standard basis, so only the pairs
    with an entry at ``first_new`` or later are queued. Pairs are processed
    in increasing order of the total degree of the lcm of leading monomials,
    which keeps the run deterministic. With a ``cut`` the pool is completed
    modulo the monomials at or above it, and no entry may have such a term.

    Each pair is decided once, when it is queued, and the two kinds below
    are never queued. A pair whose lcm lies at or above the cut has a zero
    S-polynomial modulo the cut, since every term of f moved to the lcm lies
    at or above it.

    A pair whose leading monomials are coprime is dropped unreduced
    (Buchberger's product criterion), which in two variables is exact for
    the local order. If one leading monomial is 1, that entry is a unit and
    alone a standard basis of the whole ring. Otherwise call the entries f
    and g, with leading monomials x^a and y^d. Leading monomial y^d makes
    c*y^d the whole initial form of g, and f's initial form has an x^a term,
    so f and g share no tangent. Then the colength of (f, g), their
    intersection number, is a*d, the colength of (x^a, y^d); L(f, g)
    contains (x^a, y^d) and has the same colength, so the two are equal and
    {f, g} is a standard basis of (f, g). Their S-polynomial therefore has a
    standard representation over {f, g}, hence over the pool, which is all
    that Buchberger's criterion for local orders asks. Modulo the cut the
    dropped terms lie at or above it, so the same holds there.
    """
    queue: list[tuple[int, int, int, int]] = []
    queued = first_new
    while True:
        for j in range(queued, len(pool)):
            fi, fj = pool[j][2:4]
            for i in range(j):
                gi, gj = pool[i][2:4]
                li, lj = max(fi, gi), max(fj, gj)
                if (min(fi, gi) or min(fj, gj)) and _encode((li, lj)) < cut:
                    heapq.heappush(queue, (li + lj, li, i, j))
        queued = len(pool)
        if not queue:
            return
        _, _, i, j = heapq.heappop(queue)
        remainder, lead = _mora_normal_form(*_s_polynomial(pool[i], pool[j], cut), pool, cut)
        if remainder:
            pool.append(_pool_entry(remainder, lead))


def _divides(a: Exponent, b: Exponent) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def _minimal(pool: list[PoolEntry]) -> list[PoolEntry]:
    """One entry per minimal leading exponent of a completed pool, the first of equals."""
    lead = [(entry[2], entry[3]) for entry in pool]
    return [
        pool[idx]
        for idx, lm in enumerate(lead)
        if not any(
            _divides(other, lm) and (other != lm or kdx < idx)
            for kdx, other in enumerate(lead)
            if kdx != idx
        )
    ]


def standard_basis(generators: Iterable[Polynomial]) -> StandardBasis:
    """Complete the generators to a standard basis for the local order.

    Buchberger-style completion using Mora normal forms over the pairs of
    the growing pool, except the pairs with coprime leading monomials, whose
    S-polynomials are known to have standard representations (see
    ``_complete``).
    """
    pool = [_entry(p) for p in generators if p]
    if not pool:
        raise ZeroIdealError("all generators are zero")
    # a unit generator spans the whole local ring; Mora reduction by a unit
    # never halts early, so short-circuit instead of completing
    if any(entry[1] == 0 for entry in pool):
        return StandardBasis(
            generators=(ONE,),
            leading_exponents=frozenset([(0, 0)]),
        )
    _complete(pool, 1)
    keep = _minimal(pool)
    return StandardBasis(
        generators=tuple(
            # codes decode to distinct exponents, zero terms are never kept and
            # a row's content is 1, so it is its own integer form over 1
            Polynomial._raw({_decode(k): c for k, c in entry[0].items()})
            for entry in keep
        ),
        leading_exponents=frozenset((entry[2], entry[3]) for entry in keep),
    )


def colength(basis: StandardBasis):
    """Number of monomials outside the leading ideal; INFINITE if unbounded.

    Finite exactly when the leading ideal contains a pure power of x and a
    pure power of y.
    """
    heights = _column_heights(basis.leading_exponents)
    return INFINITE if heights is None else sum(heights)


def _column_heights(exponents: Collection[Exponent]) -> list[int] | None:
    """Heights h(0), ..., h(A - 1) of the staircase below a monomial ideal.

    A is the smallest pure x-power among the exponents, and h(i) the smallest
    y-degree at x-degree i or less; None when either pure power is missing.
    """
    x_powers = [i for (i, j) in exponents if j == 0]
    if not x_powers or not any(i == 0 for (i, j) in exponents):
        return None
    return [min(j for (i, j) in exponents if i <= column) for column in range(min(x_powers))]


def _highest_corner(heights: list[int]) -> int:
    """The least D with every monomial of degree D in the leading ideal.

    x^i y^(D-i) lies in it when i >= A or D - i >= h(i). For an ideal J with
    this leading ideal, J and J + m^D then have the same leading ideal, hence
    the same finite colength, and since J is contained in J + m^D the two are
    equal: m^D lies in J.
    """
    return max([len(heights)] + [i + h for i, h in enumerate(heights)])


def _colength(
    generators: Sequence[Polynomial], newton: Optional[Newton]
) -> tuple[list[PoolEntry], list[int]]:
    """Minimal standard basis and column heights of the ideal of the generators.

    Only the Jacobian ideal J of a germ g is ever cut: the generators are
    g's partials and ``newton``, g's Newton data, says g is convenient and
    Newton non-degenerate. Then mu = nu (Kouchnirenko) and m^nu lies in J,
    so the generators are first completed modulo m^c, c = nu + 1. The
    result is kept only when its leading exponents hold both pure powers with
    highest corner D < c: then m^D lies in J + m^c, inside J + m^(D+1), and
    Nakayama gives m^D in J, so the cut staircase is J's own whatever nu is.
    Every other ideal or germ, and a cut that fails the check, gets the uncut
    ``standard_basis``. ``_newton_coordinates`` has already moved g off a
    single degenerate edge e0 (y + r x^p)^m; a degenerate germ left, such as
    one whose edge is a power of y^2 - x^3, is completed uncut.
    """
    if newton is not None and newton.non_degenerate:
        bound = newton.number + 1
        cut = _encode((bound, 0))
        pool = [entry for p in generators if (entry := _entry(p, cut))]
        _complete(pool, 1, cut)
        heights = _column_heights([(entry[2], entry[3]) for entry in pool])
        if heights is not None and _highest_corner(heights) < bound:
            return _minimal(pool), heights
    basis = standard_basis(generators)
    heights = _column_heights(basis.leading_exponents)
    if heights is None:
        raise NonIsolatedSingularityError("the critical locus is not isolated")
    return [_entry(p) for p in basis.generators], heights


def _newton_coordinates(f: Polynomial) -> tuple[Polynomial, Optional[Newton]]:
    """The aligned germ g of f after the shifts below, and its Newton data.

    While g is convenient, nu < (d - 1)^2 with d the degree of the aligned
    germ, and g's lower Newton boundary is the single edge from (0, m) to
    (pm, 0) with edge polynomial e0 (y + r x^p)^m, m >= 2, g(x, y - r x^p)
    replaces g. That is an automorphism of Q[[x, y]], so mu and tau stay,
    and no answer rests on nu: ``_colength`` checks every cut it takes.

    The loop ends. By Pick's theorem nu = 2I + B, with I the lattice points
    (i, j), i, j >= 1, strictly below the boundary and B those on it. The
    shift is homogeneous for the weights (1, p) of x and y: it turns the
    edge polynomial into e0 y^m and leaves every other term at weight above
    pm. So the new boundary lies on or above the edge, and the m - 1 points
    (pk, m - k), 0 < k < m, of the edge lie strictly below it: each shift
    raises nu by at least m - 1 >= 1, and the loop stops once nu reaches
    (d - 1)^2. A germ still on such an edge there has infinite mu: a further
    shift would put nu past (d - 1)^2, while mu >= nu (Kouchnirenko, applied
    after adding a high power of x, which keeps a finite mu) and mu <= (d - 1)^2
    (local Bezout for g_x and g_y of degree d - 1) if mu is finite.
    ``_colength`` then finds it so uncut.
    """
    g = f.aligned()[0]
    bound = (g.total_degree() - 1) ** 2
    polygon = newton_polygon(g)
    while polygon is not None and polygon[1] is not None and polygon[0].number < bound:
        r, p = polygon[1]
        g = g._shear(-r, p)
        polygon = newton_polygon(g)
    return g, None if polygon is None else polygon[0]


def milnor_number(f: Polynomial) -> int:
    """Colength of the ideal of both partial derivatives; requires it finite."""
    g, newton = _newton_coordinates(f)
    return sum(_colength(g.partials(), newton)[1])


def tjurina_number(f: Polynomial) -> int:
    """Colength of (f, f_x, f_y): ``milnor_tjurina``'s tau wherever ``_colength`` cuts mu.

    Elsewhere the Tjurina ideal is completed uncut; germ A's Jacobian one does not end.
    """
    g, newton = _newton_coordinates(f)
    if newton is not None and newton.non_degenerate:
        return _tjurina(g, *_colength(g.partials(), newton))
    return sum(_colength([g, *g.partials()], None)[1])


def milnor_tjurina(f: Polynomial) -> tuple[int, int]:
    """(milnor_number(f), tjurina_number(f)) from one completion, tau by ``_tjurina``."""
    g, newton = _newton_coordinates(f)
    jacobian, heights = _colength(g.partials(), newton)
    return sum(heights), _tjurina(g, jacobian, heights)


def _tjurina(g: Polynomial, jacobian: list[PoolEntry], heights: list[int]) -> int:
    """tau of g from the minimal standard basis and column heights of its Jacobian ideal J.

    The Tjurina ideal is J plus g, so tau extends J's basis by the Mora
    normal form of g and completes only the pairs with that new entry; g in
    J (the quasi-homogeneous germs) gives tau = mu at once. The highest
    corner D of J's basis gives m^D in J, so the extension works modulo
    m^D: it drops every term of degree D or more, and tau is the colength
    of its leading exponents together with the degree-D monomials. Each
    reduction step strictly lowers the leading monomial, and fewer than
    D(D+1)/2 monomials lie below degree D, so every normal form of the
    extension ends within that many steps.
    """
    corner = _highest_corner(heights)
    cut = _encode((corner, 0))
    pool = [entry for e in jacobian if (entry := _truncated(e, cut))]
    h = _entry(g, cut)
    # with no term below the cut, g lies in m^D and so in J
    remainder, lead = _mora_normal_form(h[0], h[1], pool, cut) if h else ({}, None)
    if not remainder:
        return sum(heights)
    pool.append(_pool_entry(remainder, lead))
    _complete(pool, len(pool) - 1, cut)
    leads = {(entry[2], entry[3]) for entry in pool}
    leads.update((i, corner - i) for i in range(corner + 1))
    return sum(_column_heights(leads))
