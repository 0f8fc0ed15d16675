"""Local standard bases and colengths of ideals in Q[[x, y]].

Monomials are compared in a local order: smaller total degree means a
*larger* monomial (so 1 is the largest of all), with ties broken by x-degree
(x above y). Leading terms are therefore the lowest-degree corners of a
series, which is what makes Mora's normal form terminate where ordinary
division would not.

Two independent colength computations live here on purpose:

* ``standard_basis`` + ``colength`` count the staircase of the leading ideal
  computed by Mora's tangent cone algorithm (exact, complete);
  ``milnor_tjurina`` gets tau by extending mu's standard basis with f
  instead of completing the Tjurina ideal from scratch;
* ``colength_oracle`` computes the codimension of a degree-truncated ideal by
  integer Gaussian elimination, certifying exactness via stability at two
  consecutive caps.

Beyond the Polynomial type they share only ``_to_int_terms``, the conversion
of a polynomial to an integer term dict with its content divided out. The
Mora kernel then works on integer-coded monomials of its own, so agreement
is meaningful.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    ComputationBudgetError,
    NonIsolatedSingularityError,
    NotAGermError,
    ZeroIdealError,
)
from .polynomials import Polynomial

Exponent = tuple[int, int]
IntTerms = dict[Exponent, int]

#: Sentinel returned by ``colength`` for ideals of infinite colength.
INFINITE = object()

#: Sentinel returned by ``colength_oracle`` when truncation did not stabilize.
UNSTABLE = object()

# Hard ceiling on reduction steps inside one normal form; hitting it means a
# diverging computation (non-reduced or otherwise degenerate input).
_REDUCTION_STEP_LIMIT = 10**6


def _order_key(mono: Exponent) -> tuple[int, int]:
    # smaller key = larger monomial in the local order
    i, j = mono
    return (i + j, -i)


# -- integer term-dict helpers ----------------------------------------------


def _to_int_terms(p: Polynomial) -> IntTerms:
    """Clear denominators and content; the result spans the same ideal."""
    terms = p.terms
    lcm_den = 1
    for c in terms.values():
        lcm_den = lcm_den * c.denominator // gcd(lcm_den, c.denominator)
    out = {k: int(c * lcm_den) for k, c in terms.items()}
    return _content_normalize(out)


def _content_normalize(terms: IntTerms) -> IntTerms:
    """Divide by the gcd of all coefficients and make the leading one positive."""
    if not terms:
        return terms
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        terms = {k: c // g for k, c in terms.items()}
    if terms[min(terms, key=_order_key)] < 0:
        terms = {k: -c for k, c in terms.items()}
    return terms


def _ord_of(terms: IntTerms) -> int:
    return min(i + j for i, j in terms)


def _divides(a: Exponent, b: Exponent) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def _cancel_leading(h: IntTerms, g: IntTerms) -> IntTerms:
    """One exact reduction step: kill the leading term of h with a multiple of g."""
    lmh = min(h, key=_order_key)
    lmg = min(g, key=_order_key)
    di, dj = lmh[0] - lmg[0], lmh[1] - lmg[1]
    a, b = g[lmg], h[lmh]
    out = {k: a * c for k, c in h.items()}
    for (i, j), c in g.items():
        k = (i + di, j + dj)
        v = out.get(k, 0) - b * c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return _content_normalize(out)


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
    polys = [p for p in generators if isinstance(p, Polynomial) and not p.is_zero()]
    low = _truncated_codimension(polys, degree_cap - 1)
    high = _truncated_codimension(polys, degree_cap)
    return high if low == high else UNSTABLE


def _truncated_codimension(polys: Sequence[Polynomial], cap: int) -> int:
    pivots: dict[Exponent, IntTerms] = {}
    for p in polys:
        base = _to_int_terms(p)
        shift_budget = cap - _ord_of(base)
        if shift_budget < 0:
            continue
        multipliers = [
            (i, j)
            for d in range(shift_budget + 1)
            for i in range(d, -1, -1)
            for j in (d - i,)
        ]
        for (mi, mj) in multipliers:
            row: IntTerms = {}
            for (i, j), c in base.items():
                if i + mi + j + mj <= cap:
                    row[(i + mi, j + mj)] = c
            row = _content_normalize(row)
            while row:
                lead = min(row, key=_order_key)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = row
                    break
                row = _cancel_leading(row, pivot)
    n_columns = (cap + 1) * (cap + 2) // 2
    return n_columns - len(pivots)


# -- Mora standard bases -----------------------------------------------------


@dataclass(frozen=True)
class StandardBasis:
    """A standard basis together with the minimal exponents of its leading ideal."""

    generators: tuple[Polynomial, ...]
    leading_exponents: frozenset[Exponent]
    #: every entry of the completed kernel pool, redundant ones included;
    #: milnor_tjurina extends it by one more generator
    pool: tuple[PoolEntry, ...] = field(default=(), repr=False, compare=False)


# The Mora kernel codes the monomial x^i y^j as the integer (i + j) * 2**32 - i.
# For every x-degree below 2**32 integer order is then exactly the local order
# (the smallest code is the leading monomial, the largest has the top degree),
# and multiplying two monomials adds their codes.
_SHIFT = 32
_BELOW = (1 << _SHIFT) - 1

CodeTerms = dict[int, int]
# a reducer with its cached leading data: terms, leading code, leading
# exponent (i, j) and its rank (ecart, i + j, i) in the reducer choice
PoolEntry = tuple[CodeTerms, int, int, int, tuple[int, int, int]]


def _encode(mono: Exponent) -> int:
    i, j = mono
    return ((i + j) << _SHIFT) - i


def _degree(code: int) -> int:
    return (code + _BELOW) >> _SHIFT


def _decode(code: int) -> Exponent:
    d = _degree(code)
    i = (d << _SHIFT) - code
    return (i, d - i)


def _ecart(terms: CodeTerms, lead: int) -> int:
    # gap between the highest and lowest total degree present
    return _degree(max(terms)) - _degree(lead)


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


def _pool_entry(terms: CodeTerms, lead: int) -> PoolEntry:
    i, j = _decode(lead)
    return (terms, lead, i, j, (_ecart(terms, lead), i + j, i))


def _reduce_leading(
    h: CodeTerms, lead_h: int, g: CodeTerms, lead_g: int
) -> tuple[CodeTerms, int | None]:
    """One exact reduction step: kill the leading term of h with a multiple of g."""
    shift = lead_h - lead_g
    a, b = g[lead_g], h[lead_h]
    # dividing both multipliers by their gcd changes only the content,
    # which _normalized divides out anyway
    d = gcd(a, b)
    a, b = a // d, b // d
    out = {k: a * c for k, c in h.items()}
    for k, c in g.items():
        k += shift
        v = out.get(k, 0) - b * c
        if v:
            out[k] = v
        else:
            del out[k]
    return _normalized(out)


def _mora_normal_form(
    h: CodeTerms, lead: int, reducers: list[PoolEntry]
) -> tuple[CodeTerms, int | None]:
    """Mora's weak normal form of h against the reducer list.

    Reducers whose ecart exceeds the current remainder's are avoided when a
    better one exists; when none exists the remainder itself joins the local
    reducer pool, which is what forces termination in the local order.
    """
    pool = list(reducers)
    steps = 0
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
        h, lead = _reduce_leading(h, lead, best[0], best[1])
        steps += 1
        if steps > _REDUCTION_STEP_LIMIT:
            raise ComputationBudgetError(
                f"normal form did not terminate within {_REDUCTION_STEP_LIMIT}"
                " reduction steps"
            )
    return h, lead


def _s_polynomial(f: PoolEntry, g: PoolEntry) -> tuple[CodeTerms, int | None]:
    # move f to the lcm of both leading monomials, then cancel g against it
    f_terms, f_lead, fi, fj, _ = f
    g_terms, g_lead, gi, gj, _ = g
    lcm = _encode((max(fi, gi), max(fj, gj)))
    shift = lcm - f_lead
    return _reduce_leading({k + shift: c for k, c in f_terms.items()}, lcm, g_terms, g_lead)


def _entry(p: Polynomial) -> PoolEntry:
    terms = {_encode(k): c for k, c in _to_int_terms(p).items()}
    return _pool_entry(terms, min(terms))


def _complete(pool: list[PoolEntry], first_new: int) -> None:
    """Complete the pool in place to a standard basis for the local order.

    ``pool[:first_new]`` must already be a standard basis, so only the pairs
    with an entry at ``first_new`` or later are queued. Pairs are processed
    in increasing order of the total degree of the lcm of leading monomials,
    which keeps the run deterministic.
    """

    def pair_key(i: int, j: int) -> tuple[int, int, int, int]:
        li, lj = max(pool[i][2], pool[j][2]), max(pool[i][3], pool[j][3])
        return (li + lj, li, i, j)

    queue: list[tuple[tuple[int, int, int, int], int, int]] = []
    for j in range(first_new, len(pool)):
        for i in range(j):
            heapq.heappush(queue, (pair_key(i, j), i, j))

    while queue:
        _, i, j = heapq.heappop(queue)
        s, lead = _s_polynomial(pool[i], pool[j])
        if not s:
            continue
        remainder, lead = _mora_normal_form(s, lead, pool)
        if not remainder:
            continue
        pool.append(_pool_entry(remainder, lead))
        new = len(pool) - 1
        for k in range(new):
            heapq.heappush(queue, (pair_key(k, new), k, new))


def _minimal_basis(pool: list[PoolEntry]) -> StandardBasis:
    """One generator per minimal leading exponent of a completed pool."""
    lead = [(entry[2], entry[3]) for entry in pool]
    keep: list[int] = []
    for idx, lm in enumerate(lead):
        redundant = False
        for kdx, other in enumerate(lead):
            if kdx == idx:
                continue
            if _divides(other, lm) and (other != lm or kdx < idx):
                redundant = True
                break
        if not redundant:
            keep.append(idx)
    return StandardBasis(
        generators=tuple(
            Polynomial({_decode(k): Fraction(c) for k, c in pool[idx][0].items()})
            for idx in keep
        ),
        leading_exponents=frozenset(lead[idx] for idx in keep),
        pool=tuple(pool),
    )


def standard_basis(generators: Iterable[Polynomial]) -> StandardBasis:
    """Complete the generators to a standard basis for the local order.

    Buchberger-style completion using Mora normal forms over every pair of
    generators.
    """
    pool = [_entry(p) for p in generators if not p.is_zero()]
    if not pool:
        raise ZeroIdealError("all generators are zero")
    # a unit generator spans the whole local ring; Mora reduction by a unit
    # never halts early, so short-circuit instead of completing
    if any(entry[1] == 0 for entry in pool):
        return StandardBasis(
            generators=(Polynomial({(0, 0): 1}),),
            leading_exponents=frozenset([(0, 0)]),
        )
    _complete(pool, 1)
    return _minimal_basis(pool)


def colength(basis: StandardBasis):
    """Number of monomials outside the leading ideal; INFINITE if unbounded.

    Finite exactly when the leading ideal contains a pure power of x and a
    pure power of y.
    """
    exponents = basis.leading_exponents
    x_powers = [i for (i, j) in exponents if j == 0]
    y_powers = [j for (i, j) in exponents if i == 0]
    if not x_powers or not y_powers:
        return INFINITE
    count = 0
    for column in range(min(x_powers)):
        count += min(j for (i, j) in exponents if i <= column)
    return count


def _require_germ(f: Polynomial) -> None:
    if f.is_zero():
        raise NotAGermError("the zero polynomial defines no germ")
    if f(0, 0) != 0:
        raise NotAGermError("the polynomial does not vanish at the origin")


def _align_tangent_cone(f: Polynomial) -> Polynomial:
    """Move a single-direction tangent cone onto the line y = 0.

    Both colengths below are invariant under invertible linear substitutions,
    and Mora reduction behaves far better (no coefficient blow-up through
    long cancellation chains) when the initial form is a pure power of y.
    Germs whose tangent cone already spreads over several directions are
    returned unchanged.
    """
    if f.order() < 2:
        return f
    direction = f.tangent_direction()
    return f if direction is None else f.align_tangent(direction)


def milnor_number(f: Polynomial) -> int:
    """Colength of the ideal of both partial derivatives; requires it finite."""
    _require_germ(f)
    fx, fy = _align_tangent_cone(f).partials()
    value = colength(standard_basis([fx, fy]))
    if value is INFINITE:
        raise NonIsolatedSingularityError("the critical locus is not isolated")
    return value


def tjurina_number(f: Polynomial) -> int:
    """Colength of the ideal of f and both partial derivatives."""
    _require_germ(f)
    g = _align_tangent_cone(f)
    gx, gy = g.partials()
    value = colength(standard_basis([g, gx, gy]))
    if value is INFINITE:
        raise NonIsolatedSingularityError("the singular locus is not isolated")
    return value


def milnor_tjurina(f: Polynomial) -> tuple[int, int]:
    """(milnor_number(f), tjurina_number(f)) from one completion.

    The Tjurina ideal is the Jacobian ideal plus f, so tau extends the
    Jacobian standard basis by the Mora normal form of f and completes only
    the pairs with that new entry; f in the Jacobian ideal (the
    quasi-homogeneous germs) gives tau = mu at once. The extension reduces
    against the whole Jacobian pool: against its minimal generators alone it
    diverges on x^3 + y^7 + 3x^3y^2 - xy^5 - 3x^3y^3 - 2xy^6, which both
    single-number routes answer in milliseconds.
    """
    _require_germ(f)
    g = _align_tangent_cone(f)
    jacobian = standard_basis(g.partials())
    mu = colength(jacobian)
    if mu is INFINITE:
        raise NonIsolatedSingularityError("the critical locus is not isolated")
    if mu == 0:
        return 0, 0
    pool = list(jacobian.pool)
    h = _entry(g)
    remainder, lead = _mora_normal_form(h[0], h[1], pool)
    if not remainder:
        return mu, mu
    pool.append(_pool_entry(remainder, lead))
    _complete(pool, len(pool) - 1)
    return mu, colength(_minimal_basis(pool))
