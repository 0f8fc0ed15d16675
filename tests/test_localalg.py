"""Tests for local standard bases, colengths, and the truncation oracle."""

import json
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from germlab import localalg
from germlab.errors import (
    NonIsolatedSingularityError,
    NotAGermError,
    ZeroIdealError,
)
from germlab.cli import _parse_corpus, _read_corpus_text, main
from germlab.invariants import germ_report
from germlab.newton import newton_number, newton_polygon
from germlab.localalg import (
    INFINITE,
    UNSTABLE,
    _column_heights,
    _decode,
    _degree,
    _divides,
    _encode,
    _entry,
    _highest_corner,
    _mora_normal_form,
    _order_key,
    _pool_entry,
    _s_polynomial,
    colength,
    colength_oracle,
    milnor_number,
    milnor_tjurina,
    standard_basis,
    tjurina_number,
)
from germlab.polynomials import ONE, ZERO, Polynomial, X, Y, parse_polynomial
from germlab.resolution import mu_topological, resolve_branch


# -- the local order ----------------------------------------------------


def test_one_is_largest_monomial():
    assert _order_key((0, 0)) < _order_key((1, 0))
    assert _order_key((0, 0)) < _order_key((0, 1))
    assert _order_key((0, 0)) < _order_key((3, 4))


def test_smaller_degree_is_larger():
    assert _order_key((1, 0)) < _order_key((1, 1))
    assert _order_key((0, 2)) < _order_key((3, 0))


def test_tie_break_x_beats_y():
    # among equal total degrees, the power of x decides
    assert _order_key((2, 0)) < _order_key((1, 1))
    assert _order_key((1, 1)) < _order_key((0, 2))


def test_order_is_multiplicative():
    rng = random.Random(31)
    for _ in range(200):
        m1 = (rng.randint(0, 5), rng.randint(0, 5))
        m2 = (rng.randint(0, 5), rng.randint(0, 5))
        if m1 == m2:
            continue
        s = (rng.randint(0, 4), rng.randint(0, 4))
        shifted1 = (m1[0] + s[0], m1[1] + s[1])
        shifted2 = (m2[0] + s[0], m2[1] + s[1])
        assert (_order_key(m1) < _order_key(m2)) == (_order_key(shifted1) < _order_key(shifted2))


def test_leading_monomial():
    p = parse_polynomial("y^2 - x^3")
    assert min(p.terms, key=_order_key) == (0, 2)
    assert min(parse_polynomial("x^2 + x*y + y^3").terms, key=_order_key) == (2, 0)


def test_monomial_codes_follow_the_local_order():
    # past the 512 degree cap, because Mora tails grow upward
    monomials = [(i, d - i) for d in range(601) for i in range(d + 1)]
    codes = [_encode(m) for m in sorted(monomials, key=_order_key)]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    x, y = _encode((1, 0)), _encode((0, 1))
    for i, j in monomials:
        code = _encode((i, j))
        assert _decode(code) == (i, j)
        # additivity for unit steps gives it for every sum, by induction
        if i + j < 600:
            assert code + x == _encode((i + 1, j))
            assert code + y == _encode((i, j + 1))


# -- standard bases -----------------------------------------------------


def test_maximal_ideal():
    basis = standard_basis([parse_polynomial("x"), parse_polynomial("y")])
    assert {(1, 0), (0, 1)} <= basis.leading_exponents
    assert colength(basis) == 1


def test_monomial_ideal():
    basis = standard_basis([parse_polynomial("2*y"), parse_polynomial("-3*x^2")])
    # staircase {1, x}
    assert colength(basis) == 2


def test_zero_ideal_rejected():
    with pytest.raises(ZeroIdealError):
        standard_basis([])
    with pytest.raises(ZeroIdealError):
        standard_basis([Polynomial()])


def test_zero_generators_are_dropped():
    basis = standard_basis([Polynomial(), parse_polynomial("x"), parse_polynomial("y")])
    assert colength(basis) == 1


def test_unit_ideal():
    basis = standard_basis([parse_polynomial("1 + x")])
    assert colength(basis) == 0
    assert basis.generators == (ONE,)


def test_principal_ideal_is_infinite():
    basis = standard_basis([parse_polynomial("x")])
    assert colength(basis) is INFINITE


def test_colength_needs_both_pure_powers():
    assert colength(standard_basis([parse_polynomial("x^2"), parse_polynomial("x*y")])) is INFINITE
    assert colength(standard_basis([parse_polynomial("y^3")])) is INFINITE


def _rescaled(gens):
    """gens, copies scaled by 2 and by -3/7, and one with a denominator per generator."""
    return [
        gens,
        [2 * g for g in gens],
        [Fraction(-3, 7) * g for g in gens],
        [Fraction(1, k + 2) * g for k, g in enumerate(gens)],
    ]


def test_completion_finds_hidden_generators():
    # (y^2 - x^3, x*y): s-pairs produce a pure power of x; each kernel
    # normalises its input, so rescaled copies give the same colengths
    for gens in _rescaled([parse_polynomial("y^2 - x^3"), parse_polynomial("x*y")]):
        value = colength(standard_basis(gens))
        assert value is not INFINITE
        assert value == colength_oracle(gens, degree_cap=10) == 5


def _pool_entry_of(text):
    terms = {_encode(k): a for k, a in parse_polynomial(text)._integer_form()[1]}
    return _pool_entry(terms, min(terms))


def test_mora_reducer_ties_go_to_the_first_inserted():
    g1, g2 = _pool_entry_of("y^2 + x^3"), _pool_entry_of("y^2 + x^2*y")
    # same rank (ecart, degree, x-degree) of the leading monomial y^2
    assert g1[4] == g2[4] == (1, 2, 0)
    lead = _encode((0, 2))
    for pool, expected in (([g1, g2], (3, 0)), ([g2, g1], (2, 1))):
        remainder, _ = _mora_normal_form({lead: 1}, lead, pool)
        assert {_decode(k): c for k, c in remainder.items()} == {expected: 1}


# -- the truncation oracle ----------------------------------------------


def test_oracle_maximal_ideal():
    assert colength_oracle([parse_polynomial("x"), parse_polynomial("y")], degree_cap=4) == 1


def test_oracle_cusp_jacobian():
    for gens in _rescaled(list(parse_polynomial("y^2 - x^3").partials())):
        assert colength_oracle(gens, degree_cap=8) == 2 == colength(standard_basis(gens))


def test_oracle_reports_unstable():
    # the cap is far too small for the staircase of (x^9, y^9)-like ideals
    gens = list(parse_polynomial("x^9 + y^9 + x^6*y^6").partials())
    assert colength_oracle(gens, degree_cap=3) is UNSTABLE


@pytest.mark.parametrize(
    "colength_of",
    [lambda gens: colength(standard_basis(gens)), lambda gens: colength_oracle(gens, 8)],
    ids=["standard_basis", "colength_oracle"],
)
def test_generators_must_be_polynomials(colength_of):
    x, y = parse_polynomial("x"), parse_polynomial("y")
    assert colength_of([Polynomial(), x**2, y**2]) == 4
    # a generator left as text is an error, not silently left out of the ideal
    with pytest.raises(AttributeError):
        colength_of([x**2, y**2, "x"])


def test_oracle_rejects_tiny_cap():
    with pytest.raises(ValueError):
        colength_oracle([parse_polynomial("x")], degree_cap=1)


def test_oracle_large_reference_value():
    gens = list(parse_polynomial("x^9 + y^9 + x^6*y^6").partials())
    assert colength_oracle(gens, degree_cap=40) == 64


# -- milnor and tjurina numbers -----------------------------------------


def test_milnor_reference_values():
    assert milnor_number(parse_polynomial("y^2 - x^3")) == 2
    assert milnor_number(parse_polynomial("x^11 + y^11 + x^6*y^6")) == 100
    assert milnor_number(parse_polynomial("x^13 + y^12 + x^6*y^7")) == 132


def test_tjurina_reference_values():
    assert tjurina_number(parse_polynomial("x^11 + y^11 + x^6*y^6")) == 84
    assert tjurina_number(parse_polynomial("x^11 + y^10 + x^6*y^6")) == 78
    assert tjurina_number(parse_polynomial("x^3 + y^7 + x*y^5")) == 11


def test_smooth_germ_has_zero_milnor():
    assert milnor_number(parse_polynomial("x + y^5")) == 0
    assert tjurina_number(parse_polynomial("x + y^5")) == 0


def test_not_a_germ():
    with pytest.raises(NotAGermError):
        milnor_number(parse_polynomial("1 + x"))
    with pytest.raises(NotAGermError):
        milnor_number(Polynomial())


def test_non_isolated_singularity():
    # (y^2 - x^3)^2 is not reduced: no isolated critical point
    f = parse_polynomial("y^2 - x^3") ** 2
    with pytest.raises(NonIsolatedSingularityError):
        milnor_number(f)
    with pytest.raises(NonIsolatedSingularityError):
        tjurina_number(parse_polynomial("x^2"))


def test_quasihomogeneous_closed_form():
    for a, b in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6)]:
        f = parse_polynomial(f"x^{a} + y^{b}")
        assert milnor_number(f) == (a - 1) * (b - 1)
        assert tjurina_number(f) == (a - 1) * (b - 1)


def test_tjurina_never_exceeds_milnor():
    for src in ["y^2 - x^3", "x^3 + y^7 + x*y^5", "x^9 + y^9 + x^6*y^6",
                "y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"]:
        f = parse_polynomial(src)
        assert tjurina_number(f) <= milnor_number(f)


def test_invariance_under_linear_substitution():
    rng = random.Random(20260814)
    bases = ["y^2 - x^3", "x^3 + y^7 + x*y^5", "x^4 + y^7",
             "y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"]
    for src in bases:
        f = parse_polynomial(src)
        mu0, tau0 = milnor_number(f), tjurina_number(f)
        for _ in range(3):
            while True:
                a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
                if a * d - b * c in (1, -1):
                    break
            g = f.substitute_linear(((a, b), (c, d)))
            assert milnor_number(g) == mu0
            assert tjurina_number(g) == tau0


def test_two_pipelines_agree_on_random_jacobian_ideals():
    rng = random.Random(4242)
    pool = ["y^2 - x^3", "x^3 + y^4", "x^3 + y^5", "x^2 + y^7", "x^4 + y^5"]
    for _ in range(10):
        f = parse_polynomial(rng.choice(pool))
        while True:
            a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
            if a * d - b * c != 0:
                break
        g = f.substitute_linear(((a, b), (c, d)))
        gens = list(g.partials())
        fast = colength(standard_basis(gens))
        slow = colength_oracle(gens, degree_cap=14)
        assert slow is not UNSTABLE
        assert fast == slow


# -- pinned standard bases of the sheared reducible family ---------------

# Standard bases of the mu ideal (f_x, f_y) and the tau ideal (f, f_x, f_y)
# of x^a + y^a + x^k y^k (k = a // 2 + 1) after (x, y) -> (x + u*y, v*x + y),
# keyed by (a, u, v, ideal). A change to the Mora kernel's reducer choice or
# pair order that alters any of these bases shows here.
PINNED_BASES = {
    (4, 2, 2, "mu"): (
        (
            "40 y^3 + 96 x*y^2 + 120 x^2*y + 68 x^3 + 60 y^5 + 348 x*y^4 + 735 x^2*y^3"
            " + 696 x^3*y^2 + 300 x^4*y + 48 x^5",
            "28 y^3 + 40 x*y^2 + 16 x^2*y + 8 y^5 + 60 x*y^4 + 166 x^2*y^3 + 205 x^3*y^2"
            " + 108 x^4*y + 20 x^5",
            "60 y^4 + 48 x*y^3 + 40 y^6 + 236 x*y^5 + 470 x^2*y^4 + 297 x^3*y^3 - 110 x^4*y^2"
            " - 164 x^5*y - 40 x^6",
            "36 y^5 - 104 y^7 - 620 x*y^6 - 1302 x^2*y^5 - 905 x^3*y^4 + 658 x^4*y^3"
            " + 1500 x^5*y^2 + 856 x^6*y + 160 x^7",
        ),
        {(0, 5), (1, 3), (2, 1), (3, 0)},
    ),
    (4, 2, 2, "tau"): (
        (
            "40 y^3 + 96 x*y^2 + 120 x^2*y + 68 x^3 + 60 y^5 + 348 x*y^4 + 735 x^2*y^3"
            " + 696 x^3*y^2 + 300 x^4*y + 48 x^5",
            "28 y^3 + 40 x*y^2 + 16 x^2*y + 8 y^5 + 60 x*y^4 + 166 x^2*y^3 + 205 x^3*y^2"
            " + 108 x^4*y + 20 x^5",
            "60 y^4 + 48 x*y^3 + 40 y^6 + 236 x*y^5 + 470 x^2*y^4 + 297 x^3*y^3 - 110 x^4*y^2"
            " - 164 x^5*y - 40 x^6",
            "36 y^5 - 104 y^7 - 620 x*y^6 - 1302 x^2*y^5 - 905 x^3*y^4 + 658 x^4*y^3"
            " + 1500 x^5*y^2 + 856 x^6*y + 160 x^7",
        ),
        {(0, 5), (1, 3), (2, 1), (3, 0)},
    ),
    (4, 2, -2, "mu"): (
        (
            "24 y^3 + 96 x*y^2 - 72 x^2*y + 68 x^3 - 36 y^5 + 60 x*y^4 + 135 x^2*y^3"
            " - 120 x^3*y^2 - 180 x^4*y - 48 x^5",
            "52 y^3 + 72 x*y^2 + 48 x^2*y + 24 y^5 - 108 x*y^4 + 114 x^2*y^3 + 63 x^3*y^2"
            " - 84 x^4*y - 36 x^5",
            "300 y^4 + 400 x*y^3 + 72 y^6 - 516 x*y^5 + 990 x^2*y^4 - 75 x^3*y^3 - 810 x^4*y^2"
            " - 84 x^5*y + 72 x^6",
            "2500 y^5 + 1752 y^7 - 7020 x*y^6 + 8682 x^2*y^5 - 4905 x^3*y^4 - 210 x^4*y^3"
            " + 6876 x^5*y^2 + 360 x^6*y - 864 x^7",
        ),
        {(0, 5), (1, 3), (2, 1), (3, 0)},
    ),
    (4, 2, -2, "tau"): (
        (
            "24 y^3 + 96 x*y^2 - 72 x^2*y + 68 x^3 - 36 y^5 + 60 x*y^4 + 135 x^2*y^3"
            " - 120 x^3*y^2 - 180 x^4*y - 48 x^5",
            "52 y^3 + 72 x*y^2 + 48 x^2*y + 24 y^5 - 108 x*y^4 + 114 x^2*y^3 + 63 x^3*y^2"
            " - 84 x^4*y - 36 x^5",
            "300 y^4 + 400 x*y^3 + 72 y^6 - 516 x*y^5 + 990 x^2*y^4 - 75 x^3*y^3 - 810 x^4*y^2"
            " - 84 x^5*y + 72 x^6",
            "2500 y^5 + 1752 y^7 - 7020 x*y^6 + 8682 x^2*y^5 - 4905 x^3*y^4 - 210 x^4*y^3"
            " + 6876 x^5*y^2 + 360 x^6*y - 864 x^7",
        ),
        {(0, 5), (1, 3), (2, 1), (3, 0)},
    ),
    (4, -2, 2, "mu"): (
        (
            "-24 y^3 + 96 x*y^2 + 72 x^2*y + 68 x^3 - 36 y^5 - 60 x*y^4 + 135 x^2*y^3"
            " + 120 x^3*y^2 - 180 x^4*y + 48 x^5",
            "52 y^3 - 72 x*y^2 + 48 x^2*y - 24 y^5 - 108 x*y^4 - 114 x^2*y^3 + 63 x^3*y^2"
            " + 84 x^4*y - 36 x^5",
            "-300 y^4 + 400 x*y^3 + 72 y^6 + 516 x*y^5 + 990 x^2*y^4 + 75 x^3*y^3 - 810 x^4*y^2"
            " + 84 x^5*y + 72 x^6",
            "2500 y^5 - 1752 y^7 - 7020 x*y^6 - 8682 x^2*y^5 - 4905 x^3*y^4 + 210 x^4*y^3"
            " + 6876 x^5*y^2 - 360 x^6*y - 864 x^7",
        ),
        {(0, 5), (1, 3), (2, 1), (3, 0)},
    ),
    (4, -2, 2, "tau"): (
        (
            "-24 y^3 + 96 x*y^2 + 72 x^2*y + 68 x^3 - 36 y^5 - 60 x*y^4 + 135 x^2*y^3"
            " + 120 x^3*y^2 - 180 x^4*y + 48 x^5",
            "52 y^3 - 72 x*y^2 + 48 x^2*y - 24 y^5 - 108 x*y^4 - 114 x^2*y^3 + 63 x^3*y^2"
            " + 84 x^4*y - 36 x^5",
            "-300 y^4 + 400 x*y^3 + 72 y^6 + 516 x*y^5 + 990 x^2*y^4 + 75 x^3*y^3 - 810 x^4*y^2"
            " + 84 x^5*y + 72 x^6",
            "2500 y^5 - 1752 y^7 - 7020 x*y^6 - 8682 x^2*y^5 - 4905 x^3*y^4 + 210 x^4*y^3"
            " + 6876 x^5*y^2 - 360 x^6*y - 864 x^7",
        ),
        {(0, 5), (1, 3), (2, 1), (3, 0)},
    ),
    (4, -2, -2, "mu"): (
        (
            "-40 y^3 + 96 x*y^2 - 120 x^2*y + 68 x^3 + 60 y^5 - 348 x*y^4 + 735 x^2*y^3"
            " - 696 x^3*y^2 + 300 x^4*y - 48 x^5",
            "28 y^3 - 40 x*y^2 + 16 x^2*y - 8 y^5 + 60 x*y^4 - 166 x^2*y^3 + 205 x^3*y^2"
            " - 108 x^4*y + 20 x^5",
            "-60 y^4 + 48 x*y^3 + 40 y^6 - 236 x*y^5 + 470 x^2*y^4 - 297 x^3*y^3 - 110 x^4*y^2"
            " + 164 x^5*y - 40 x^6",
            "36 y^5 + 104 y^7 - 620 x*y^6 + 1302 x^2*y^5 - 905 x^3*y^4 - 658 x^4*y^3"
            " + 1500 x^5*y^2 - 856 x^6*y + 160 x^7",
        ),
        {(0, 5), (1, 3), (2, 1), (3, 0)},
    ),
    (4, -2, -2, "tau"): (
        (
            "-40 y^3 + 96 x*y^2 - 120 x^2*y + 68 x^3 + 60 y^5 - 348 x*y^4 + 735 x^2*y^3"
            " - 696 x^3*y^2 + 300 x^4*y - 48 x^5",
            "28 y^3 - 40 x*y^2 + 16 x^2*y - 8 y^5 + 60 x*y^4 - 166 x^2*y^3 + 205 x^3*y^2"
            " - 108 x^4*y + 20 x^5",
            "-60 y^4 + 48 x*y^3 + 40 y^6 - 236 x*y^5 + 470 x^2*y^4 - 297 x^3*y^3 - 110 x^4*y^2"
            " + 164 x^5*y - 40 x^6",
            "36 y^5 + 104 y^7 - 620 x*y^6 + 1302 x^2*y^5 - 905 x^3*y^4 - 658 x^4*y^3"
            " + 1500 x^5*y^2 - 856 x^6*y + 160 x^7",
        ),
        {(0, 5), (1, 3), (2, 1), (3, 0)},
    ),
    (5, 2, 2, "mu"): (
        (
            "30 y^4 + 80 x*y^3 + 120 x^2*y^2 + 120 x^3*y + 55 x^4 + 20 y^5 + 116 x*y^4"
            " + 245 x^2*y^3 + 232 x^3*y^2 + 100 x^4*y + 16 x^5",
            "425 y^4 + 840 x*y^3 + 600 x^2*y^2 + 160 x^3*y + 56 y^5 + 404 x*y^4 + 1082 x^2*y^3"
            " + 1303 x^3*y^2 + 676 x^4*y + 124 x^5",
            "3015 y^5 + 4500 x*y^4 + 1800 x^2*y^3 + 584 y^6 + 3660 x*y^5 + 8022 x^2*y^4"
            " + 6545 x^3*y^3 + 192 x^4*y^2 - 1740 x^5*y - 496 x^6",
            "2025 y^6 + 1620 x*y^5 - 200 y^7 - 1228 x*y^6 - 3030 x^2*y^5 - 3089 x^3*y^4"
            " + 1640 x^4*y^3 + 6756 x^5*y^2 + 4720 x^6*y + 992 x^7",
            "3645 y^7 + 15512 y^8 + 100580 x*y^7 + 244706 x^2*y^6 + 255635 x^3*y^5"
            " + 24236 x^4*y^4 - 233020 x^5*y^3 - 262048 x^6*y^2 - 119200 x^7*y - 19840 x^8",
        ),
        {(0, 7), (1, 5), (2, 3), (3, 1), (4, 0)},
    ),
    (5, 2, 2, "tau"): (
        (
            "30 y^4 + 80 x*y^3 + 120 x^2*y^2 + 120 x^3*y + 55 x^4 + 20 y^5 + 116 x*y^4"
            " + 245 x^2*y^3 + 232 x^3*y^2 + 100 x^4*y + 16 x^5",
            "425 y^4 + 840 x*y^3 + 600 x^2*y^2 + 160 x^3*y + 56 y^5 + 404 x*y^4 + 1082 x^2*y^3"
            " + 1303 x^3*y^2 + 676 x^4*y + 124 x^5",
            "3015 y^5 + 4500 x*y^4 + 1800 x^2*y^3 + 584 y^6 + 3660 x*y^5 + 8022 x^2*y^4"
            " + 6545 x^3*y^3 + 192 x^4*y^2 - 1740 x^5*y - 496 x^6",
            "57915 y^6 + 40500 x*y^5 + 8104 y^7 + 60380 x*y^6 + 194142 x^2*y^5 + 400765 x^3*y^4"
            " + 620672 x^4*y^3 + 625740 x^5*y^2 + 310384 x^6*y + 56480 x^7",
            "405 y^6 + 728 y^7 + 5060 x*y^6 + 14994 x^2*y^5 + 26555 x^3*y^4 + 32204 x^4*y^3"
            " + 25380 x^5*y^2 + 10688 x^6*y + 1760 x^7",
        ),
        {(0, 6), (1, 5), (2, 3), (3, 1), (4, 0)},
    ),
    (5, 2, -2, "mu"): (
        (
            "-70 y^4 - 240 x*y^3 + 120 x^2*y^2 - 360 x^3*y + 155 x^4 + 36 y^5 - 60 x*y^4"
            " - 135 x^2*y^3 + 120 x^3*y^2 + 180 x^4*y + 48 x^5",
            "1275 y^4 + 2600 x*y^3 + 1800 x^2*y^2 + 800 x^3*y + 168 y^5 - 900 x*y^4"
            " + 1230 x^2*y^3 + 405 x^3*y^2 - 1020 x^4*y - 396 x^5",
            "21875 y^5 + 37500 x*y^4 + 25000 x^2*y^3 + 3816 y^6 - 18372 x*y^5 + 23310 x^2*y^4"
            " + 4965 x^3*y^3 - 16560 x^4*y^2 - 2172 x^5*y + 1584 x^6",
            "46875 y^6 + 62500 x*y^5 + 4776 y^7 - 36324 x*y^6 + 78654 x^2*y^5 - 28755 x^3*y^4"
            " - 48840 x^4*y^3 + 11628 x^5*y^2 + 1968 x^6*y - 3168 x^7",
            "78125 y^7 + 23832 y^8 - 93852 x*y^7 + 142434 x^2*y^6 - 178701 x^3*y^5"
            " + 95940 x^4*y^4 + 138756 x^5*y^3 - 36576 x^6*y^2 + 1632 x^7*y + 12672 x^8",
        ),
        {(0, 7), (1, 5), (2, 3), (3, 1), (4, 0)},
    ),
    (5, 2, -2, "tau"): (
        (
            "-70 y^4 - 240 x*y^3 + 120 x^2*y^2 - 360 x^3*y + 155 x^4 + 36 y^5 - 60 x*y^4"
            " - 135 x^2*y^3 + 120 x^3*y^2 + 180 x^4*y + 48 x^5",
            "1275 y^4 + 2600 x*y^3 + 1800 x^2*y^2 + 800 x^3*y + 168 y^5 - 900 x*y^4"
            " + 1230 x^2*y^3 + 405 x^3*y^2 - 1020 x^4*y - 396 x^5",
            "21875 y^5 + 37500 x*y^4 + 25000 x^2*y^3 + 3816 y^6 - 18372 x*y^5 + 23310 x^2*y^4"
            " + 4965 x^3*y^3 - 16560 x^4*y^2 - 2172 x^5*y + 1584 x^6",
            "296875 y^6 + 187500 x*y^5 + 48168 y^7 - 267492 x*y^6 + 498942 x^2*y^5"
            " - 279315 x^3*y^4 - 173520 x^4*y^3 + 221004 x^5*y^2 + 144 x^6*y - 39264 x^7",
            "15625 y^6 + 3384 y^7 - 15852 x*y^6 + 26298 x^2*y^5 - 19305 x^3*y^4 - 2700 x^4*y^3"
            " + 18612 x^5*y^2 - 576 x^6*y - 2976 x^7",
        ),
        {(0, 6), (1, 5), (2, 3), (3, 1), (4, 0)},
    ),
    (5, -2, 2, "mu"): (
        (
            "90 y^4 - 80 x*y^3 + 360 x^2*y^2 + 280 x^3*y + 165 x^4 - 36 y^5 - 60 x*y^4"
            " + 135 x^2*y^3 + 120 x^3*y^2 - 180 x^4*y + 48 x^5",
            "-1275 y^4 + 2600 x*y^3 - 1800 x^2*y^2 + 800 x^3*y - 216 y^5 - 1020 x*y^4"
            " - 1170 x^2*y^3 + 555 x^3*y^2 + 900 x^4*y - 372 x^5",
            "21875 y^5 - 37500 x*y^4 + 25000 x^2*y^3 + 2712 y^6 + 15804 x*y^5 + 25170 x^2*y^4"
            " - 1755 x^3*y^3 - 19920 x^4*y^2 + 3204 x^5*y + 1488 x^6",
            "-46875 y^6 + 62500 x*y^5 - 9432 y^7 - 45468 x*y^6 - 66978 x^2*y^5 - 18285 x^3*y^4"
            " + 29880 x^4*y^3 + 21396 x^5*y^2 - 4176 x^6*y - 2976 x^7",
            "78125 y^7 - 1176 y^8 + 59364 x*y^7 + 232638 x^2*y^6 + 195507 x^3*y^5 - 36420 x^4*y^4"
            " - 23292 x^5*y^3 - 83232 x^6*y^2 + 7776 x^7*y + 11904 x^8",
        ),
        {(0, 7), (1, 5), (2, 3), (3, 1), (4, 0)},
    ),
    (5, -2, 2, "tau"): (
        (
            "90 y^4 - 80 x*y^3 + 360 x^2*y^2 + 280 x^3*y + 165 x^4 - 36 y^5 - 60 x*y^4"
            " + 135 x^2*y^3 + 120 x^3*y^2 - 180 x^4*y + 48 x^5",
            "-1275 y^4 + 2600 x*y^3 - 1800 x^2*y^2 + 800 x^3*y - 216 y^5 - 1020 x*y^4"
            " - 1170 x^2*y^3 + 555 x^3*y^2 + 900 x^4*y - 372 x^5",
            "21875 y^5 - 37500 x*y^4 + 25000 x^2*y^3 + 2712 y^6 + 15804 x*y^5 + 25170 x^2*y^4"
            " - 1755 x^3*y^3 - 19920 x^4*y^2 + 3204 x^5*y + 1488 x^6",
            "-296875 y^6 + 187500 x*y^5 - 36696 y^7 - 250524 x*y^6 - 539874 x^2*y^5"
            " - 293805 x^3*y^4 + 235440 x^4*y^3 + 177588 x^5*y^2 + 12432 x^6*y - 40608 x^7",
            "15625 y^6 + 840 y^7 + 11412 x*y^6 + 33894 x^2*y^5 + 23895 x^3*y^4 - 14580 x^4*y^3"
            " - 11340 x^5*y^2 - 2496 x^6*y + 3168 x^7",
        ),
        {(0, 6), (1, 5), (2, 3), (3, 1), (4, 0)},
    ),
    (5, -2, -2, "mu"): (
        (
            "-70 y^4 + 80 x*y^3 + 120 x^2*y^2 - 280 x^3*y + 155 x^4 - 60 y^5 + 348 x*y^4"
            " - 735 x^2*y^3 + 696 x^3*y^2 - 300 x^4*y + 48 x^5",
            "-425 y^4 + 840 x*y^3 - 600 x^2*y^2 + 160 x^3*y - 72 y^5 + 492 x*y^4 - 1254 x^2*y^3"
            " + 1449 x^3*y^2 - 732 x^4*y + 132 x^5",
            "1005 y^5 - 1500 x*y^4 + 600 x^2*y^3 + 104 y^6 - 700 x*y^5 + 1582 x^2*y^4"
            " - 1125 x^3*y^3 - 448 x^4*y^2 + 700 x^5*y - 176 x^6",
            "-675 y^6 + 540 x*y^5 - 280 y^7 + 1732 x*y^6 - 4050 x^2*y^5 + 4891 x^3*y^4"
            " - 4360 x^4*y^3 + 3636 x^5*y^2 - 1840 x^6*y + 352 x^7",
            "1215 y^7 - 5128 y^8 + 36300 x*y^7 - 107414 x^2*y^6 + 183025 x^3*y^5 - 214884 x^4*y^4"
            " + 190700 x^5*y^3 - 121888 x^6*y^2 + 45600 x^7*y - 7040 x^8",
        ),
        {(0, 7), (1, 5), (2, 3), (3, 1), (4, 0)},
    ),
    (5, -2, -2, "tau"): (
        (
            "-70 y^4 + 80 x*y^3 + 120 x^2*y^2 - 280 x^3*y + 155 x^4 - 60 y^5 + 348 x*y^4"
            " - 735 x^2*y^3 + 696 x^3*y^2 - 300 x^4*y + 48 x^5",
            "-425 y^4 + 840 x*y^3 - 600 x^2*y^2 + 160 x^3*y - 72 y^5 + 492 x*y^4 - 1254 x^2*y^3"
            " + 1449 x^3*y^2 - 732 x^4*y + 132 x^5",
            "1005 y^5 - 1500 x*y^4 + 600 x^2*y^3 + 104 y^6 - 700 x*y^5 + 1582 x^2*y^4"
            " - 1125 x^3*y^3 - 448 x^4*y^2 + 700 x^5*y - 176 x^6",
            "-19305 y^6 + 13500 x*y^5 - 4424 y^7 + 29580 x*y^6 - 82902 x^2*y^5 + 147905 x^3*y^4"
            " - 210432 x^4*y^3 + 207420 x^5*y^2 - 102704 x^6*y + 18720 x^7",
            "1215 y^6 - 1288 y^7 + 6860 x*y^6 - 9174 x^2*y^5 - 12815 x^3*y^4 + 50716 x^4*y^3"
            " - 58260 x^5*y^2 + 28352 x^6*y - 4960 x^7",
        ),
        {(0, 6), (1, 5), (2, 3), (3, 1), (4, 0)},
    ),
}


def _sheared_reducible(a, u, v):
    k = a // 2 + 1
    f = parse_polynomial(f"x^{a} + y^{a} + x^{k}*y^{k}")
    return f.substitute_linear(((1, u), (v, 1)))


@pytest.mark.parametrize("a,u,v,ideal", sorted(PINNED_BASES))
def test_standard_basis_is_pinned(a, u, v, ideal):
    f = _sheared_reducible(a, u, v)
    gens = list(f.partials()) if ideal == "mu" else [f, *f.partials()]
    basis = standard_basis(gens)
    generators, leading = PINNED_BASES[(a, u, v, ideal)]
    assert basis.generators == tuple(parse_polynomial(g) for g in generators)
    assert basis.leading_exponents == leading


@pytest.mark.parametrize("a", [4, 5])
def test_sheared_reducible_family_against_the_oracle(a):
    for u in (2, -2):
        for v in (2, -2):
            f = _sheared_reducible(a, u, v)
            assert milnor_number(f) == (a - 1) ** 2
            assert tjurina_number(f) == colength_oracle([f, *f.partials()], degree_cap=12)


# -- mu and tau from one completion --------------------------------------


def _oracle_at(gens):
    """(cap, colength) at the first cap of 12, 18, ..., 60 where the oracle is stable."""
    for cap in range(12, 61, 6):
        value = colength_oracle(gens, degree_cap=cap)
        if value is not UNSTABLE:
            return cap, value
    return None, UNSTABLE


def _oracle(gens):
    return _oracle_at(gens)[1]


def _exact_milnor_tjurina(f):
    """milnor_tjurina(f), checked against a fresh tau basis and the oracle."""
    g = f.aligned()[0]
    gx, gy = g.partials()
    pair = milnor_tjurina(f)
    assert pair == (milnor_number(f), colength(standard_basis([g, gx, gy])))
    assert pair == (_oracle([gx, gy]), _oracle([g, gx, gy]))
    return pair


@pytest.mark.parametrize("corpus", ["paper_examples", "branches"])
def test_milnor_tjurina_on_the_bundled_corpora(corpus):
    for entry in _parse_corpus(_read_corpus_text(corpus)):
        mu, tau = _exact_milnor_tjurina(parse_polynomial(entry.polynomial))
        assert (mu, tau) == (entry.expected["milnor"], entry.expected["tjurina"])


@pytest.mark.parametrize("a,gap", [(4, 0), (5, 1)])
def test_milnor_tjurina_on_the_sheared_reducible_family(a, gap):
    for u in (2, -2):
        for v in (2, -2):
            mu, tau = _exact_milnor_tjurina(_sheared_reducible(a, u, v))
            assert (mu, tau) == ((a - 1) ** 2, (a - 1) ** 2 - gap)


def test_milnor_tjurina_on_pure_power_ladders():
    for a in range(2, 7):
        for b in range(a, 10):
            f = parse_polynomial(f"x^{a} + y^{b}")
            assert _exact_milnor_tjurina(f) == ((a - 1) * (b - 1),) * 2


class _Hang(Exception):
    pass


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise _Hang(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _semi_quasihomogeneous_germs():
    """x^a + y^b, gcd(a, b) = 1, plus 1-3 seeded terms above the Newton diagonal."""
    rng = random.Random(20261018)
    pairs = [(a, b) for a in range(2, 7) for b in range(a + 1, 8) if gcd(a, b) == 1]
    germs = []
    for _ in range(30):
        a, b = rng.choice(pairs)
        cells = [
            (i, j)
            for i in range(a + 1)
            for j in range(b + 1)
            if i * b + j * a > a * b and i + j <= a + b - 2
        ]
        f = parse_polynomial(f"x^{a} + y^{b}")
        for i, j in rng.sample(cells, min(len(cells), rng.randint(1, 3))):
            f = f + rng.choice((-3, -2, -1, 1, 2, 3)) * Polynomial({(i, j): 1})
        germs.append((a, b, f))
    return germs


# the from-scratch Tjurina completion in _exact_milnor_tjurina does not
# finish on this draw (milnor_tjurina alone does, see below); strict, so the
# mark has to go once that completion terminates (ROADMAP item 1)
MORA_HANGS = {"x^5 + 3 x^3*y^3 + y^7 + 2 x^4*y^4 + 2 x^3*y^6"}
_XFAIL_HANG = pytest.mark.xfail(reason="Mora hangs on tau", raises=_Hang, strict=True)


@pytest.mark.parametrize(
    "a,b,f",
    [
        pytest.param(*germ, marks=[_XFAIL_HANG] if str(germ[2]) in MORA_HANGS else [])
        for germ in _semi_quasihomogeneous_germs()
    ],
    ids=str,
)
def test_milnor_tjurina_on_random_semi_quasihomogeneous_germs(a, b, f):
    with _time_limit(4.0):
        mu, tau = _exact_milnor_tjurina(f)
    # Kouchnirenko: the terms above the diagonal leave mu alone
    assert mu == (a - 1) * (b - 1)
    assert tau <= mu


def test_milnor_tjurina_answers_the_semi_quasihomogeneous_hang():
    f = parse_polynomial(next(iter(MORA_HANGS)))
    with _time_limit(4.0):
        pair = milnor_tjurina(f)
    assert pair == (24, 21)
    assert pair == (_oracle(f.partials()), _oracle([f, *f.partials()]))


# -- colengths modulo a prime bound the exact ones (ROADMAP item 6, step 1) ---

PRIME = 2**31 - 1


def _oracle_mod_p(gens, cap):
    """The oracle's truncated elimination at ``cap``, every row reduced modulo PRIME.

    The rows are the oracle's integer rows, and a rank modulo PRIME is at most
    the rank over Q, so this is at least the oracle's colength at the same cap.
    """
    cut = _encode((cap + 1, 0))
    pivots = {}
    for p in gens:
        base = {_encode(k): a % PRIME for k, a in p._integer_form()[1] if a % PRIME}
        for d in range(cap - p.order() + 1):
            for mi in range(d, -1, -1):
                shift = _encode((mi, d - mi))
                row = {k + shift: c for k, c in base.items() if k + shift < cut}
                while row:
                    lead = min(row)
                    pivot = pivots.get(lead)
                    if pivot is None:
                        inverse = pow(row[lead], -1, PRIME)
                        pivots[lead] = {k: c * inverse % PRIME for k, c in row.items()}
                        break
                    scale = row[lead]
                    for k, c in pivot.items():
                        v = (row.get(k, 0) - scale * c) % PRIME
                        if v:
                            row[k] = v
                        else:
                            del row[k]
    return (cap + 1) * (cap + 2) // 2 - len(pivots)


def _modular_germs(family):
    if family == "sheared":
        for a in (4, 5):
            for u, v in SHEARS:
                yield _sheared_reducible(a, u, v)
    else:
        yield from _certificate_germs(family)


# ideals whose colength modulo PRIME equals the exact one, out of two per germ
@pytest.mark.parametrize("family,ideals,equal", [
    ("corpora", 62, 62), ("sheared", 16, 16), ("semi_qh", 60, 60),
])
def test_colengths_modulo_a_prime_bound_mu_and_tau(family, ideals, equal):
    # the strict-xfail draw is included: milnor_tjurina answers it
    bounds = []
    for f in _modular_germs(family):
        g = f.aligned()[0]
        gx, gy = g.partials()
        with _time_limit(4.0):
            mu, tau = milnor_tjurina(f)
        for exact, gens in ((mu, [gx, gy]), (tau, [g, gx, gy])):
            cap, value = _oracle_at(gens)
            assert value == exact, str(f)
            modular = _oracle_mod_p(gens, cap)
            assert exact <= modular, str(f)
            bounds.append(exact == modular)
        newton = newton_number(g)
        assert newton is None or newton.number <= mu, str(f)
    assert (len(bounds), sum(bounds)) == (ideals, equal)


def test_milnor_tjurina_extends_the_cut_minimal_generators():
    # the uncut extension of the minimal Jacobian generators diverged on this
    # germ; cut at the highest corner it answers
    f = parse_polynomial("x^3 + y^7 + 3 x^3*y^2 - x*y^5 - 3 x^3*y^3 - 2 x*y^6")
    with _time_limit(4.0):
        assert _exact_milnor_tjurina(f) == (12, 11)


@pytest.mark.parametrize(
    "p,q,c,d",
    [
        (-2, 2, -3, -3),
        (-1, 1, -3, -2),
        (1, 2, -2, 1),
        (-2, 1, -2, -3),
        (-2, 1, -2, 1),
        (-2, -1, -3, 2),
        (2, -1, 3, -2),
        (-2, -1, 1, -2),
        (-1, -1, 2, -3),
    ],
)
def test_milnor_tjurina_under_nonlinear_coordinate_changes(p, q, c, d):
    x, y = Polynomial({(1, 0): 1}), Polynomial({(0, 1): 1})
    f = parse_polynomial("x^3 + y^3 + x^2*y^2").substitute(p * x + c * y**2, q * y + d * x**2)
    with _time_limit(4.0):
        pair = milnor_tjurina(f)
    assert pair == (4, 4)
    gens = [f, *f.partials()]
    assert pair == (colength_oracle(gens[1:], 12), colength_oracle(gens, 12))


def _jacobian_corner(f):
    """Highest corner of the aligned Jacobian basis, with its leading exponents."""
    leading = standard_basis(f.aligned()[0].partials()).leading_exponents
    return _highest_corner(_column_heights(leading)), leading


def test_highest_corner_of_pure_powers():
    for a in range(2, 8):
        for b in range(a, 12):
            corner, _ = _jacobian_corner(parse_polynomial(f"x^{a} + y^{b}"))
            assert corner == a + b - 3


def _corner_germs():
    for corpus in ("paper_examples", "branches"):
        for entry in _parse_corpus(_read_corpus_text(corpus)):
            yield parse_polynomial(entry.polynomial)
    for a in (4, 5):
        for u in (2, -2):
            for v in (2, -2):
                yield _sheared_reducible(a, u, v)


def test_highest_corner_is_the_least_covered_degree():
    def in_leading_ideal(mono, leading):
        return any(_divides(lead, mono) for lead in leading)

    for f in _corner_germs():
        corner, leading = _jacobian_corner(f)
        assert all(in_leading_ideal((i, corner - i), leading) for i in range(corner + 1))
        assert corner == 0 or not all(
            in_leading_ideal((i, corner - 1 - i), leading) for i in range(corner)
        )


def test_milnor_tjurina_edge_cases():
    assert milnor_tjurina(parse_polynomial("x + y^5")) == (0, 0)
    for src in ("x^2", "x^2*y"):
        with pytest.raises(NonIsolatedSingularityError, match="critical locus"):
            milnor_tjurina(parse_polynomial(src))


def test_tjurina_number_answers_germ_a_from_scratch():
    # germ A of the roadmap is degenerate, so both of its ideals go uncut:
    # mu's completion, and so milnor_tjurina, does not finish on it, while
    # the Tjurina ideal's takes milliseconds
    f = ((Y**2 - X**3) ** 2 - X**7) ** 2 - X**17 * Y
    with _time_limit(4.0):
        tau = tjurina_number(f)
    assert tau == 90 == colength_oracle([f, *f.partials()], degree_cap=24)


# -- Milnor's formula on products of two branches -------------------------

# fixed before any product was computed (ROADMAP item 8)
BRANCHES = [
    "y^2 - x^3", "y^2 - x^5", "y^3 - x^4", "y^3 - x^5", "x^2 - y^3",
    "y - x^2", "x - y^2", "y + x", "y^2 - x^3 - x^2*y^2", "y^2 + x^3",
]


@pytest.mark.parametrize("f,g", list(combinations(BRANCHES, 2)))
def test_milnor_formula_on_products_of_two_branches(f, g):
    f, g = parse_polynomial(f), parse_polynomial(g)
    # i(f, g) is the colength of (f, g), from both pipelines
    intersection = colength(standard_basis([f, g]))
    assert intersection == _oracle([f, g])
    with _time_limit(2.0):
        report = germ_report(f * g)
    assert report.milnor == milnor_number(f) + milnor_number(g) + 2 * intersection - 1
    assert not report.is_branch
    assert 3 * report.milnor < 4 * report.tjurina


# -- coprime pairs are skipped (Buchberger's product criterion) ------------

SHEARS = [(u, v) for u in (2, -2) for v in (2, -2)]

# Every _reduce_leading call of mu's completion on x^4 + y^4 + x^3 y^3 under
# the shear (2, 2), S-polynomials included; it was 173 while the two pairs
# with coprime leading monomials were still reduced to zero.
MU_COMPLETION_STEPS_RED_4_SHEAR_2_2 = 83


def _coprime(first, second):
    return min(first[0], second[0]) == 0 == min(first[1], second[1])


@pytest.mark.parametrize("u,v", SHEARS)
@pytest.mark.parametrize("a", [4, 5, 6, 7])
def test_completion_never_forms_a_coprime_pair(monkeypatch, a, u, v):
    # pairs are decided when queued: _s_polynomial sees no coprime pair and
    # no pair whose lcm lies at or above the cut
    seen = []
    original = localalg._s_polynomial

    def spy(f, g, cut=localalg._NO_CUT):
        seen.append((_decode(f[1]), _decode(g[1]), cut))
        return original(f, g, cut)

    monkeypatch.setattr(localalg, "_s_polynomial", spy)
    f = _sheared_reducible(a, u, v)
    with _time_limit(4.0):
        standard_basis(f.partials())
        standard_basis([f, *f.partials()])
        milnor_tjurina(f)
    assert seen
    assert any(cut < localalg._NO_CUT for _, _, cut in seen)
    assert [pair for pair in seen if _coprime(*pair[:2])] == []
    assert [
        (first, second, cut)
        for first, second, cut in seen
        if _encode((max(first[0], second[0]), max(first[1], second[1]))) >= cut
    ] == []


def test_skipping_coprime_pairs_halves_the_mu_completion(monkeypatch):
    steps = 0
    original = localalg._reduce_leading

    def counting(*args):
        nonlocal steps
        steps += 1
        return original(*args)

    monkeypatch.setattr(localalg, "_reduce_leading", counting)
    standard_basis(_sheared_reducible(4, 2, 2).partials())
    assert steps == MU_COMPLETION_STEPS_RED_4_SHEAR_2_2


def _certificate_germs(family):
    if family == "corpora":
        for corpus in ("paper_examples", "branches"):
            for entry in _parse_corpus(_read_corpus_text(corpus)):
                yield parse_polynomial(entry.polynomial)
    elif family == "sheared":
        for a in range(4, 8):
            for u, v in SHEARS:
                yield _sheared_reducible(a, u, v)
    elif family == "pure_powers":
        for a in range(2, 7):
            for b in range(a, 10):
                yield parse_polynomial(f"x^{a} + y^{b}")
    else:
        for _, _, f in _semi_quasihomogeneous_germs():
            yield f


@pytest.mark.parametrize("family", ["corpora", "sheared", "pure_powers", "semi_qh"])
def test_every_s_pair_of_a_standard_basis_reduces_to_zero(family):
    # a certificate that does not trust the completion's pair selection:
    # all pairs of the minimal generators, coprime ones included
    for f in _certificate_germs(family):
        g = f.aligned()[0]
        gx, gy = g.partials()
        # the from-scratch tau completion of the strict-xfail draw hangs
        ideals = [[gx, gy]] if str(f) in MORA_HANGS else [[gx, gy], [g, gx, gy]]
        for generators in ideals:
            entries = [_entry(p) for p in standard_basis(generators).generators]
            for first, second in combinations(entries, 2):
                s, lead = _s_polynomial(first, second)
                if s:
                    assert _mora_normal_form(s, lead, entries)[0] == {}, (str(f), first, second)


# (p, q, c, d) of (x, y) -> (p x + c y^2, q y + d x^2), as drawn by the
# perfbench coords workload for seeds 1 to 10, with the germ's id there and
# its mu = tau from the closed form (x^3 y^3 lies in the Jacobian ideal of
# x^4 + y^4); Mora hung on every one of these until coprime pairs were skipped
COORDS_DRAWS = [
    ("qh_2_5", "x^2 + y^5", 4,
     [(1, -2, 2, 1), (-1, 1, 1, -2), (2, -1, -3, -1), (1, -2, -2, 3), (-2, 2, 3, -1),
      (1, -1, -1, 1), (2, -1, -2, -1), (2, 2, 2, 2), (1, 2, 3, -1), (2, 2, -1, 1)]),
    ("qh_3_4", "x^3 + y^4", 6,
     [(-1, 1, 1, -2), (1, -1, -1, -2), (-1, -1, 1, 2), (1, 2, -3, 1), (1, -2, -2, 2),
      (-1, 2, 2, 1), (1, 2, 1, -1), (-2, 1, 1, 2), (1, -1, 2, -1), (1, 1, -2, -3)]),
    ("qh_4_5", "x^4 + y^5", 12,
     [(1, -2, -3, -1), (-1, -2, 3, -2), (2, 2, 3, -1), (-1, -1, -3, 2), (2, 2, 3, -3),
      (-2, 1, 3, -3), (-1, -1, 2, 3), (1, 2, 3, -1), (2, -1, -3, 1), (-2, 1, -3, 3)]),
    ("red_4_3", "x^4 + y^4 + x^3*y^3", 9,
     [(1, -1, -1, 1), (-2, 1, 3, -3), (1, -2, -1, 2), (1, -2, -3, -1), (1, 2, -3, 2),
      (1, -1, 2, 2), (-1, 2, 2, -3), (1, 2, 3, -1), (-2, -1, -2, -1), (-2, -2, -2, 2)]),
]


def _now_answering():
    """(germ, mu, tau) with mu and tau from closed forms or the item-1 table."""
    germs = [
        pytest.param(
            (X**9 + Y**10 + X**5 * Y**5).substitute(
                X + Y**3 + Fraction(2, 3) * Y, Y + 3 * X**2 - 5 * X
            ),
            72,
            60,
            id="C",
        ),
        pytest.param(
            (X**12 + Y**13).substitute(X + Y**2 + 2 * Y, Y + X**2 - X), 132, 132, id="D"
        ),
    ]
    for family, text, mu, draws in COORDS_DRAWS:
        for p, q, c, d in draws:
            f = parse_polynomial(text).substitute(p * X + c * Y**2, q * Y + d * X**2)
            germs.append(pytest.param(f, mu, mu, id=f"{family}@aut({p},{q},{c},{d})"))
    return germs


def _answers(capsys, f, mu, tau):
    """milnor_tjurina and CLI analyze give (mu, tau), as the oracle does."""
    with _time_limit(4.0):
        pair = milnor_tjurina(f)
        code = main(["analyze", str(f), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["milnor"], payload["tjurina"]) == pair == (mu, tau)
    assert pair == (_oracle(f.partials()), _oracle([f, *f.partials()]))


@pytest.mark.parametrize("f,mu,tau", _now_answering())
def test_germs_that_answer_once_coprime_pairs_are_skipped(capsys, f, mu, tau):
    _answers(capsys, f, mu, tau)


# the qh_3_5 draws of the same workload, seeds 1 to 10, and germ E: mu's
# uncut completion ran past the workload's 0.5 s limit on every one of these
# (0.96 s on the second draw, over 1 s on the others); cut at nu + 1 they answer
NU_CUT_DRAWS = [(-2, 1, 2, 3), (1, -1, -1, -2), (1, 2, 1, 3), (-1, -1, 3, -1), (2, 2, 2, -1),
                (2, -1, 2, -1), (-2, -2, -2, 1), (1, 2, 1, -1), (-2, -1, -1, -3), (1, -2, -3, -1)]


def _answering_under_the_nu_cut():
    germs = [pytest.param((X**5 + Y**7).substitute(X + Y**2, Y + X**3), 24, 24, id="E")]
    for p, q, c, d in NU_CUT_DRAWS:
        f = (X**3 + Y**5).substitute(p * X + c * Y**2, q * Y + d * X**2)
        germs.append(pytest.param(f, 8, 8, id=f"qh_3_5@aut({p},{q},{c},{d})"))
    return germs


@pytest.mark.parametrize("f,mu,tau", _answering_under_the_nu_cut())
def test_germs_that_answer_under_the_nu_cut(capsys, f, mu, tau):
    _answers(capsys, f, mu, tau)


# tjurina_number completed these Tjurina ideals uncut and ran past 3 s on
# each; it now takes milnor_tjurina's route, mu's completion cut at nu + 1
# and then tau's extension below mu's highest corner, and each answers in
# milliseconds. C still ran past 30 s with its Tjurina ideal cut at nu + 1.
# The qh_2_5 draws are degenerate until one shift y -> y - r x^2 moves them
# onto x^5 + y^2 + ...
TJURINA_UNDER_THE_NU_CUT = {
    "semi-qh hang": 21,
    "C": 60,
    "E": 24,
    "six-term product": 15,
    "red_4_3@aut(1,-1,-1,1)": 9,
    "red_4_3@aut(-2,1,3,-3)": 9,
    "qh_2_5@aut(1,-2,2,1)": 4,
    "qh_2_5@aut(-1,1,1,-2)": 4,
}


def _tjurina_under_the_nu_cut():
    params = _now_answering() + _answering_under_the_nu_cut()
    germs = {param.id: param.values[0] for param in params}
    germs["semi-qh hang"] = parse_polynomial(next(iter(MORA_HANGS)))
    germs["six-term product"] = (
        parse_polynomial("y^2 - x^5") * parse_polynomial("y^2 - x^3 - x^2*y^2")
    )
    return [
        pytest.param(germs[name], tau, id=name) for name, tau in TJURINA_UNDER_THE_NU_CUT.items()
    ]


@pytest.mark.parametrize("f,tau", _tjurina_under_the_nu_cut())
def test_tjurina_number_takes_mu_s_route(f, tau):
    with _time_limit(4.0):
        value = tjurina_number(f)
    assert value == tau == _oracle([f, *f.partials()])


# -- a cut ends every normal form -------------------------------------------


@pytest.mark.parametrize("family", ["corpora", "sheared", "C and D"])
def test_every_cut_normal_form_ends_within_the_corner_bound(monkeypatch, family):
    # under a cut at degree c each step lowers the lead among the c(c+1)/2
    # monomials of degree below c; nothing else bounds the steps. mu's
    # completion is cut at nu + 1, tau's extension at the highest corner
    steps, calls = 0, []
    reduce_leading, normal_form = localalg._reduce_leading, localalg._mora_normal_form

    def counting(*args):
        nonlocal steps
        steps += 1
        return reduce_leading(*args)

    def recording(h, lead, reducers, cut=localalg._NO_CUT):
        nonlocal steps
        steps = 0
        remainder, lead = normal_form(h, lead, reducers, cut)
        if cut != localalg._NO_CUT:
            calls.append((cut, steps, remainder))
        return remainder, lead

    monkeypatch.setattr(localalg, "_reduce_leading", counting)
    monkeypatch.setattr(localalg, "_mora_normal_form", recording)
    both = (milnor_tjurina, tjurina_number)
    if family == "C and D":
        runs = [param.values[0] for param in _now_answering()[:2]]
    else:
        runs = _certificate_germs(family)
    kinds = {function: set() for function in both}
    for f in runs:
        corner, _ = _jacobian_corner(f)
        nu = newton_number(f.aligned()[0]).number
        for function in both:
            calls.clear()
            with _time_limit(4.0):
                function(f)
            for cut, count, remainder in calls:
                c = _degree(cut)
                assert cut == _encode((c, 0)) and c in (nu + 1, corner), str(f)
                assert count <= c * (c + 1) // 2, str(f)
                assert all(_degree(k) < c for k in remainder), str(f)
                kinds[function].add("corner" if c == corner else "nu")
    # mu's completion on C and D forms only coprime pairs, so no normal form
    assert kinds[milnor_tjurina] == ({"corner"} if family == "C and D" else {"corner", "nu"})
    # tjurina_number takes milnor_tjurina's cuts, never its own at nu + 1
    assert kinds[tjurina_number] == kinds[milnor_tjurina]


# -- the Newton number: a third mu pipeline ---------------------------------

GERM_A = ((Y**2 - X**3) ** 2 - X**7) ** 2 - X**17 * Y
GERM_F = parse_polynomial("y^4 - 2 x^3*y^2 - 4 x^5*y + x^6 + x^3*y^4 - x^7 + x^9")
# (y^p - x^q)^r - x^s, the two-pair branches of the benchmark's survey and verify
TWO_PAIR_BRANCHES = [(Y**p - X**q) ** r - X**s for p, q, r, s in
                     [(2, 3, 3, 10), (2, 3, 3, 11), (3, 4, 2, 9), (2, 5, 3, 16)]]


def _germs_with_mu(family):
    """(germ, mu), mu from the corpora, a closed form or the germ table of perfbench."""
    if family == "corpora":
        for corpus in ("paper_examples", "branches"):
            for entry in _parse_corpus(_read_corpus_text(corpus)):
                yield parse_polynomial(entry.polynomial), entry.expected["milnor"]
    elif family == "sheared":
        for a in range(4, 8):
            for u, v in SHEARS:
                yield _sheared_reducible(a, u, v), (a - 1) ** 2
    elif family == "semi_qh":
        for a, b, f in _semi_quasihomogeneous_germs():
            yield f, (a - 1) * (b - 1)
    elif family == "coords and B-E":
        yield (X**7 + Y**9).substitute(X + Y**2 + 2 * Y, Y + 3 * X**2 - X), 48
        for param in _now_answering() + _answering_under_the_nu_cut():
            yield param.values[:2]
    else:
        yield GERM_A, 107
        yield GERM_F, 16
        for f in TWO_PAIR_BRANCHES:
            yield f, mu_topological(resolve_branch(f))


# degenerate germs per family: F twice in the branches corpus, the ten
# qh_2_5 draws of COORDS_DRAWS, whose aligned edge is a square
@pytest.mark.parametrize(
    "family,degenerate",
    [("corpora", 2), ("sheared", 0), ("semi_qh", 0), ("coords and B-E", 10), ("degenerate", 6)],
)
def test_newton_number_is_mu_exactly_on_non_degenerate_germs(family, degenerate):
    # Kouchnirenko: mu = nu on a convenient non-degenerate germ, mu >= nu on
    # any convenient germ; a pipeline that shares no code with Mora
    seen = 0
    for f, mu in _germs_with_mu(family):
        newton = newton_number(f.aligned()[0])
        assert newton is not None, str(f)
        assert newton.number == mu if newton.non_degenerate else newton.number <= mu, str(f)
        seen += not newton.non_degenerate
    assert seen == degenerate


def test_newton_number_of_the_hand_checked_germs():
    # F's one edge 2i + 3j = 12 has the edge polynomial (y^2 - x^3)^2
    assert newton_number(GERM_F) == (15, False)
    # (y^2 - x^5)(y^2 - x^3 - x^2 y^2) = y^4 - x^3 y^2 - ...: edges (0, 4)-(3, 2)
    # and (3, 2)-(8, 0), area 14, nu = 28 - 8 - 4 + 1
    product = parse_polynomial("y^2 - x^5") * parse_polynomial("y^2 - x^3 - x^2*y^2")
    assert newton_number(product) == (17, True)
    with _time_limit(4.0):
        assert milnor_tjurina(product) == (17, 15)


@pytest.mark.parametrize("shift", [-1, -5, "one", 7])
@pytest.mark.parametrize("family", ["corpora", "sheared"])
def test_a_wrong_newton_number_leaves_mu_and_tau(monkeypatch, family, shift):
    # the nu cut is kept only when its own highest corner proves it harmless,
    # so a wrong nu may cost time but never changes an answer
    germs = list(_certificate_germs(family))
    with _time_limit(8.0):
        expected = [milnor_tjurina(f) for f in germs]

    def wrong(g):
        polygon = newton_polygon(g)
        if polygon is None:
            return None
        newton, edge_shift = polygon
        number = 1 if shift == "one" else newton.number + shift
        return newton._replace(number=number), edge_shift

    monkeypatch.setattr(localalg, "newton_polygon", wrong)
    with _time_limit(8.0):
        assert [milnor_tjurina(f) for f in germs] == expected


# -- Newton non-degenerate coordinates --------------------------------------

SHIFT_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _shift_draws():
    """(germ, mu) for 96 germs of known mu = tau, with seeded coefficients.

    The bases are x^a + y^b for coprime 2 <= a, b <= 7, and x^a + y^a + x^k y^k
    for a = 3, 4, k = a // 2 + 1, whose x^k y^k lies in the Jacobian ideal of
    x^a + y^a. Each is composed with (x, y + c x^p), p = 2, 3, 4, and with
    the coords workload's (p x + c y^2, q y + d x^2).
    """
    rng = random.Random(20261020)
    bases = [(f"qh_{a}_{b}", X**a + Y**b, (a - 1) * (b - 1))
             for a in range(2, 8) for b in range(2, 8) if gcd(a, b) == 1]
    bases += [(f"red_{a}_{a // 2 + 1}", X**a + Y**a + (X * Y) ** (a // 2 + 1), (a - 1) ** 2)
              for a in (3, 4)]
    draws = []
    for name, base, mu in bases:
        for power in (2, 3, 4):
            c = rng.choice(SHIFT_COEFFICIENTS)
            f = base.substitute(X, Y + c * X**power)
            draws.append(pytest.param(f, mu, id=f"{name}@(x,y{c:+}x^{power})"))
        p, q = rng.choice((1, -1, 2, -2)), rng.choice((1, -1, 2, -2))
        c, d = rng.choice(SHIFT_COEFFICIENTS), rng.choice(SHIFT_COEFFICIENTS)
        f = base.substitute(p * X + c * Y**2, q * Y + d * X**2)
        draws.append(pytest.param(f, mu, id=f"{name}@aut({p},{q},{c},{d})"))
    return draws


@pytest.mark.parametrize("f,mu", _shift_draws())
def test_mu_and_tau_survive_the_move_to_newton_coordinates(f, mu):
    with _time_limit(4.0):
        values = (milnor_number(f), tjurina_number(f), *milnor_tjurina(f))
    assert values == (mu,) * 4
    assert (_oracle(f.partials()), _oracle([f, *f.partials()])) == (mu, mu)


@pytest.mark.parametrize("h", [[(2, 2)], [(2, 2), (1, 3)], [(2, 2), (-2, 3), (1, 5)]], ids=str)
def test_the_shifts_undo_y_plus_a_polynomial_in_x(h):
    # x^a + y^b, a > b, after (x, y + sum of c x^p): each shift removes the
    # lowest term c x^p of the sum while x^a lies beyond the edge
    # (y + c x^p)^b, that is while a > p b, and leaves the other terms
    for b in range(2, 7):
        for a in range(b + 1, 8):
            base = X**a + Y**b
            f = base.substitute(X, Y + sum((c * X**p for c, p in h), ZERO))
            kept = sum((c * X**p for c, p in h if p * b >= a), ZERO)
            assert localalg._newton_coordinates(f)[0] == base.substitute(X, Y + kept), (a, b)


def test_the_shift_moves_the_qh_2_5_draws_and_no_two_pair_branch():
    # the qh_2_5 draws align to e0 (y + r x^2)^2 + ...; the edges of A, F
    # and (y^2 - x^3)^3 - x^11 are powers of y^2 - x^3, steps (3, 2)
    qh_2_5 = [param.values[0] for param in _now_answering() if param.id.startswith("qh_2_5")]
    assert len(qh_2_5) == 10
    for f in qh_2_5:
        g, newton = localalg._newton_coordinates(f)
        assert g != f.aligned()[0] and newton == (4, True), str(f)
    for f in [GERM_A, GERM_F, (Y**2 - X**3) ** 3 - X**11]:
        g = f.aligned()[0]
        assert localalg._newton_coordinates(f) == (g, newton_number(g)), str(f)


def test_the_shift_loop_stops_on_a_non_isolated_germ(monkeypatch, capsys):
    # ((1 - x) y - x^2)^2 has the double root y = x^2 / (1 - x), a series:
    # every shift leaves the edge (y - x^p)^2 with nu = 2p - 1, and the loop
    # stops once nu reaches (d - 1)^2 = 9, after three shifts
    f = (Y - X * Y - X**2) ** 2
    seen = []

    def recording(g):
        polygon = newton_polygon(g)
        seen.append(polygon)
        return polygon

    monkeypatch.setattr(localalg, "newton_polygon", recording)
    for function in (milnor_number, tjurina_number, milnor_tjurina):
        seen.clear()
        with _time_limit(2.0), pytest.raises(NonIsolatedSingularityError):
            function(f)
        assert [(newton.number, shift) for newton, shift in seen] == [
            (2 * p - 1, (-1, p)) for p in (2, 3, 4, 5)
        ]
    with _time_limit(2.0):
        assert main(["analyze", str(f)]) == 2
    assert "NonIsolatedSingularityError" in capsys.readouterr().err
