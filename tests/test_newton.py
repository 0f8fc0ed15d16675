"""Tests for the Newton number and the non-degeneracy test of its edges."""

import random
from fractions import Fraction

import pytest

from germlab.newton import Newton, _squarefree, newton_polygon
from germlab.polynomials import X, Y, parse_polynomial


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(a, 9)])
def test_pure_powers_have_nu_of_the_closed_form(a, b):
    assert newton_polygon(X**a + Y**b) == Newton((a - 1) * (b - 1), True)


@pytest.mark.parametrize("a", range(3, 9))
def test_a_term_above_the_diagonal_leaves_nu(a):
    # x^a + y^a + x^k y^k, 2k > a; its edge polynomial t^a + 1 has simple roots
    k = a // 2 + 1
    assert newton_polygon(X**a + Y**a + X**k * Y**k) == Newton((a - 1) ** 2, True)


def test_each_edge_adds_its_trapezoid():
    # x^2 y^2 lies below the segment from y^6 to x^6: edges (0, 6)-(2, 2)
    # and (2, 2)-(6, 0), twice the area 2 * 8 + 4 * 2, nu = 24 - 6 - 6 + 1;
    # both edge polynomials are 1 + t^2
    assert newton_polygon(parse_polynomial("x^6 + y^6 + x^2*y^2")) == Newton(13, True)


@pytest.mark.parametrize("text", ["x*y", "x^2*y + y^5", "x^3 + x*y^4", "y^2*x^2"])
def test_a_germ_without_both_pure_powers_is_not_convenient(text):
    assert newton_polygon(parse_polynomial(text)) is None


@pytest.mark.parametrize(
    "text,nu",
    [
        ("y^4 - 2 x^3*y^2 + x^6 + x^7", 15),  # (y^2 - x^3)^2 + x^7
        ("y^2 - 2 x*y + x^2 + x^5", 1),  # (y - x)^2 + x^5, whose mu is 4
        ("x^4 + 2 x^2*y^2 + y^4 + x^5", 9),  # (x^2 + y^2)^2, a double pair of roots
    ],
)
def test_an_edge_with_a_repeated_root_is_degenerate(text, nu):
    newton = newton_polygon(parse_polynomial(text))
    assert (newton.number, newton.non_degenerate) == (nu, False)


@pytest.mark.parametrize(
    "text,shift",
    [
        ("y^2 - 2 x^2*y + x^4 + x^5", (Fraction(-1), 2)),  # (y - x^2)^2 + x^5
        ("4 y^3 + 6 x^3*y^2 + 3 x^6*y + 1/2 x^9 + x^10", (Fraction(1, 2), 3)),  # 4 (y + x^3/2)^3
        ("y^4 - 2 x^3*y^2 + x^6 + x^7", None),  # (y^2 - x^3)^2: steps (3, 2), no shift
        ("y^3 - 3 x^2*y^2 + 3 x^4*y - x^6 + x^3*y", None),  # (y - x^2)^3 + x^3 y: two edges
        ("y^2 - 2 x^2*y + 2 x^4", None),  # an edge with simple roots
        ("y + x^3", None),  # smooth: m = 1
    ],
)
def test_a_single_power_edge_reports_its_shift(text, shift):
    assert newton_polygon(parse_polynomial(text)).shift == shift


def test_squarefree_matches_the_roots_of_products_of_factors():
    # products of (t - r) and (t^2 + t + 1), each factor to the power 1 or 2
    rng = random.Random(1729)
    cyclotomic = [1, 1, 1]
    for _ in range(400):
        factors = [[-rng.randint(-6, 6) or 7, 1] for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            factors.append(cyclotomic)
        repeated = rng.random() < 0.5
        if repeated:
            factors.append(rng.choice(factors))
        simple = len({tuple(f) for f in factors}) == len(factors)
        product = [rng.choice((-3, -1, 2))]
        for factor in factors:
            out = [0] * (len(product) + len(factor) - 1)
            for i, u in enumerate(product):
                for j, v in enumerate(factor):
                    out[i + j] += u * v
            product = out
        assert _squarefree(product) == simple, factors
