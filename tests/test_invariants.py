"""Tests for invariant reports, the blowup laws, and the bound checks."""

import random
import signal
from fractions import Fraction

import pytest

from germlab.errors import (
    MultiplicityTooSmallError,
    NotABranchError,
    NotAGermError,
    NotSingularError,
    ZeroPolynomialError,
)
from germlab.invariants import (
    blowup_law_check,
    claim_check,
    claim_check_range,
    dmin_lower,
    germ_report,
    ratio_check,
    resolution_law_checks,
    theorem_verify,
    verify_branch,
)
from germlab.localalg import colength_oracle
from germlab.polynomials import Polynomial, X, Y, parse_polynomial
from germlab.resolution import (
    PuiseuxCharacteristic,
    expected_sequence_from_characteristic,
    strict_transform_once,
)


# -- reports -------------------------------------------------------------


def test_report_cusp():
    r = germ_report(parse_polynomial("y^2 - x^3"))
    assert r.multiplicity == 2
    assert r.milnor == 2
    assert r.tjurina == 2
    assert r.monotone == -2
    assert r.differential_gap == Fraction(1)
    assert r.is_branch
    assert r.delta == 1
    assert r.characteristic == PuiseuxCharacteristic(2, (3,))
    assert r.multiplicity_sequence == (2,)
    assert r.ratio_ok is True


def test_report_reducible_germ():
    r = germ_report(parse_polynomial("x^11 + y^11 + x^6*y^6"))
    assert (r.milnor, r.tjurina, r.monotone) == (100, 84, -36)
    assert not r.is_branch
    assert r.delta is None
    assert r.characteristic is None
    assert r.multiplicity_sequence is None
    assert r.ratio_ok is True  # 300 < 336


def test_report_second_reducible_pair_member():
    r = germ_report(parse_polynomial("x^9 + y^9 + x^6*y^6"))
    assert (r.milnor, r.tjurina, r.monotone) == (64, 60, -48)
    assert not r.is_branch


def test_report_irreducible_despite_many_terms():
    # single Newton edge with coprime endpoints: a genuine branch
    r = germ_report(parse_polynomial("x^13 + y^12 + x^6*y^7"))
    assert (r.milnor, r.tjurina, r.monotone) == (132, 108, -36)
    assert r.is_branch
    assert r.characteristic == PuiseuxCharacteristic(12, (13,))
    assert r.delta == 66
    r = germ_report(parse_polynomial("x^11 + y^10 + x^6*y^6"))
    assert (r.milnor, r.tjurina, r.monotone) == (90, 78, -42)
    assert r.is_branch
    assert r.characteristic == PuiseuxCharacteristic(10, (11,))


def test_report_smooth_germ():
    r = germ_report(parse_polynomial("x + y"))
    assert r.milnor == 0
    assert r.tjurina == 0
    assert r.monotone == 0
    assert r.differential_gap == 0
    assert r.is_branch
    assert r.delta == 0
    assert r.multiplicity_sequence == ()
    assert r.ratio_ok is None


def test_report_errors():
    with pytest.raises(ZeroPolynomialError):
        germ_report(Polynomial())
    with pytest.raises(NotAGermError):
        germ_report(parse_polynomial("1 + x"))


def test_differential_gap_nonnegative_integer_on_branches():
    for src in ["y^2 - x^3", "x^3 + y^5", "x^4 + y^7", "x^3 + y^7 + x*y^5",
                "y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"]:
        r = germ_report(parse_polynomial(src))
        assert r.is_branch
        assert r.differential_gap >= 0
        assert r.differential_gap.denominator == 1
        assert r.differential_gap == Fraction(r.tjurina) - Fraction(r.milnor, 2)


# -- the multiplicity bound ----------------------------------------------


def test_dmin_lower_values():
    assert dmin_lower(2) == 1
    assert dmin_lower(3) == 2
    assert dmin_lower(4) == 4
    assert dmin_lower(5) == 6


def test_dmin_lower_is_the_floor_of_a_quarter_square():
    # floor(m^2/4) by the parity of m, not by the expression dmin_lower returns
    for h in range(1, 100):
        assert dmin_lower(2 * h) == h * h
        assert dmin_lower(2 * h + 1) == h * (h + 1)


def test_dmin_lower_rejects_small():
    with pytest.raises(MultiplicityTooSmallError):
        dmin_lower(1)
    with pytest.raises(MultiplicityTooSmallError):
        dmin_lower(0)


def test_claim_check_small_values():
    assert claim_check(2)  # 4*1 > 2
    assert claim_check(3)  # 4*2 > 6
    assert claim_check(5)  # 4*6 > 20
    with pytest.raises(MultiplicityTooSmallError):
        claim_check(1)


def test_claim_check_range():
    assert claim_check_range(2, 10_000)
    with pytest.raises(MultiplicityTooSmallError):
        claim_check_range(1, 10)


def test_claim_check_random_large_m():
    rng = random.Random(88)
    for _ in range(50):
        assert claim_check(rng.randint(2, 10**9))


# -- per-blowup laws -----------------------------------------------------


def test_law_check_cusp():
    check = blowup_law_check(parse_polynomial("y^2 - x^3"))
    assert check.multiplicity == 2
    assert check.mu_drop == 2
    assert check.tau_drop == 2
    assert check.dmin_bound == 1
    assert check.mu_drop_exact
    assert check.tau_drop_bounded
    assert check.monotone_increased
    assert check.all_ok


def test_law_check_e8():
    check = blowup_law_check(parse_polynomial("x^3 + y^5"))
    assert (check.mu_before, check.tau_before) == (8, 8)
    assert (check.mu_after, check.tau_after) == (2, 2)
    assert check.mu_drop == 6
    assert check.tau_drop == 6
    assert check.dmin_bound == 2
    assert check.all_ok  # bound: 3 + 2 = 5 <= 6


def test_law_check_a4():
    check = blowup_law_check(parse_polynomial("y^2 - x^5"))
    assert check.mu_drop == 2
    assert check.tau_drop == 2
    assert check.all_ok  # bound: 1 + 1 = 2 <= 2, attained exactly


def test_law_check_bound_attained():
    # multiplicity 4 branch whose tau drop meets the bound with equality
    check = blowup_law_check(parse_polynomial("y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"))
    assert check.multiplicity == 4
    assert check.mu_drop == 12
    assert check.tau_drop == 4 * 3 // 2 + check.dmin_bound
    assert check.all_ok


def test_law_check_errors():
    with pytest.raises(NotSingularError):
        blowup_law_check(parse_polynomial("x + y^2"))
    with pytest.raises(NotABranchError):
        blowup_law_check(parse_polynomial("x*y"))


def test_resolution_law_checks_full_chain():
    checks = resolution_law_checks(parse_polynomial("y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"))
    assert [c.multiplicity for c in checks] == [4, 2, 2]
    assert all(c.all_ok for c in checks)
    assert checks[0].mu_before == 16
    assert checks[-1].mu_after == 0
    for before, after in zip(checks, checks[1:]):
        assert before.mu_after == after.mu_before
        assert before.tau_after == after.tau_before


def test_resolution_law_checks_smooth_is_empty():
    assert resolution_law_checks(parse_polynomial("x + y^3")) == []


# -- the monotone chain ----------------------------------------------------


def test_theorem_chains():
    assert theorem_verify(parse_polynomial("y^2 - x^3")) == [-2, 0]
    assert theorem_verify(parse_polynomial("x^3 + y^5")) == [-8, -2, 0]
    assert theorem_verify(parse_polynomial("y^2 - x^5")) == [-4, -2, 0]
    assert theorem_verify(parse_polynomial("x^3 + y^7 + x*y^5")) == [-8, -6, 0]
    assert theorem_verify(
        parse_polynomial("y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7")
    ) == [-8, -4, -2, 0]


def test_theorem_chain_shape():
    rng = random.Random(7)
    from math import gcd
    pairs = [(a, b) for a in range(2, 6) for b in range(a + 1, 10) if gcd(a, b) == 1]
    for a, b in rng.sample(pairs, 6):
        chain = theorem_verify(parse_polynomial(f"x^{a} + y^{b}"))
        assert chain[-1] == 0
        assert all(v < 0 for v in chain[:-1])
        assert all(u < v for u, v in zip(chain, chain[1:]))


def test_verify_branch_answers_the_two_pair_branch_of_five_cusps():
    # (y^2 - x^3)^5 - x^16 has characteristic (10; 15, 17). Its first strict
    # transform aligns to the degenerate edge (y + r x^2)^5; mu's completion
    # ran uncut for seconds there before the shift y -> y - r x^2
    f = (Y**2 - X**3) ** 5 - X**16
    sequence = expected_sequence_from_characteristic(PuiseuxCharacteristic(10, (15, 17)))

    def expire(signum, frame):
        raise TimeoutError("verify_branch gave no answer within 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        report, checks, chain = verify_branch(f)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (report.milnor, report.tjurina) == (134, 123)
    assert report.milnor == sum(m * (m - 1) for m in sequence)
    assert [check.multiplicity for check in checks] == sequence == [10, 5, 5, 2, 2]
    assert all(check.all_ok for check in checks)
    assert chain == [-90, -32, -16, -4, -2, 0]
    first = strict_transform_once(f).strict_transform
    assert (checks[1].mu_before, checks[1].tau_before) == (44, 41) == (
        colength_oracle(first.partials(), 18),
        colength_oracle([first, *first.partials()], 18),
    )


def test_theorem_verify_rejects_reducible():
    with pytest.raises(NotABranchError):
        theorem_verify(parse_polynomial("x^2 - y^2"))


# -- the ratio question ----------------------------------------------------


def test_ratio_check_values():
    assert ratio_check(germ_report(parse_polynomial("x^11 + y^11 + x^6*y^6")))
    assert ratio_check(germ_report(parse_polynomial("x^13 + y^12 + x^6*y^7")))
    assert ratio_check(germ_report(parse_polynomial("y^2 - x^3")))


def test_ratio_check_rejects_smooth():
    with pytest.raises(NotSingularError):
        ratio_check(germ_report(parse_polynomial("x + y")))
