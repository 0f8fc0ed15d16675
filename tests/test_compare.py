"""Tests for the one-sided "not smoother than" comparison."""

from itertools import product

from germlab.compare import (
    BRANCH_CAVEAT,
    INCONCLUSIVE,
    NOT_SMOOTHER,
    _is_suffix,
    not_smoother,
)
from germlab.polynomials import parse_polynomial
from germlab.resolution import resolve_branch


def test_reference_pair_one():
    verdict = not_smoother(
        parse_polynomial("x^9 + y^9 + x^6*y^6"),
        parse_polynomial("x^11 + y^11 + x^6*y^6"),
    )
    assert verdict.verdict == NOT_SMOOTHER
    assert any("monotone" in r for r in verdict.reasons)
    assert any("-48 < -36" in r for r in verdict.reasons)
    # both germs are reducible, so the theorem caveat must appear
    assert any(BRANCH_CAVEAT in r for r in verdict.reasons)


def test_reference_pair_two():
    verdict = not_smoother(
        parse_polynomial("x^11 + y^10 + x^6*y^6"),
        parse_polynomial("x^13 + y^12 + x^6*y^7"),
    )
    assert verdict.verdict == NOT_SMOOTHER
    assert any("monotone" in r for r in verdict.reasons)
    assert any("-42 < -36" in r for r in verdict.reasons)
    # both members of this pair are branches: no caveat needed
    assert not any(BRANCH_CAVEAT in r for r in verdict.reasons)


def test_identical_inputs_inconclusive():
    f = parse_polynomial("y^2 - x^3")
    verdict = not_smoother(f, f)
    assert verdict.verdict == INCONCLUSIVE
    assert verdict.reasons == ()


def test_strict_transforms_stay_inconclusive():
    # every intermediate stage of a resolution is genuinely smoother, so no
    # necessary condition may fire against it
    base = parse_polynomial("y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7")
    stages = [step.strict_transform for step in resolve_branch(base).steps]
    for stage in stages:
        verdict = not_smoother(stage, base)
        assert verdict.verdict == INCONCLUSIVE, verdict.reasons


def test_base_is_not_smoother_than_its_transform():
    for src in ["y^2 - x^3", "x^3 + y^5", "y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"]:
        base = parse_polynomial(src)
        transform = resolve_branch(base).steps[0].strict_transform
        verdict = not_smoother(base, transform)
        assert verdict.verdict == NOT_SMOOTHER


def test_milnor_refutation_fires():
    verdict = not_smoother(
        parse_polynomial("x^3 + y^5"), parse_polynomial("y^2 - x^3")
    )
    assert verdict.verdict == NOT_SMOOTHER
    assert any("milnor" in r for r in verdict.reasons)


def test_suffix_refutation_fires_alone():
    # mu, tau and the monotone quantity all move the right way, but the
    # multiplicity sequence [2, 2] is not a suffix of [3, 2]
    verdict = not_smoother(
        parse_polynomial("y^2 - x^5"), parse_polynomial("x^3 + y^5")
    )
    assert verdict.verdict == NOT_SMOOTHER
    assert len(verdict.reasons) == 1
    assert "suffix" in verdict.reasons[0]


def test_suffix_rule_skipped_for_reducible():
    # reducible germs carry no multiplicity sequence; only numeric tests run
    verdict = not_smoother(
        parse_polynomial("x^11 + y^11 + x^6*y^6"),
        parse_polynomial("x^9 + y^9 + x^6*y^6"),
    )
    assert verdict.verdict == NOT_SMOOTHER
    assert all("suffix" not in r for r in verdict.reasons)
    assert any("milnor" in r for r in verdict.reasons)
    assert any("tjurina" in r for r in verdict.reasons)


def test_reports_are_attached():
    left = parse_polynomial("y^2 - x^3")
    right = parse_polynomial("x^3 + y^5")
    verdict = not_smoother(left, right)
    assert verdict.left.input == left
    assert verdict.right.input == right


def test_is_suffix_matches_its_definition():
    # every tuple of length at most 4 over {2, 3, 4}, as candidate and as
    # base, so candidates longer than the base are included
    tuples = [t for n in range(5) for t in product((2, 3, 4), repeat=n)]
    for candidate in tuples:
        for base in tuples:
            expected = not candidate or (
                len(candidate) <= len(base) and base[-len(candidate):] == candidate
            )
            assert _is_suffix(candidate, base) == expected, (candidate, base)
