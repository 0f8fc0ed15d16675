"""Tests for blowups, branch resolution, and characteristic reconstruction."""

import random
import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from germlab.errors import (
    InconsistentSequenceError,
    InvalidCharacteristicError,
    NonIsolatedSingularityError,
    NotABranchError,
    NotSingularError,
    ReducibleTangentConeError,
)
from germlab.localalg import milnor_number
from germlab.polynomials import VERTICAL, Slope, parse_polynomial
from germlab.resolution import (
    PuiseuxCharacteristic,
    characteristic_from_sequence,
    delta_from_sequence,
    expected_sequence_from_characteristic,
    mu_topological,
    resolve_branch,
    strict_transform_once,
    tangent_data,
)


# -- tangent cones -------------------------------------------------------


def test_tangent_data_horizontal():
    assert tangent_data(parse_polynomial("y^2 - x^3")) == Slope(Fraction(0))


def test_tangent_data_vertical():
    assert tangent_data(parse_polynomial("x^3 + y^5")) == VERTICAL


def test_tangent_data_slanted():
    f = parse_polynomial("x^3 + y^7 + x*y^5").substitute_linear(((1, -2), (-2, 1)))
    assert tangent_data(f) == Slope(Fraction(1, 2))


def test_tangent_data_multiple_directions():
    assert tangent_data(parse_polynomial("x*y")) is None
    assert tangent_data(parse_polynomial("x^2 - y^2")) is None
    # tangent cone y^2 hides the split until the strict transform
    f = parse_polynomial("y^2 - x^2*y")
    assert tangent_data(f) == Slope(Fraction(0))
    g = strict_transform_once(f).strict_transform
    assert tangent_data(g) is None


# -- single blowups ------------------------------------------------------


def test_strict_transform_cusp():
    step = strict_transform_once(parse_polynomial("y^2 - x^3"))
    assert step.multiplicity_before == 2
    assert step.chart == "x"
    assert step.strict_transform == parse_polynomial("y^2 - x")


def test_strict_transform_vertical_swaps():
    step = strict_transform_once(parse_polynomial("x^3 + y^5"))
    assert step.multiplicity_before == 3
    assert step.chart == "y"
    assert step.direction == VERTICAL
    assert step.strict_transform == parse_polynomial("x^2 + y^3")


def test_strict_transform_higher_cusp():
    step = strict_transform_once(parse_polynomial("y^2 - x^5"))
    assert step.multiplicity_before == 2
    assert step.strict_transform == parse_polynomial("y^2 - x^3")


def test_strict_transform_shears_first():
    # tangent cone (y - x)^2: shear it onto the x-axis, then blow up
    f = parse_polynomial("y^2 - 2*x*y + x^2 + x^5")
    step = strict_transform_once(f)
    assert step.direction == Slope(Fraction(1))
    assert step.multiplicity_before == 2
    assert step.strict_transform.order() >= 1


def test_strict_transform_not_divisible_by_exceptional():
    for src in ["y^2 - x^3", "x^3 + y^5", "y^2 - x^5", "x^3 + y^7 + x*y^5"]:
        step = strict_transform_once(parse_polynomial(src))
        assert any(i == 0 for (i, _) in step.strict_transform.terms)


def test_strict_transform_rejects_smooth():
    with pytest.raises(NotSingularError):
        strict_transform_once(parse_polynomial("x + y^2"))


def test_strict_transform_rejects_split_cone():
    with pytest.raises(ReducibleTangentConeError):
        strict_transform_once(parse_polynomial("x*y"))


def test_mu_drop_law_single_step():
    for src in ["y^2 - x^3", "x^3 + y^5", "y^2 - x^5", "x^4 + y^7"]:
        f = parse_polynomial(src)
        step = strict_transform_once(f)
        m = step.multiplicity_before
        drop = milnor_number(f) - milnor_number(step.strict_transform)
        assert drop == m * (m - 1)


# -- full resolutions ----------------------------------------------------


def test_multiplicity_sequences():
    assert resolve_branch(parse_polynomial("y^2 - x^3")).multiplicity_sequence == (2,)
    assert resolve_branch(parse_polynomial("x^3 + y^5")).multiplicity_sequence == (3, 2)
    assert resolve_branch(parse_polynomial("y^2 - x^5")).multiplicity_sequence == (2, 2)
    assert resolve_branch(parse_polynomial("x^3 + y^7 + x*y^5")).multiplicity_sequence == (3, 3)
    assert resolve_branch(
        parse_polynomial("y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7")
    ).multiplicity_sequence == (4, 2, 2)


def test_resolution_ends_smooth():
    seq = resolve_branch(parse_polynomial("x^3 + y^5"))
    assert seq.final_smooth.order() == 1
    assert len(seq.steps) == len(seq.multiplicity_sequence)
    assert seq.steps[-1].strict_transform == seq.final_smooth


def test_smooth_input_resolves_trivially():
    f = parse_polynomial("x + y^3")
    seq = resolve_branch(f)
    assert seq.steps == ()
    assert seq.multiplicity_sequence == ()
    assert seq.final_smooth == f


def test_resolve_rejects_reducible():
    with pytest.raises(NotABranchError) as info:
        resolve_branch(parse_polynomial("x*y"))
    assert info.value.stage == 0
    with pytest.raises(NotABranchError) as info:
        resolve_branch(parse_polynomial("y^2 - x^2*y"))
    assert info.value.stage == 1


def test_resolve_rejects_non_reduced():
    with pytest.raises(NonIsolatedSingularityError):
        resolve_branch(parse_polynomial("x^2"))
    with pytest.raises(NonIsolatedSingularityError):
        resolve_branch(parse_polynomial("y^2 - x^3") ** 2)


def test_delta_and_mu_topological():
    cusp = resolve_branch(parse_polynomial("y^2 - x^3"))
    assert delta_from_sequence(cusp) == 1
    assert mu_topological(cusp) == 2
    e8 = resolve_branch(parse_polynomial("x^3 + y^5"))
    assert delta_from_sequence(e8) == 4
    assert mu_topological(e8) == 8
    a4 = resolve_branch(parse_polynomial("y^2 - x^5"))
    assert delta_from_sequence(a4) == 2
    assert mu_topological(a4) == 4


def test_mu_topological_matches_milnor_number():
    for src in ["y^2 - x^3", "x^3 + y^5", "y^2 - x^7", "x^4 + y^7",
                "x^3 + y^7 + x*y^5", "y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"]:
        f = parse_polynomial(src)
        assert mu_topological(resolve_branch(f)) == milnor_number(f)


# -- Puiseux characteristics ---------------------------------------------


def test_characteristic_validation_accepts():
    PuiseuxCharacteristic(1, ())
    PuiseuxCharacteristic(2, (3,))
    PuiseuxCharacteristic(4, (6, 7))
    PuiseuxCharacteristic(6, (8, 9))
    assert PuiseuxCharacteristic(4, (6, 7)).gcd_sequence == (4, 2, 1)
    assert str(PuiseuxCharacteristic(3, (5,))) == "(3; 5)"


def test_characteristic_validation_rejects():
    with pytest.raises(InvalidCharacteristicError):
        PuiseuxCharacteristic(0, ())
    with pytest.raises(InvalidCharacteristicError):
        PuiseuxCharacteristic(1, (3,))
    with pytest.raises(InvalidCharacteristicError):
        PuiseuxCharacteristic(2, ())
    with pytest.raises(InvalidCharacteristicError):
        PuiseuxCharacteristic(3, (2,))  # below the multiplicity
    with pytest.raises(InvalidCharacteristicError):
        PuiseuxCharacteristic(2, (4,))  # on the lattice 2Z
    with pytest.raises(InvalidCharacteristicError):
        PuiseuxCharacteristic(4, (6,))  # gcd chain stops at 2
    with pytest.raises(InvalidCharacteristicError):
        PuiseuxCharacteristic(2, (3, 5))  # 5 does not refine the chain
    with pytest.raises(InvalidCharacteristicError):
        PuiseuxCharacteristic(4, (7, 6))  # not increasing


def test_expected_sequences():
    assert expected_sequence_from_characteristic(PuiseuxCharacteristic(2, (3,))) == [2]
    assert expected_sequence_from_characteristic(PuiseuxCharacteristic(3, (5,))) == [3, 2]
    assert expected_sequence_from_characteristic(PuiseuxCharacteristic(3, (4,))) == [3]
    assert expected_sequence_from_characteristic(PuiseuxCharacteristic(2, (5,))) == [2, 2]
    assert expected_sequence_from_characteristic(PuiseuxCharacteristic(4, (6, 7))) == [4, 2, 2]
    assert expected_sequence_from_characteristic(PuiseuxCharacteristic(6, (8, 9))) == [6, 2, 2, 2]


def test_characteristic_from_sequence_values():
    assert characteristic_from_sequence([2]) == PuiseuxCharacteristic(2, (3,))
    assert characteristic_from_sequence([3, 2]) == PuiseuxCharacteristic(3, (5,))
    assert characteristic_from_sequence([2, 2]) == PuiseuxCharacteristic(2, (5,))
    assert characteristic_from_sequence([3, 3, 3]) == PuiseuxCharacteristic(3, (10,))
    assert characteristic_from_sequence([4, 3]) == PuiseuxCharacteristic(4, (7,))
    assert characteristic_from_sequence([4, 2, 2]) == PuiseuxCharacteristic(4, (6, 7))
    assert characteristic_from_sequence([]) == PuiseuxCharacteristic(1, ())


def test_characteristic_from_resolution():
    seq = resolve_branch(parse_polynomial("y^2 - x^3"))
    assert characteristic_from_sequence(seq) == PuiseuxCharacteristic(2, (3,))
    seq = resolve_branch(parse_polynomial("y^4 - 2*x^3*y^2 - 4*x^5*y + x^6 - x^7"))
    assert characteristic_from_sequence(seq) == PuiseuxCharacteristic(4, (6, 7))


def test_characteristic_from_sequence_rejects():
    with pytest.raises(InconsistentSequenceError):
        characteristic_from_sequence([2, 3])  # multiplicities cannot increase here
    with pytest.raises(InconsistentSequenceError):
        characteristic_from_sequence([2, 2, 5])
    with pytest.raises(InconsistentSequenceError):
        characteristic_from_sequence([1, 2])
    with pytest.raises(InconsistentSequenceError):
        characteristic_from_sequence([3, 0])
    # the gcd run after the first drop is cut short: (4; 6, ...) needs [4, 2, 2]
    for seq in ([4, 2], [6, 3]):
        with pytest.raises(
            InconsistentSequenceError,
            match=re.escape(f"no branch has the multiplicity sequence {seq}"),
        ):
            characteristic_from_sequence(seq)


def _characteristics(m, top):
    """Every valid characteristic with multiplicity m and exponents <= top."""

    def extend(e, previous, betas):
        if e == 1:
            yield PuiseuxCharacteristic(m, betas)
            return
        for beta in range(previous + 1, top + 1):
            if gcd(e, beta) < e:
                yield from extend(gcd(e, beta), beta, betas + (beta,))

    yield from extend(m, m, ())


def test_characteristic_from_sequence_is_exactly_the_inverse():
    # a sequence with entries <= 9 starts at m <= 9, and the forward walk
    # puts beta_g <= sum of the entries + m + 1 <= 55 for length <= 5
    realizable = {}
    for m in range(1, 10):
        for char in _characteristics(m, 60):
            seq = tuple(expected_sequence_from_characteristic(char))
            if len(seq) <= 5:
                assert realizable.setdefault(seq, char) == char
    accepted = 0
    for length in range(6):
        for seq in product(range(2, 10), repeat=length):
            if seq in realizable:
                assert characteristic_from_sequence(seq) == realizable[seq]
                accepted += 1
            else:
                with pytest.raises(InconsistentSequenceError):
                    characteristic_from_sequence(seq)
    assert accepted == len(realizable) == 138


def test_round_trip_small_enumeration():
    for m in range(2, 9):
        for b1 in range(m + 1, 40):
            if b1 % m == 0:
                continue
            if gcd(m, b1) == 1:
                char = PuiseuxCharacteristic(m, (b1,))
                seq = expected_sequence_from_characteristic(char)
                assert characteristic_from_sequence(seq) == char
            else:
                e1 = gcd(m, b1)
                for b2 in range(b1 + 1, 46):
                    if gcd(e1, b2) != 1:
                        continue
                    char = PuiseuxCharacteristic(m, (b1, b2))
                    seq = expected_sequence_from_characteristic(char)
                    assert characteristic_from_sequence(seq) == char


def test_round_trip_against_resolutions():
    rng = random.Random(555)
    pairs = [(a, b) for a in range(2, 7) for b in range(a + 1, 12) if gcd(a, b) == 1]
    for a, b in rng.sample(pairs, 8):
        f = parse_polynomial(f"x^{a} + y^{b}")
        seq = resolve_branch(f)
        char = characteristic_from_sequence(seq)
        assert char == PuiseuxCharacteristic(a, (b,))
        assert expected_sequence_from_characteristic(char) == list(
            seq.multiplicity_sequence
        )
        assert 2 * delta_from_sequence(seq) == (a - 1) * (b - 1)
