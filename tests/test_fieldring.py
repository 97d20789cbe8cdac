"""Exact arithmetic in Q(b).  Everything here must be structural equality,
never floating point."""

from fractions import Fraction

import pytest
from criteria_helpers import assert_canonical, is_integer_in_inverse_beta

from csjack import fieldring
from csjack.errors import DivisionByZero, NonzeroRemainder, PoleAtValue
from csjack.fieldring import (
    BETA,
    ONE,
    ZERO,
    FieldElement,
    field,
    pochhammer,
    poly,
    poly_exquo,
    poly_gcd,
    poly_mul,
)


def test_poly_helpers():
    assert poly([1, 0, 0]) == (Fraction(1),)
    assert poly([]) == ()
    assert poly(["1/2", 3]) == (Fraction(1, 2), Fraction(3))
    a = poly([1, 1])
    assert poly_mul(a, a) == poly([1, 2, 1])
    assert poly_exquo(poly([1, 2, 1]), a) == a
    with pytest.raises(NonzeroRemainder):
        poly_exquo(poly([1, 0, 1]), a)
    assert poly_gcd(poly([1, 2, 1]), poly([1, 1])) == poly([1, 1])


def test_constructor_canonicalizes():
    assert FieldElement((0, 0)) == ZERO
    assert (ZERO.num, ZERO.den) == ((), (1,))
    assert FieldElement([2, 2], [2]) == BETA + ONE
    # gcd cancellation, joint content 1 and lc(den) > 0
    x = FieldElement([0, 1, 1], [0, 2])  # b(b+1) / 2b
    assert x == (BETA + ONE) / 2
    assert (x.num, x.den) == ((1, 1), (2,))
    y = FieldElement([0, -6], [-4, -2])  # -6b / -(2b + 4)
    assert (y.num, y.den) == ((0, 3), (2, 1))
    # one representation and one hash under scaling by +-k and by a polynomial
    for value in (x, y, BETA, FieldElement([3], [0, 0, 5]), FieldElement(["1/2", "-2/3"], [5, "1/7"])):
        assert_canonical(value)
        for factor in ([2], [-3], [-1], [0, 7], [1, 1], [-2, 0, 5], ["2/3"], ["-1/2", 1]):
            scaled = FieldElement(poly_mul(value.num, poly(factor)), poly_mul(value.den, poly(factor)))
            assert (scaled.num, scaled.den) == (value.num, value.den)
            assert scaled == value and hash(scaled) == hash(value)
    with pytest.raises(DivisionByZero):
        FieldElement([1], [])


def test_arithmetic():
    b = BETA
    assert b + 1 == FieldElement([1, 1])
    assert 1 - b == FieldElement([1, -1])
    assert (b + 1) * (b - 1) == b * b - 1
    assert b * Fraction(1, 2) == FieldElement([0, "1/2"])
    assert (b**3 + b) / b == b**2 + 1
    assert b**0 == ONE
    assert (b + 1) ** 2 == b * b + 2 * b + 1
    x = (b + 2) / (b + 1)
    assert x * (b + 1) == b + 2
    assert x - x == ZERO
    assert x + (-x) == ZERO
    assert x.inverse() * x == ONE
    assert ONE / x == x.inverse()
    with pytest.raises(DivisionByZero):
        x / ZERO
    with pytest.raises(DivisionByZero):
        ZERO.inverse()


def test_negative_beta_power():
    inv = FieldElement.beta(-1)
    assert inv * BETA == ONE
    assert FieldElement.beta(-2) == inv * inv


def test_equality_and_hash():
    a = (BETA + 1) / (BETA * 2 + 2)
    assert a == field(Fraction(1, 2))
    assert hash(a) == hash(field(Fraction(1, 2)))
    assert bool(ZERO) is False
    assert bool(BETA) is True
    seen = {BETA: "x"}
    assert seen[FieldElement([0, 1])] == "x"


def test_is_constant():
    assert field(3).is_constant()
    assert not BETA.is_constant()
    assert field(3).as_fraction() == 3
    assert ((BETA + 2) - BETA).as_fraction() == 2


def test_specialize():
    x = (BETA**2 + 1) / (BETA - 1)
    assert x.specialize(2) == 5
    assert x.specialize(Fraction(1, 2)) == Fraction(-5, 2)
    with pytest.raises(PoleAtValue):
        x.specialize(1)
    with pytest.raises(PoleAtValue):
        BETA.as_fraction()


def test_pochhammer():
    assert pochhammer(BETA, 0) == ONE
    assert pochhammer(BETA, 1) == BETA
    assert pochhammer(BETA, 3) == BETA * (BETA + 1) * (BETA + 2)
    assert pochhammer(2, 3) == field(24)


def test_json_round_trip():
    x = (BETA**2 + Fraction(1, 3)) / (BETA + 5)
    obj = x.to_json()
    assert obj["num"] and obj["den"]
    assert FieldElement.from_json(obj) == x
    assert FieldElement.from_json(ZERO.to_json()) == ZERO


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(BETA) == "b"
    assert str(BETA**2 * 2 + 1) == "2*b^2 + 1"
    assert str(field(Fraction(3, 2))) == "3/2"
    # ratios are displayed with cleared integer coefficients
    assert str((BETA * 6) / (BETA * 2 + 1)) == "(6*b)/(2*b + 1)"
    assert str(ONE / (BETA + 1)) == "1/(b + 1)"


def test_integer_in_inverse_beta():
    assert is_integer_in_inverse_beta(field(7))
    assert is_integer_in_inverse_beta(ONE + FieldElement.beta(-1))
    assert is_integer_in_inverse_beta((BETA * 3 + 2) / BETA)
    assert not is_integer_in_inverse_beta(BETA)
    assert not is_integer_in_inverse_beta(field(Fraction(1, 2)))
    assert not is_integer_in_inverse_beta(ONE / (BETA + 1))
    assert not is_integer_in_inverse_beta((BETA**2 + 1) / BETA)


def test_integral_values_are_stored_as_int():
    built = [field(v) for v in (2, Fraction(2))]
    built += [FieldElement([v]) for v in (2, Fraction(2), "2", "4/2")]
    built += [FieldElement([v], [k]) for v, k in ((4, 2), (-6, -3), (Fraction(8, 3), Fraction(4, 3)))]
    for x in built:
        assert x.num == (2,) and type(x.num[0]) is int
        assert x.den == (1,) and type(x.den[0]) is int
        assert x == built[0] and hash(x) == hash(built[0])
        assert str(x) == "2" and x.to_json() == {"num": ["2"], "den": ["1"]}
    assert all(type(c) is int for c in poly([3, "6/3", Fraction(-4)]))
    assert all(type(c) is int for c in (BETA**3).num + FieldElement.beta(-2).den)
    # cancelling a content or a polynomial factor keeps every coefficient an int
    for x in (FieldElement([0, 2], [2]), FieldElement([2], [2, 4]).inverse(), FieldElement([6], [-4, 4]).inverse()):
        assert_canonical(x)
    assert FieldElement([0, 2], [2]) == BETA and FieldElement([2], [2, 4]).inverse() == BETA * 2 + 1
    assert (FieldElement([6], [-4, 4]).inverse().num, FieldElement([6], [-4, 4]).inverse().den) == ((-2, 2), (3,))
    g = poly_gcd((2, 2), (4, 4))
    assert g == (1, 1) and all(type(c) is int for c in g)
    # the gcd is primitive with a positive leading coefficient, never monic over Q
    assert poly_gcd((6, -4), (-3, 2)) == (-3, 2) and poly_gcd((0, 4, 6), (0, -2, -3)) == (0, 2, 3)


def test_non_integral_coefficients_stay_fractions():
    # a fraction held exactly as num/den in ints, not as a Fraction
    x = field(Fraction(3, 2))
    assert x == FieldElement(["3/2"])
    assert (x.num, x.den) == ((3,), (2,)) and all(type(c) is int for c in x.num + x.den)
    assert FieldElement([Fraction(-3, 2)], [Fraction(-1, 3)]) == FieldElement([9], [2])
    assert str(x) == "3/2" and x.to_json() == {"num": ["3/2"], "den": ["1"]}
    assert type(x.as_fraction()) is Fraction and x.as_fraction() == Fraction(3, 2)
    assert type(field(2).as_fraction()) is Fraction and field(2).as_fraction() == 2
    assert type(ZERO.as_fraction()) is Fraction and ZERO.as_fraction() == 0
    # a specialized value is a constant that prints as its Fraction does
    for value, at, expected in (
        (field(2), 3, Fraction(2)),
        (BETA * 2 + 1, 1, Fraction(3)),
        ((BETA**2 + 1) / (BETA - 1), Fraction(1, 2), Fraction(-5, 2)),
        ((BETA**2 + 1) / (BETA * 4 - 1), field(Fraction(-1, 3)), Fraction(-10, 21)),
        (BETA / 3, 0, Fraction(0)),
    ):
        got = value.specialize(at)
        assert_canonical(got)
        assert got.is_constant() and got.as_fraction() == expected and str(got) == str(expected)
    with pytest.raises(TypeError):
        field(2).specialize(BETA)


def test_integer_arithmetic_stays_in_z():
    a, b = BETA * 3 + 2, BETA**2 - BETA * 5 + 7
    c = (BETA * 2 - 3) / (BETA * 4 + 6)
    for x in (a + b, a - b, a * b, (a * b) / b, -a, a / b, c + a / b, c * c, c - c / 2, c.inverse(), (-c) ** -3):
        assert_canonical(x)
    # exact division in Z[b], by monic and by non-monic primitive divisors
    for q, d in (((7, -3, 0, 2), (-1, 1)), ((1, 0, 1), (0, 2)), ((-5, 4), (3, -2, 6))):
        assert poly_exquo(poly_mul(q, d), d) == q
    # a remainder, or a leading coefficient that does not divide, raises
    for a_, d in (((7, -3, 0, 2), (-1, 1)), ((1, 0, 1), (0, 2)), ((1, 3), (1, 2))):
        with pytest.raises(NonzeroRemainder):
            poly_exquo(a_, d)


def test_product_skips_gcds_that_cannot_reduce(monkeypatch):
    unit, ratio = BETA + 2, (BETA + 3) / (BETA + 1)
    inverse_ratio = (BETA + 1) / (BETA + 3)
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    def gcds_of(x, y):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(fieldring, "poly_gcd", counted)
            product = x * y
        return product, list(calls)

    # one gcd: n1 = b + 2 against d2 = b + 1; d1 = 1 cannot share a factor
    product, seen = gcds_of(unit, ratio)
    assert product == (BETA**2 + BETA * 5 + 6) / (BETA + 1)
    assert seen == [(poly([2, 1]), poly([1, 1]))]
    # a constant against a quotient needs none
    product, seen = gcds_of(field(3), ratio)
    assert product == (BETA * 3 + 9) / (BETA + 1) and seen == []
    product, seen = gcds_of(ratio, Fraction(1, 2))
    assert product == (BETA + 3) / (BETA * 2 + 2) and seen == []
    # both cross pairs non-constant: both gcds run, and they cancel
    product, seen = gcds_of(inverse_ratio, ratio)
    assert product == ONE and len(seen) == 2


def test_pack_rejects_a_denominator():
    assert fieldring.pack(FieldElement([3, -1, 2]), 4) == 3 - 16 + 2 * 256
    assert fieldring.pack(ZERO, 4) == 0
    not_integral = (FieldElement([1], [0, 1]), FieldElement([Fraction(1, 2)]), FieldElement([1, Fraction(3, 2)]))
    for a in not_integral:
        with pytest.raises(ValueError):
            fieldring.pack(a, 8)
