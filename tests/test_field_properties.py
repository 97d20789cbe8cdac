"""Property tests of the coefficient field Q(b): the field axioms, the
uniqueness of the canonical form, the JSON round trip, and a differential
check of +, * and / against sympy."""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csjack.fieldring import ONE, ZERO, FieldElement, poly_gcd, poly_mul  # noqa: E402

COEFF = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
BETA_POLY = st.lists(COEFF, max_size=3)
NONZERO_POLY = BETA_POLY.filter(any)
FIELD = st.builds(FieldElement, BETA_POLY, NONZERO_POLY)
NONZERO = st.builds(FieldElement, NONZERO_POLY, NONZERO_POLY)
SETTINGS = settings(max_examples=80, deadline=None)


def assert_canonical(a: FieldElement):
    assert not a.num or a.num[-1] != 0
    assert a.den and a.den[-1] == 1
    if a.num:
        assert poly_gcd(a.num, a.den) == (Fraction(1),)
    else:
        assert a.den == (Fraction(1),)


def assert_same(a: FieldElement, b: FieldElement):
    """Equal values share one representation, hence one hash."""
    assert (a.num, a.den) == (b.num, b.den)
    assert a == b and hash(a) == hash(b)


@SETTINGS
@given(FIELD, FIELD, FIELD)
def test_ring_axioms(a, b, c):
    assert_same((a + b) + c, a + (b + c))
    assert_same(a + b, b + a)
    assert_same((a * b) * c, a * (b * c))
    assert_same(a * b, b * a)
    assert_same(a * (b + c), a * b + a * c)
    assert_same(a + ZERO, a)
    assert_same(a * ONE, a)
    assert_same(a + (-a), ZERO)
    assert_same((a - b) + b, a)


@SETTINGS
@given(FIELD, NONZERO)
def test_division_axioms(a, b):
    assert_same(b * b.inverse(), ONE)
    assert_same((a / b) * b, a)
    assert_same(b.inverse().inverse(), b)


@SETTINGS
@given(FIELD, FIELD, NONZERO, NONZERO_POLY)
def test_canonical_form_is_unique(a, b, c, k):
    for value in (a + b, a - b, a * b, a / c, c.inverse()):
        assert_canonical(value)
    # the same quotient written with a common factor in num and den
    assert_same(FieldElement(poly_mul(a.num, k), poly_mul(a.den, k)), a)
    assert_same((a + b) - b, a)
    assert_same((a * c) / c, a)


@SETTINGS
@given(FIELD)
def test_json_round_trip(a):
    assert_same(FieldElement.from_json(json.loads(json.dumps(a.to_json()))), a)


def to_sympy(sympy, b, a: FieldElement):
    def poly_expr(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * b**k for k, c in enumerate(coeffs))

    return poly_expr(a.num) / poly_expr(a.den)


def from_sympy(sympy, b, expr) -> tuple:
    """(num, den) of sympy's cancelled form, den made monic, ascending."""
    num, den = (
        [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(part, b).all_coeffs())]
        for part in sympy.fraction(sympy.cancel(expr))
    )
    lc = den[-1]
    num = [c / lc for c in num]
    while num and num[-1] == 0:
        num.pop()
    return tuple(num), tuple(c / lc for c in den)


@SETTINGS
@given(FIELD, NONZERO)
def test_arithmetic_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    sym_b = sympy.Symbol("b")
    x, y = to_sympy(sympy, sym_b, a), to_sympy(sympy, sym_b, b)
    for ours, theirs in ((a + b, x + y), (a * b, x * y), (a / b, x / y)):
        assert (ours.num, ours.den) == from_sympy(sympy, sym_b, theirs)
