"""Property tests of the coefficient field Q(b): the field axioms, the
uniqueness of the canonical form, the JSON round trip, str and to_json
against a renderer of the monic form over Q in Fractions, a differential
check of +, * and / against sympy and against specialization, and the gcd
over Z against sympy and against Euclid over Q."""

import json
import math
from fractions import Fraction

import pytest
from criteria_helpers import assert_canonical, euclid_gcd, primitive, rational_divmod

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csjack.errors import PoleAtValue  # noqa: E402
from csjack.fieldring import (  # noqa: E402
    ONE,
    ZERO,
    FieldElement,
    _canonical,
    pack,
    pack_width,
    poly,
    poly_add,
    poly_exquo,
    poly_gcd,
    poly_mul,
    unpack,
)

COEFF = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
BETA_POLY = st.lists(COEFF, max_size=3)
NONZERO_POLY = BETA_POLY.filter(any)
FIELD = st.builds(FieldElement, BETA_POLY, NONZERO_POLY)
NONZERO = st.builds(FieldElement, NONZERO_POLY, NONZERO_POLY)
RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
SETTINGS = settings(max_examples=80, deadline=None)


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
@given(FIELD, FIELD, NONZERO, NONZERO_POLY, st.integers(-9, 9).filter(bool))
def test_canonical_form_is_unique(a, b, c, k, scale):
    for value in (a, b, c, a + b, a - b, a * b, a / c, c.inverse()):
        assert_canonical(value)
    # the same quotient written with a common factor in num and den: a
    # polynomial, an integer of either sign, or both
    assert_same(FieldElement(poly_mul(a.num, k), poly_mul(a.den, k)), a)
    assert_same(FieldElement([scale * x for x in a.num], [scale * x for x in a.den]), a)
    assert_same(FieldElement(poly_mul(a.num, (scale, *k)), poly_mul(a.den, (scale, *k))), a)
    assert_same((a + b) - b, a)
    assert_same((a * c) / c, a)


@SETTINGS
@given(FIELD)
def test_json_round_trip(a):
    assert_same(FieldElement.from_json(json.loads(json.dumps(a.to_json()))), a)


@SETTINGS
@given(FIELD, FIELD, RATIONAL)
def test_arithmetic_commutes_with_specialize(a, b, x):
    try:
        va, vb = a.specialize(x).as_fraction(), b.specialize(x).as_fraction()
    except PoleAtValue:
        assume(False)
    assert (a + b).specialize(x).as_fraction() == va + vb
    assert (a - b).specialize(x).as_fraction() == va - vb
    assert (a * b).specialize(x).as_fraction() == va * vb
    if vb:
        assert (a / b).specialize(x).as_fraction() == va / vb
    for value in (a, b, a + b, a * b):
        at_x = value.specialize(x)
        assert_canonical(at_x)
        assert at_x.is_constant() and str(at_x) == str(at_x.as_fraction())
        assert "." not in str(value)


def fraction_horner(a, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


# int and Fraction coefficients side by side, as canonical elements hold them
MIXED_POLY = st.lists(st.one_of(st.integers(-9, 9), COEFF), max_size=4)


@SETTINGS
@given(MIXED_POLY, MIXED_POLY.filter(any), RATIONAL, st.booleans())
def test_specialize_is_fraction_horner(num, den, x, pole):
    """The homogeneous integer evaluation against Horner in Fractions,
    poles included: with pole set, den gets the factor b - x, which only a
    matching factor of num cancels."""
    if pole:
        den = poly_mul(poly(den), poly((-x, 1)))
    a = FieldElement(num, den)
    d = fraction_horner(a.den, x)
    for value in (x, int(x)) if x.denominator == 1 else (x,):
        if d:
            got = a.specialize(value)
            expected = fraction_horner(a.num, x) / d
            assert got.is_constant() and got.as_fraction() == expected and str(got) == str(expected)
        else:
            with pytest.raises(PoleAtValue, match=f"^pole at coupling value {x}$"):
                a.specialize(value)


def to_sympy(sympy, b, a: FieldElement):
    def poly_expr(coeffs):
        return sum(sympy.Rational(c.numerator, c.denominator) * b**k for k, c in enumerate(coeffs))

    return poly_expr(a.num) / poly_expr(a.den)


def from_sympy(sympy, b, expr) -> tuple:
    """(num, den) of sympy's cancelled form, ascending, scaled to integer
    coefficients with joint content 1 and lc(den) > 0."""
    num, den = (
        [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(part, b).all_coeffs())]
        for part in sympy.fraction(sympy.cancel(expr))
    )
    while num and num[-1] == 0:
        num.pop()
    return primitive(num, den) if num else ((), (1,))


@SETTINGS
@given(FIELD, NONZERO)
def test_arithmetic_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    sym_b = sympy.Symbol("b")
    x, y = to_sympy(sympy, sym_b, a), to_sympy(sympy, sym_b, b)
    for ours, theirs in ((a + b, x + y), (a * b, x * y), (a / b, x / y)):
        assert (ours.num, ours.den) == from_sympy(sympy, sym_b, theirs)


Z_BETA = st.builds(FieldElement, st.lists(st.integers(-(2**70), 2**70), max_size=5))


@SETTINGS
@given(Z_BETA, st.integers(0, 40))
def test_pack_then_unpack_is_the_identity(a, spare):
    bound = max(map(abs, a.num), default=0)
    ndigits = max(1, len(a.num))
    # any width above the bound holds every coefficient as a balanced digit
    width = bound.bit_length() + 1 + spare
    assert unpack(pack(a, width), width, ndigits) == a
    assert unpack(pack(a, pack_width(bound)), pack_width(bound), ndigits) == a
    # a digit too wide for the width raises, at every width up to the bound
    for narrow in range(1, bound.bit_length() + 1):
        with pytest.raises(OverflowError):
            pack(a, narrow)


# int and Fraction coefficients; products with a planted factor also leave
# integral Fractions such as Fraction(2, 1)
MIXED_POLY = st.lists(st.one_of(st.integers(-9, 9), COEFF), max_size=4).map(
    lambda cs: tuple(cs[: max((i + 1 for i, c in enumerate(cs) if c), default=0)])
)


def sympy_gcd(sympy, a: tuple, b: tuple) -> tuple:
    """sympy's gcd over QQ made monic, ascending."""
    x = sympy.Symbol("b")
    pa, pb = (
        sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)] or [0], x, domain="QQ")
        for p in (a, b)
    )
    g = pa.gcd(pb)
    if g.is_zero:
        return ()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs()))


def integral(a: tuple) -> tuple:
    """a times the least common denominator of its coefficients."""
    m = math.lcm(*(Fraction(c).denominator for c in a))
    return tuple(int(c * m) for c in a)


@SETTINGS
@given(
    MIXED_POLY, MIXED_POLY, MIXED_POLY.filter(any), st.one_of(st.integers(1, 9), COEFF.filter(bool)), st.integers(-6, 6)
)
def test_gcd_over_z(x, y, planted, constant, scale):
    sympy = pytest.importorskip("sympy")
    a, b = poly_mul(x, planted), poly_mul(y, planted)
    b = tuple(scale * c for c in b) if scale else b
    for u, v in ((a, b), (x, y), (b, a), (a, ()), ((), b), ((), ()), ((constant,), a), (b, (constant,))):
        u, v = integral(u), integral(v)
        g = poly_gcd(u, v)
        assert all(type(c) is int for c in g)
        if not (u or v):
            assert g == () == euclid_gcd(u, v) == sympy_gcd(sympy, u, v)
            continue
        # the primitive gcd, lc > 0, of the monic gcd over Q
        assert (g,) == primitive(euclid_gcd(u, v)) == primitive(sympy_gcd(sympy, u, v))
        assert g[-1] > 0 and math.gcd(*g) == 1
        # a primitive divisor divides exactly in Z[b] (Gauss's lemma)
        qu, qv = poly_exquo(u, g), poly_exquo(v, g)
        assert poly_mul(qu, g) == u and poly_mul(qv, g) == v
        assert euclid_gcd(qu, qv) in ((1,), ())
    if a and b:
        assert rational_divmod(poly_gcd(integral(a), integral(b)), poly_gcd(integral(planted), ()))[1] == ()


def _factor_product(multiplicities) -> tuple:
    """prod_k (b + k)^m_k over the shared pool k = 0..3."""
    out = (1,)
    for k, m in enumerate(multiplicities):
        for _ in range(m):
            out = poly_mul(out, (k, 1))
    return out


# denominators over a shared pool of factors (b + k), k in 0..3, each of
# multiplicity at most 2, so that sums meet equal, coprime and partly shared
# denominators and repeated factors; numerators may share factors too
POOLED = st.builds(
    lambda num, mults, planted: FieldElement(poly_mul(num, _factor_product(planted)), _factor_product(mults)),
    NONZERO_POLY | st.just(()),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    st.lists(st.integers(0, 1), min_size=4, max_size=4),
)


def cross_multiply_add(a: FieldElement, b: FieldElement) -> tuple:
    """(num, den) of a + b by cross-multiplication and one full reduction."""
    if a.den == (1,) and b.den == (1,):
        return poly_add(a.num, b.num), (1,)
    num = poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return _canonical(num, poly_mul(a.den, b.den))


@SETTINGS
@given(POOLED, POOLED)
def test_pooled_sums_are_canonical(a, b):
    for value in (a + b, a - b, b + a, a + a):
        assert_canonical(value)


@SETTINGS
@given(POOLED, POOLED)
def test_pooled_sums_match_cross_multiplication(a, b):
    for x, y in ((a, b), (a, -b), (b, a), (a, a), (a, -a)):
        assert ((x + y).num, (x + y).den) == cross_multiply_add(x, y)


@SETTINGS
@given(POOLED, POOLED)
def test_pooled_sums_match_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    sym_b = sympy.Symbol("b")
    x, y = to_sympy(sympy, sym_b, a), to_sympy(sympy, sym_b, b)
    for ours, theirs in ((a + b, x + y), (a - b, x - y)):
        assert (ours.num, ours.den) == from_sympy(sympy, sym_b, theirs)


def reference_poly_str(coeffs) -> str:
    """The printer of the monic form over Q: each coefficient an int or a
    Fraction, printed by str."""
    pieces = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if power == 0 else f"{'' if mag == 1 else f'{mag}*'}b" + (f"^{power}" if power > 1 else "")
        pieces.append((body if c > 0 else f"-{body}") if not pieces else (f"+ {body}" if c > 0 else f"- {body}"))
    return " ".join(pieces) or "0"


def reference_render(a: FieldElement) -> tuple[str, dict]:
    """str and to_json of a, rendered from its monic form over Q in
    Fractions: num/den divided by lc(den), shown with cleared denominators
    when den is not constant."""
    lc = a.den[-1]
    num, den = [Fraction(c, lc) for c in a.num], [Fraction(c, lc) for c in a.den]
    as_json = {"num": [str(c) for c in num], "den": [str(c) for c in den]}
    if den == [1]:
        return reference_poly_str(num), as_json
    m = math.lcm(*(c.denominator for c in num + den))
    n, d = [int(c * m) for c in num], [int(c * m) for c in den]
    text = reference_poly_str(n)
    if len(n) > 1 or (n and n[0] < 0):
        text = f"({text})"
    return f"{text}/({reference_poly_str(d)})", as_json


WIDE_COEFF = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))
WIDE_POLY = st.lists(st.one_of(st.integers(-30, 30), WIDE_COEFF), max_size=5)


@SETTINGS
@given(WIDE_POLY, WIDE_POLY.filter(any), FIELD, NONZERO)
def test_str_and_json_print_the_monic_form(num, den, a, b):
    for value in (FieldElement(num, den), FieldElement(num), a, b, a + b, a * b, a / b, -a, b.inverse()):
        assert (str(value), value.to_json()) == reference_render(value)
