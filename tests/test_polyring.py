import copy
import functools
from fractions import Fraction

import pytest
from criteria_helpers import constant_term, divided_difference, partial_derivative, specialize_beta

from csjack.errors import (
    ContextMismatch,
    IndexOutOfRange,
    NonzeroRemainder,
)
from csjack.fieldring import BETA, ONE, ZERO, FieldElement
from csjack.operators import apply_dunkl
from csjack.polyring import LaurentPoly, VarContext, divide_by_vardiff

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test of LaurentPoly.sum is skipped
    given = None

CTX2 = VarContext(2)
CTX3 = VarContext(3)


def z(ctx, i):
    return LaurentPoly.variable(ctx, i)


def test_context():
    assert VarContext(3).nvars == 3
    with pytest.raises(IndexOutOfRange):
        VarContext(0)


def test_context_is_an_immutable_value():
    ctx = VarContext(3)
    assert ctx == VarContext(3) and ctx != VarContext(4) and ctx != 3
    assert hash(ctx) == hash(VarContext(3))
    assert repr(ctx) == "VarContext(nvars=3)"
    assert copy.deepcopy(ctx) == ctx
    with pytest.raises(AttributeError):
        ctx.nvars = 4
    with pytest.raises(AttributeError):
        del ctx.nvars
    with pytest.raises(AttributeError):
        ctx.extra = 1
    assert ctx.nvars == 3

    @functools.cache
    def width(c):
        return object()

    assert width(VarContext(2)) is width(VarContext(2)) is not width(VarContext(3))


def test_constructors():
    p = LaurentPoly.monomial(CTX2, (2, 1), 3)
    assert p.coefficient((2, 1)) == FieldElement([3])
    assert p.coefficient((1, 2)) == FieldElement([0])
    assert constant_term(LaurentPoly.one(CTX2)) == ONE
    assert not LaurentPoly.zero(CTX2)
    assert constant_term(LaurentPoly.constant(CTX2, Fraction(1, 2))) == FieldElement(["1/2"])
    assert z(CTX2, 1) == LaurentPoly.monomial(CTX2, (1, 0))
    with pytest.raises(IndexOutOfRange):
        LaurentPoly.variable(CTX2, 3)
    # the shortcut constructors check what LaurentPoly(...) checks
    for exps in ((1, 0, 0), (1,)):
        with pytest.raises(ContextMismatch):
            LaurentPoly(CTX2, {exps: 1})
        with pytest.raises(ContextMismatch):
            LaurentPoly.monomial(CTX2, exps)
    for zero in (0, Fraction(0), FieldElement([0])):
        assert not LaurentPoly(CTX2, {(2, 1): zero})
        assert LaurentPoly.monomial(CTX2, (2, 1), zero) == LaurentPoly.constant(CTX2, zero) == LaurentPoly.zero(CTX2)
    assert LaurentPoly.monomial(CTX2, [2, 1], 3) == p
    with pytest.raises(TypeError):
        LaurentPoly.constant(CTX2, "1")


def test_zero_coefficients_dropped():
    p = LaurentPoly(CTX2, {(1, 0): ONE, (0, 1): FieldElement([0])})
    assert len(p.terms) == 1
    q = z(CTX2, 1) - z(CTX2, 1)
    assert not q
    assert q == LaurentPoly.zero(CTX2)


def test_arithmetic():
    z1, z2 = z(CTX2, 1), z(CTX2, 2)
    p = (z1 + z2) ** 2
    assert p == z1 * z1 + z1 * z2.scale(2) + z2 * z2
    assert p.coefficient((1, 1)) == FieldElement([2])
    assert (p - p) == LaurentPoly.zero(CTX2)
    assert z1 * 0 == LaurentPoly.zero(CTX2)
    assert (z1 + 1) * (z1 - 1) == z1 * z1 - 1
    assert z1.scale(BETA).coefficient((1, 0)) == BETA
    with pytest.raises(ContextMismatch):
        z1 + z(CTX3, 1)


def test_sum_edge_cases():
    z1, z2 = z(CTX2, 1), z(CTX2, 2)
    assert LaurentPoly.sum(CTX2, []) == LaurentPoly.zero(CTX2)
    assert LaurentPoly.sum(CTX2, iter(())).terms == {}
    # cancelled terms are dropped, never stored with a zero coefficient
    total = LaurentPoly.sum(CTX2, [z1 + z2, -z1 + z2, z1.scale(BETA), -z1.scale(BETA)])
    assert total.terms == {(0, 1): FieldElement([2])}
    assert LaurentPoly.sum(CTX2, [z1, -z1]).terms == {}
    assert LaurentPoly.sum(CTX2, [z1, -z1, z2]) == z2
    # the addends are left as they were
    first = z1 + z2
    LaurentPoly.sum(CTX2, [first, -z1])
    assert first == z1 + z2
    with pytest.raises(ContextMismatch):
        LaurentPoly.sum(CTX2, [z1, z(CTX3, 1)])
    with pytest.raises(ContextMismatch):
        LaurentPoly.sum(CTX3, [z1])


if given is not None:
    EXPONENTS = st.tuples(st.integers(-1, 2), st.integers(-1, 2))
    COEFFS = st.builds(
        FieldElement, st.lists(st.integers(-2, 2), max_size=2), st.sampled_from([[1], [1, 1]])
    )
    POLYS = st.dictionaries(EXPONENTS, COEFFS, max_size=5).map(lambda t: LaurentPoly(CTX2, t))

    @st.composite
    def addends(draw):
        """Random polynomials plus the negatives of some of them, shuffled,
        so that some addends cancel completely."""
        polys = draw(st.lists(POLYS, max_size=5))
        return draw(st.permutations(polys + [-p for p in polys if draw(st.booleans())]))

    @given(addends())
    @settings(max_examples=100, deadline=None)
    def test_sum_matches_chained_add(polys):
        chained = LaurentPoly.zero(CTX2)
        for p in polys:
            chained = chained + p
        total = LaurentPoly.sum(CTX2, polys)
        assert total == chained
        # and the coefficient-wise sum, computed here
        expected = {}
        for p in polys:
            for e, c in p.terms.items():
                expected[e] = expected.get(e, ZERO) + c
        assert total.terms == {e: c for e, c in expected.items() if c}
else:

    def test_sum_matches_chained_add():
        pytest.skip("hypothesis is not installed")


def test_shape_queries():
    z1, z2 = z(CTX2, 1), z(CTX2, 2)
    p = z1**2 + z1 * z2
    assert p.is_homogeneous()
    assert p.total_degree() == 2
    assert not (p + z1).is_homogeneous()
    assert not p.is_symmetric()
    assert (z1 + z2).is_symmetric()
    assert ((z1 + z2) ** 3).is_symmetric()
    assert LaurentPoly.zero(CTX2).is_symmetric()
    assert not p.has_negative_exponents()
    assert LaurentPoly.monomial(CTX2, (-1, 0)).has_negative_exponents()


def test_is_symmetric_finds_every_mismatch():
    ctx = VarContext(3)
    z1, z2, z3 = (z(ctx, i) for i in (1, 2, 3))
    e1 = z1 + z2 + z3
    e2 = z1 * z2 + z1 * z3 + z2 * z3
    sym = e1**2 + e2.scale(BETA)
    assert sym.is_symmetric()
    # one coefficient of an orbit differs
    assert not (sym + z2 * z2).is_symmetric()
    assert not (sym + z1 * z3.scale(BETA)).is_symmetric()
    # one orbit member is missing
    assert not (e2 - z2 * z3).is_symmetric()
    assert not LaurentPoly(ctx, {(2, 1, 0): 1, (0, 1, 2): 1, (1, 2, 0): 1}).is_symmetric()


def test_is_symmetric_edge_cases():
    ctx = VarContext(3)
    assert LaurentPoly.zero(ctx).is_symmetric()
    assert LaurentPoly.one(ctx).is_symmetric()
    # Laurent input: the orbit of z1/z2 under S_3
    orbit = [(1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1), (0, -1, 1)]
    laurent = LaurentPoly(ctx, {e: 2 for e in orbit})
    assert laurent.is_symmetric()
    assert not LaurentPoly(ctx, {e: 2 for e in orbit[1:]}).is_symmetric()
    # one variable: every polynomial is symmetric
    ctx1 = VarContext(1)
    assert (z(ctx1, 1) ** 3 + LaurentPoly.monomial(ctx1, (-2,), 5)).is_symmetric()


def test_context_rejects_non_int():
    for nvars in (2.5, 2.0, True, "2"):
        with pytest.raises(TypeError, match="nvars: expected int"):
            VarContext(nvars)


def test_constructors_reject_non_int_exponents():
    for exps in ((1.5, 0), (True, 0), ("1", 0), (0, 2.0), (0, False)):
        with pytest.raises(TypeError, match="exponent: expected int"):
            LaurentPoly(CTX2, {exps: 1})
        with pytest.raises(TypeError, match="exponent: expected int"):
            LaurentPoly.monomial(CTX2, exps)
        with pytest.raises(TypeError, match="exponent: expected int"):
            LaurentPoly.monomial(CTX2, list(exps))


def test_swap_vars():
    z1, z2, z3 = (z(CTX3, i) for i in (1, 2, 3))
    p = z1**2 * z2 + z3
    assert p.swap_vars(1, 2) == z2**2 * z1 + z3
    assert p.swap_vars(1, 2).swap_vars(1, 2) == p


def test_shift_var():
    p = LaurentPoly.monomial(CTX2, (2, 1))
    assert p.shift_var(1) == LaurentPoly.monomial(CTX2, (3, 1))
    assert p.shift_var(2) == LaurentPoly.monomial(CTX2, (2, 2))


def test_derivatives():
    z1, z2 = z(CTX2, 1), z(CTX2, 2)
    p = z1**3 * z2
    assert partial_derivative(p, 1) == (z1**2 * z2).scale(3)
    assert partial_derivative(p, 2) == z1**3
    assert p.euler_derivative(1) == p.scale(3)
    assert p.euler_derivative(2) == p
    assert (p + z2).euler_derivative(2) == p + z2


def test_divide_by_vardiff():
    z1, z2, z3 = (z(CTX3, i) for i in (1, 2, 3))
    assert divide_by_vardiff(z1**2 - z2**2, 1, 2) == z1 + z2
    assert divide_by_vardiff(z1**3 - z2**3, 1, 2) == z1**2 + z1 * z2 + z2**2
    assert divide_by_vardiff(LaurentPoly.zero(CTX3), 1, 2) == LaurentPoly.zero(CTX3)
    # symmetric factor along for the ride
    p = (z1 - z2) * (z3 + 2)
    assert divide_by_vardiff(p, 1, 2) == z3 + 2
    with pytest.raises(NonzeroRemainder):
        divide_by_vardiff(z1**2 + z2**2, 1, 2)
    with pytest.raises(NonzeroRemainder):
        divide_by_vardiff(z1, 1, 2)
    # Laurent input: negative exponents in the dividend and the quotient
    inv1, inv2, inv_z1_sq = (
        LaurentPoly.monomial(CTX3, e) for e in ((-1, 0, 0), (0, -1, 0), (-2, 0, 0))
    )
    assert divide_by_vardiff(inv1 - inv2, 1, 2) == -LaurentPoly.monomial(CTX3, (-1, -1, 0))
    q = z3 * inv_z1_sq + inv2
    assert divide_by_vardiff((z1 - z2) * q, 1, 2) == q
    with pytest.raises(NonzeroRemainder):
        divide_by_vardiff(inv1 + inv2, 1, 2)


def test_divided_difference():
    """Worked (p - K p)/(z1 - z2), and the Dunkl operator that takes it in
    closed form: the derivative plus b times the same quotient."""
    z1, z2 = z(CTX2, 1), z(CTX2, 2)
    zero = LaurentPoly.zero(CTX2)
    for p, quotient in ((z1**2, z1 + z2), (z1 * z2, zero), (z1 + z2, zero)):
        assert divided_difference(p, 1, 2) == quotient
        assert apply_dunkl(1, p) == partial_derivative(p, 1) + quotient.scale(BETA)


def test_bar_involution():
    p = LaurentPoly.monomial(CTX2, (2, 1), BETA) + 1
    q = p.bar_involution()
    assert q.coefficient((-2, -1)) == BETA
    assert constant_term(q) == ONE
    assert q.bar_involution() == p


def test_specialize_beta():
    p = LaurentPoly.monomial(CTX2, (1, 0), BETA + 1) + LaurentPoly.constant(CTX2, 2)
    q = specialize_beta(p, 3)
    assert q.coefficient((1, 0)) == FieldElement([4])
    assert constant_term(q) == FieldElement([2])


def test_sorted_terms_desc_lex():
    z1, z2 = z(CTX2, 1), z(CTX2, 2)
    p = z2**2 + z1 * z2 + z1**2 + 1
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(2, 0), (1, 1), (0, 2), (0, 0)]


def test_json_round_trip():
    p = LaurentPoly.monomial(CTX3, (2, 0, -1), (BETA + 1) / 2) + 5
    obj = p.to_json()
    assert obj["nvars"] == 3
    assert LaurentPoly.from_json(obj) == p


def test_str():
    z1, z2 = z(CTX2, 1), z(CTX2, 2)
    assert str(LaurentPoly.zero(CTX2)) == "0"
    s = str(z1**2 + z2.scale(BETA))
    assert "z1^2" in s and "b" in s
