"""Hand-computed instances of every operator.  Small cases only; the
randomized identity suites live in suites.py and the acceptance tests."""

import pytest
from criteria_helpers import specialize_beta

from csjack.errors import (
    BadCardinality,
    EmptyIndexSet,
    IndexOutOfRange,
    LaurentInput,
    NotSymmetric,
)
from csjack.fieldring import BETA, FieldElement, ONE
from csjack.operators import (
    apply_B_plus,
    apply_D,
    apply_D_string,
    apply_dunkl,
    apply_H,
    apply_hatD,
    apply_hatH,
    apply_L,
    apply_N,
)
from csjack.partitions import Partition
from csjack.polyring import LaurentPoly, VarContext
from csjack.symbases import monomial_sym

CTX2 = VarContext(2)
CTX3 = VarContext(3)


def var(ctx, i):
    return LaurentPoly.variable(ctx, i)


def test_dunkl_basic():
    z1, z2 = var(CTX2, 1), var(CTX2, 2)
    assert apply_dunkl(1, z1) == LaurentPoly.constant(CTX2, 1) + LaurentPoly.constant(CTX2, 1).scale(BETA)
    assert apply_dunkl(1, LaurentPoly.one(CTX2)) == LaurentPoly.zero(CTX2)
    # second derivative term picks up the exchange part
    assert apply_dunkl(1, z1**2) == z1.scale(2) + (z1 + z2).scale(BETA)
    assert apply_dunkl(2, z1) == LaurentPoly.constant(CTX2, 1).scale(-BETA)
    with pytest.raises(LaurentInput):
        apply_dunkl(1, LaurentPoly.monomial(CTX2, (-1, 0)))
    with pytest.raises(IndexOutOfRange):
        apply_dunkl(3, z1)


def test_D_basic():
    z1, z2 = var(CTX2, 1), var(CTX2, 2)
    assert apply_D(1, z1) == z1.scale(ONE + BETA)
    assert apply_D(2, z1) == z2.scale(-BETA)
    assert apply_D(2, z2) == z2.scale(ONE + BETA)
    assert apply_D(1, LaurentPoly.one(CTX2)) == LaurentPoly.zero(CTX2)
    # degree is preserved term by term
    p = z1**3 + z1 * z2
    assert apply_D(1, p).is_homogeneous() is False  # mixes the two degrees
    assert apply_D(1, z1**3).total_degree() == 3


def test_D_string_rightmost_first():
    z1, z2 = var(CTX2, 1), var(CTX2, 2)
    p = z1**2 * z2
    step = apply_D(2, p) + p.scale(BETA * 2)
    expect = apply_D(1, step) + step.scale(BETA)
    assert apply_D_string(1, (1, 2), p) == expect
    # k = 0 string annihilates the symmetric linear form
    assert apply_D_string(0, (1, 2), z1 + z2) == LaurentPoly.zero(CTX2)
    # on the constant: rightmost factor contributes (k + len - 1) b each step
    assert apply_D_string(1, (1, 2), LaurentPoly.one(CTX2)) == LaurentPoly.constant(
        CTX2, 1
    ).scale(BETA * BETA * 2)


def test_B_plus_small():
    one3 = LaurentPoly.one(CTX3)
    # single raise: b * m_1
    assert apply_B_plus(1, (1, 2, 3), one3) == monomial_sym(Partition((1,)), CTX3).scale(BETA)
    # double raise on the vacuum
    assert apply_B_plus(2, (1, 2, 3), one3) == monomial_sym(Partition((1, 1)), CTX3).scale(
        BETA * BETA * 2
    )
    # boost: top cardinality multiplies by z1 z2 z3
    p = monomial_sym(Partition((1,)), CTX3)
    assert apply_B_plus(3, (1, 2, 3), p) == LaurentPoly.monomial(CTX3, (1, 1, 1)) * p


def test_B_plus_rejects():
    one3 = LaurentPoly.one(CTX3)
    with pytest.raises(BadCardinality):
        apply_B_plus(3, (1, 2), one3)
    with pytest.raises(EmptyIndexSet):
        apply_B_plus(1, (), one3)
    with pytest.raises(IndexOutOfRange):
        apply_B_plus(1, (1, 4), one3)
    with pytest.raises(IndexOutOfRange):
        apply_B_plus(1, (2, 1), one3)  # must be strictly increasing


def test_N_operator():
    z1, z2 = var(CTX2, 1), var(CTX2, 2)
    assert apply_N(2, (1, 2), z1 + z2) == LaurentPoly.zero(CTX2)
    # N_1 on 1 is sum of bare D_i, which kill constants
    assert apply_N(1, (1, 2), LaurentPoly.one(CTX2)) == LaurentPoly.zero(CTX2)


def test_H_small():
    m2 = monomial_sym(Partition((2,)), CTX2)
    m11 = monomial_sym(Partition((1, 1)), CTX2)
    m1 = monomial_sym(Partition((1,)), CTX2)
    assert apply_H(m2) == m2.scale(FieldElement([4, 2])) + m11.scale(BETA * 4)
    assert apply_H(m11) == m11.scale(FieldElement([2]))
    assert apply_H(m1) == m1.scale(FieldElement([1, 1]))
    assert apply_H(LaurentPoly.one(CTX2)) == LaurentPoly.zero(CTX2)
    with pytest.raises(NotSymmetric):
        apply_H(var(CTX2, 1))


def test_L_family():
    m21 = monomial_sym(Partition((2, 1)), CTX3)
    # L_1 is the Euler degree on symmetric input
    assert apply_L(1, m21) == m21.scale(FieldElement([3]))
    # L_2 is the Hamiltonian
    assert apply_L(2, m21) == apply_H(m21)
    with pytest.raises(NotSymmetric):
        apply_L(2, var(CTX2, 1))


def test_hatD_small():
    z1 = var(CTX2, 1)
    one2 = LaurentPoly.one(CTX2)
    assert apply_hatD(1, z1) == z1.scale(ONE + BETA)
    assert apply_hatD(2, z1) == LaurentPoly.zero(CTX2)
    assert apply_hatD(1, one2) == LaurentPoly.zero(CTX2)
    # on constants the i-th member returns b (i - 1)
    assert apply_hatD(2, one2) == one2.scale(BETA)


def test_hatH_small():
    one3 = LaurentPoly.one(CTX3)
    assert apply_hatH(one3) == LaurentPoly.zero(CTX3)
    m1 = monomial_sym(Partition((1,)), CTX2)
    assert apply_hatH(m1) == m1.scale(ONE + BETA)
    # agrees with the divided-difference Hamiltonian on symmetric input
    m2 = monomial_sym(Partition((2,)), CTX2)
    assert apply_hatH(m2) == apply_H(m2)
    # hatH is defined on non-symmetric input too
    z1 = var(CTX2, 1)
    assert apply_hatH(z1) == z1.scale(ONE + BETA)


# int input in 3 variables: a non-symmetric one, and m_21 + 3 m_111 for the
# operators that need symmetric input
INT_P = LaurentPoly._raw(CTX3, {(2, 1, 0): 3, (0, 1, 1): -2, (1, 0, 0): 1})
INT_SYM = LaurentPoly._raw(
    CTX3,
    {e: 1 for e in ((2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2))}
    | {(1, 1, 1): 3},
)
BETA_OPERATORS = {
    "dunkl": (lambda p, **kw: apply_dunkl(2, p, **kw), INT_P),
    "D": (lambda p, **kw: apply_D(1, p, **kw), INT_P),
    "D_string": (lambda p, **kw: apply_D_string(1, (1, 3), p, **kw), INT_P),
    "B_plus": (lambda p, **kw: apply_B_plus(2, (1, 2, 3), p, **kw), INT_P),
    "N": (lambda p, **kw: apply_N(2, (1, 2, 3), p, **kw), INT_P),
    "H": (lambda p, **kw: apply_H(p, **kw), INT_SYM),
    "L": (lambda p, **kw: apply_L(3, p, **kw), INT_SYM),
    "hatD": (lambda p, **kw: apply_hatD(3, p, **kw), INT_P),
    "hatH": (lambda p, **kw: apply_hatH(p, **kw), INT_P),
}


@pytest.mark.parametrize("t", [0, 1, 2, 2**40])
@pytest.mark.parametrize("name", BETA_OPERATORS)
def test_int_coupling_is_the_symbolic_image_at_that_value(name, t):
    op, p = BETA_OPERATORS[name]
    image = op(p, beta=t)
    assert all(type(c) is int for c in image.terms.values())
    assert LaurentPoly(p.ctx, image.terms) == specialize_beta(op(LaurentPoly(p.ctx, p.terms)), t)
