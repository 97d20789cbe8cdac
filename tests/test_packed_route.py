"""The creation product on packed integers against the symbolic chain.

rodrigues._phi runs every creation step on int m-coordinates at b = 2^B and
unpacks each m-coordinate once; the reference here is the chain of creation
operators at the symbolic coupling, written out as criterion 01 does.
"""

import functools

import pytest
from criteria_helpers import PINNED, SWEEP, annihilation_width, case_id, packed_widths

from csjack import fieldring, rodrigues
from csjack.fieldring import BETA, FieldElement
from csjack.operators import apply_B_plus
from csjack.partitions import Partition, partitions_of
from csjack.polyring import LaurentPoly, VarContext

CHAIN = tuple(dict.fromkeys(SWEEP + PINNED))
# the digit-width check also runs on a case with 1,296 terms
WIDE = PINNED + (((4, 4, 3, 2, 1), 6),)


@functools.cache
def symbolic_chain(ctx, parts):
    """B_l+ ... acting on 1 at the symbolic coupling, l = len(parts)."""
    if not parts:
        return LaurentPoly.one(ctx)
    prev = tuple(x - 1 for x in parts if x > 1)
    return apply_B_plus(len(parts), tuple(range(1, ctx.nvars + 1)), symbolic_chain(ctx, prev))


@pytest.fixture
def cold_cache():
    rodrigues._phi.cache_clear()
    yield
    rodrigues._phi.cache_clear()


@pytest.mark.parametrize("lam, nvars", CHAIN, ids=map(case_id, CHAIN))
def test_packed_product_is_the_symbolic_chain(lam, nvars, cold_cache):
    ctx = VarContext(nvars)
    assert rodrigues.rodrigues_raw(Partition(lam), ctx) == symbolic_chain(ctx, lam)


@pytest.mark.parametrize("lam, nvars", WIDE, ids=map(case_id, WIDE))
def test_digit_width_leaves_two_spare_bits(lam, nvars, cold_cache):
    with packed_widths() as widths:
        raw = rodrigues.rodrigues_raw(Partition(lam), VarContext(nvars))
    (width,) = widths.values()
    for c in raw.terms.values():
        assert c.den == (1,)
        assert all(x.denominator == 1 and abs(x).numerator.bit_length() < width - 1 for x in c.num)


def test_documented_widths(cold_cache):
    """_phi packs at pack_width(n!): 28 bits for (5,3,2,1)/5, 51 for (6,5,3,2,1)/6."""
    assert rodrigues._creation_steps((3, 1)) == [1, 1, 2]
    with packed_widths() as widths:
        rodrigues._phi(VarContext(5), (5, 3, 2, 1))
        rodrigues._phi(VarContext(6), (6, 5, 3, 2, 1))
    assert list(widths.values()) == [28, 51]


def test_annihilation_width_unpacks_to_phi():
    """The ints the annihilation suite checks are the printed phi_lam: at
    its width, _packed unpacks to _phi for every |lam| <= 6 and
    l(lam) < N <= 5."""
    for nvars in range(1, 6):
        ctx = VarContext(nvars)
        for degree in range(7):
            for lam in partitions_of(degree, nvars - 1):
                width = annihilation_width(lam, nvars)
                packed = rodrigues._packed(nvars, rodrigues._creation_steps(lam), width)
                unpacked = {Partition(mu): fieldring.unpack(c, width, degree + 1) for mu, c in packed.items()}
                assert unpacked == dict(rodrigues._phi(ctx, lam)), (lam, nvars)


def test_too_small_width_raises(monkeypatch, cold_cache):
    monkeypatch.setattr(rodrigues, "pack_width", lambda bound: 4)
    with pytest.raises(OverflowError):
        rodrigues.rodrigues_raw(Partition((5, 3, 2, 1)), VarContext(5))


def test_unpack_balanced_digits():
    # 5 - 3*16 + 2*16^2 at width 4
    assert fieldring.unpack(5 - 3 * 16 + 2 * 256, 4, 3) == FieldElement([5, -3, 2])
    assert fieldring.unpack(-7, 4, 1) == FieldElement([-7])
    with pytest.raises(OverflowError):
        fieldring.unpack(5 - 3 * 16 + 2 * 256, 4, 2)
    # no width, however small, loops forever
    with pytest.raises(OverflowError):
        fieldring.unpack(1, 1, 10)


def test_int_polynomial_scaled_by_int_stays_int():
    ctx = VarContext(2)
    p = LaurentPoly._raw(ctx, {(1, 0): 3, (0, 1): -2})
    scaled = p.scale(4)
    assert scaled.terms == {(1, 0): 12, (0, 1): -8}
    assert all(type(c) is int for c in scaled.terms.values())
    assert not p.scale(0)
    # a field factor, or a field polynomial, gives field coefficients
    assert all(isinstance(c, FieldElement) for c in p.scale(BETA).terms.values())
    field_p = LaurentPoly(ctx, {(1, 0): 3})
    assert all(isinstance(c, FieldElement) for c in field_p.scale(4).terms.values())
