"""Property tests of the exact division by z_i - z_j: Laurent input with int
and Q(b) coefficients, negative exponents and several terms per line, so
that partial sums vanish mid-line; a reference Horner division checks the
quotients of antisymmetric dividends, the ones the Dunkl divided
differences and the Hamiltonian's pair terms divide."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csjack.errors import NonzeroRemainder  # noqa: E402
from csjack.fieldring import ONE, FieldElement, field  # noqa: E402
from csjack.polyring import LaurentPoly, VarContext, _merge, divide_by_vardiff  # noqa: E402

SETTINGS = settings(max_examples=120, deadline=None)

INT_COEFF = st.integers(-3, 3).filter(bool)
FIELD_COEFF = st.builds(
    FieldElement,
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
    st.sampled_from([(1,), (1, 1), (2, 1), (0, 1), (1, 0, 1)]),
)
EXPONENT = st.integers(-2, 3)


@st.composite
def laurent_case(draw):
    """(q, i, j, int_coefficients): q has one line of i and j drawn with
    gaps between its z_i exponents, plus a few terms anywhere."""
    nvars = draw(st.integers(2, 4))
    i, j = draw(st.lists(st.integers(1, nvars), min_size=2, max_size=2, unique=True))
    ints = draw(st.booleans())
    coeff = INT_COEFF if ints else FIELD_COEFF
    ctx = VarContext(nvars)
    terms = {}
    base = draw(st.lists(EXPONENT, min_size=nvars, max_size=nvars))
    line_total = base[i - 1] + base[j - 1]
    for k in draw(st.sets(st.integers(-3, 4), min_size=1, max_size=4)):
        e = list(base)
        e[i - 1], e[j - 1] = k, line_total - k
        terms[tuple(e)] = draw(coeff)
    for _ in range(draw(st.integers(0, 3))):
        terms[tuple(draw(st.lists(EXPONENT, min_size=nvars, max_size=nvars)))] = draw(coeff)
    return LaurentPoly._raw(ctx, terms), i, j, ints


def vardiff(ctx: VarContext, i: int, j: int, ints: bool) -> LaurentPoly:
    """z_i - z_j with int or field coefficients."""
    one = 1 if ints else ONE
    zi, zj = ([int(k == v) for k in range(1, ctx.nvars + 1)] for v in (i, j))
    return LaurentPoly._raw(ctx, {tuple(zi): one, tuple(zj): -one})


def horner_divide(p: LaurentPoly, i: int, j: int) -> LaurentPoly:
    """Synthetic division by z_i - z_j in z_i, from the top exponent down,
    with Laurent polynomials in the other variables as coefficients."""
    ii, jj = i - 1, j - 1
    buckets = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[ii], {})[e[:ii] + (0,) + e[ii + 1 :]] = c

    def times_zj(carry):
        return ((r[:jj] + (r[jj] + 1,) + r[jj + 1 :], c) for r, c in carry.items())

    if not buckets:
        return p
    kmin = min(buckets)
    out, carry = {}, {}
    for k in range(max(buckets), kmin, -1):
        carry = _merge(buckets.pop(k, {}), times_zj(carry))
        for rest, c in carry.items():
            out[rest[:ii] + (k - 1,) + rest[ii + 1 :]] = c
    if _merge(buckets[kmin], times_zj(carry)):
        raise NonzeroRemainder("not divisible")
    return LaurentPoly._raw(p.ctx, out)


@SETTINGS
@given(laurent_case())
def test_division_recovers_the_quotient(case):
    q, i, j, ints = case
    p = vardiff(q.ctx, i, j, ints) * q
    quotient = divide_by_vardiff(p, i, j)
    assert quotient == q
    assert all(quotient.terms.values())
    if ints:
        assert all(type(c) is int for c in quotient.terms.values())


@SETTINGS
@given(laurent_case(), st.lists(EXPONENT, min_size=4, max_size=4), INT_COEFF)
def test_one_more_term_leaves_a_remainder(case, exps, c):
    q, i, j, ints = case
    p = vardiff(q.ctx, i, j, ints) * q
    extra = LaurentPoly._raw(q.ctx, {tuple(exps[: q.ctx.nvars]): c if ints else field(c)})
    with pytest.raises(NonzeroRemainder):
        divide_by_vardiff(p + extra, i, j)


@SETTINGS
@given(laurent_case(), st.booleans(), st.data())
def test_antisymmetric_dividends_match_horner(case, difference, data):
    """p - swap_ij p, or (z_i - z_j) q with q symmetric in i and j: both are
    antisymmetric, so every line pairs z^e with -z^(swap e).  Changing one
    coefficient breaks antisymmetry and divisibility, so the division must
    raise instead of returning the quotient of the other terms."""
    q, i, j, ints = case
    if difference:
        p = q - q.swap_vars(i, j)
    else:
        p = vardiff(q.ctx, i, j, ints) * (q + q.swap_vars(i, j))
    assert p == -p.swap_vars(i, j)
    quotient = divide_by_vardiff(p, i, j)
    assert quotient == horner_divide(p, i, j)
    assert all(quotient.terms.values())
    if ints:
        assert all(type(c) is int for c in quotient.terms.values())
    if not p.terms:
        return
    e = data.draw(st.sampled_from(sorted(p.terms)))
    delta = data.draw(INT_COEFF)
    terms = dict(p.terms)
    c = terms[e] + (delta if ints else field(delta))
    if c:
        terms[e] = c
    else:
        del terms[e]
    with pytest.raises(NonzeroRemainder):
        divide_by_vardiff(LaurentPoly._raw(q.ctx, terms), i, j)
