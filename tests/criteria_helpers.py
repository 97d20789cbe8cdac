"""Predicates and case lists that only the tests need, kept out of the
package."""

import contextlib
import math
from fractions import Fraction

import pytest

from csjack import rodrigues
from csjack.fieldring import ZERO, BetaPoly, FieldElement, pack_width
from csjack.partitions import partitions_of
from csjack.polyring import LaurentPoly, divide_by_vardiff

# the fixed cases of the benchmark: (lambda, N)
PINNED = (((3, 1), 3), ((4, 2, 1), 4), ((6, 4, 2), 4), ((5, 3, 2, 1), 5), ((3, 2, 1), 6))
# criterion 02's sweep: |lambda| <= 6, N = 2..4
SWEEP = tuple(
    (tuple(lam), nvars) for nvars in (2, 3, 4) for n in range(7) for lam in partitions_of(n, nvars - 1)
)


def case_id(case) -> str:
    lam, nvars = case
    return f"{','.join(map(str, lam)) or '0'}/{nvars}"


@contextlib.contextmanager
def packed_widths():
    """{(nvars, steps): width} of every rodrigues._packed call made in the
    block, as _phi and the annihilation suite choose the width."""
    widths, packed = {}, rodrigues._packed

    def recorded(nvars, steps, width):
        widths[nvars, tuple(steps)] = width
        return packed(nvars, steps, width)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rodrigues, "_packed", recorded)
        yield widths


def annihilation_width(lam, nvars: int) -> int:
    """The annihilation suite's width for l(lam) < nvars = N: pack_width of P
    prod_{s=1..N} (N |lam| + s), P the product over the boxes (i, j) of lam
    of N - i + j, the 1-norm of phi_lam."""
    n = sum(lam)
    norm = math.prod(nvars - i + j for i, row in enumerate(lam) for j in range(row))
    return pack_width(norm * math.prod(nvars * n + s for s in range(1, nvars + 1)))


def poly_is_integral(a: BetaPoly) -> bool:
    return all(c.denominator == 1 for c in a)


def is_integer_in_inverse_beta(a: FieldElement) -> bool:
    """True when a is an integer-coefficient polynomial in 1/b.

    Canonical form makes this a structural check: the denominator must be a
    monic power of b and the numerator an integer polynomial of no larger
    degree.
    """
    den = a.den
    if any(c for c in den[:-1]) or den[-1] != 1:
        return False
    if len(a.num) > len(den):
        return False
    return poly_is_integral(a.num)


def rational_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Division with remainder over Q, in Fractions: a reference that shares
    no code with the fraction-free arithmetic of fieldring."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = r[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    while r and not r[-1]:
        r.pop()
    return tuple(q), tuple(r)


def euclid_gcd(a: tuple, b: tuple) -> tuple:
    """The monic gcd by Euclid over Q, in Fractions; gcd(0, 0) = 0."""
    while b:
        a, b = b, rational_divmod(a, b)[1]
    return tuple(Fraction(c) / a[-1] for c in a) if a else a


def primitive(*parts: tuple) -> tuple:
    """parts scaled by one rational factor to integer coefficients with joint
    content 1 and the last part's leading coefficient positive."""
    cs = [Fraction(c) for part in parts for c in part]
    m = math.lcm(*(c.denominator for c in cs))
    g = math.gcd(*(int(c * m) for c in cs)) or 1
    if parts[-1] and parts[-1][-1] < 0:
        g = -g
    return tuple(tuple(int(Fraction(c) * m / g) for c in part) for part in parts)


def assert_canonical(a: FieldElement):
    """a = num/den in canonical form: int coefficients without trailing
    zeros, num and den coprime over Q[b], joint integer content 1 and
    lc(den) > 0; zero is 0/1."""
    assert all(type(c) is int for c in a.num + a.den), a
    assert not a.num or a.num[-1] != 0
    assert a.den and a.den[-1] > 0
    if not a.num:
        assert a.den == (1,)
        return
    assert math.gcd(*a.num, *a.den) == 1
    assert euclid_gcd(a.num, a.den) == (1,)


def constant_term(p: LaurentPoly) -> FieldElement:
    return p.terms.get((0,) * p.ctx.nvars, ZERO)


def partial_derivative(p: LaurentPoly, i: int) -> LaurentPoly:
    """d/dz_i p."""
    ii = i - 1
    out = {e[:ii] + (e[ii] - 1,) + e[ii + 1 :]: c * e[ii] for e, c in p.terms.items() if e[ii]}
    return LaurentPoly._raw(p.ctx, out)


def divided_difference(p: LaurentPoly, i: int, j: int) -> LaurentPoly:
    """(p - s_ij p) / (z_i - z_j), by its definition."""
    return divide_by_vardiff(p - p.swap_vars(i, j), i, j)


def specialize_beta(p: LaurentPoly, beta_value) -> LaurentPoly:
    """Freeze the coupling to a rational value; coefficients stay exact."""
    out = {}
    for e, c in p.terms.items():
        v = c.specialize(beta_value)
        if v:
            out[e] = v
    return LaurentPoly._raw(p.ctx, out)
