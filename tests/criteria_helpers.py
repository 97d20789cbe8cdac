"""Predicates and case lists that only the tests need, kept out of the
package."""

from csjack.fieldring import ZERO, BetaPoly, FieldElement
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
            out[e] = FieldElement.from_fraction(v)
    return LaurentPoly._raw(p.ctx, out)
