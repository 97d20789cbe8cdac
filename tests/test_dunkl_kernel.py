"""The one-pass Dunkl kernel and the proven skip set of the symmetric
D-string against their definitions.

apply_dunkl writes the derivative and the closed-form divided differences
of every term into one dict.  The reference is the definition: the
derivative plus the coupling times the sum of the divided differences
(p - s_ij p)/(z_i - z_j) against every other variable, each built by a
swap, a subtraction and divide_by_vardiff.  rodrigues._d_string takes only
the differences against the later indices of its string, on the weakly
decreasing tails of its symmetric input; the reference is apply_D_string,
which takes every pair on every term.
"""

import itertools

import pytest
from criteria_helpers import annihilation_width, divided_difference, partial_derivative

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csjack import rodrigues  # noqa: E402
from csjack.fieldring import BETA, FieldElement  # noqa: E402
from csjack.operators import apply_D_string, apply_dunkl, apply_N  # noqa: E402
from csjack.partitions import partitions_of  # noqa: E402
from csjack.polyring import LaurentPoly, VarContext  # noqa: E402

PACKED_BETA = 1 << 24
COEFFICIENTS = {
    "int": st.integers(-4, 4),
    "packed": st.integers(-(1 << 60), 1 << 60),
    "field": st.builds(
        FieldElement,
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.sampled_from([(1,), (1, 1), (2, 1), (0, 1)]),
    ),
}
COUPLINGS = {
    "int": st.integers(-3, 3),
    "packed": st.just(PACKED_BETA),
    "field": st.sampled_from([BETA, FieldElement((1, 2), (0, 1)), 3]),
}


def reference_dunkl(i, p, beta=BETA):
    """d/dz_i p + beta * sum over j != i of (p - s_ij p) / (z_i - z_j)."""
    differences = (divided_difference(p, i, j) for j in range(1, p.ctx.nvars + 1) if j != i)
    return partial_derivative(p, i) + LaurentPoly.sum(p.ctx, differences).scale(beta)


@st.composite
def dunkl_case(draw):
    """(i, p, beta, kind): p has a few terms, and some of them come with the
    partner z^(s_ij e) at the same, the opposite or another coefficient, so
    that the closed forms of partners cancel in the kernel's dict."""
    kind = draw(st.sampled_from(sorted(COEFFICIENTS)))
    coeff = COEFFICIENTS[kind]
    nvars = draw(st.integers(2, 5))
    i = draw(st.integers(1, nvars))
    exponent = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars)
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        e = draw(exponent)
        c = draw(coeff)
        terms[tuple(e)] = c
        j = draw(st.integers(1, nvars))
        if j != i:
            e[i - 1], e[j - 1] = e[j - 1], e[i - 1]
            terms[tuple(e)] = draw(st.sampled_from([c, -c, draw(coeff)]))
    p = LaurentPoly._raw(VarContext(nvars), {e: c for e, c in terms.items() if c})
    return i, p, draw(COUPLINGS[kind]), kind


@settings(max_examples=300, deadline=None)
@given(dunkl_case())
def test_kernel_matches_the_definition(case):
    i, p, beta, kind = case
    got = apply_dunkl(i, p, beta)
    assert got == reference_dunkl(i, p, beta)
    assert all(got.terms.values())
    if kind != "field":
        assert all(type(c) is int for c in got.terms.values())


def weakly_decreasing_tails(p, k):
    """The terms of p whose exponents after the first k weakly decrease."""
    return {e: c for e, c in p.terms.items() if all(a >= b for a, b in zip(e[k:], e[k + 1 :]))}


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_proven_strings_match_every_pair_strings(nvars):
    """On every m_mu of weight <= 5, which span the symmetric inputs of
    those degrees, at the creation (start 1) and annihilation (start 0)
    shifts, k = nvars being reached only by annihilation; and on phi_lam,
    from rodrigues._packed at the annihilation suite's width, where the
    kernel's part is empty exactly when apply_N's whole image is zero."""
    ctx = VarContext(nvars)
    for degree in range(6):
        for mu in partitions_of(degree, nvars):
            e = mu.pad(nvars)
            p = LaurentPoly._raw(ctx, dict.fromkeys(set(itertools.permutations(e)), 1))
            for start, k in itertools.product((0, 1), range(1, nvars + 1)):
                expected = apply_D_string(start, tuple(range(1, k + 1)), p, PACKED_BETA)
                got = rodrigues._d_string({e: 1}, k, start, PACKED_BETA)
                assert got == weakly_decreasing_tails(expected, k)
        for lam in partitions_of(degree, nvars - 1):
            width = annihilation_width(lam, nvars)
            coords = rodrigues._packed(nvars, rodrigues._creation_steps(lam), width)
            # the int phi_lam: each m-coordinate spread over its orbit
            orbits = {e: c for mu, c in coords.items() for e in set(itertools.permutations(mu))}
            packed = LaurentPoly._raw(ctx, orbits)
            for k in range(1, nvars + 1):
                image = apply_N(k, tuple(range(1, k + 1)), packed, 1 << width)
                got = rodrigues._d_string(coords, k, 0, 1 << width)
                assert got == weakly_decreasing_tails(image, k)
                # both outcomes occur: only cardinalities above l(lam) annihilate
                assert (not got) == (not image) == (k > len(lam))
