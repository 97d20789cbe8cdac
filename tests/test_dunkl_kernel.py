"""The one-pass Dunkl kernel and the proven skip set of D-strings against
references of the test's own.

apply_dunkl writes the derivative and the closed-form divided differences
of every term into one dict.  The reference is the definition: the
derivative plus the coupling times the sum of the divided differences
(p - s_ij p)/(z_i - z_j) against every other variable, each built by a
swap, a subtraction and divide_by_vardiff.  On symmetric input
apply_D_string takes only the differences against the later indices of its
string; the reference string takes every pair.
"""

import itertools

import pytest
from criteria_helpers import divided_difference, partial_derivative

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csjack import operators, rodrigues  # noqa: E402
from csjack.fieldring import BETA, FieldElement  # noqa: E402
from csjack.operators import apply_D_string, apply_dunkl  # noqa: E402
from csjack.partitions import Partition, partitions_of  # noqa: E402
from csjack.polyring import LaurentPoly, VarContext  # noqa: E402
from csjack.symbases import monomial_sym  # noqa: E402

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


def every_pair_string(k, J, p, beta=BETA):
    """apply_D_string with every divided difference taken."""
    for pos in range(len(J) - 1, -1, -1):
        p = reference_dunkl(J[pos], p, beta).shift_var(J[pos], 1) + p.scale(beta * (k + pos))
    return p


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


def symmetric_inputs(nvars):
    """m_lam for every lam of weight <= 5, and phi_lam where l(lam) < nvars:
    the m_lam span the symmetric polynomials of those degrees."""
    ctx = VarContext(nvars)
    for degree in range(6):
        for lam in partitions_of(degree, nvars):
            yield monomial_sym(lam, ctx)
            if len(lam) < nvars:
                yield rodrigues.rodrigues_raw(lam, ctx)


@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_proven_strings_match_every_pair_strings(nvars):
    index_sets = [
        J for size in range(1, nvars + 1) for J in itertools.combinations(range(1, nvars + 1), size)
    ]
    for p in symmetric_inputs(nvars):
        assert p.is_symmetric()
        for J in index_sets:
            k = len(J) % 2
            assert apply_D_string(k, J, p) == every_pair_string(k, J, p)


@pytest.fixture
def dunkl_calls(monkeypatch):
    calls = []
    original = operators.apply_dunkl

    def recorded(i, p, beta=BETA, *, _against=None):
        calls.append((i, _against))
        return original(i, p, beta, _against=_against)

    monkeypatch.setattr(operators, "apply_dunkl", recorded)
    return calls


def test_skip_engages_only_on_symmetric_input(dunkl_calls):
    ctx = VarContext(4)
    p = monomial_sym(Partition((2, 1)), ctx)
    J = (1, 3, 4)
    apply_D_string(1, J, p)
    assert dunkl_calls == [(4, ()), (3, (4,)), (1, (3, 4))]
    # one term off the orbit: no skip, and the every-pair result
    q = p + LaurentPoly.monomial(ctx, (2, 0, 0, 0))
    assert not q.is_symmetric()
    del dunkl_calls[:]
    assert apply_D_string(1, J, q) == every_pair_string(1, J, q)
    assert [against for _, against in dunkl_calls] == [None, None, None]
