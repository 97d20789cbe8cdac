"""The creation kernel and the normalization against their definitions.

rodrigues._creation_step takes a symmetric polynomial's m-coordinates
through one creation step B_k+: one D-string over (1..k), then C(N, k)
lookups per new m-coordinate.  The reference below is the defining sum over
subsets, operators.apply_B_plus, on every m_mu input and step by step along
each creation chain; a jack request calls no operator.
LaurentPoly.scale, which the normalized forms use, multiplies once per
distinct coefficient (at most once per m-coordinate when the polynomial is
symmetric) and equals a term-by-term scaling on any input.  The kernel
never tests its input's symmetry.
"""

import itertools

import pytest
from criteria_helpers import PINNED, SWEEP, case_id

from csjack import operators, rodrigues
from csjack.fieldring import BETA, FieldElement
from csjack.operators import apply_B_plus, apply_D_string
from csjack.partitions import Partition, partitions_of
from csjack.polyring import LaurentPoly, VarContext
from csjack.symbases import monomial_sym

CHAIN = tuple(dict.fromkeys(SWEEP + PINNED))
# an int coupling large enough that no coefficient cancels by accident
PACKED_BETA = 1 << 40


def subset_sum(k, J, p):
    """Sum over k-subsets J' of J of z_{J'} * D-string(1, J') p."""
    total = LaurentPoly.zero(p.ctx)
    for subset in itertools.combinations(J, k):
        q = apply_D_string(1, subset, p)
        for v in subset:
            q = q * LaurentPoly.variable(p.ctx, v)
        total = total + q
    return total


def int_poly(ctx, coords):
    """The symmetric int polynomial with the m-coordinates coords."""
    terms = {e: c for mu, c in coords.items() for e in set(itertools.permutations(mu))}
    return LaurentPoly._raw(ctx, terms)


def m_coordinates(p):
    return {e: c for e, c in p.terms.items() if list(e) == sorted(e, reverse=True)}


@pytest.fixture
def string_calls(monkeypatch):
    calls = []
    original = operators.apply_D_string

    def counted(k, J, p, beta=BETA):
        calls.append(tuple(J))
        return original(k, J, p, beta)

    monkeypatch.setattr(operators, "apply_D_string", counted)
    return calls


@pytest.mark.parametrize("nvars", [2, 3, 4, 5, 6])
def test_symmetric_route_matches_subset_sum(nvars):
    """Both sides are linear in p, so the m_mu inputs cover every symmetric
    input of their degrees."""
    ctx = VarContext(nvars)
    J = tuple(range(1, nvars + 1))
    for n in range(5):
        for lam in partitions_of(n, nvars):
            coords = {lam.pad(nvars): 1}
            p = int_poly(ctx, coords)
            for k in range(1, nvars):
                expected = apply_B_plus(k, J, p, PACKED_BETA)
                assert expected.is_symmetric()
                assert rodrigues._creation_step(nvars, k, coords, PACKED_BETA) == m_coordinates(expected)


@pytest.mark.parametrize("lam, nvars", CHAIN, ids=map(case_id, CHAIN))
def test_kernel_follows_the_subset_sum_chain(lam, nvars):
    """Every creation step of phi_lam, at the packed coupling _phi uses."""
    ctx = VarContext(nvars)
    steps = rodrigues._creation_steps(lam)
    beta = 1 << rodrigues._digit_width(nvars, steps)
    coords = {(0,) * nvars: 1}
    p = int_poly(ctx, coords)
    for k in steps:
        coords = rodrigues._creation_step(nvars, k, coords, beta)
        p = apply_B_plus(k, tuple(range(1, nvars + 1)), p, beta)
        assert coords == m_coordinates(p)
        assert p == int_poly(ctx, coords)


def test_nonsymmetric_input_takes_the_subset_loop(string_calls):
    ctx = VarContext(4)
    z = [LaurentPoly.variable(ctx, i) for i in range(1, 5)]
    p = z[0] * z[0] * z[1] + z[2].scale(BETA) + z[3].scale(3)
    J = (1, 2, 3, 4)
    for k in range(1, 4):
        del string_calls[:]
        out = apply_B_plus(k, J, p)
        assert string_calls == list(itertools.combinations(J, k))
        assert out == subset_sum(k, J, p)


def test_partial_index_set_takes_the_subset_loop(string_calls):
    ctx = VarContext(4)
    p = monomial_sym(Partition((2, 1)), ctx)
    J = (1, 3, 4)
    for k in range(1, 4):
        del string_calls[:]
        out = apply_B_plus(k, J, p)
        assert string_calls == list(itertools.combinations(J, k))
        assert out == subset_sum(k, J, p)


def test_a_jack_request_makes_no_operator_call(monkeypatch):
    calls = []
    for name in dir(operators):
        if name.startswith("apply_"):
            monkeypatch.setattr(operators, name, lambda *args, name=name, **kwargs: calls.append(name))
    rodrigues._phi.cache_clear()
    try:
        # a creation chain, and a full-length partition built by the boost
        rodrigues.jack(Partition((3, 2, 1)), VarContext(6))
        rodrigues.jack(Partition((4, 2, 1)), VarContext(3), "stanley")
    finally:
        rodrigues._phi.cache_clear()
    assert calls == []


@pytest.fixture
def symmetry_tests(monkeypatch):
    tests = []
    original = LaurentPoly.is_symmetric

    def counted(self):
        tests.append(len(self.terms))
        return original(self)

    monkeypatch.setattr(LaurentPoly, "is_symmetric", counted)
    return tests


def test_one_symmetry_test_per_creation_step(symmetry_tests):
    # the kernel's input is symmetric by construction and is never tested
    rodrigues._phi.cache_clear()
    try:
        rodrigues.rodrigues_raw(Partition((5, 3, 2, 1)), VarContext(5))
    finally:
        rodrigues._phi.cache_clear()
    assert not symmetry_tests


def term_by_term(p, c):
    return LaurentPoly._raw(p.ctx, {e: v * c for e, v in p.terms.items()})


def test_orbit_scaling_is_scale(monkeypatch):
    ctx = VarContext(5)
    c = FieldElement([1, 2], [3, 0, 1])
    p = rodrigues.rodrigues_raw(Partition((3, 2, 1)), ctx)
    coordinates = {tuple(sorted(e)) for e in p.terms}
    expected = term_by_term(p, c)
    products = []
    original = FieldElement.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    assert p.scale(c) == expected
    assert len(products) == len(set(p.terms.values())) <= len(coordinates) < len(p.terms)


def test_orbit_scaling_falls_back_on_nonsymmetric_input():
    ctx = VarContext(3)
    z1, z2 = LaurentPoly.variable(ctx, 1), LaurentPoly.variable(ctx, 2)
    c = FieldElement([0, 1], [1, 1])
    # z1^2 and z2^2 share an orbit, first with different coefficients, then
    # with equal ones in a polynomial that is still not symmetric
    for p in (z1 * z1 + (z2 * z2).scale(2), z1 * z1 + z2 * z2):
        assert not p.is_symmetric()
        assert p.scale(c) == term_by_term(p, c)
