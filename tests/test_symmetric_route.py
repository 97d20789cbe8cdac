"""The symmetric route of the creation operator and of the normalization
against their definitions.

On symmetric input over the full index set, apply_B_plus runs one D-string
and relabels it onto every subset; the reference below is the defining sum
over subsets.  LaurentPoly.scale, which the normalization uses, multiplies
once per distinct coefficient (at most once per m-coordinate when the
polynomial is symmetric) and equals a term-by-term scaling on any input.
A creation step and an annihilation sum test their input's symmetry once.
"""

import itertools

import pytest

from csjack import operators, rodrigues
from csjack.fieldring import BETA, FieldElement
from csjack.operators import apply_B_plus, apply_D_string, full_index_set
from csjack.partitions import Partition, partitions_of
from csjack.polyring import LaurentPoly, VarContext
from csjack.symbases import monomial_sym


def subset_sum(k, J, p):
    """Sum over k-subsets J' of J of z_{J'} * D-string(1, J') p."""
    total = LaurentPoly.zero(p.ctx)
    for subset in itertools.combinations(J, k):
        q = apply_D_string(1, subset, p)
        for v in subset:
            q = q * LaurentPoly.variable(p.ctx, v)
        total = total + q
    return total


@pytest.fixture
def string_calls(monkeypatch):
    calls = []
    original = operators.apply_D_string

    def counted(k, J, p, beta=BETA, **private):
        calls.append(tuple(J))
        return original(k, J, p, beta, **private)

    monkeypatch.setattr(operators, "apply_D_string", counted)
    return calls


@pytest.mark.parametrize("nvars", [2, 3, 4, 5, 6])
def test_symmetric_route_matches_subset_sum(nvars):
    ctx = VarContext(nvars)
    J = full_index_set(nvars)
    inputs = []
    for n in range(5):
        for lam in partitions_of(n, nvars):
            inputs.append(monomial_sym(lam, ctx))
            # both sides are linear in p, so the m inputs already cover every
            # phi; the phi inputs of degree 3 and 4 at N = 6 would add 30 s
            if nvars < 6 or n <= 2:
                inputs.append(rodrigues._phi(ctx, tuple(lam)))
    for p in inputs:
        assert p.is_symmetric()
        for k in range(1, nvars):
            assert apply_B_plus(k, J, p) == subset_sum(k, J, p)


def test_nonsymmetric_input_takes_the_subset_loop(string_calls):
    ctx = VarContext(4)
    z = [LaurentPoly.variable(ctx, i) for i in range(1, 5)]
    p = z[0] * z[0] * z[1] + z[2].scale(BETA) + z[3].scale(3)
    J = full_index_set(4)
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


def test_one_string_per_creation_step(string_calls):
    rodrigues._phi.cache_clear()
    try:
        rodrigues.jack(Partition((3, 2, 1)), VarContext(6))
    finally:
        rodrigues._phi.cache_clear()
    # creation steps B_1 () -> (1), B_2 (1) -> (2,1), B_3 (2,1) -> (3,2,1);
    # the subset loop would run C(6,1) + C(6,2) + C(6,3) = 41 strings
    assert string_calls == [(1,), (1, 2), (1, 2, 3)]


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
    lam = (5, 3, 2, 1)
    rodrigues._phi.cache_clear()
    try:
        rodrigues.rodrigues_raw(Partition(lam), VarContext(5))
    finally:
        rodrigues._phi.cache_clear()
    # apply_B_plus tests its input and hands the answer to its one string
    assert len(symmetry_tests) == len(rodrigues._creation_steps(lam)) == 5


def test_annihilation_tests_symmetry_once_for_all_strings(symmetry_tests):
    phi = rodrigues.rodrigues_raw(Partition((2, 1)), VarContext(4))
    del symmetry_tests[:]
    # four strings, one per 3-subset of (1, 2, 3, 4)
    assert not operators.apply_N(3, full_index_set(4), phi)
    assert len(symmetry_tests) == 1


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
