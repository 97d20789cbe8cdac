"""Independent constructions agreeing with the creation-operator route."""

import itertools

import pytest

from csjack import fieldring, oracle
from csjack.errors import (
    DegreeExceedsVariables,
    TooManyParts,
)
from csjack.fieldring import ONE, FieldElement, poly_gcd
from csjack.operators import apply_H, apply_hatD
from csjack.oracle import (
    eigenvalue_epsilon,
    jack_by_gram_schmidt,
    jack_by_symmetrization,
    jack_by_triangular_H,
    nonsym_eigenfunction,
    nonsym_eigenvalues,
    triangular_system,
)
from csjack.partitions import Partition, dominates, partitions_of
from csjack.polyring import LaurentPoly, VarContext
from csjack.rodrigues import jack
from csjack.symbases import expand_in_basis, monomial_sym

CTX2 = VarContext(2)
CTX3 = VarContext(3)
CTX4 = VarContext(4)


def test_triangular_route_matches():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
        assert jack_by_triangular_H(Partition(lam), CTX3) == jack(Partition(lam), CTX3).monic


def test_triangular_survives_spectral_collision():
    # (3,1,1,1) and (2,2,2) share the quadratic eigenvalue at four variables
    # but are dominance-incomparable, so the solve must not couple them
    a = Partition((3, 1, 1, 1))
    b = Partition((2, 2, 2))
    assert eigenvalue_epsilon(a, 4) == eigenvalue_epsilon(b, 4)
    ja = jack_by_triangular_H(a, CTX4)
    jb = jack_by_triangular_H(b, CTX4)
    assert ja == jack(a, CTX4).monic
    assert jb == jack(b, CTX4).monic
    assert ja.coefficient((2, 2, 2, 0)) == FieldElement([0])


def test_triangular_gaps_never_vanish():
    """jack_by_triangular_H divides by eps(lam) - eps(mu) for each mu strictly
    dominated by lam; its b-coefficient is 2(n(mu) - n(lam)), n(mu) the sum of
    (i - 1) mu_i, and dominance makes that positive."""

    def n(mu):
        return sum(i * part for i, part in enumerate(mu))

    for nvars in range(1, 7):
        for degree in range(9):
            parts = partitions_of(degree, nvars)
            for lam, mu in itertools.permutations(parts, 2):
                if dominates(lam, mu):
                    gap = eigenvalue_epsilon(lam, nvars) - eigenvalue_epsilon(mu, nvars)
                    expected = 2 * (n(mu) - n(lam))
                    assert expected > 0 and gap.den == (1,) and gap.num[1:2] == (expected,), (lam, mu, nvars)


def test_triangular_system_is_the_hamiltonian_on_monomials():
    """The closed-form matrix against the coefficients of m_mu in H m_lam,
    computed by applying H and expanding in the m basis."""
    for nvars in range(1, 7):
        ctx = VarContext(nvars)
        for degree in range(7):
            basis, matrix = triangular_system(degree, ctx)
            expected = {}
            for lam in partitions_of(degree, nvars):
                image = expand_in_basis(apply_H(monomial_sym(lam, ctx)), "m")
                expected.update(((mu, lam), c) for mu, c in image.coords.items())
            assert dict(matrix) == expected, (degree, nvars)
            assert basis == tuple(partitions_of(degree, nvars))


def test_triangular_system_respects_dominance():
    _, matrix = triangular_system(4, CTX4)
    for (mu, lam), coeff in matrix.items():
        if coeff:
            assert dominates(lam, mu)


def test_cached_system_is_read_only():
    system = triangular_system(2, CTX3)
    basis, matrix = system
    with pytest.raises(AttributeError):
        matrix.clear()
    with pytest.raises(AttributeError):
        basis.clear()
    entries = dict(matrix)
    with pytest.raises(TypeError):
        system[1] = {}
    assert triangular_system(2, CTX3)[1] == entries
    assert jack_by_triangular_H(Partition((2,)), CTX3) == jack(Partition((2,)), CTX3).monic


def test_gram_schmidt_matches():
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        assert jack_by_gram_schmidt(Partition(lam), CTX3) == jack(Partition(lam), CTX3).monic


@pytest.mark.parametrize("nvars", [5, 6])
def test_gram_schmidt_matches_every_degree_up_to_nvars(nvars):
    """Criterion 02 stops at four variables; here the pairing route's Gram-Schmidt
    meets every lam with |lam| <= N, full-length ones included."""
    ctx = VarContext(nvars)
    for degree in range(nvars + 1):
        for lam in partitions_of(degree, nvars):
            assert jack_by_gram_schmidt(lam, ctx) == jack(lam, ctx).monic, lam


def test_gram_schmidt_callers_cannot_corrupt_cached_values():
    lam = Partition((2, 1, 1))
    first = jack_by_gram_schmidt(lam, CTX4)
    expected = LaurentPoly(CTX4, dict(first.terms))
    first.terms.clear()
    first.terms[(9, 0, 0, 0)] = ONE
    assert jack_by_gram_schmidt(lam, CTX4) == expected == jack(lam, CTX4).monic


def test_gram_schmidt_needs_enough_variables():
    with pytest.raises(DegreeExceedsVariables):
        jack_by_gram_schmidt(Partition((3, 1)), CTX3)


def test_nonsym_eigenvalues():
    eig = nonsym_eigenvalues(Partition((2, 1)), CTX3)
    assert eig == [FieldElement([2, 2]), FieldElement([1, 1]), FieldElement([0])]
    # tied zeros rank left to right: r = (0, 2, 1)
    eig = nonsym_eigenvalues(Partition((1,)), CTX3)
    assert eig == [FieldElement([1, 2]), FieldElement([0]), FieldElement([0, 1])]


def test_nonsym_simplest():
    chi = nonsym_eigenfunction(Partition((1,)), CTX2)
    assert chi == LaurentPoly.variable(CTX2, 1)
    assert nonsym_eigenfunction(Partition(()), CTX3) == LaurentPoly.one(CTX3)


REPEATED = [(3, (1,)), (2, (1, 1)), (3, (2, 2, 1))]


def test_nonsym_eigen_relations():
    for nvars, lam in [(2, (2, 1)), (2, (3, 1)), (3, (2, 1)), (3, (3, 1))] + REPEATED:
        ctx = VarContext(nvars)
        chi = nonsym_eigenfunction(Partition(lam), ctx)
        eig = nonsym_eigenvalues(Partition(lam), ctx)
        padded = Partition(lam).pad(nvars)
        assert chi.coefficient(padded) == ONE
        for i in range(1, nvars + 1):
            assert apply_hatD(i, chi) == chi.scale(eig[i - 1])


def test_every_recursion_step_is_an_eigenvector(monkeypatch):
    """Each integral E_eta on the chains that build E_lam for |lam| <= 7 and
    N <= 4, recorded as the recursion calls itself, has coefficients in Z[b],
    [z^eta] != 0, and is a joint eigenvector with the eigenvalues
    eta_i + b (N - 1 - r_i); building and checking them runs no gcd."""
    built = {}
    gcds = []

    def record(eta, ctx):
        built[eta] = build(eta, ctx)
        return built[eta]

    def count_gcd(a, b):
        gcds.append((a, b))
        return poly_gcd(a, b)

    build = oracle._knop_sahi
    monkeypatch.setattr(oracle, "_knop_sahi", record)
    monkeypatch.setattr(fieldring, "poly_gcd", count_gcd)
    for nvars, weight in itertools.product(range(1, 5), range(8)):
        for lam in partitions_of(weight, nvars):
            record(lam.pad(nvars), VarContext(nvars))
    assert {(0, 2, 1), (2, 0, 1, 1), (1, 0, 3)} <= set(built)
    for eta, chi in built.items():
        assert chi.coefficient(eta), eta
        assert all(c.den == (1,) for c in chi.terms.values()), eta
        for i, x in enumerate(eta, start=1):
            rank = sum(y > x for y in eta) + eta[i:].count(x)
            assert apply_hatD(i, chi) == chi.scale(FieldElement((x, len(eta) - 1 - rank))), (eta, i)
    assert not gcds


def test_nonsym_rejects_too_many_parts():
    # repeated parts are built like distinct ones; only l(lambda) > N is refused
    with pytest.raises(TooManyParts):
        nonsym_eigenfunction(Partition((3, 2, 1)), CTX2)


def test_symmetrization_matches():
    for nvars, lam in [(2, (1,)), (2, (2, 1)), (3, (2, 1)), (3, (3, 1))] + REPEATED:
        ctx = VarContext(nvars)
        got = jack_by_symmetrization(Partition(lam), ctx)
        assert got == jack(Partition(lam), ctx).monic


def test_symmetrization_builds_once_and_divides_once(monkeypatch):
    """On every lam with |lam| <= 6 and N <= 4, jack_by_symmetrization builds
    the integral E_lam once and sums its orbits in Z[b], so its one division,
    by the coefficient of m_lam, runs at most one gcd per m-coordinate."""
    etas = []
    gcds = []

    def record(eta, ctx):
        etas.append(eta)
        return build(eta, ctx)

    def count_gcd(a, b):
        gcds.append((a, b))
        return poly_gcd(a, b)

    build = oracle._knop_sahi
    monkeypatch.setattr(oracle, "_knop_sahi", record)
    monkeypatch.setattr(fieldring, "poly_gcd", count_gcd)
    for nvars, weight in itertools.product(range(1, 5), range(7)):
        ctx = VarContext(nvars)
        for lam in partitions_of(weight, nvars):
            etas.clear()
            gcds.clear()
            got = jack_by_symmetrization(lam, ctx)
            assert etas.count(lam.pad(nvars)) == 1, (lam, nvars)
            assert len(gcds) <= len(got.m_coordinates()), (lam, nvars, len(gcds))


def test_vacuum_everywhere():
    assert jack_by_triangular_H(Partition(()), CTX2) == LaurentPoly.one(CTX2)
    assert jack_by_gram_schmidt(Partition(()), CTX2) == LaurentPoly.one(CTX2)
