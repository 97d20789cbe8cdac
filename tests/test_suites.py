import copy
import itertools
import pickle

import pytest
from criteria_helpers import specialize_beta

from csjack import symbases
from csjack.fieldring import ZERO, FieldElement
from csjack.partitions import partitions_of, z_factor
from csjack.polyring import VarContext
from csjack.rodrigues import jack
from csjack.suites import (
    COMMUTATOR_COUNT,
    SUITES,
    CheckResult,
    suite_commutators,
    suite_orthogonality,
    suite_spectrum_consistency,
)


def test_suite_names():
    assert set(SUITES) == {
        "commutators",
        "rodrigues-vs-oracle",
        "annihilation",
        "orthogonality",
        "spectrum-consistency",
    }


def test_commutators_small():
    results = suite_commutators(max_degree=3, max_nvars=3)
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    names = [r.name for r in results]
    assert "dunkl-commute" in names
    assert "shifted-family-swap" in names
    # the corpus reaches its fixed size
    assert sum(r.cases for r in results) >= COMMUTATOR_COUNT


def test_commutators_deterministic():
    a = suite_commutators(max_degree=3, max_nvars=3)
    b = suite_commutators(max_degree=3, max_nvars=3)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]


def test_spectrum_consistency_small():
    results = suite_spectrum_consistency()
    assert all(r.passed for r in results)


def test_check_result_is_a_frozen_record():
    result = CheckResult("dunkl-commute", True, "", 23)
    assert result == CheckResult("dunkl-commute", True, "", 23) != CheckResult("dunkl-commute", False, "x", 23)
    assert hash(result) == hash(CheckResult("dunkl-commute", True, "", 23))
    assert repr(result) == "CheckResult(name='dunkl-commute', passed=True, detail='', cases=23)"
    assert CheckResult("x", False) == CheckResult("x", False, "", 0)
    assert copy.copy(result) == result == pickle.loads(pickle.dumps(result))
    with pytest.raises(AttributeError):
        result.passed = False
    with pytest.raises(AttributeError):
        del result.detail
    assert result.passed is True


def integral_and_monic(lam, ctx):
    """(phi_lam, J_lam, c_lam) with phi_lam = c_lam J_lam."""
    raw = jack(lam, ctx, "raw")
    return raw.raw, jack(lam, ctx).monic, raw.c


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_integral_pairings_are_the_monic_pairings_times_c(nvars):
    """suite_orthogonality pairs phi_lam in place of J_lam; this is the
    identity its zero tests and its failure details rely on."""
    ctx = VarContext(nvars)
    for degree in range(1, min(4, nvars) + 1):
        jacks = {lam: integral_and_monic(lam, ctx) for lam in partitions_of(degree, nvars)}
        pairs = itertools.combinations_with_replacement(jacks.values(), 2)
        for (phi_a, j_a, c_a), (phi_b, j_b, c_b) in pairs:
            integral = symbases.scalar_product_p(
                symbases.expand_in_basis(phi_a, "p"), symbases.expand_in_basis(phi_b, "p")
            )
            monic = symbases.scalar_product_p(
                symbases.expand_in_basis(j_a, "p"), symbases.expand_in_basis(j_b, "p")
            )
            assert integral == c_a * c_b * monic
            for beta_int in (1, 2):
                c = c_a.specialize(beta_int) * c_b.specialize(beta_int)
                assert c > 0
                integral = symbases.circle_inner_product(phi_a, phi_b, beta_int)
                assert integral == c * symbases.circle_inner_product(j_a, j_b, beta_int)


def first_nonzero_on_monic(jacks: dict, pairing) -> str:
    for (a, f), (b, g) in itertools.combinations(jacks.items(), 2):
        value = pairing(f, g)
        if value:
            return f"<J_{a}, J_{b}> = {value}"
    return ""


def test_broken_pairings_print_the_monic_value(monkeypatch):
    def inverted_coupling(f, g):
        # <p_lam, p_lam> = z_lam b^l(lam) in place of z_lam b^-l(lam): bilinear,
        # and not zero on distinct Jacks
        pairs = (
            (a * g.coords[lam] * z_factor(lam) * FieldElement.beta(len(lam)))
            for lam, a in f.coords.items()
            if lam in g.coords
        )
        return sum(pairs, ZERO)

    def heavier_weight(f, g, beta_int):
        # the torus weight of beta_int + 1 on polynomials specialized at beta_int
        return true_circle(specialize_beta(f, beta_int), specialize_beta(g, beta_int), beta_int + 1)

    true_circle = symbases.circle_inner_product
    monkeypatch.setattr(symbases, "scalar_product_p", inverted_coupling)
    monkeypatch.setattr(symbases, "circle_inner_product", heavier_weight)
    details = {r.name: r.detail for r in suite_orthogonality(max_degree=3, max_nvars=3) if not r.passed}

    # the suite's sweep on the monic J_lam
    expected = {}
    for nvars in (2, 3):
        ctx = VarContext(nvars)
        for degree in range(1, nvars + 1):
            parts = partitions_of(degree, nvars)
            jacks = {lam: symbases.expand_in_basis(jack(lam, ctx).monic, "p") for lam in parts}
            bad = first_nonzero_on_monic(jacks, inverted_coupling)
            if bad:
                expected[f"power-sum-orthogonal-n{nvars}-d{degree}"] = bad
        for beta_int in (1, 2):
            for degree in (1, 2, 3):
                jacks = {lam: jack(lam, ctx).monic for lam in partitions_of(degree, nvars)}
                bad = first_nonzero_on_monic(jacks, lambda f, g: heavier_weight(f, g, beta_int))
                if bad:
                    expected[f"torus-orthogonal-n{nvars}-beta{beta_int}"] = f"degree {degree}: {bad}"
                    break
    assert details == expected
    # every sweep that has two partitions of one degree fails
    assert len(details) == 7
