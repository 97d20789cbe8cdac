import copy
import itertools
import pickle
import sys

import pytest
from criteria_helpers import SWEEP, case_id, specialize_beta

from csjack import cli, oracle, rodrigues, spectrum, symbases
from csjack.fieldring import BETA, ONE, ZERO, FieldElement
from csjack.partitions import Partition, partitions_of, z_factor
from csjack.polyring import VarContext, from_m_coordinates
from csjack.rodrigues import jack
from csjack.suites import (
    COMMUTATOR_COUNT,
    SUITES,
    CheckResult,
    run_suite,
    suite_commutators,
    suite_orthogonality,
    suite_rodrigues_vs_oracle,
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
    results = suite_spectrum_consistency(max_degree=3, max_nvars=3)
    assert all(r.passed for r in results)


@pytest.mark.parametrize("max_degree, max_nvars", [(0, 2), (3, 3), (6, 5)])
def test_spectrum_consistency_draws_within_its_flags(monkeypatch, max_degree, max_nvars):
    """Every state the suite draws has 2 <= n <= max_nvars particles and a
    lam with |lam| <= max_degree and l(lam) <= n."""
    drawn = []
    quasi_momenta = spectrum.quasi_momenta

    def recording(lam, params):
        drawn.append((params.nparticles, lam))
        return quasi_momenta(lam, params)

    monkeypatch.setattr(spectrum, "quasi_momenta", recording)
    results = run_suite("spectrum-consistency", max_degree, max_nvars)
    assert all(r.passed for r in results)
    assert drawn
    assert all(2 <= n <= max_nvars and lam.weight <= max_degree and len(lam) <= n for n, lam in drawn), drawn


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
            # the suite's pairing: L^2 b^d <phi_a, phi_b>_p from m-coordinates
            scaled = symbases._integral_pairing(phi_a.m_coordinates(), phi_b.m_coordinates(), degree)
            assert scaled == symbases._integral_power_sums(degree)[0] * integral
            for beta_int in (1, 2):
                c = c_a.specialize(beta_int).as_fraction() * c_b.specialize(beta_int).as_fraction()
                assert c > 0
                integral = symbases.circle_inner_product(phi_a, phi_b, beta_int)
                assert integral == c * symbases.circle_inner_product(j_a, j_b, beta_int)


def first_nonzero_on_monic(jacks: dict, pairing) -> str:
    for (a, f), (b, g) in itertools.combinations(jacks.items(), 2):
        value = pairing(f, g)
        if value:
            return f"<J_{a}, J_{b}> = {value}"
    return ""


def p_expansion(coords, degree):
    """Power-sum coordinates of the symmetric function of the degree with
    m-coordinates coords; the same in every number of variables >= degree."""
    return symbases.expand_in_basis(from_m_coordinates(coords, VarContext(degree)), "p")


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

    def inverted_integral(f, g, degree):
        # the suite's pairing scale, L^2 b^degree, times inverted_coupling of
        # the functions with m-coordinates f and g: still bilinear
        scale = symbases._integral_power_sums(degree)[0]
        return scale * inverted_coupling(p_expansion(f, degree), p_expansion(g, degree))

    true_circle = symbases.circle_inner_product
    monkeypatch.setattr(symbases, "_integral_pairing", inverted_integral)
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


CTX4 = VarContext(4)


def add_to(coords, mu, delta):
    out = dict(coords)
    out[mu] = out.get(mu, ZERO) + delta
    return out


# (3,1) in 4 variables: |lam| <= N, so both residuals apply, and its down-set
# (3,1) > (2,2) > (2,1,1) > (1,1,1,1) is also its lexicographic one.  For
# (1,1,1), m_(3) reaches no partition below it in one move of H, and (1,1,1)
# has no lexicographic predecessor, so only the support conditions see it.
@pytest.mark.parametrize(
    "lam, mu, delta",
    [
        ((3, 1), (3, 1), ONE),
        ((3, 1), (2, 2), BETA),
        ((3, 1), (2, 1, 1), ONE),
        ((3, 1), (1, 1, 1, 1), BETA),
        ((3, 1), (4,), BETA),
        ((3, 1), None, ONE),
        ((1, 1, 1), (3,), BETA),
    ],
    ids=["leading", "interior-b", "interior-1", "lowest", "above", "c", "support-only"],
)
def test_a_perturbed_phi_fails_exactly_its_case(monkeypatch, lam, mu, delta):
    """One m-coordinate of phi_lam moved by b or 1, or c_lam moved by 1: the
    suite fails that case alone, and each residual check on its own rejects
    the pair, so the pairing check is not masked by the triangular one."""
    lam = Partition(lam)
    true_phi, true_c = rodrigues._phi, rodrigues.c_coefficient
    if mu is None:
        c = true_c(lam, CTX4) + delta
        coords = true_phi(CTX4, lam)

        def c_coefficient(parts, ctx):
            return c if (parts, ctx) == (lam, CTX4) else true_c(parts, ctx)

        monkeypatch.setattr(rodrigues, "c_coefficient", c_coefficient)
    else:
        c = true_c(lam, CTX4)
        coords = add_to(true_phi(CTX4, lam), Partition(mu), delta)

        def phi(ctx, parts):
            return coords if (ctx, parts) == (CTX4, lam) else true_phi(ctx, parts)

        monkeypatch.setattr(rodrigues, "_phi", phi)
    failed = {r.name: r.detail for r in suite_rodrigues_vs_oracle(5, 4) if not r.passed}
    assert failed == {f"jack-match-n4-{'.'.join(map(str, lam))}": "triangular solve disagrees"}
    assert not oracle.is_triangular_solution(coords, c, lam, CTX4)
    assert not oracle.is_pairing_solution(coords, c, lam, CTX4)


@pytest.mark.parametrize("case", SWEEP, ids=map(case_id, SWEEP))
def test_residuals_agree_with_the_solves(case):
    """On criterion 02's sweep the residual checks accept phi_lam exactly where
    the solves agree with phi_lam / c_lam, and both reject phi_lam moved by b
    at its least dominant partition, or paired with c_lam + 1."""
    lam, nvars = Partition(case[0]), case[1]
    ctx = VarContext(nvars)
    coords, c = rodrigues._phi(ctx, lam), rodrigues.c_coefficient(lam, ctx)
    lowest = partitions_of(lam.weight, nvars)[-1]
    pairing = lam.weight <= nvars
    for a, k, accepted in (
        (coords, c, True),
        (add_to(coords, lowest, BETA), c, False),
        (coords, c + 1, False),
    ):
        monic = from_m_coordinates(a, ctx).scale(k.inverse())
        assert oracle.is_triangular_solution(a, k, lam, ctx) is accepted
        assert (monic == oracle.jack_by_triangular_H(lam, ctx)) is accepted
        if pairing:
            assert oracle.is_pairing_solution(a, k, lam, ctx) is accepted
            assert (monic == oracle.jack_by_gram_schmidt(lam, ctx)) is accepted


def counting(fn, calls: list):
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


def test_oracle_suites_call_no_solver_expansion_or_field_pairing(monkeypatch):
    """With phi_lam and the oracles' tables cached, rodrigues-vs-oracle and
    orthogonality check equations on m-coordinates: they run neither oracle
    solver, no basis expansion and no Q(b) pairing."""
    assert all(r.passed for r in suite_rodrigues_vs_oracle(5, 4) + suite_orthogonality(4, 4))
    calls = []
    solvers = (oracle.jack_by_triangular_H, oracle.jack_by_gram_schmidt)
    for fn in solvers + (symbases.expand_in_basis, symbases.scalar_product_p):
        counted = counting(fn, calls)
        # wherever a csjack module holds the function, as an import or as its own
        for name, module in list(sys.modules.items()):
            if name.startswith("csjack") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    assert all(r.passed for r in suite_rodrigues_vs_oracle(5, 4) + suite_orthogonality(4, 4))
    assert calls == []


@pytest.mark.parametrize("suite", ["orthogonality", "all"])
def test_verify_builds_no_jack_result(suite, monkeypatch, capsys):
    """The suites read phi_lam and c_lam from the creation product itself:
    with rodrigues.jack raising, verify prints the same bytes."""
    argv = ["verify", "--suite", suite, "--max-degree", "4", "--max-nvars", "3"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out

    def no_jack(*args, **kwargs):
        raise AssertionError("a verify suite called rodrigues.jack")

    monkeypatch.setattr(rodrigues, "jack", no_jack)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
