"""The commutator and annihilation suites on packed integers against the
same checks at the symbolic coupling.

Both suites run on ints at b = 2^B with B from a proven bound; the
reference here is a loop of the test's own that runs the same identities,
draws and strings in Q(b), as the suites did before they were packed.  The
annihilation suite runs the creation kernel's D-string
(rodrigues._d_string) at shift 0, and its reference runs operators.apply_N,
so the two share no code past phi_lam.
"""

import random

import pytest
from criteria_helpers import annihilation_width, divided_difference, packed_widths, partial_derivative

from csjack import commutators, operators, rodrigues, suites
from csjack.fieldring import BETA
from csjack.partitions import partitions_of
from csjack.polyring import LaurentPoly, VarContext

# the largest cells of the benchmark's verify grid: (max_degree, max_nvars)
COMMUTATOR_CELLS = ((6, 5), (6, 4))
ANNIHILATION_CELLS = ((5, 4), (4, 5))


def cell_id(cell):
    max_degree, max_nvars = cell
    return f"{max_nvars}/{max_degree}"


def outcome(results):
    return [(r.name, r.passed, r.cases, r.detail) for r in results]


def norm(p: LaurentPoly) -> int:
    """Sum of the absolute integer coefficients over z- and b-monomials."""
    assert all(c.den == (1,) for c in p.terms.values())
    return sum(abs(x) for c in p.terms.values() for x in c.num)


def symbolic_commutators(monkeypatch, max_degree, max_nvars):
    """suite_commutators' loop with field input at the symbolic coupling."""
    draw = commutators._random_poly
    identities = commutators._commutator_identities(max_degree, max_nvars, BETA)
    per = max(1, -(-suites.COMMUTATOR_COUNT // len(identities)))
    results = []
    with monkeypatch.context() as m:
        m.setattr(commutators, "_random_poly", lambda *args: LaurentPoly(args[1], draw(*args).terms))
        for name, body in identities:
            rng = random.Random(f"{suites.DEFAULT_SEED}:{name}")
            detail, runs = "", 0
            for _ in range(per):
                runs += 1
                detail = body(rng)
                if detail:
                    break
            results.append(suites.CheckResult(name, detail, runs))
    return results


def symbolic_annihilation(max_degree, max_nvars):
    """suite_annihilation's loop on phi itself at the symbolic coupling."""
    results = []
    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(max_degree + 1):
            for lam in partitions_of(degree, nvars - 1):
                phi = rodrigues.rodrigues_raw(lam, ctx)
                bad = ""
                for upto in range(len(lam), nvars):
                    if operators.apply_N(upto + 1, tuple(range(1, upto + 2)), phi):
                        bad = f"cardinality {upto + 1} image is nonzero"
                        break
                name = f"annihilate-n{nvars}-{'.'.join(map(str, lam)) or '0'}"
                results.append(suites.CheckResult(name, bad, 1))
    return results


@pytest.mark.parametrize("cell", COMMUTATOR_CELLS, ids=map(cell_id, COMMUTATOR_CELLS))
def test_commutators_packed_match_symbolic(cell, monkeypatch):
    packed = suites.suite_commutators(*cell)
    assert outcome(packed) == outcome(symbolic_commutators(monkeypatch, *cell))
    assert all(r.passed for r in packed)


@pytest.mark.parametrize("cell", ANNIHILATION_CELLS, ids=map(cell_id, ANNIHILATION_CELLS))
def test_annihilation_packed_matches_symbolic(cell):
    packed = suites.suite_annihilation(*cell)
    assert outcome(packed) == outcome(symbolic_annihilation(*cell))
    assert all(r.passed for r in packed)


@pytest.mark.parametrize("cell", COMMUTATOR_CELLS, ids=map(cell_id, COMMUTATOR_CELLS))
def test_commutator_width_covers_every_side(cell, monkeypatch):
    sides = []

    def recorded_eq(lhs, rhs):
        sides.append(norm(lhs) + norm(rhs))
        return lhs.terms == rhs.terms

    with monkeypatch.context() as m:
        m.setattr(LaurentPoly, "__eq__", recorded_eq)
        symbolic_commutators(m, *cell)
    width = commutators._commutator_width(cell[1], cell[0])
    # every identity compares at least once per case
    assert len(sides) >= 200
    assert 0 < max(sides) < 1 << (width - 2)


@pytest.mark.parametrize("cell", ANNIHILATION_CELLS, ids=map(cell_id, ANNIHILATION_CELLS))
def test_annihilation_width_covers_every_string_step(cell):
    """The width the suite packs each phi_lam at, which is P prod_{s=1..N}
    (N |lam| + s) < 2^(B-2), bounds the 1-norm of every string step."""
    max_degree, max_nvars = cell
    with packed_widths() as widths:
        suites.suite_annihilation(*cell)
    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(max_degree + 1):
            for lam in partitions_of(degree, nvars - 1):
                phi = rodrigues.rodrigues_raw(lam, ctx)
                width = widths[nvars, tuple(rodrigues._creation_steps(lam))]
                assert width == annihilation_width(lam, nvars)
                limit = 1 << (width - 2)
                assert norm(phi) < limit
                for upto in range(len(lam), nvars):
                    q = phi
                    for pos in range(upto, -1, -1):
                        q = operators.apply_D(pos + 1, q) + q.scale(BETA * pos)
                        assert norm(q) < limit


def dunkl_without_last_difference(i, p, beta=BETA):
    """A broken Dunkl operator: no divided difference against z_N."""
    differences = (divided_difference(p, i, j) for j in range(1, p.ctx.nvars) if j != i)
    return partial_derivative(p, i) + LaurentPoly.sum(p.ctx, differences).scale(beta)


def test_annihilation_suite_builds_no_polynomial(monkeypatch):
    # a first run fills every cache, so only the suite's own reads are counted
    suites.suite_annihilation(5, 4)
    calls = []
    raw, m_coordinates = rodrigues.rodrigues_raw, LaurentPoly.m_coordinates
    monkeypatch.setattr(rodrigues, "rodrigues_raw", lambda *args: calls.append("rodrigues_raw") or raw(*args))
    monkeypatch.setattr(LaurentPoly, "m_coordinates", lambda self: calls.append("m_coordinates") or m_coordinates(self))
    assert all(r.passed for r in suites.suite_annihilation(5, 4))
    assert calls == []


def test_broken_operator_fails_both_commutator_routes(monkeypatch):
    # suites looks the operators up in operators when a suite runs
    monkeypatch.setattr(operators, "apply_dunkl", dunkl_without_last_difference)
    packed = suites.suite_commutators(4, 4)
    symbolic = symbolic_commutators(monkeypatch, 4, 4)
    assert outcome(packed) == outcome(symbolic)
    failed = [r.name for r in packed if not r.passed]
    assert "dunkl-commute" in failed and "shifted-family-commute" in failed


def test_broken_operator_pins_the_commutator_corpus(monkeypatch):
    # each identity stops at its first failing case, so the details name the
    # cases its seeded draws reach: a change to the draws shows up here
    monkeypatch.setattr(operators, "apply_dunkl", dunkl_without_last_difference)
    assert outcome(suites.suite_commutators(4, 4)) == [
        ("dunkl-commute", False, 2, "nvars=2 i=1 j=2 p=z1*z2 + (2)*z2"),
        ("dunkl-swap-intertwine", False, 1, "nvars=2 i=2 j=1 p=(2)*z1^3 + 2"),
        ("dunkl-z-commutator", False, 6, "nvars=2 i=1 j=2 p=(-1)*z1^2*z2^2 + (2)*z1*z2"),
        ("degree-op-exchange", False, 1, "nvars=4 i=4 j=2 p=(-1)*z1^2*z2 + (-2)*z1^2*z3 + (-1)*z2*z4^2"),
        ("degree-op-power-exchange", False, 2, "nvars=4 i=2 j=4 l=2 p=(-2)*z2^2*z3^2 + (3)*z2^2 + -4"),
        (
            "string-factor-swap-on-symmetric",
            False,
            1,
            "nvars=4 i=1 j=4 m=3 p=(3)*z1*z2*z3 + (-8)*z1*z4 + (3)*z2*z3*z4",
        ),
        ("shifted-family-commute", False, 4, "nvars=3 i=1 j=3 p=(-4)*z1^2*z2 + (-2)*z1*z3 + (4)*z2"),
        ("shifted-family-swap", False, 1, "adjacent swap: nvars=2 i=1 p=(-3)*z1^2*z2 + (4)*z1*z2"),
        ("z-set-commutator", False, 1, "nvars=2 i=1 J=(1,) p=1"),
    ]


def test_broken_kernel_string_fails_the_packed_annihilation_suite(monkeypatch):
    # every phi is built and cached with the true kernel first
    suites.suite_annihilation(4, 4)
    d_string = rodrigues._d_string
    # every shift off by one: the creation string in place of the annihilation one
    monkeypatch.setattr(rodrigues, "_d_string", lambda coords, k, start, beta: d_string(coords, k, start + 1, beta))
    failed = [r.name for r in suites.suite_annihilation(4, 4) if not r.passed]
    assert "annihilate-n2-1" in failed and "annihilate-n4-2.1.1" in failed
    assert all(r.passed for r in symbolic_annihilation(4, 4))


def test_broken_operator_fails_the_symbolic_annihilation_route(monkeypatch):
    # every phi is built and cached with the true kernel first
    suites.suite_annihilation(4, 4)
    monkeypatch.setattr(operators, "apply_dunkl", dunkl_without_last_difference)
    failed = [r.name for r in symbolic_annihilation(4, 4) if not r.passed]
    assert "annihilate-n2-1" in failed and "annihilate-n4-2.1.1" in failed
    assert all(r.passed for r in suites.suite_annihilation(4, 4))
