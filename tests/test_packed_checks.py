"""The commutator and annihilation suites on packed integers against the
same checks at the symbolic coupling.

Both suites run on ints at b = 2^B with B from a proven bound; the
reference here is a loop of the test's own that runs the same identities,
draws and strings in Q(b), as the suites did before they were packed.
"""

import random

import pytest

from csjack import operators, rodrigues, suites
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


def symbolic_commutators(monkeypatch, max_degree, max_nvars, count=200, seed=suites.DEFAULT_SEED):
    """suite_commutators' loop with field input at the symbolic coupling."""
    draw = suites._random_poly
    identities = suites._commutator_identities(max_degree, max_nvars, BETA)
    per = max(1, -(-count // len(identities)))
    results = []
    with monkeypatch.context() as m:
        m.setattr(suites, "_random_poly", lambda *args: LaurentPoly(args[1], draw(*args).terms))
        for name, body in identities:
            rng = random.Random(f"{seed}:{name}")
            detail, runs = "", 0
            for _ in range(per):
                runs += 1
                detail = body(rng)
                if detail:
                    break
            results.append(suites.CheckResult(name, not detail, detail, runs))
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
                results.append(suites.CheckResult(name, not bad, bad, 1))
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
    width = suites._commutator_width(cell[1], cell[0])
    # every identity compares at least once per case
    assert len(sides) >= 200
    assert 0 < max(sides) < 1 << (width - 2)


@pytest.mark.parametrize("cell", ANNIHILATION_CELLS, ids=map(cell_id, ANNIHILATION_CELLS))
def test_annihilation_width_covers_every_string_step(cell):
    max_degree, max_nvars = cell
    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(max_degree + 1):
            for lam in partitions_of(degree, nvars - 1):
                phi = rodrigues.rodrigues_raw(lam, ctx)
                limit = 1 << (suites._annihilation_width(phi) - 2)
                assert norm(phi) < limit
                for upto in range(len(lam), nvars):
                    q = phi
                    for pos in range(upto, -1, -1):
                        q = operators.apply_D(pos + 1, q) + q.scale(BETA * pos)
                        assert norm(q) < limit


def dunkl_without_last_difference(i, p, beta=BETA, *, _against=None):
    """A broken Dunkl operator: no divided difference against z_N (and no
    skip on the pairs a D-string proves vanishing)."""
    differences = (p.divided_difference(i, j) for j in range(1, p.ctx.nvars) if j != i)
    return p.partial_derivative(i) + LaurentPoly.sum(p.ctx, differences).scale(beta)


def test_broken_operator_fails_both_commutator_routes(monkeypatch):
    # suites looks the operators up in operators when a suite runs
    monkeypatch.setattr(operators, "apply_dunkl", dunkl_without_last_difference)
    packed = suites.suite_commutators(4, 4)
    symbolic = symbolic_commutators(monkeypatch, 4, 4)
    assert outcome(packed) == outcome(symbolic)
    failed = [r.name for r in packed if not r.passed]
    assert "dunkl-commute" in failed and "shifted-family-commute" in failed


def test_broken_operator_fails_both_annihilation_routes(monkeypatch):
    # every phi is built and cached with the true operators first
    suites.suite_annihilation(4, 4)
    monkeypatch.setattr(operators, "apply_dunkl", dunkl_without_last_difference)
    packed = suites.suite_annihilation(4, 4)
    assert outcome(packed) == outcome(symbolic_annihilation(4, 4))
    failed = [r.name for r in packed if not r.passed]
    assert "annihilate-n2-1" in failed and "annihilate-n4-2.1.1" in failed
