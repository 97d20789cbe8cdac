"""The acceptance gate: thirteen criteria, every equality exact in Q(b).

Each criterion is one test; the conftest hook prints a one-line PASS/FAIL
report per criterion after the run.  Sweeps are sized so the whole file
stays well inside its runtime budgets on modest hardware.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from cli_helper import run_cli

from criteria_helpers import is_integer_in_inverse_beta, specialize_beta

from csjack import oracle, rodrigues, suites
from csjack.fieldring import (
    BETA,
    ONE,
    FieldElement,
)
from csjack.operators import (
    apply_B_plus,
    apply_D,
    apply_H,
    apply_hatD,
    apply_hatH,
    apply_L,
)
from csjack.oracle import eigenvalue_epsilon
from csjack.partitions import Partition, dominates, partitions_of
from csjack.polyring import LaurentPoly, VarContext, from_m_coordinates
from csjack.rodrigues import jack
from csjack.symbases import monomial_sym, schur


def sweep(max_weight, nvars_list):
    for nvars in nvars_list:
        ctx = VarContext(nvars)
        for n in range(0, max_weight + 1):
            for lam in partitions_of(n, nvars - 1):
                yield lam, ctx


def test_criterion_01_worked_example():
    rodrigues._phi.cache_clear()
    oracle.triangular_system.cache_clear()
    start = time.monotonic()
    ctx = VarContext(3)
    r = jack(Partition((3, 1)), ctx)
    assert r.c == BETA**2 * (BETA + 1) ** 2 * 2
    # the raw product B_2+ (B_1+)^2 acting on 1, divided by c, is monic
    one = LaurentPoly.one(ctx)
    J = (1, 2, 3)
    raw = apply_B_plus(2, J, apply_B_plus(1, J, apply_B_plus(1, J, one)))
    assert raw == r.monic.scale(r.c)
    monic = raw.scale(r.c.inverse())
    assert monic.coefficient((3, 1, 0)) == ONE
    # dominance triangular: only partitions below (3,1) appear
    lam = Partition((3, 1))
    for e, coeff in monic.sorted_terms():
        mu = Partition(sorted(e, reverse=True))
        assert coeff and dominates(lam, mu)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"worked example took {elapsed:.2f}s"


def test_criterion_02_oracle_equivalence():
    start = time.monotonic()
    for lam, ctx in sweep(6, (2, 3, 4)):
        monic = jack(lam, ctx).monic
        assert monic == oracle.jack_by_triangular_H(lam, ctx), (lam, ctx.nvars)
        if lam.weight <= ctx.nvars:
            assert monic == oracle.jack_by_gram_schmidt(lam, ctx), (lam, ctx.nvars)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_03_eigenfunction():
    for lam, ctx in sweep(6, (2, 3, 4)):
        p = jack(lam, ctx).monic
        assert apply_H(p) == p.scale(eigenvalue_epsilon(lam, ctx.nvars)), (lam, ctx.nvars)


def test_criterion_04_annihilation():
    results = suites.suite_annihilation(max_degree=6, max_nvars=4)
    failed = [r for r in results if not r.passed]
    assert not failed, [(r.name, r.detail) for r in failed]
    # spot-check the statement for non-leading index sets as well
    ctx = VarContext(3)
    phi = rodrigues.rodrigues_raw(Partition((2, 1)), ctx)
    from csjack.operators import apply_N

    for J in combinations((1, 2, 3), 3):
        assert not apply_N(3, J, phi)


def test_criterion_05_leading_coefficient():
    for n in range(0, 6):
        for ell in range(1, 4):
            ctx = VarContext(ell + 1)
            J = tuple(range(1, ctx.nvars + 1))
            for lam in partitions_of(n, ell):
                padded = lam.pad(ell)
                a = ONE
                for k in range(1, ell + 1):
                    a = a * FieldElement((padded[k - 1], ell + 1 - k))
                raised = Partition(tuple(x + 1 for x in padded))
                # coefficient of m_{lam+1} in B_ell^+ m_lam
                image = apply_B_plus(ell, J, monomial_sym(lam, ctx))
                assert image.coefficient(raised.pad(ctx.nvars)) == a, (lam, ell)
                # and the full identity on the polynomials themselves
                lhs = apply_B_plus(ell, J, jack(lam, ctx).monic)
                rhs = jack(raised, ctx).monic.scale(a)
                assert lhs == rhs, (lam, ell)


def test_criterion_06_commutators():
    results = suites.suite_commutators(max_degree=5, max_nvars=4)
    assert sum(r.cases for r in results) >= 200
    failed = [r for r in results if not r.passed]
    assert not failed, [(r.name, r.detail) for r in failed]


def test_criterion_07_hamiltonian_consistency():
    # sum of D_i^2 == H == hatH, and [L_2, L_3] = 0, on 100 random symmetric
    # polynomials: one or two m_lam, degree 1..5, in 2..4 variables
    rng = random.Random(f"{suites.DEFAULT_SEED}:hamiltonian")
    for _ in range(100):
        ctx = VarContext(rng.randint(2, 4))
        choices = partitions_of(rng.randint(1, 5), ctx.nvars)
        picked = rng.sample(choices, k=min(len(choices), rng.randint(1, 2)))
        p = from_m_coordinates({lam: rng.randint(1, 5) for lam in picked}, ctx)
        h = apply_H(p)
        squares = (apply_D(i, apply_D(i, p)) for i in range(1, ctx.nvars + 1))
        assert LaurentPoly.sum(ctx, squares) == h, p
        assert apply_hatH(p) == h, p
        assert apply_L(2, apply_L(3, p)) == apply_L(3, apply_L(2, p)), p


def test_criterion_08_orthogonality():
    results = suites.suite_orthogonality(max_degree=4, max_nvars=4)
    failed = [r for r in results if not r.passed]
    assert not failed, [(r.name, r.detail) for r in failed]


def test_criterion_09_schur_specialization():
    one = Fraction(1)
    for nvars in (2, 3, 4):
        ctx = VarContext(nvars)
        for n in range(0, 6):
            for lam in partitions_of(n, nvars):
                got = specialize_beta(jack(lam, ctx).monic, one)
                assert got == schur(lam, ctx), (lam, nvars)


def test_criterion_10_nonsym_route(monkeypatch):
    """One build of each integral E_lam: the route checks it against the
    family, scales and symmetrizes it, and the test checks that same
    integral E_lam against the family with r_i written here."""
    built = []
    build = oracle._knop_sahi

    def record(eta, ctx):
        chi = build(eta, ctx)
        if eta == lam.pad(ctx.nvars):
            built.append(chi)
        return chi

    monkeypatch.setattr(oracle, "_knop_sahi", record)
    for nvars in range(1, 6):
        ctx = VarContext(nvars)
        for n in range(0, 8):
            for lam in partitions_of(n, nvars):
                assert oracle.jack_by_symmetrization(lam, ctx) == jack(lam, ctx).monic, (
                    lam,
                    nvars,
                )
                (chi,) = built
                built.clear()
                padded = lam.pad(nvars)
                for i, x in enumerate(padded, start=1):
                    # rank of slot i: the larger parts, then the equal parts to its right
                    rank = sum(y > x for y in padded) + padded[i:].count(x)
                    expect = chi.scale(FieldElement((x, nvars - 1 - rank)))
                    assert apply_hatD(i, chi) == expect, (lam, nvars, i)


def test_criterion_11_spectrum_consistency():
    results = suites.suite_spectrum_consistency(6, 5)
    failed = [r for r in results if not r.passed]
    assert not failed, [(r.name, r.detail) for r in failed]


def test_criterion_12_stanley_integrality():
    # integer polynomials in the inverse coupling; see the expansion of
    # lambda = (2), which is (1 + 1/b) m_2 + 2 m_11
    for nvars in (2, 3, 4):
        ctx = VarContext(nvars)
        for n in range(0, 7):
            for lam in partitions_of(n, nvars):
                st = jack(lam, ctx, "stanley").polynomial
                for e, coeff in st.sorted_terms():
                    assert is_integer_in_inverse_beta(coeff), (lam, nvars, e, str(coeff))


def test_criterion_13_cli_determinism():
    commands = [
        ("jack", "--lambda", "3,1", "--nvars", "3"),
        ("jack", "--lambda", "2,2,1", "--nvars", "4", "--normalization", "stanley", "--format", "text"),
        ("verify", "--suite", "all", "--max-degree", "3", "--max-nvars", "2"),
        ("spectrum", "--all-degree", "3", "--nparticles", "3", "--beta", "2/3", "--format", "json"),
    ]
    for cmd in commands:
        a = run_cli(*cmd)
        b = run_cli(*cmd)
        assert a.returncode == b.returncode == 0, (cmd, a.stderr)
        assert a.stdout == b.stdout, cmd
    # convert is deterministic end to end as well
    src = run_cli("jack", "--lambda", "2,1", "--nvars", "3").stdout
    a = run_cli("convert", "--to", "p", stdin=src)
    b = run_cli("convert", "--to", "p", stdin=src)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["basis"] == "p"
