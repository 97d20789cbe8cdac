"""Property suites behind the command line `verify` command.

Each suite returns a list of CheckResult, one per named identity or sweep
case.  All randomness is seeded, so two runs produce identical output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import oracle, rodrigues, spectrum, symbases
from .fieldring import BETA
from .operators import (
    apply_D,
    apply_dunkl,
    apply_H,
    apply_hatD,
    apply_hatH,
    apply_L,
    apply_N,
    full_index_set,
    _times_z,
)
from .partitions import Partition, partitions_of
from .polyring import LaurentPoly, VarContext

DEFAULT_SEED = 20260819


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    cases: int = 0


def _random_poly(rng: random.Random, ctx: VarContext, max_degree: int) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(0, max_degree)
        exps = [0] * ctx.nvars
        for _ in range(degree):
            exps[rng.randrange(ctx.nvars)] += 1
        terms[tuple(exps)] = rng.randint(-4, 4)
    return LaurentPoly(ctx, terms)


def _random_symmetric(rng: random.Random, ctx: VarContext, max_degree: int) -> LaurentPoly:
    degree = rng.randint(1, max_degree)
    choices = partitions_of(degree, ctx.nvars)
    picked = rng.sample(choices, k=min(len(choices), rng.randint(1, 2)))
    terms = [symbases.monomial_sym(lam, ctx).scale(rng.randint(1, 5)) for lam in picked]
    return LaurentPoly.sum(ctx, terms)


def _case_ctx(rng: random.Random, max_nvars: int) -> VarContext:
    return VarContext(rng.randint(2, max_nvars))


def suite_commutators(
    max_degree: int = 5, max_nvars: int = 4, count: int = 200, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Operator exchange identities on random polynomials."""

    def dunkl_commute(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        lhs = apply_dunkl(i, apply_dunkl(j, p))
        rhs = apply_dunkl(j, apply_dunkl(i, p))
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def dunkl_swap(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        lhs = apply_dunkl(j, p).swap_vars(i, j)
        rhs = apply_dunkl(i, p.swap_vars(i, j))
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def dunkl_z_commutator(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i = rng.randint(1, ctx.nvars)
        j = rng.randint(1, ctx.nvars)
        lhs = apply_dunkl(i, p.shift_var(j, 1)) - apply_dunkl(i, p).shift_var(j, 1)
        rhs = -p.swap_vars(i, j).scale(BETA)
        if i == j:
            swapped = LaurentPoly.sum(ctx, (p.swap_vars(i, l) for l in range(1, ctx.nvars + 1)))
            rhs = rhs + p + swapped.scale(BETA)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def degree_exchange(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        lhs = apply_D(i, apply_D(j, p)) - apply_D(j, apply_D(i, p))
        rhs = (apply_D(j, p.swap_vars(i, j)) - apply_D(i, p.swap_vars(i, j))).scale(BETA)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def power_exchange(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        ell = rng.randint(1, 3)

        def dpow(k, q, times):
            for _ in range(times):
                q = apply_D(k, q)
            return q

        lhs = dpow(i, apply_D(j, p), ell) - apply_D(j, dpow(i, p, ell))
        swapped = p.swap_vars(i, j)
        rhs = (dpow(j, swapped, ell) - dpow(i, swapped, ell)).scale(BETA)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} l={ell} p={p}"

    def restricted_swap(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        base = _random_poly(rng, ctx, max_degree)
        i, j = sorted(rng.sample(range(1, ctx.nvars + 1), 2))
        p = base + base.swap_vars(i, j)
        m = rng.randint(0, 3)
        lhs = apply_D(i, apply_D(j, p) + p.scale(BETA * (m + 1))) + (
            apply_D(j, p) + p.scale(BETA * (m + 1))
        ).scale(BETA * m)
        rhs = apply_D(j, apply_D(i, p) + p.scale(BETA * (m + 1))) + (
            apply_D(i, p) + p.scale(BETA * (m + 1))
        ).scale(BETA * m)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} m={m} p={p}"

    def shifted_commute(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        lhs = apply_hatD(i, apply_hatD(j, p))
        rhs = apply_hatD(j, apply_hatD(i, p))
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def shifted_swap(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i = rng.randint(1, ctx.nvars - 1)
        lhs = apply_hatD(i + 1, p.swap_vars(i, i + 1)) - apply_hatD(i, p).swap_vars(i, i + 1)
        if lhs != p.scale(BETA):
            return f"adjacent swap: nvars={ctx.nvars} i={i} p={p}"
        for k in range(1, ctx.nvars + 1):
            if k in (i, i + 1):
                continue
            if apply_hatD(k, p).swap_vars(i, i + 1) != apply_hatD(k, p.swap_vars(i, i + 1)):
                return f"distant swap: nvars={ctx.nvars} i={i} k={k} p={p}"
        return ""

    def z_set_commutator(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        size = rng.randint(1, ctx.nvars - 1)
        J = tuple(sorted(rng.sample(range(1, ctx.nvars + 1), size)))
        i = rng.randint(1, ctx.nvars)

        lhs = apply_D(i, _times_z(p, J)) - _times_z(apply_D(i, p), J)
        if i in J:
            outside = (j for j in range(1, ctx.nvars + 1) if j not in J)
            swapped = LaurentPoly.sum(ctx, (_times_z(p.swap_vars(i, j), J) for j in outside))
            rhs = _times_z(p, J) + swapped.scale(BETA)
        else:
            terms = [
                _times_z(p.swap_vars(i, j), tuple(v for v in J if v != j)).shift_var(i, 1)
                for j in J
            ]
            rhs = -LaurentPoly.sum(ctx, terms).scale(BETA)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} J={J} p={p}"

    identities = [
        ("dunkl-commute", dunkl_commute),
        ("dunkl-swap-intertwine", dunkl_swap),
        ("dunkl-z-commutator", dunkl_z_commutator),
        ("degree-op-exchange", degree_exchange),
        ("degree-op-power-exchange", power_exchange),
        ("string-factor-swap-on-symmetric", restricted_swap),
        ("shifted-family-commute", shifted_commute),
        ("shifted-family-swap", shifted_swap),
        ("z-set-commutator", z_set_commutator),
    ]
    per = max(1, -(-count // len(identities)))
    results = []
    for name, body in identities:
        rng = random.Random(f"{seed}:{name}")
        detail = ""
        runs = 0
        for _ in range(per):
            runs += 1
            detail = body(rng)
            if detail:
                break
        results.append(CheckResult(name, not detail, detail, runs))
    return results


def suite_rodrigues_vs_oracle(max_degree: int = 4, max_nvars: int = 3) -> list[CheckResult]:
    """Creation-operator output against the triangular solve (and against
    Gram-Schmidt whenever the degree allows the pairing route)."""
    results = []
    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(0, max_degree + 1):
            for lam in partitions_of(degree, nvars - 1):
                monic = rodrigues.jack(lam, ctx).monic
                tri = oracle.jack_by_triangular_H(lam, ctx)
                ok = monic == tri
                detail = "" if ok else "triangular solve disagrees"
                if ok and degree <= nvars:
                    gs = oracle.jack_by_gram_schmidt(lam, ctx)
                    ok = monic == gs
                    detail = "" if ok else "pairing route disagrees"
                results.append(
                    CheckResult(f"jack-match-n{nvars}-{'.'.join(map(str, lam)) or '0'}", ok, detail, 1)
                )
    return results


def suite_annihilation(max_degree: int = 4, max_nvars: int = 3) -> list[CheckResult]:
    """Every leading D-string of the next cardinality kills phi_lam."""
    results = []
    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(0, max_degree + 1):
            for lam in partitions_of(degree, nvars - 1):
                phi = rodrigues.rodrigues_raw(lam, ctx)
                bad = ""
                for upto in range(len(lam), nvars):
                    image = apply_N(upto + 1, full_index_set(nvars)[: upto + 1], phi)
                    if image:
                        bad = f"cardinality {upto + 1} image is nonzero"
                        break
                results.append(
                    CheckResult(
                        f"annihilate-n{nvars}-{'.'.join(map(str, lam)) or '0'}", not bad, bad, 1
                    )
                )
    return results


def suite_orthogonality(max_degree: int = 4, max_nvars: int = 4) -> list[CheckResult]:
    """Distinct Jack polynomials are orthogonal under both pairings."""

    def first_nonzero_pairing(jacks: dict, pairing) -> str:
        for a, b in itertools.combinations(jacks, 2):
            value = pairing(jacks[a], jacks[b])
            if value:
                return f"<J_{a}, J_{b}> = {value}"
        return ""

    results = []
    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(1, min(max_degree, nvars) + 1):
            expansions = {
                lam: symbases.expand_in_basis(rodrigues.jack(lam, ctx).monic, "p")
                for lam in partitions_of(degree, nvars)
            }
            bad = first_nonzero_pairing(expansions, symbases.scalar_product_p)
            results.append(CheckResult(f"power-sum-orthogonal-n{nvars}-d{degree}", not bad, bad, 1))
    for nvars in range(2, min(max_nvars, 3) + 1):
        ctx = VarContext(nvars)
        for beta_int in (1, 2):
            bad = ""
            for degree in range(1, min(max_degree, 4) + 1):
                parts = partitions_of(degree, nvars)
                polys = {lam: rodrigues.jack(lam, ctx).monic for lam in parts}
                bad = first_nonzero_pairing(
                    polys, lambda f, g: symbases.circle_inner_product(f, g, beta_int)
                )
                if bad:
                    bad = f"degree {degree}: {bad}"
                    break
            results.append(CheckResult(f"torus-orthogonal-n{nvars}-beta{beta_int}", not bad, bad, 1))
    return results


def suite_spectrum_consistency(count: int = 50, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Random spectra: additivity, ground state, exclusion spacing."""
    rng = random.Random(f"{seed}:spectrum")
    bad_energy = ""
    bad_momentum = ""
    bad_spacing = ""
    bad_ground = ""
    for _ in range(count):
        n = rng.randint(2, 5)
        beta = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lam = Partition(
            sorted((rng.randint(0, 5) for _ in range(rng.randint(0, n))), reverse=True)
        )
        params = spectrum.ModelParams(nparticles=n, beta=beta, q=q)
        at_rest = spectrum.ModelParams(nparticles=n, beta=beta)
        kappa = spectrum.quasi_momenta(lam, params)
        if not bad_energy:
            direct = spectrum.total_energy(lam, params)
            boosted = sum(((k + q) ** 2 for k in spectrum.quasi_momenta(lam, at_rest)), Fraction(0))
            if direct != boosted:
                bad_energy = f"lam={lam} n={n} beta={beta} q={q}"
        if not bad_momentum:
            if spectrum.total_momentum(lam, params) != lam.weight + n * q:
                bad_momentum = f"lam={lam} n={n} beta={beta} q={q}"
        if not bad_spacing:
            padded = lam.pad(n)
            for i in range(n - 1):
                gap = kappa[i] - kappa[i + 1]
                if gap < beta or (padded[i] == padded[i + 1]) != (gap == beta):
                    bad_spacing = f"lam={lam} n={n} beta={beta} q={q} i={i + 1}"
                    break
        if not bad_ground:
            rest_energy = spectrum.total_energy(Partition(), at_rest)
            if 4 * rest_energy != spectrum.ground_energy(at_rest):
                bad_ground = f"n={n} beta={beta}"
    return [
        CheckResult("energy-boost-additivity", not bad_energy, bad_energy, count),
        CheckResult("momentum-additivity", not bad_momentum, bad_momentum, count),
        CheckResult("exclusion-spacing", not bad_spacing, bad_spacing, count),
        CheckResult("ground-state-energy", not bad_ground, bad_ground, count),
    ]


def suite_hamiltonian(
    max_degree: int = 5, max_nvars: int = 4, count: int = 100, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Agreement of the three Hamiltonian routes and charge commutation on
    random symmetric polynomials."""
    rng = random.Random(f"{seed}:hamiltonian")
    bad_square = ""
    bad_shifted = ""
    bad_charges = ""
    runs = 0
    for _ in range(count):
        runs += 1
        ctx = _case_ctx(rng, max_nvars)
        p = _random_symmetric(rng, ctx, max_degree)
        h = apply_H(p)
        if not bad_square:
            squares = (apply_D(i, apply_D(i, p)) for i in range(1, ctx.nvars + 1))
            if LaurentPoly.sum(ctx, squares) != h:
                bad_square = f"nvars={ctx.nvars} p={p}"
        if not bad_shifted:
            if apply_hatH(p) != h:
                bad_shifted = f"nvars={ctx.nvars} p={p}"
        if not bad_charges:
            if apply_L(2, apply_L(3, p)) != apply_L(3, apply_L(2, p)):
                bad_charges = f"nvars={ctx.nvars} p={p}"
    return [
        CheckResult("hamiltonian-vs-squares", not bad_square, bad_square, runs),
        CheckResult("hamiltonian-vs-shifted-family", not bad_shifted, bad_shifted, runs),
        CheckResult("charge-commutation-2-3", not bad_charges, bad_charges, runs),
    ]


SUITES = {
    "commutators": lambda deg, nv: suite_commutators(deg, nv),
    "rodrigues-vs-oracle": lambda deg, nv: suite_rodrigues_vs_oracle(deg, nv),
    "annihilation": lambda deg, nv: suite_annihilation(deg, nv),
    "orthogonality": lambda deg, nv: suite_orthogonality(deg, nv),
    "spectrum-consistency": lambda deg, nv: suite_spectrum_consistency(),
}


def run_suite(name: str, max_degree: int, max_nvars: int) -> list[CheckResult]:
    names = list(SUITES) if name == "all" else [name]
    return [result for n in names for result in SUITES[n](max_degree, max_nvars)]
