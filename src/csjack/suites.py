"""Property suites behind the command line `verify` command.

Each suite returns a list of CheckResult records, one per named identity or
sweep case.  All randomness is seeded, so two runs produce identical output.

The commutator and annihilation identities are Z[b]-linear and their inputs
lie in Z[b][z], so those two suites run on plain ints at b = 2^B (Kronecker
substitution), with B computed at run time from a bound proved in
_commutator_width and _annihilation_width: with every coefficient of
lhs - rhs below 2^(B-2), the two sides agree at 2^B only when they agree in
Z[b].  The other suites run in Q(b) and import oracle, symbases and spectrum
when they run, so a packed suite loads none of them.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import rodrigues
from .fieldring import pack, pack_width
from .operators import (
    apply_D,
    apply_dunkl,
    apply_hatD,
    apply_N,
    full_index_set,
    _times_z,
)
from .partitions import Partition, partitions_of
from .polyring import LaurentPoly, Record, VarContext

DEFAULT_SEED = 20260819


class CheckResult(Record):
    """Outcome of one named identity or sweep case."""

    __slots__ = ("name", "passed", "detail", "cases")

    def __init__(self, name: str, passed: bool, detail: str = "", cases: int = 0):
        self._init(name, passed, detail, cases)


def _random_poly(rng: random.Random, ctx: VarContext, max_degree: int) -> LaurentPoly:
    """At most four terms with int coefficients in [-4, 4], so the sum of the
    absolute coefficients is at most 16."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(0, max_degree)
        exps = [0] * ctx.nvars
        for _ in range(degree):
            exps[rng.randrange(ctx.nvars)] += 1
        terms[tuple(exps)] = rng.randint(-4, 4)
    return LaurentPoly._raw(ctx, {e: c for e, c in terms.items() if c})


def _case_ctx(rng: random.Random, max_nvars: int) -> VarContext:
    return VarContext(rng.randint(2, max_nvars))


def _creation_cases(max_degree: int, max_nvars: int):
    """(ctx, lam, label) for nvars = 2..max_nvars and every lam of degree at
    most max_degree that the creation product builds in nvars variables."""
    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(max_degree + 1):
            for lam in partitions_of(degree, nvars - 1):
                yield ctx, lam, f"n{nvars}-{'.'.join(map(str, lam)) or '0'}"


def _commutator_width(max_nvars: int, max_degree: int) -> int:
    """Bits B such that each identity of suite_commutators holds at b = 2^B
    only when it holds in Z[b][z].

    Let |q| be the sum of the absolute integer coefficients of q over z- and
    b-monomials, N = max_nvars and d = max_degree.  On input of z-degree at
    most e, z_i d/dz_i and each of the N - 1 divided differences multiply |q|
    by at most e (rodrigues._digit_width) and the factor b by 1, so dunkl_i
    and D_i multiply |q| by at most N e, hatD_i by at most N e + N - 1, and
    D_i + s b by at most N e + s; swaps, shifts and z_J multiply it by 1 and
    scaling by b m by |m|.  No intermediate has degree above d + N, so every
    operator multiplies |q| by at most K = N (d + N) + N, and the string
    factors of the restricted swap (s <= 4) by at most K + 4.  A side applies
    at most four operators (power exchange at l = 3: |lhs - rhs| <=
    (2 K^4 + 2 K^3) |p|), and every identity has |lhs - rhs| <= 4 (K + 4)^4 |p|.
    _random_poly gives |p| <= 16 and the restricted swap's p = base + swap
    base has |p| <= 32.  So every b-coefficient of lhs - rhs is below
    2^(B-2) for B = pack_width(128 (K + 4)^4), and lhs - rhs vanishes at
    b = 2^B only if it is zero: its lowest nonzero coefficient would be a
    multiple of 2^B.
    """
    k = max_nvars * (max_degree + max_nvars) + max_nvars
    return pack_width(128 * (k + 4) ** 4)


def _commutator_identities(max_degree: int, max_nvars: int, beta) -> list[tuple]:
    """(name, body) of each identity of suite_commutators at the coupling
    beta; a body draws one case from its rng and returns "" or a detail."""

    def dunkl_commute(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        lhs = apply_dunkl(i, apply_dunkl(j, p, beta=beta), beta=beta)
        rhs = apply_dunkl(j, apply_dunkl(i, p, beta=beta), beta=beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def dunkl_swap(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        lhs = apply_dunkl(j, p, beta=beta).swap_vars(i, j)
        rhs = apply_dunkl(i, p.swap_vars(i, j), beta=beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def dunkl_z_commutator(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i = rng.randint(1, ctx.nvars)
        j = rng.randint(1, ctx.nvars)
        lhs = apply_dunkl(i, p.shift_var(j, 1), beta=beta)
        lhs = lhs - apply_dunkl(i, p, beta=beta).shift_var(j, 1)
        rhs = -p.swap_vars(i, j).scale(beta)
        if i == j:
            swapped = LaurentPoly.sum(ctx, (p.swap_vars(i, l) for l in range(1, ctx.nvars + 1)))
            rhs = rhs + p + swapped.scale(beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def degree_exchange(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        lhs = apply_D(i, apply_D(j, p, beta=beta), beta=beta)
        lhs = lhs - apply_D(j, apply_D(i, p, beta=beta), beta=beta)
        swapped = p.swap_vars(i, j)
        rhs = (apply_D(j, swapped, beta=beta) - apply_D(i, swapped, beta=beta)).scale(beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def power_exchange(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        ell = rng.randint(1, 3)

        def dpow(k, q, times):
            for _ in range(times):
                q = apply_D(k, q, beta=beta)
            return q

        lhs = dpow(i, apply_D(j, p, beta=beta), ell) - apply_D(j, dpow(i, p, ell), beta=beta)
        swapped = p.swap_vars(i, j)
        rhs = (dpow(j, swapped, ell) - dpow(i, swapped, ell)).scale(beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} l={ell} p={p}"

    def restricted_swap(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        base = _random_poly(rng, ctx, max_degree)
        i, j = sorted(rng.sample(range(1, ctx.nvars + 1), 2))
        p = base + base.swap_vars(i, j)
        m = rng.randint(0, 3)
        # each side applies D + m b to the other index's string factor D + (m + 1) b
        f_i, f_j = (apply_D(k, p, beta=beta) + p.scale(beta * (m + 1)) for k in (i, j))
        lhs = apply_D(i, f_j, beta=beta) + f_j.scale(beta * m)
        rhs = apply_D(j, f_i, beta=beta) + f_i.scale(beta * m)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} m={m} p={p}"

    def shifted_commute(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        lhs = apply_hatD(i, apply_hatD(j, p, beta=beta), beta=beta)
        rhs = apply_hatD(j, apply_hatD(i, p, beta=beta), beta=beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def shifted_swap(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        i = rng.randint(1, ctx.nvars - 1)
        swapped = p.swap_vars(i, i + 1)
        lhs = apply_hatD(i + 1, swapped, beta=beta)
        lhs = lhs - apply_hatD(i, p, beta=beta).swap_vars(i, i + 1)
        if lhs != p.scale(beta):
            return f"adjacent swap: nvars={ctx.nvars} i={i} p={p}"
        for k in range(1, ctx.nvars + 1):
            if k in (i, i + 1):
                continue
            if apply_hatD(k, p, beta=beta).swap_vars(i, i + 1) != apply_hatD(k, swapped, beta=beta):
                return f"distant swap: nvars={ctx.nvars} i={i} k={k} p={p}"
        return ""

    def z_set_commutator(rng) -> str:
        ctx = _case_ctx(rng, max_nvars)
        p = _random_poly(rng, ctx, max_degree)
        size = rng.randint(1, ctx.nvars - 1)
        J = tuple(sorted(rng.sample(range(1, ctx.nvars + 1), size)))
        i = rng.randint(1, ctx.nvars)

        lhs = apply_D(i, _times_z(p, J), beta=beta) - _times_z(apply_D(i, p, beta=beta), J)
        if i in J:
            outside = (j for j in range(1, ctx.nvars + 1) if j not in J)
            swapped = LaurentPoly.sum(ctx, (_times_z(p.swap_vars(i, j), J) for j in outside))
            rhs = _times_z(p, J) + swapped.scale(beta)
        else:
            terms = [
                _times_z(p.swap_vars(i, j), tuple(v for v in J if v != j)).shift_var(i, 1)
                for j in J
            ]
            rhs = -LaurentPoly.sum(ctx, terms).scale(beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} J={J} p={p}"

    return [
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


def suite_commutators(
    max_degree: int = 5, max_nvars: int = 4, count: int = 200, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Operator exchange identities on random int polynomials, checked on
    ints at b = 2^B with B from _commutator_width."""
    beta = 1 << _commutator_width(max_nvars, max_degree)
    identities = _commutator_identities(max_degree, max_nvars, beta)
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
    from . import oracle

    results = []
    for ctx, lam, label in _creation_cases(max_degree, max_nvars):
        monic = rodrigues.jack(lam, ctx).monic
        ok = monic == oracle.jack_by_triangular_H(lam, ctx)
        detail = "" if ok else "triangular solve disagrees"
        if ok and lam.weight <= ctx.nvars:
            ok = monic == oracle.jack_by_gram_schmidt(lam, ctx)
            detail = "" if ok else "pairing route disagrees"
        results.append(CheckResult(f"jack-match-{label}", ok, detail, 1))
    return results


def _annihilation_width(phi: LaurentPoly) -> int:
    """Bits B such that phi and N_{k+1} phi over J = (1..k+1), for every
    k < N, have every b-coefficient below 2^(B-2).

    With |q| as in _commutator_width and d the degree of phi: N_{k+1} over
    k + 1 indices is one string of factors D_j + pos b, pos = 0..k, each
    multiplying |q| by at most N d + pos (rodrigues._digit_width at shift 0).
    So |N_{k+1} phi| <= |phi| prod_{pos = 0..k} (N d + pos)
    <= |phi| prod_{pos = 1..N} (N d + pos): raising each factor by one, and
    adding factors of at least 1, only grows the product, which is then at
    least 1.  A packed image with coefficients below 2^(B-2) is zero exactly
    when the image is.  |phi| sums the numerator coefficients; pack raises
    on a coefficient outside Z[b].
    """
    nvars, degree = phi.ctx.nvars, phi.total_degree()
    norm = sum(abs(x) for c in phi.terms.values() for x in c.num)
    return pack_width(norm * math.prod(nvars * degree + pos for pos in range(1, nvars + 1)))


def suite_annihilation(max_degree: int = 4, max_nvars: int = 3) -> list[CheckResult]:
    """Every leading D-string of the next cardinality kills phi_lam, checked
    on ints at b = 2^B with B from _annihilation_width."""
    results = []
    for ctx, lam, label in _creation_cases(max_degree, max_nvars):
        phi = rodrigues.rodrigues_raw(lam, ctx)
        width = _annihilation_width(phi)
        packed = LaurentPoly._raw(ctx, {e: pack(c, width) for e, c in phi.terms.items()})
        bad = ""
        for upto in range(len(lam), ctx.nvars):
            J = full_index_set(ctx.nvars)[: upto + 1]
            if apply_N(upto + 1, J, packed, beta=1 << width):
                bad = f"cardinality {upto + 1} image is nonzero"
                break
        results.append(CheckResult(f"annihilate-{label}", not bad, bad, 1))
    return results


def suite_orthogonality(max_degree: int = 4, max_nvars: int = 4) -> list[CheckResult]:
    """Distinct Jack polynomials are orthogonal under both pairings."""
    from . import symbases

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
    from . import spectrum

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


SUITES = {
    "commutators": suite_commutators,
    "rodrigues-vs-oracle": suite_rodrigues_vs_oracle,
    "annihilation": suite_annihilation,
    "orthogonality": suite_orthogonality,
    "spectrum-consistency": lambda deg, nv: suite_spectrum_consistency(),
}


def run_suite(name: str, max_degree: int, max_nvars: int) -> list[CheckResult]:
    names = list(SUITES) if name == "all" else [name]
    return [result for n in names for result in SUITES[n](max_degree, max_nvars)]
