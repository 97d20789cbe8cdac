"""Property suites behind the command line `verify` command.

Each suite returns a list of CheckResult records, one per named identity or
sweep case.  All randomness is seeded, so two runs produce identical output.

The commutator and annihilation identities are Z[b]-linear and their inputs
lie in Z[b][z], so those two suites run on plain ints at b = 2^B (Kronecker
substitution), with B computed at run time from a proved bound,
commutators._commutator_width, or for the annihilation strings the 1-norm
P of phi_lam, its principal specialization at b = 1, times what the string
can multiply it by: with every coefficient of lhs - rhs below 2^(B-2), the
two sides agree at 2^B only when they agree in Z[b].  The
rodrigues-vs-oracle and orthogonality suites read the cached m-coordinates
of the integral phi_lam = c_lam J_lam, which lie in Z[b], and check
equations with no division in them: rows of the Hamiltonian's matrix and of
the power-sum Gram matrix in Z[b].  Only the torus pairing (N <= 3) builds
polynomials, specialized at b = 1 and 2, and the spectrum suite runs in Q
on states drawn within the same sweep bounds as the others.
Each suite imports what it runs (commutators, rodrigues, oracle, symbases,
spectrum, fractions and polyring) when it runs, so importing this module
loads only partitions and errors, only the commutator suite loads
operators, the spectrum suite loads neither polynomials nor their
coefficient field, and the commutator and annihilation suites, which stay
in Z[b], load no fractions.
"""

from __future__ import annotations

import itertools
import math
import random

from .partitions import Partition, Record, partitions_of

DEFAULT_SEED = 20260819
# draws of the commutator corpus and of the random spectra
COMMUTATOR_COUNT = 200
SPECTRUM_COUNT = 50


class CheckResult(Record):
    """Outcome of one named identity or sweep case: it passed when it has no
    failure detail."""

    __slots__ = ("name", "detail", "cases")

    def __init__(self, name: str, detail: str = "", cases: int = 0):
        self._init(name, detail, cases)

    @property
    def passed(self) -> bool:
        return not self.detail


def _creation_cases(max_degree: int, max_nvars: int):
    """(ctx, lam, label) for nvars = 2..max_nvars and every lam of degree at
    most max_degree and l(lam) < nvars: a longer lam adds only z_1 ... z_N."""
    from .polyring import VarContext

    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(max_degree + 1):
            for lam in partitions_of(degree, nvars - 1):
                yield ctx, lam, f"n{nvars}-{'.'.join(map(str, lam)) or '0'}"


def suite_commutators(max_degree: int, max_nvars: int) -> list[CheckResult]:
    """Operator exchange identities on random int polynomials, checked on
    ints at b = 2^B with B from commutators._commutator_width."""
    from .commutators import _commutator_identities, _commutator_width

    beta = 1 << _commutator_width(max_nvars, max_degree)
    identities = _commutator_identities(max_degree, max_nvars, beta)
    per = max(1, -(-COMMUTATOR_COUNT // len(identities)))
    results = []
    for name, body in identities:
        rng = random.Random(f"{DEFAULT_SEED}:{name}")
        for runs in range(1, per + 1):
            detail = body(rng)
            if detail:
                break
        results.append(CheckResult(name, detail, runs))
    return results


def suite_rodrigues_vs_oracle(max_degree: int, max_nvars: int) -> list[CheckResult]:
    """Creation-operator output against the triangular oracle (and the
    pairing oracle whenever the degree allows it), checked against the
    system each oracle's recursion solves, in Z[b] on the m-coordinates a
    of the integral phi_lam = c_lam J_lam: no division, no gcd.

    Each system has one solution, so a passes exactly when phi_lam / c_lam
    is the oracle's J_lam.  Triangular: a_lam = c_lam fixes the rest, since
    eps(lam) - eps(mu) has b-coefficient 2(n(mu) - n(lam)) > 0 for mu below
    lam (Macdonald I (1.11)).  Pairing: two solutions differ by a vector in
    the span of lam's predecessors that is orthogonal to it, hence to
    itself, and the pairing is positive definite for b > 0, so anisotropic
    over Q(b) (Macdonald VI.10)."""
    from . import oracle, rodrigues

    results = []
    for ctx, lam, label in _creation_cases(max_degree, max_nvars):
        coords = rodrigues._phi(ctx, tuple(lam))
        c = rodrigues.c_coefficient(lam, ctx)
        detail = "" if oracle.is_triangular_solution(coords, c, lam, ctx) else "triangular solve disagrees"
        if not detail and lam.weight <= ctx.nvars and not oracle.is_pairing_solution(coords, c, lam, ctx):
            detail = "pairing route disagrees"
        results.append(CheckResult(f"jack-match-{label}", detail, 1))
    return results


def suite_annihilation(max_degree: int, max_nvars: int) -> list[CheckResult]:
    """Every leading D-string of the next cardinality kills phi_lam, checked
    on ints at b = 2^B.  N_k over (1..k) is one string and moves z_1 .. z_k
    only, so its image of phi_lam is symmetric in the other variables, and
    zero exactly when its part on weakly decreasing tails, rodrigues._d_string
    at shift 0, is.  The string reads phi_lam's m-coordinates as
    rodrigues._packed builds them at 2^B, so no coefficient is decoded and no
    polynomial is built.

    B is pack_width(P prod_{s=1..N} (N n + s)), n = |lam| and P the product
    over the boxes (i, j) of lam of N - i + j, rows and columns counted from
    0.  Let |q| be the sum of the absolute integer coefficients of q over z-
    and b-monomials.  phi_lam has coefficients in N[b] (Knop and Sahi 1997),
    so |phi_lam| is phi_lam(1^N) at b = 1, its principal specialization P.
    Each factor D_j + pos b of N_k (pos = 0..k-1, k <= N) multiplies |q| by
    at most N n + pos + 1 (z_j d/dz_j by n, each of the N - 1 divided
    differences times z_j by n, the shift by pos), so the image's
    b-coefficients are below 2^(B-2), and it, or any part of it, is zero at
    2^B only when it is zero in Z[b]."""
    from . import rodrigues
    from .fieldring import pack_width

    results = []
    for ctx, lam, label in _creation_cases(max_degree, max_nvars):
        nvars, n = ctx.nvars, lam.weight
        norm = math.prod(nvars - i + j for i, row in enumerate(lam) for j in range(row))
        width = pack_width(norm * math.prod(nvars * n + s for s in range(1, nvars + 1)))
        coords = rodrigues._packed(nvars, rodrigues._creation_steps(lam), width)
        bad = ""
        for k in range(len(lam) + 1, nvars + 1):
            if rodrigues._d_string(coords, k, 0, 1 << width):
                bad = f"cardinality {k} image is nonzero"
                break
        results.append(CheckResult(f"annihilate-{label}", bad, 1))
    return results


def suite_orthogonality(max_degree: int, max_nvars: int) -> list[CheckResult]:
    """Distinct Jack polynomials are orthogonal under both pairings.

    Both pairings run on the integral phi_lam = c_lam J_lam, which carry no
    b-denominators.  c_lam is a product of rising factorials with bases of
    at least b, so it is nonzero in Q(b) and positive at b = 1 and 2: every
    zero test has the answer it has on the monic J_lam.  The power-sum
    pairing is symbases._integral_pairing, L^2 b^d <phi_a, phi_b>_p in Z[b],
    read off phi's cached m-coordinates (rodrigues._phi, (1^N) included), so
    it builds no polynomial; the torus pairing (N <= 3) pairs the
    polynomials rodrigues_raw builds from them, with the same c_lam.  A
    nonzero value is divided by its scale and by c_a c_b (at the torus
    coupling) before it is printed."""
    from . import rodrigues, symbases
    from .polyring import VarContext

    def first_nonzero_pairing(jacks: dict, pairing, scale, c) -> str:
        # jacks maps lam to phi_lam in the pairing's terms and c maps it to
        # c_lam in the pairing's field; only a failure's message reads c
        for a, b in itertools.combinations(jacks, 2):
            value = pairing(jacks[a], jacks[b])
            if value:
                return f"<J_{a}, J_{b}> = {value / (scale * c(a) * c(b))}"
        return ""

    results = []
    for nvars in range(2, max_nvars + 1):
        ctx = VarContext(nvars)
        for degree in range(1, min(max_degree, nvars) + 1):
            jacks = {lam: rodrigues._phi(ctx, lam) for lam in partitions_of(degree, nvars)}
            scale = symbases._integral_power_sums(degree)[0]
            bad = first_nonzero_pairing(
                jacks,
                lambda f, g: symbases._integral_pairing(f, g, degree),
                scale,
                lambda lam: rodrigues.c_coefficient(lam, ctx),
            )
            results.append(CheckResult(f"power-sum-orthogonal-n{nvars}-d{degree}", bad, 1))
    for nvars in range(2, min(max_nvars, 3) + 1):
        ctx = VarContext(nvars)
        for beta_int in (1, 2):
            bad = ""
            for degree in range(1, min(max_degree, 4) + 1):
                polys = {lam: rodrigues.rodrigues_raw(lam, ctx) for lam in partitions_of(degree, nvars)}
                bad = first_nonzero_pairing(
                    polys,
                    lambda f, g: symbases.circle_inner_product(f, g, beta_int),
                    1,
                    lambda lam: rodrigues.c_coefficient(lam, ctx).specialize(beta_int).as_fraction(),
                )
                if bad:
                    bad = f"degree {degree}: {bad}"
                    break
            results.append(CheckResult(f"torus-orthogonal-n{nvars}-beta{beta_int}", bad, 1))
    return results


def suite_spectrum_consistency(max_degree: int, max_nvars: int) -> list[CheckResult]:
    """Random spectra: additivity, ground state, exclusion spacing, each
    state (n, lam) drawn from n = 2..max_nvars particles and |lam| <=
    max_degree, l(lam) <= n."""
    from fractions import Fraction

    from . import spectrum

    states = [
        (n, lam)
        for degree in range(max_degree + 1)
        for lam in partitions_of(degree, max_nvars)
        for n in range(max(2, len(lam)), max_nvars + 1)
    ]
    vacuum = Partition()
    rng = random.Random(f"{DEFAULT_SEED}:spectrum")
    bad_energy = ""
    bad_momentum = ""
    bad_spacing = ""
    bad_ground = ""
    for _ in range(SPECTRUM_COUNT):
        n, lam = rng.choice(states)
        beta = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
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
            rest_energy = spectrum.total_energy(vacuum, at_rest)
            if 4 * rest_energy != spectrum.ground_energy(at_rest):
                bad_ground = f"n={n} beta={beta}"
    return [
        CheckResult("energy-boost-additivity", bad_energy, SPECTRUM_COUNT),
        CheckResult("momentum-additivity", bad_momentum, SPECTRUM_COUNT),
        CheckResult("exclusion-spacing", bad_spacing, SPECTRUM_COUNT),
        CheckResult("ground-state-energy", bad_ground, SPECTRUM_COUNT),
    ]


SUITES = {
    "commutators": suite_commutators,
    "rodrigues-vs-oracle": suite_rodrigues_vs_oracle,
    "annihilation": suite_annihilation,
    "orthogonality": suite_orthogonality,
    "spectrum-consistency": suite_spectrum_consistency,
}


def run_suite(name: str, max_degree: int, max_nvars: int) -> list[CheckResult]:
    names = list(SUITES) if name == "all" else [name]
    return [result for n in names for result in SUITES[n](max_degree, max_nvars)]
