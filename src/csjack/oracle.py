"""Independent constructions of Jack polynomials used to cross-check the
creation-operator product.

Three routes, none of which touches the creation operators, each a
recursion:

* back-substitution of the Hamiltonian eigenproblem over the dominance
  down-set in the monomial basis, its matrix read off the partitions in
  closed form (Sutherland 1972; Macdonald VI.3-4); triangular_system
  caches it with its basis as one read-only pair per degree and N,
* Gram-Schmidt under the power-sum pairing in increasing lexicographic
  order (degree <= nvars only), every pairing read off the cached integral
  Gram matrix of the degree,
* the non-symmetric route: the integral E_lam, joint eigenvector of the
  commuting shifted family with leading monomial z^lam, built in Z[b] by the
  Knop-Sahi recursion down to E_0 = 1 and checked against the family; its
  orbit sums stay in Z[b], and one division scales m_lam to 1, for every lam.

Each of the first two routes is the unique solution of a system with no
division in it, so `csjack verify` runs neither: is_triangular_solution
and is_pairing_solution check the integral phi_lam = c_lam J_lam against
those systems in Z[b], reading the same rows as the recursions.  The
recursions stay the exported routes that the acceptance tests and the
benchmark's self-test compare with.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from types import MappingProxyType

from .errors import DegreeExceedsVariables, InconsistentSystem
from .fieldring import BETA, ONE, ZERO, FieldElement
from .partitions import Partition, dominates, partitions_of
from .polyring import LaurentPoly, VarContext, _merge, from_m_coordinates
from .symbases import _integral_pairing, _integral_power_sums, _row


def eigenvalue_epsilon(lam: Partition, nvars: int) -> FieldElement:
    """Hamiltonian eigenvalue, the diagonal of triangular_system: sum of
    lam_j^2 + b (N + 1 - 2j) lam_j."""
    padded = Partition(lam).pad(nvars)
    const = sum(x * x for x in padded)
    linear = sum((nvars + 1 - 2 * j) * x for j, x in enumerate(padded, start=1))
    return FieldElement((const, linear))


@functools.cache
def triangular_system(degree: int, ctx: VarContext) -> tuple:
    """(basis, matrix): the partitions of degree in nvars parts, most
    dominant first, and {(mu, nu): coefficient of m_mu in H m_nu}; read-only,
    because every caller shares the cached value.  The coefficient is read
    off the partitions: eps(mu) on the diagonal; off it, each pair of slots
    of the padded mu with values x >= y and each p in (x, x + y], q = x + y
    - p, adds 2 b (p - q) at nu = mu with (p, q) in that pair, sorted.  For
    p > q the pair term of H sends z_j^p z_k^q + z_j^q z_k^p to p - q times
    itself (summing to the b part of eps) plus 2 (p - q) z_j^x z_k^(p+q-x)
    for every q < x < p."""
    n = ctx.nvars
    basis = partitions_of(degree, n)
    matrix: dict[tuple[Partition, Partition], FieldElement] = {}
    off: dict[tuple[Partition, Partition], int] = {}
    for mu in basis:
        eps = eigenvalue_epsilon(mu, n)
        if eps:
            matrix[(mu, mu)] = eps
        padded = mu.pad(n)
        for s, t in itertools.combinations(range(n), 2):
            x, y = padded[s], padded[t]
            for p in range(x + 1, x + y + 1):
                q = x + y - p
                nu = list(padded)
                nu[s], nu[t] = p, q
                key = (mu, Partition(sorted(nu, reverse=True)))
                off[key] = off.get(key, 0) + 2 * (p - q)
    for key, v in off.items():
        matrix[key] = FieldElement((0, v))
    return tuple(basis), MappingProxyType(matrix)


def _triangular_rows(lam: Partition, ctx: VarContext) -> tuple[FieldElement, Mapping, list[Partition]]:
    """(eps(lam), H matrix of lam's degree, the dominance down-set of lam,
    lam first); eigenvalue_epsilon checks l(lam) <= N first."""
    eps = eigenvalue_epsilon(lam, ctx.nvars)
    basis, matrix = triangular_system(lam.weight, ctx)
    return eps, matrix, [mu for mu in basis if dominates(lam, mu)]


def _pairing_rows(lam: Partition, ctx: VarContext) -> tuple[Mapping, list[Partition]]:
    """(integral Gram matrix of lam's degree, lam's lexicographic
    predecessors); the power sums of the degree stay independent, and
    l(lam) fits, only while degree <= nvars."""
    if lam.weight > ctx.nvars:
        raise DegreeExceedsVariables(f"pairing route needs degree <= {ctx.nvars}, got {lam.weight}")
    return _integral_power_sums(lam.weight)[1], [mu for mu in partitions_of(lam.weight) if mu < lam]


def jack_by_triangular_H(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Monic Jack polynomial by back-substitution of (H - eps(lam)) phi = 0
    over the dominance down-set of lam."""
    lam = Partition(lam)
    eps, matrix, down = _triangular_rows(lam, ctx)
    coeffs: dict[Partition, FieldElement] = {lam: ONE}
    for mu in down[1:]:
        # eps(lam) - eps(mu) has b-coefficient 2(n(mu) - n(lam)) > 0 (Macdonald I (1.11))
        value = _row(matrix, mu, coeffs) / (eps - matrix.get((mu, mu), ZERO))
        if value:
            coeffs[mu] = value
    return from_m_coordinates(coeffs, ctx)


def jack_by_gram_schmidt(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Monic Jack polynomial by Gram-Schmidt of the m_nu over lam's
    lexicographic predecessors and lam, in increasing order (one that
    extends dominance, Macdonald VI.10): each m_nu less its projections on
    the earlier results, paired through the Gram rows is_pairing_solution
    checks."""
    lam = Partition(lam)
    gram, before = _pairing_rows(lam, ctx)
    done: list[tuple[dict, FieldElement]] = []
    for nu in before[::-1] + [lam]:
        q = {nu: ONE}
        for p, norm in done:
            a = _row(gram, nu, p)
            if a:
                f = -a / norm
                _merge(q, ((mu, c * f) for mu, c in p.items()))
        done.append((q, _integral_pairing(q, q, lam.weight)))
    return from_m_coordinates(q, ctx)


def is_triangular_solution(coords, c: FieldElement, lam: Partition, ctx: VarContext) -> bool:
    """Whether the m-coordinates coords solve the system that
    jack_by_triangular_H solves, scaled by c: coords[lam] = c, supp coords
    lies in the dominance down-set of lam, and sum_nu H_{mu nu} coords[nu] =
    eps(lam) coords[mu] on it (H m_nu reaches only mu below nu, so the other
    equations hold).  No division; unique as suite_rodrigues_vs_oracle says."""
    lam = Partition(lam)
    eps, matrix, down = _triangular_rows(lam, ctx)
    return (
        coords.get(lam) == c
        and set(coords) <= set(down)
        and all(_row(matrix, mu, coords) == eps * coords.get(mu, ZERO) for mu in down)
    )


def is_pairing_solution(coords, c: FieldElement, lam: Partition, ctx: VarContext) -> bool:
    """Whether the m-coordinates coords solve the system whose solution
    jack_by_gram_schmidt builds (degree <= nvars), scaled by c: coords[lam]
    = c, supp coords lies in lam and its lexicographic predecessors, and
    the Gram row of each predecessor mu pairs to 0 with coords.  No
    division; unique as suite_rodrigues_vs_oracle says."""
    lam = Partition(lam)
    gram, before = _pairing_rows(lam, ctx)
    return (
        coords.get(lam) == c
        and set(coords) <= {lam, *before}
        and not any(_row(gram, mu, coords) for mu in before)
    )


def _eigenvalues(eta: tuple[int, ...]) -> list[FieldElement]:
    """Joint eigenvalues of the shifted family on E_eta: eta_i + b (N - 1 - r_i),
    where r_i counts the j with eta_j > eta_i and the j > i with eta_j = eta_i."""
    n = len(eta)
    return [
        FieldElement((x, n - 1 - sum(y > x for y in eta) - eta[i + 1 :].count(x)))
        for i, x in enumerate(eta)
    ]


def _knop_sahi(eta: tuple[int, ...], ctx: VarContext) -> LaurentPoly:
    """The integral E_eta, a joint eigenvector of the shifted family in Z[b]
    (Knop & Sahi 1997): z_1 E_mu(z_2, .., z_N, z_1), mu = (eta_2, .., eta_N,
    eta_1 - 1), if eta_1 > 0; else (d_i - d_{i+1}) s_i + b on E_{s_i eta}, i
    the first with eta_{i+1} > 0, d the eigenvalues of s_i eta.  Each step is
    Z[b]-linear with coefficients in Z[b], so nothing divides; [z^eta] is the
    product of the d_i - d_{i+1}, each with constant term eta_{i+1} > 0."""
    if not any(eta):
        return LaurentPoly.monomial(ctx, eta)
    if eta[0]:
        p = _knop_sahi(eta[1:] + (eta[0] - 1,), ctx)
        return LaurentPoly._raw(ctx, {(e[-1] + 1,) + e[:-1]: c for e, c in p.terms.items()})
    i = next(j for j in range(len(eta) - 1) if eta[j + 1])
    src = eta[:i] + (eta[i + 1], eta[i]) + eta[i + 2 :]
    d = _eigenvalues(src)
    p = _knop_sahi(src, ctx)
    return p.swap_vars(i + 1, i + 2).scale(d[i] - d[i + 1]) + p.scale(BETA)


def nonsym_eigenvalues(lam: Partition, ctx: VarContext) -> list[FieldElement]:
    """Joint eigenvalues of the shifted family on E_lam, lam padded to N parts."""
    return _eigenvalues(Partition(lam).pad(ctx.nvars))


def _checked_eigenfunction(padded: tuple[int, ...], ctx: VarContext) -> LaurentPoly:
    """The integral E_padded of _knop_sahi, checked against the family in
    Z[b] (the relations are linear): every coefficient has denominator 1."""
    # the only route here that runs an operator; the verify suites load none
    from .operators import apply_hatD

    chi = _knop_sahi(padded, ctx)
    for i, delta in enumerate(_eigenvalues(padded), start=1):
        if apply_hatD(i, chi) != chi.scale(delta):
            raise InconsistentSystem(f"E_{padded} fails the family at index {i}")
    return chi


def nonsym_eigenfunction(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """E_lam with [z^lam] = 1: the checked integral E_lam, scaled once."""
    padded = Partition(lam).pad(ctx.nvars)
    chi = _checked_eigenfunction(padded, ctx)
    return chi.scale(chi.coefficient(padded).inverse())


def jack_by_symmetrization(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Symmetrize the checked integral E_lam by orbit sums in Z[b]: the
    coefficient of m_mu is |Stab mu| times the sum of E_lam over the orbit
    of mu, divided once, at the end, by the coefficient of m_lam."""
    padded = Partition(lam).pad(ctx.nvars)
    chi = _checked_eigenfunction(padded, ctx)
    sums = _merge({}, ((tuple(sorted(e, reverse=True)), c) for e, c in chi.terms.items()))
    coords = {mu: c * math.prod(math.factorial(mu.count(x)) for x in set(mu)) for mu, c in sums.items()}
    lead = coords[padded].inverse()
    return from_m_coordinates({Partition(mu): c * lead for mu, c in coords.items()}, ctx)
