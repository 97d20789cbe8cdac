"""Independent constructions of Jack polynomials used to cross-check the
creation-operator product.

Three routes, none of which touches the creation operators:

* triangular solve of the Hamiltonian eigenproblem over the dominance
  down-set in the monomial basis, its matrix read off the partitions in
  closed form (Sutherland 1972; Macdonald VI.3-4); triangular_system
  caches it with its basis as one read-only pair per degree and N,
* orthogonalization under the power-sum pairing (degree <= nvars only):
  one solve of rows of the cached integral Gram matrix of the degree,
* the non-symmetric route: joint eigenvector of the commuting shifted
  family with leading monomial z^lam, then symmetrization.

Each of the first two routes is the unique solution of a system with no
division in it, so `csjack verify` solves neither: is_triangular_solution
and is_pairing_solution check the integral phi_lam = c_lam J_lam against
those systems in Z[b], reading the same rows as the solvers.  The solvers
stay the exported routes that the acceptance tests and the benchmark's
self-test compare with.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from types import MappingProxyType

from .errors import DegenerateLeadingTerm, DegreeExceedsVariables, InconsistentSystem
from .fieldring import ONE, ZERO, FieldElement
from .partitions import Partition, dominates, partitions_of
from .polyring import LaurentPoly, VarContext, from_m_coordinates
from .rodrigues import eigenvalue_epsilon
from .symbases import _integral_power_sums, _row, solve_linear


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
    """Monic Jack polynomial as m_lam plus the combination of its
    lexicographic predecessors (an order that extends dominance) orthogonal
    to each of them: one solve of the Gram rows is_pairing_solution checks."""
    lam = Partition(lam)
    gram, before = _pairing_rows(lam, ctx)
    rows = [
        ({t: gram[mu, nu] for t, nu in enumerate(before) if (mu, nu) in gram}, -gram.get((mu, lam), ZERO))
        for mu in before
    ]
    coeffs = {lam: ONE}
    coeffs.update((nu, a) for nu, a in zip(before, solve_linear(rows, len(before))) if a)
    return from_m_coordinates(coeffs, ctx)


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
    """Whether the m-coordinates coords solve the system that
    jack_by_gram_schmidt solves (degree <= nvars), scaled by c: coords[lam]
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


def nonsym_eigenvalues(lam: Partition, ctx: VarContext) -> list[FieldElement]:
    """Joint eigenvalues of the shifted family on the strict leading monomial:
    lam_i + b (N - i)."""
    lam = Partition(lam)
    padded = lam.pad(ctx.nvars)
    return [
        FieldElement((padded[i], ctx.nvars - 1 - i)) for i in range(ctx.nvars)
    ]


def nonsym_eigenfunction(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Joint eigenvector of the commuting shifted family with leading term
    z^lam, solved exactly over the reachable monomial set.

    Needs the padded parts strictly decreasing (distinct eigenvalue tuple);
    the empty partition is the constant 1.
    """
    # the only route here that runs an operator; the verify suites load none
    from .operators import apply_hatD

    lam = Partition(lam)
    n = ctx.nvars
    if lam.weight == 0:
        return LaurentPoly.one(ctx)
    padded = lam.pad(n)
    if len(set(padded)) < n:
        raise DegenerateLeadingTerm(
            f"padded parts of {lam} are not strictly decreasing in {n} variables"
        )

    # one system over the closure of z^lam under the family, walked breadth
    # first with each image's terms descending: the row "coefficient of z^lam
    # is 1" (the pivot of column 0), then per i a row per monomial of
    # (hatD_i - delta_i) chi = 0
    deltas = nonsym_eigenvalues(lam, ctx)
    order, seen = [padded], {padded}
    residuals: list[dict[tuple, dict[int, FieldElement]]] = [{} for _ in range(n)]
    for t, e in enumerate(order):
        for i, residual in enumerate(residuals):
            img = apply_hatD(i + 1, LaurentPoly.monomial(ctx, e))
            for new in sorted(img.terms, reverse=True):
                if new not in seen:
                    seen.add(new)
                    order.append(new)
            for m, c in (img - LaurentPoly.monomial(ctx, e, deltas[i])).terms.items():
                residual.setdefault(m, {})[t] = c
    rows = [({0: ONE}, ONE)]
    for residual in residuals:
        rows += [(residual[m], ZERO) for m in sorted(residual, reverse=True)]
    chi = LaurentPoly(ctx, dict(zip(order, solve_linear(rows, len(order)))))
    for i in range(1, n + 1):
        if apply_hatD(i, chi) != chi.scale(deltas[i - 1]):
            raise InconsistentSystem(f"solved vector fails the family at index {i}")
    return chi


def jack_by_symmetrization(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Sum the non-symmetric eigenfunction over all variable relabelings and
    rescale so the coefficient on z^lam is one."""
    lam = Partition(lam)
    chi = nonsym_eigenfunction(lam, ctx)
    total = LaurentPoly.sum(ctx, map(chi.permute_vars, itertools.permutations(range(ctx.nvars))))
    lead = total.coefficient(lam.pad(ctx.nvars))
    if not lead:
        raise DegenerateLeadingTerm(f"symmetrization of {lam} lost its leading term")
    return total.scale(lead.inverse())
