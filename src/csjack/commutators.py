"""The operator exchange identities behind the verify suite `commutators`.

Each case draws nvars in 2 to max_nvars, a small random int polynomial
(_random_poly) and then the identity's own indices, and compares both sides
at one coupling: the symbol b, or the int 2^B with B from _commutator_width,
where the two sides agree only when they agree in Z[b].
suites.suite_commutators imports this module when it runs, so no other
suite compiles it, and _commutator_identities looks the operators up in
`operators` when it is called, so a wrapped or replaced operator is the
one the identities run.
"""

from __future__ import annotations

import functools
import random

from .fieldring import pack_width
from .polyring import LaurentPoly, VarContext


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
    beta; body(rng) draws one case and returns "" or a detail.  case draws
    nvars and p for every identity, which then makes its own draws;
    pair_case also draws i != j and writes the detail for the four pair
    identities."""
    from .operators import _times_z, apply_D, apply_dunkl, apply_hatD

    dunkl, D, hatD = (functools.partial(op, beta=beta) for op in (apply_dunkl, apply_D, apply_hatD))

    def case(check):
        def body(rng) -> str:
            ctx = VarContext(rng.randint(2, max_nvars))
            return check(rng, ctx, _random_poly(rng, ctx, max_degree))

        return body

    def pair_case(holds):
        def check(rng, ctx, p) -> str:
            i, j = rng.sample(range(1, ctx.nvars + 1), 2)
            return "" if holds(p, i, j) else f"nvars={ctx.nvars} i={i} j={j} p={p}"

        return case(check)

    def dunkl_commute(p, i, j) -> bool:
        return dunkl(i, dunkl(j, p)) == dunkl(j, dunkl(i, p))

    def dunkl_swap(p, i, j) -> bool:
        return dunkl(j, p).swap_vars(i, j) == dunkl(i, p.swap_vars(i, j))

    def dunkl_z_commutator(rng, ctx, p) -> str:
        i = rng.randint(1, ctx.nvars)
        j = rng.randint(1, ctx.nvars)
        lhs = dunkl(i, p.shift_var(j)) - dunkl(i, p).shift_var(j)
        rhs = -p.swap_vars(i, j).scale(beta)
        if i == j:
            swapped = LaurentPoly.sum(ctx, (p.swap_vars(i, l) for l in range(1, ctx.nvars + 1)))
            rhs = rhs + p + swapped.scale(beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} p={p}"

    def degree_exchange(p, i, j) -> bool:
        lhs = D(i, D(j, p)) - D(j, D(i, p))
        swapped = p.swap_vars(i, j)
        return lhs == (D(j, swapped) - D(i, swapped)).scale(beta)

    def power_exchange(rng, ctx, p) -> str:
        i, j = rng.sample(range(1, ctx.nvars + 1), 2)
        ell = rng.randint(1, 3)

        def dpow(k, q, times):
            for _ in range(times):
                q = D(k, q)
            return q

        lhs = dpow(i, D(j, p), ell) - D(j, dpow(i, p, ell))
        swapped = p.swap_vars(i, j)
        rhs = (dpow(j, swapped, ell) - dpow(i, swapped, ell)).scale(beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} l={ell} p={p}"

    def restricted_swap(rng, ctx, base) -> str:
        i, j = sorted(rng.sample(range(1, ctx.nvars + 1), 2))
        p = base + base.swap_vars(i, j)
        m = rng.randint(0, 3)
        # each side applies D + m b to the other index's string factor D + (m + 1) b
        f_i, f_j = (D(k, p) + p.scale(beta * (m + 1)) for k in (i, j))
        lhs = D(i, f_j) + f_j.scale(beta * m)
        rhs = D(j, f_i) + f_i.scale(beta * m)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} j={j} m={m} p={p}"

    def shifted_commute(p, i, j) -> bool:
        return hatD(i, hatD(j, p)) == hatD(j, hatD(i, p))

    def shifted_swap(rng, ctx, p) -> str:
        i = rng.randint(1, ctx.nvars - 1)
        swapped = p.swap_vars(i, i + 1)
        if hatD(i + 1, swapped) - hatD(i, p).swap_vars(i, i + 1) != p.scale(beta):
            return f"adjacent swap: nvars={ctx.nvars} i={i} p={p}"
        for k in range(1, ctx.nvars + 1):
            if k in (i, i + 1):
                continue
            if hatD(k, p).swap_vars(i, i + 1) != hatD(k, swapped):
                return f"distant swap: nvars={ctx.nvars} i={i} k={k} p={p}"
        return ""

    def z_set_commutator(rng, ctx, p) -> str:
        size = rng.randint(1, ctx.nvars - 1)
        J = tuple(sorted(rng.sample(range(1, ctx.nvars + 1), size)))
        i = rng.randint(1, ctx.nvars)
        lhs = D(i, _times_z(p, J)) - _times_z(D(i, p), J)
        if i in J:
            outside = (j for j in range(1, ctx.nvars + 1) if j not in J)
            swapped = LaurentPoly.sum(ctx, (_times_z(p.swap_vars(i, j), J) for j in outside))
            rhs = _times_z(p, J) + swapped.scale(beta)
        else:
            terms = [_times_z(p.swap_vars(i, j), tuple(v for v in J if v != j)).shift_var(i) for j in J]
            rhs = -LaurentPoly.sum(ctx, terms).scale(beta)
        return "" if lhs == rhs else f"nvars={ctx.nvars} i={i} J={J} p={p}"

    return [
        ("dunkl-commute", pair_case(dunkl_commute)),
        ("dunkl-swap-intertwine", pair_case(dunkl_swap)),
        ("dunkl-z-commutator", case(dunkl_z_commutator)),
        ("degree-op-exchange", pair_case(degree_exchange)),
        ("degree-op-power-exchange", case(power_exchange)),
        ("string-factor-swap-on-symmetric", case(restricted_swap)),
        ("shifted-family-commute", pair_case(shifted_commute)),
        ("shifted-family-swap", case(shifted_swap)),
        ("z-set-commutator", case(z_set_commutator)),
    ]
