"""Jack polynomials by the creation-operator product.

The unnormalized eigenfunction phi_lam is built by applying creation
operators right to left: cardinality-1 strings first, each cardinality k
applied (lam_k - lam_{k+1}) times, the last lam_N of them B_N+ = z_1 ... z_N,
each on the m-coordinates of its input as plain ints at b = 2^B (Kronecker).
Dividing by the closed-form constant c_lam makes the result monic on m_lam.
The m-coordinates of phi_lam are memoized per (nvars, lam), read-only; the
cache only ever stores final values, which keeps repeated sweeps
deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType

from .fieldring import BETA, ONE, FieldElement, pack_width, pochhammer, unpack
from .partitions import Partition
from .polyring import LaurentPoly, VarContext, from_m_coordinates


def _creation_steps(parts: tuple[int, ...]) -> list[int]:
    """Cardinalities of the creation operators that build phi_parts from 1,
    in the order they act: every part drops by one per step."""
    steps = []
    while parts:
        steps.append(len(parts))
        parts = tuple(x - 1 for x in parts if x > 1)
    return steps[::-1]


def _digit_width(nvars: int, steps: list[int]) -> int:
    """Bits B per packed digit: every b-coefficient of the product is below
    2^(B-2) in absolute value (B = 60 for (5,3,2,1)/5, 107 for (6,5,3,2,1)/6).

    Let |p| be the sum of the absolute integer coefficients of p over z- and
    b-monomials, and d the degree of p.  z_i d/dz_i multiplies |p| by at most
    d; each of the N-1 divided differences turns a term into at most d terms
    of coefficient +-1, and the factor b moves b-degrees only.  Hence
    |(D_i + s b) p| <= (N d + s) |p|, and a step B_k+ (C(N, k) strings with
    shifts 1..k at input degree d) multiplies |p| by at most
    C(N, k) * prod_{pos<k} (N d + 1 + pos); |1| = 1, and every coefficient is
    at most the final |p|.
    """
    bound, degree = 1, 0
    for k in steps:
        bound *= math.comb(nvars, k) * math.prod(nvars * degree + 1 + pos for pos in range(k))
        degree += k
    return pack_width(bound)


def _arrangements(mu: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """The distinct rearrangements of the weakly decreasing mu whose entries
    after the first k are still weakly decreasing: every distinct head of k
    parts, followed by the other parts in order (k >= len(mu) - 1 gives all)."""
    level = [((), mu)]
    for _ in range(k):
        level = [
            (head + (x,), rest[:i] + rest[i + 1 :])
            for head, rest in level
            for i, x in enumerate(rest)
            if not i or x != rest[i - 1]
        ]
    return [head + rest for head, rest in level]


def _d_string(coords: dict, k: int, start: int, beta: int) -> dict:
    """The nonzero terms {e: int} with e[k:] weakly decreasing of
    (D_1 + start b) ... (D_k + (start+k-1) b) p, from the m-coordinates
    {mu: int} of a symmetric p, at the int coupling beta.

    Dunkl operators are S_N-equivariant (Dunkl 1989), so the factor at t
    acts on input symmetric outside t+1 .. k and takes only the divided
    differences against t+1 .. k (operators.apply_dunkl's closed form, times
    z_t); the string then moves z_1 .. z_k only, so p is expanded onto
    weakly decreasing tails alone.
    """
    p = {e: c for mu, c in coords.items() for e in _arrangements(mu, k)}
    for t in range(k - 1, -1, -1):
        # z_t d/dz_t and the shift keep each exponent, so they fill the dict first
        out = {e: c * (e[t] + (start + t) * beta) for e, c in p.items()}
        for e, c in p.items() if t < k - 1 else ():
            a, bc, le = e[t], beta * c, list(e)
            for j in range(t + 1, k):
                b = e[j]
                lo, hi, v = (b, a, bc) if a > b else (a, b, -bc)
                for m in range(lo, hi):
                    le[t], le[j] = m + 1, a + b - 1 - m
                    key = tuple(le)
                    out[key] = out.get(key, 0) + v
                le[j] = b
        p = {e: c for e, c in out.items() if c}
    return p


def _creation_step(nvars: int, k: int, coords: dict, beta: int) -> dict:
    """m-coordinates {nu: int} of B_k+ p (1 <= k < nvars) from those of a
    symmetric p, at the int coupling beta.

    B_k+ p sums z_S (D_{s_1} + b) ... (D_{s_k} + k b) p over the k-subsets S.
    Dunkl operators are S_N-equivariant (Dunkl 1989), so on symmetric p the
    term of S is the term q of (1..k) with slot t moved to s_t and the rest R
    kept in order, and the coefficient of m_nu is the sum over S of
    q[nu_S, nu_R]; q is _d_string at start 1, and z_S raises nu_S by one.
    """
    p = _d_string(coords, k, 1, beta)
    subsets = [(s, [v for v in range(nvars) if v not in s]) for s in itertools.combinations(range(nvars), k)]
    coords = {}
    for e in p:
        nu = tuple(sorted([x + 1 for x in e[:k]] + list(e[k:]), reverse=True))
        if nu not in coords:
            coords[nu] = sum(p.get(tuple([nu[v] - 1 for v in s] + [nu[v] for v in r]), 0) for s, r in subsets)
    return {nu: c for nu, c in coords.items() if c}


@functools.cache
def _phi(ctx: VarContext, parts: tuple[int, ...]) -> MappingProxyType:
    """{mu: coefficient of m_mu} of phi_parts, read-only, because every
    caller shares the cached value; built on plain ints at b = 2^B, each
    m-coordinate unpacked once.

    Each creation step is Z[b]-linear on Z[b][z] (integer derivative factors,
    synthetic division by the monic z_i - z_j, shifts (1+pos) b), so it
    commutes with b -> 2^B.  Step B_k+ adds at most k to the b-degree, so a
    coefficient has at most |parts| + 1 digits, unique by _digit_width.  The
    steps of cardinality N are B_N+ = z_1 ... z_N: they add lam_N, the last
    entry of parts padded to N variables, to mu.
    """
    shift = Partition(parts).pad(ctx.nvars)[-1]
    steps = [k for k in _creation_steps(parts) if k < ctx.nvars]
    width = _digit_width(ctx.nvars, steps)
    coords = {(0,) * ctx.nvars: 1}
    for k in steps:
        coords = _creation_step(ctx.nvars, k, coords, 1 << width)
    return MappingProxyType(
        {Partition(x + shift for x in mu): unpack(c, width, sum(steps) + 1) for mu, c in coords.items()}
    )


def rodrigues_raw(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Unnormalized eigenfunction phi_lam; needs l(lam) <= nvars."""
    return from_m_coordinates(_phi(ctx, Partition(lam)), ctx)


def c_coefficient(lam: Partition, ctx: VarContext) -> FieldElement:
    """Proportionality constant between phi_lam and the monic Jack polynomial.

    Product over cardinalities k of rising factorials
    (m b + lam_{k+1-m} - lam_k)_{lam_k - lam_{k+1}} for m = 1..k.
    """
    n = ctx.nvars
    padded = Partition(lam).pad(n)
    out = ONE
    for k in range(1, n):
        steps = padded[k - 1] - padded[k]
        if steps == 0:
            continue
        for m in range(1, k + 1):
            base = BETA * m + (padded[k - m] - padded[k - 1])
            out = out * pochhammer(base, steps)
    return out


def eigenvalue_epsilon(lam: Partition, nvars: int) -> FieldElement:
    """Hamiltonian eigenvalue: sum of lam_j^2 + b (N + 1 - 2j) lam_j."""
    padded = Partition(lam).pad(nvars)
    const = sum(x * x for x in padded)
    linear = sum((nvars + 1 - 2 * j) * x for j, x in enumerate(padded, start=1))
    return FieldElement((const, linear))


class JackResult:
    """raw = phi_lam = c * J_lam; shift = lam_N for a full-length lam, else 0.
    The printed m-coordinates scale raw's, one product per distinct value; monic
    and stanley rescale all of raw once, on first use (known_monic seeds monic)."""

    def __init__(
        self,
        lam: Partition,
        ctx: VarContext,
        normalization: str,
        raw: LaurentPoly,
        c: FieldElement,
        known_monic: LaurentPoly | None = None,
        shift: int = 0,
    ):
        self.lam, self.ctx, self.normalization = lam, ctx, normalization
        self.raw, self.c, self.shift = raw, c, shift
        self._scaled = {"monic": known_monic}

    def _factor(self, normalization: str) -> FieldElement | None:
        """raw times this is the normalization (stanley: integer polynomials
        in 1/b, raw / b^(unshifted weight)); None for raw itself."""
        if normalization == "monic":
            return self.c.inverse()
        if normalization == "stanley":
            return FieldElement.beta(self.ctx.nvars * self.shift - self.lam.weight)
        return None

    def _form(self, normalization: str) -> LaurentPoly:
        if normalization not in ("monic", "stanley"):
            return self.raw
        if self._scaled.get(normalization) is None:
            self._scaled[normalization] = self.raw.scale(self._factor(normalization))
        return self._scaled[normalization]

    monic = property(lambda self: self._form("monic"))
    stanley = property(lambda self: self._form("stanley"))
    polynomial = property(lambda self: self._form(self.normalization))

    @functools.cached_property
    def m_coordinates(self) -> tuple[tuple[Partition, FieldElement], ...]:
        """(mu, coefficient of m_mu) of the chosen normalization, mu descending."""
        coords = self.raw.m_coordinates()
        factor = self._factor(self.normalization)
        if factor is not None:
            products = {v: v * factor for v in set(coords.values())}
            coords = {mu: products[v] for mu, v in coords.items()}
        return tuple(sorted(coords.items(), reverse=True))

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "nvars": self.ctx.nvars,
            "normalization": self.normalization,
            "c": self.c.to_json(),
            "monomial_expansion": [
                {"partition": list(mu), "coeff": c.to_json()} for mu, c in self.m_coordinates
            ],
        }


NORMALIZATIONS = ("monic", "stanley", "raw")


def jack(lam: Partition, ctx: VarContext, normalization: str = "monic") -> JackResult:
    """Jack polynomial for any l(lam) <= nvars; shift is lam_N for a
    full-length lam, else 0, and c = c_lam = c_{lam - (lam_N^N)}."""
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    lam = Partition(lam)
    shift = lam.pad(ctx.nvars)[-1]
    return JackResult(lam, ctx, normalization, rodrigues_raw(lam, ctx), c_coefficient(lam, ctx), shift=shift)
