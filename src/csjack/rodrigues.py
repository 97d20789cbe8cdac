"""Jack polynomials by the creation-operator product.

The unnormalized eigenfunction phi_lam is built by applying creation
operators right to left: cardinality-1 strings first, each cardinality k
applied (lam_k - lam_{k+1}) times, on plain ints at b = 2^B (Kronecker
substitution).  Dividing by the closed-form constant c_lam makes the result
monic on m_lam.  Results are memoized per (nvars, lam); the cache only ever
stores final values, which keeps repeated sweeps deterministic.
"""

from __future__ import annotations

import functools
import math

from .errors import TooManyParts
from .fieldring import BETA, ONE, FieldElement, pack_width, pochhammer, unpack
from .operators import apply_B_plus, full_index_set, galilei_boost
from .partitions import Partition
from .polyring import LaurentPoly, VarContext


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


@functools.cache
def _phi(ctx: VarContext, parts: tuple[int, ...]) -> LaurentPoly:
    """phi_parts, built on plain ints at b = 2^B and unpacked once.

    Each creation step is Z[b]-linear on Z[b][z] (integer derivative factors,
    synthetic division by the monic z_i - z_j, shifts (1+pos) b), so it
    commutes with b -> 2^B.  Step B_k+ adds at most k to the b-degree, so a
    coefficient has at most |parts| + 1 digits, unique by _digit_width.
    """
    steps = _creation_steps(parts)
    width = _digit_width(ctx.nvars, steps)
    p = LaurentPoly._raw(ctx, {(0,) * ctx.nvars: 1})
    for k in steps:
        p = apply_B_plus(k, full_index_set(ctx.nvars), p, 1 << width)
    return LaurentPoly._raw(ctx, {e: unpack(c, width, sum(steps) + 1) for e, c in p.terms.items()})


def _creation_partition(lam: Partition, ctx: VarContext) -> Partition:
    """lam as a Partition, checked to have at most nvars - 1 parts."""
    lam = Partition(lam)
    if len(lam) > ctx.nvars - 1:
        raise TooManyParts(
            f"creation product needs l(lambda) <= {ctx.nvars - 1}, got {len(lam)}"
        )
    return lam


def rodrigues_raw(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Unnormalized eigenfunction phi_lam; needs l(lam) <= nvars - 1."""
    lam = _creation_partition(lam, ctx)
    # a copy, so a caller editing the result cannot reach the cache
    return LaurentPoly._raw(ctx, dict(_phi(ctx, tuple(lam)).terms))


def c_coefficient(lam: Partition, ctx: VarContext) -> FieldElement:
    """Proportionality constant between phi_lam and the monic Jack polynomial.

    Product over cardinalities k of rising factorials
    (m b + lam_{k+1-m} - lam_k)_{lam_k - lam_{k+1}} for m = 1..k.
    """
    lam = _creation_partition(lam, ctx)
    n = ctx.nvars
    padded = lam.pad(n)
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
    lam = Partition(lam)
    if len(lam) > nvars:
        raise TooManyParts(f"l({lam}) = {len(lam)} > {nvars}")
    const = sum(x * x for x in lam)
    linear = sum((nvars + 1 - 2 * j) * x for j, x in enumerate(lam, start=1))
    return FieldElement((const, linear))


class JackResult:
    """raw = phi_lam = c * J_lam, boosted by shift for a full-length lam.  monic
    and stanley each rescale raw once, on first use; known_monic seeds monic."""

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

    def _form(self, normalization: str) -> LaurentPoly:
        if normalization not in ("monic", "stanley"):
            return self.raw
        if self._scaled.get(normalization) is None:
            if normalization == "monic":
                factor = self.c.inverse()
            else:
                # stanley: integer polynomials in 1/b, raw / b^(unshifted weight)
                factor = FieldElement.beta(self.ctx.nvars * self.shift - self.lam.weight)
            self._scaled[normalization] = self.raw.scale(factor)
        return self._scaled[normalization]

    monic = property(lambda self: self._form("monic"))
    stanley = property(lambda self: self._form("stanley"))
    polynomial = property(lambda self: self._form(self.normalization))

    @functools.cached_property
    def m_coordinates(self) -> tuple[tuple[Partition, FieldElement], ...]:
        """(mu, coefficient of m_mu) of the chosen normalization, mu descending."""
        return tuple(sorted(self.polynomial.m_coordinates().items(), reverse=True))

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
    """Jack polynomial for any l(lam) <= nvars.

    Full-length partitions are reduced by the boost: subtract the last part
    from every part, build the shorter product, multiply back by
    (z_1 ... z_N)^(last part).  The reported constant c is the one actually
    used, i.e. the constant of the reduced partition.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    lam = Partition(lam)
    n = ctx.nvars
    if len(lam) > n:
        raise TooManyParts(f"l({lam}) = {len(lam)} > {n} variables")
    shift = lam[-1] if len(lam) == n else 0
    reduced = Partition(x - shift for x in lam)
    raw = rodrigues_raw(reduced, ctx)
    if shift:
        raw = galilei_boost(raw, shift)
    result = JackResult(lam, ctx, normalization, raw, c_coefficient(reduced, ctx), shift=shift)
    result.polynomial  # the one rescaling this normalization needs, done here
    return result
