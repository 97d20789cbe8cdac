"""Jack polynomials by the creation-operator product.

The unnormalized eigenfunction phi_lam is built by applying creation
operators right to left: cardinality-1 strings first, each cardinality k
applied (lam_k - lam_{k+1}) times.  Dividing by the closed-form constant
c_lam makes the result monic on m_lam.  Intermediate states are themselves
phi_mu for smaller mu, so results are memoized per (nvars, mu); the cache
only ever stores final values, which keeps repeated sweeps deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import TooManyParts
from .fieldring import BETA, ONE, FieldElement, pochhammer
from .operators import apply_B_plus, full_index_set, galilei_boost
from .partitions import Partition
from .polyring import LaurentPoly, VarContext


@functools.cache
def _phi(ctx: VarContext, parts: tuple[int, ...]) -> LaurentPoly:
    if not parts:
        return LaurentPoly.one(ctx)
    prev = tuple(x - 1 for x in parts)
    while prev and prev[-1] == 0:
        prev = prev[:-1]
    return apply_B_plus(len(parts), full_index_set(ctx.nvars), _phi(ctx, prev))


def rodrigues_raw(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Unnormalized eigenfunction phi_lam; needs l(lam) <= nvars - 1."""
    lam = Partition(lam)
    if len(lam) > ctx.nvars - 1:
        raise TooManyParts(
            f"creation product needs l(lambda) <= {ctx.nvars - 1}, got {len(lam)}"
        )
    # a copy, so a caller editing the result cannot reach the cache
    return LaurentPoly._raw(ctx, dict(_phi(ctx, tuple(lam)).terms))


def _scale_by_orbit(p: LaurentPoly, c: FieldElement) -> LaurentPoly:
    """p.scale(c) with one field product per m-coordinate when p is
    symmetric, where every exponent of an orbit has the same coefficient."""
    if not p.is_symmetric():
        return p.scale(c)
    products: dict[tuple, FieldElement] = {}
    out = {}
    for e, v in p.terms.items():
        key = tuple(sorted(e))
        if key not in products:
            products[key] = v * c
        out[e] = products[key]
    return LaurentPoly._raw(p.ctx, out)


def c_coefficient(lam: Partition, ctx: VarContext) -> FieldElement:
    """Proportionality constant between phi_lam and the monic Jack polynomial.

    Product over cardinalities k of rising factorials
    (m b + lam_{k+1-m} - lam_k)_{lam_k - lam_{k+1}} for m = 1..k.
    """
    lam = Partition(lam)
    n = ctx.nvars
    if len(lam) > n - 1:
        raise TooManyParts(
            f"creation product needs l(lambda) <= {n - 1}, got {len(lam)}"
        )
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


@dataclass
class JackResult:
    lam: Partition
    ctx: VarContext
    normalization: str
    raw: LaurentPoly
    c: FieldElement
    monic: LaurentPoly
    shift: int = 0

    @property
    def stanley(self) -> LaurentPoly:
        """Rescaling that makes every coefficient an integer polynomial in
        the inverse coupling: raw divided by b^(weight of the unshifted part)."""
        exponent = self.lam.weight - self.ctx.nvars * self.shift
        return _scale_by_orbit(self.raw, FieldElement.beta(-exponent))

    @property
    def polynomial(self) -> LaurentPoly:
        if self.normalization == "monic":
            return self.monic
        if self.normalization == "stanley":
            return self.stanley
        return self.raw

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "nvars": self.ctx.nvars,
            "normalization": self.normalization,
            "c": self.c.to_json(),
            "monomial_expansion": [
                {"partition": list(Partition(e)), "coeff": c.to_json()}
                for e, c in self.polynomial.sorted_terms()
                if all(a >= b for a, b in zip(e, e[1:]))
            ],
        }


NORMALIZATIONS = ("monic", "stanley", "raw")


def jack(lam: Partition, ctx: VarContext, normalization: str = "monic") -> JackResult:
    """Jack polynomial for any l(lam) <= nvars.

    Full-length partitions are reduced by the boost: subtract the last part
    from every part, build the shorter polynomial, multiply back by
    (z_1 ... z_N)^(last part).  The reported constant c is the one actually
    used, i.e. the constant of the reduced partition.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    lam = Partition(lam)
    n = ctx.nvars
    if len(lam) > n:
        raise TooManyParts(f"l({lam}) = {len(lam)} > {n} variables")
    if len(lam) == n:
        amount = lam[-1]
        reduced = Partition(x - amount for x in lam)
        base = jack(reduced, ctx, normalization)
        return JackResult(
            lam=lam,
            ctx=ctx,
            normalization=normalization,
            raw=galilei_boost(base.raw, amount),
            c=base.c,
            monic=galilei_boost(base.monic, amount),
            shift=amount,
        )
    raw = rodrigues_raw(lam, ctx)
    c = c_coefficient(lam, ctx)
    monic = _scale_by_orbit(raw, c.inverse())
    return JackResult(lam=lam, ctx=ctx, normalization=normalization, raw=raw, c=c, monic=monic)
