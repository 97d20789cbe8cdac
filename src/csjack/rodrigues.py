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
from dataclasses import InitVar, dataclass

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
    """p.scale(c), sharing one field product between the terms of an orbit
    that carry an equal coefficient: one product per m-coordinate when p is
    symmetric, and exact on any p."""
    products: dict[tuple, tuple[FieldElement, FieldElement]] = {}
    out = {}
    for e, v in p.terms.items():
        key = tuple(sorted(e))
        shared = products.get(key)
        if shared is None or shared[0] != v:
            shared = products[key] = (v, v * c)
        out[e] = shared[1]
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
    """raw = phi_lam = c * J_lam, boosted by shift for a full-length lam.  monic
    and stanley each rescale raw once, on first use; known_monic seeds monic."""

    lam: Partition
    ctx: VarContext
    normalization: str
    raw: LaurentPoly
    c: FieldElement
    known_monic: InitVar[LaurentPoly | None] = None
    shift: int = 0

    def __post_init__(self, known_monic):
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
            self._scaled[normalization] = _scale_by_orbit(self.raw, factor)
        return self._scaled[normalization]

    monic = property(lambda self: self._form("monic"))
    stanley = property(lambda self: self._form("stanley"))
    polynomial = property(lambda self: self._form(self.normalization))

    @functools.cached_property
    def m_coordinates(self) -> tuple[tuple[Partition, FieldElement], ...]:
        """(mu, coefficient of m_mu) of the chosen normalization, mu descending."""
        listed = self.polynomial.sorted_terms()
        return tuple((Partition(e), c) for e, c in listed if all(a >= b for a, b in zip(e, e[1:])))

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
