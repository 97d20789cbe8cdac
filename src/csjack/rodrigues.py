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


def _d_string(coords: dict, k: int, start: int, beta: int) -> dict:
    """The nonzero terms {e: int} with e[k:] weakly decreasing of
    (D_1 + start b) ... (D_k + (start+k-1) b) p, from the m-coordinates
    {mu: int} of a symmetric p, at the int coupling beta.

    Dunkl operators are S_N-equivariant (Dunkl 1989), and the factors run
    from t = k-1 down, each moving slots t .. k-1 only, so the input of the
    factor at t is symmetric in its untouched block, slots 0 .. t and
    k .. N-1: it takes only the divided differences against t+1 .. k
    (operators.apply_dunkl's closed form, times z_t), and p is kept on the
    keys whose untouched block is weakly decreasing, coords' own keys at
    first.  Before the factor at t runs, each distinct value of the block
    moves into slot t, the rest of the block staying sorted; these keys hold,
    once each, the terms of p whose slots 0 .. t-1 and k .. N-1 are weakly
    decreasing, and the factor leaves those slots as they are.
    """
    p = coords
    for t in range(k - 1, -1, -1):
        unfolded = {}
        for e, c in p.items():
            block = e[: t + 1] + e[k:]
            for i, v in enumerate(block):
                if not i or v != block[i - 1]:
                    rest = block[:i] + block[i + 1 :]
                    unfolded[rest[:t] + (v,) + e[t + 1 : k] + rest[t:]] = c
        p = unfolded
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


def _creation_step(k: int, coords: dict, beta: int) -> dict:
    """m-coordinates {nu: int} of B_k+ p (1 <= k < N) from those of a
    symmetric p, at the int coupling beta.

    B_k+ p sums z_S (D_{s_1} + b) ... (D_{s_k} + k b) p over the k-subsets S.
    Dunkl operators are S_N-equivariant (Dunkl 1989), so on symmetric p the
    term of S is the term q of (1..k) with slot t moved to s_t and the rest R
    kept in order, and the coefficient of m_nu is the sum over S of
    q[nu_S - 1, nu_R]; q is _d_string at start 1.  Read along an increasing
    S, nu_S is weakly decreasing, so a term q[e] is read only if its head h =
    e[:k] + 1 is, and then by the S that pick, for each value v, m_v(h) of
    the m_v(nu) slots of nu holding v, where nu sorts h and e[k:] together.
    """
    out = {}
    for e, c in _d_string(coords, k, 1, beta).items():
        head = [x + 1 for x in e[:k]]
        if head == sorted(head, reverse=True):
            nu = tuple(sorted(head + list(e[k:]), reverse=True))
            for v in set(head):
                c *= math.comb(nu.count(v), head.count(v))
            out[nu] = out.get(nu, 0) + c
    return {nu: c for nu, c in out.items() if c}


def _packed(nvars: int, steps: list[int], width: int) -> dict:
    """{padded mu: int}: the m-coordinates at b = 2^width of the creation
    steps (cardinalities below nvars, in the order they act) applied to 1.

    Each creation step is Z[b]-linear on Z[b][z] (integer derivative factors,
    synthetic division by the monic z_i - z_j, shifts (1+pos) b), so it
    commutes with the ring map b -> 2^width: each int is exact at any width,
    an m-coordinate in Z[b] at 2^width, and only the final unpack needs a
    bound.  unpack reads it back once every b-coefficient is below
    2^(width-2); for phi_lam, n = sum(steps), n! bounds them (_phi)."""
    coords = {(0,) * nvars: 1}
    for k in steps:
        coords = _creation_step(k, coords, 1 << width)
    return coords


@functools.cache
def _phi(ctx: VarContext, parts: tuple[int, ...]) -> MappingProxyType:
    """{mu: coefficient of m_mu} of phi_parts, read-only, because every
    caller shares the cached value; _packed at the width pack_width(n!),
    n = sum(steps) = |parts| - N lam_N, each m-coordinate unpacked once.

    Every b-coefficient of phi_lam[mu] is at most n!.  phi_lam shares its
    coefficients with phi of lam - (lam_N^N), of weight n, so take lam_N = 0.
    A coefficient lies in N[b] (Knop and Sahi 1997), so it is at most
    phi_lam[mu] at b = 1, which is c_lam(1) K_lam,mu: monic J_lam at b = 1
    is the Schur polynomial, and c_lam(1) is the hook product of lam.
    Kostka numbers only grow as mu goes down in dominance, so K_lam,mu <=
    K_lam,(1^n) = f^lam, and c_lam(1) f^lam = n! by the hook length formula.
    Step B_k+ adds at most k to the b-degree, so a coefficient has at most
    n + 1 digits.  The steps of cardinality N are B_N+ = z_1 ... z_N: they
    add lam_N, the last entry of parts padded to N variables, to mu.
    """
    shift = Partition(parts).pad(ctx.nvars)[-1]
    steps = [k for k in _creation_steps(parts) if k < ctx.nvars]
    n = sum(steps)
    width = pack_width(math.factorial(n))
    coords = _packed(ctx.nvars, steps, width)
    return MappingProxyType(
        {Partition(x + shift for x in mu): unpack(c, width, n + 1) for mu, c in coords.items()}
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

    def to_json(self, write=FieldElement.to_json) -> dict:
        return {
            "lambda": list(self.lam),
            "nvars": self.ctx.nvars,
            "normalization": self.normalization,
            "c": write(self.c),
            "monomial_expansion": [{"partition": list(mu), "coeff": write(c)} for mu, c in self.m_coordinates],
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
