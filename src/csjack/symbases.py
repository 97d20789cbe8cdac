"""Symmetric polynomial bases, basis conversion, and the two scalar products.

Monomial symmetric functions m_lam, power sums p_lam, expansion in either
basis, the coupling-weighted power-sum pairing, the torus constant-term
pairing for integer coupling, and Schur polynomials by bialternant division.

Every change of basis runs on m-coordinates (expand_m_coordinates; only
expand_in_basis scans a polynomial for them).  The power-sum coordinates of
each m_rho come by back-substitution from the integer transition matrix,
whose entries count maps between parts (_power_sum_m, Macdonald I.6), so no
power sums are multiplied; for degree <= nvars the table does not depend on
nvars and is cached per degree.  The integral power-sum pairing and the
pairing oracle read the Gram matrix of the m_rho built once per degree from
the same table; _row is the one reader of a row of a sparse matrix, kept
here off the jack path.  The torus pairing reads a cached weight table.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import sub
from types import MappingProxyType

from . import fieldring
from .errors import (
    BasisMismatch,
    ContextMismatch,
    DegreeExceedsVariables,
    DegreeMismatch,
    LaurentInput,
    NonIntegerBeta,
    NotHomogeneous,
    NotSymmetric,
    checked_type,
)
from .fieldring import ONE, ZERO, FieldElement
from .partitions import Partition, Record, partitions_of, z_factor
from .polyring import LaurentPoly, VarContext, _merge, divide_by_vardiff, from_m_coordinates

MONOMIAL = "m"
POWER_SUM = "p"


def monomial_sym(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Sum of all distinct variable rearrangements of z^lam."""
    return from_m_coordinates({Partition(lam): ONE}, ctx)


def power_sum(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Product over parts k of z_1^k + ... + z_N^k, which is m_(k)."""
    out = LaurentPoly.one(ctx)
    for k in Partition(lam):
        out = out * monomial_sym((k,), ctx)
    return out


class BasisExpansion(Record):
    """Coordinates of a symmetric polynomial in the m or p basis; unhashable,
    because coords is a plain dict."""

    __slots__ = ("basis", "degree", "ctx", "coords")
    __hash__ = None

    def __init__(self, basis: str, degree: int, ctx: VarContext, coords: dict[Partition, FieldElement]):
        self._init(basis, degree, ctx, coords)

    def sorted_coords(self) -> list[tuple[Partition, FieldElement]]:
        # descending part tuples, the order of partitions_of: every key has
        # weight degree, so none is a prefix of another
        return sorted(self.coords.items(), reverse=True)

    def m_coordinates(self) -> dict[Partition, FieldElement]:
        """Coordinates on the m_sigma: an m expansion's own, a p expansion's by _power_sum_m."""
        if self.basis == MONOMIAL:
            return dict(self.coords)
        coords: dict[Partition, FieldElement] = {}
        for rho, c in self.coords.items():
            _merge(coords, ((sigma, c * n) for sigma, n in _power_sum_m(rho, self.ctx.nvars).items()))
        return coords

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.degree,
            "coords": [
                {"partition": list(lam), "coeff": c.to_json()}
                for lam, c in self.sorted_coords()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, ctx: VarContext) -> "BasisExpansion":
        basis, degree = obj["basis"], checked_type(obj["degree"], (int,), "degree")
        if basis not in (MONOMIAL, POWER_SUM):
            raise BasisMismatch(f"unknown basis {basis!r}")
        coords = {}
        for entry in obj["coords"]:
            lam = Partition(entry["partition"])
            if lam in coords:
                raise ValueError(f"partition {list(lam)} listed twice")
            if lam.weight != degree:
                raise DegreeMismatch(f"partition {list(lam)} does not have degree {degree}")
            coords[lam] = FieldElement.from_json(entry["coeff"])
        return cls(basis, degree, ctx, coords)


def _row(matrix, mu, coords) -> FieldElement:
    """sum_nu matrix[mu, nu] coords[nu] for a sparse matrix {(mu, nu):
    entry} and a sparse vector {nu: coordinate}."""
    acc = ZERO
    for nu, v in coords.items():
        entry = matrix.get((mu, nu))
        if entry is not None:
            acc = acc + entry * v
    return acc


def power_sum_columns(degree: int, ctx: VarContext) -> MappingProxyType:
    """{rho: ((mu, coefficient of p_mu in m_rho), ...)} over the partitions
    rho of degree, which must be <= nvars for the p_mu to stay independent.
    The table is the same for every such nvars and read-only, because every
    caller shares the cached value."""
    if degree > ctx.nvars:
        raise DegreeExceedsVariables(f"power-sum coordinates need degree <= {ctx.nvars}, got {degree}")
    return _power_sum_columns(degree)


def _power_sum_m(rho: Partition, nvars: int) -> dict[Partition, int]:
    """{sigma: coefficient of m_sigma in p_rho (Macdonald I.6)} over l(sigma)
    <= nvars: the maps from rho's parts to sigma's that sum to each part.  A
    local table counts maps into min(nvars, l(rho)) numbered slots per sorted
    tuple t of slot sums, each standing for slots!/prod m! orders of t."""
    slots = min(nvars, len(rho))
    ways = {(0,) * slots: 1}
    for r in rho:
        grown: dict[tuple[int, ...], int] = {}
        for sums, n in ways.items():
            for v in set(sums):
                s = sums.index(v)
                key = tuple(sorted(sums[:s] + (v + r,) + sums[s + 1 :], reverse=True))
                grown[key] = grown.get(key, 0) + n * sums.count(v)
        ways = grown
    orders = math.factorial(slots)
    return {Partition(t): n * math.prod(math.factorial(t.count(v)) for v in set(t)) // orders for t, n in ways.items()}


@functools.cache
def _power_sum_columns(degree: int) -> MappingProxyType:
    """power_sum_columns of the degree by back-substitution along
    partitions_of, most dominant first.  p_rho = sum_sigma <maps from rho to
    sigma> m_sigma, and a map exists only when sigma dominates rho
    (Macdonald I.6), so m_rho = (p_rho - sum_{sigma != rho} <maps> m_sigma) /
    <maps from rho to rho> reads only columns built before it."""
    columns: dict[Partition, tuple] = {}
    for rho in partitions_of(degree, None):
        coords, counts = {rho: ONE}, _power_sum_m(rho, degree)
        for sigma, col in columns.items():
            count = counts.get(sigma)
            if count:
                _merge(coords, ((mu, c * -count) for mu, c in col))
        columns[rho] = tuple((mu, coords[mu] / counts[rho]) for mu in sorted(coords, reverse=True))
    return MappingProxyType(columns)


def expand_in_basis(p: LaurentPoly, basis: str) -> BasisExpansion:
    """Coordinates of a homogeneous symmetric polynomial in the m or p basis."""
    if p.has_negative_exponents():
        raise LaurentInput("basis expansion needs ordinary polynomials")
    if not p.is_homogeneous():
        raise NotHomogeneous("input mixes total degrees")
    if not p.is_symmetric():
        raise NotSymmetric("input is not symmetric")
    return expand_m_coordinates(p.m_coordinates(), p.ctx, basis)


def expand_m_coordinates(mcoords: dict, ctx: VarContext, basis: str) -> BasisExpansion:
    """Coordinates in the m or p basis of sum c m_mu over the items (mu, c) of
    mcoords, nonzero and of one degree (0 when there are none): the m basis
    copies them; the p basis, which needs degree <= nvars for the p_mu to
    stay independent, sums their power_sum_columns."""
    if basis not in (MONOMIAL, POWER_SUM):
        raise BasisMismatch(f"unknown basis {basis!r}")
    n = next(iter(mcoords)).weight if mcoords else 0
    if any(mu.weight != n for mu in mcoords):
        raise NotHomogeneous("input mixes total degrees")
    if basis == MONOMIAL:
        return BasisExpansion(MONOMIAL, n, ctx, dict(mcoords))
    columns = power_sum_columns(n, ctx)
    coords: dict[Partition, FieldElement] = {}
    for rho, c in mcoords.items():
        _merge(coords, ((mu, c * t) for mu, t in columns[rho]))
    return BasisExpansion(POWER_SUM, n, ctx, coords)


def scalar_product_p(f: BasisExpansion, g: BasisExpansion) -> FieldElement:
    """Power-sum pairing: <p_lam, p_mu> = delta z_lam b^(-l(lam))."""
    if f.basis != POWER_SUM or g.basis != POWER_SUM:
        raise BasisMismatch("scalar product needs power-sum coordinates")
    if f.coords and g.coords and f.degree != g.degree:
        raise DegreeMismatch(f"degrees {f.degree} != {g.degree}")
    out = ZERO
    for lam, a in f.coords.items():
        c = g.coords.get(lam)
        if c is not None:
            out = out + a * c * z_factor(lam) * FieldElement.beta(-len(lam))
    return out


@functools.cache
def _integral_power_sums(degree: int) -> tuple:
    """(scale, gram) with L the lcm of the denominators of the degree's
    power-sum table: scale = L^2 b^degree and gram the nonzero entries of
    {(rho, sigma): scale <m_rho, m_sigma>_p}, each an int sum per power of
    b, in Z[b] as <p_mu, p_mu>_p = z_mu b^(-l(mu)) and l(mu) <= degree;
    read-only, because every caller shares the cached value."""
    table = {rho: [(mu, c.as_fraction()) for mu, c in col] for rho, col in _power_sum_columns(degree).items()}
    lcm = math.lcm(*(c.denominator for col in table.values() for _, c in col))
    columns = {rho: {mu: int(c * lcm) for mu, c in col} for rho, col in table.items()}
    z = {mu: z_factor(mu) for mu in table}
    gram = {}
    for rho, sigma in itertools.combinations_with_replacement(table, 2):
        by_power = [0] * (degree + 1)
        for mu, a in columns[rho].items():
            by_power[degree - len(mu)] += a * columns[sigma].get(mu, 0) * z[mu]
        if any(by_power):
            gram[rho, sigma] = gram[sigma, rho] = FieldElement(by_power)
    return FieldElement.beta(degree) * lcm**2, MappingProxyType(gram)


def _integral_pairing(f, g, degree: int) -> FieldElement:
    """L^2 b^degree <f, g>_p (the scale of _integral_power_sums) for the
    symmetric functions of the degree whose m-coordinates are f and g
    ({mu: coefficient}), read off the cached Gram matrix: in Z[b] when f
    and g are, with no division and no gcd."""
    gram = _integral_power_sums(degree)[1]
    out = ZERO
    for rho, a in f.items():
        row = _row(gram, rho, g)
        if row:
            out = out + a * row
    return out


@functools.cache
def _circle_weight(nvars: int, beta_int: int) -> MappingProxyType:
    """{exponent: int coefficient} of the torus weight; read-only, because
    every caller shares the cached value."""
    ctx = VarContext(nvars)
    weight = LaurentPoly.one(ctx)
    for j in range(1, nvars + 1):
        for k in range(j + 1, nvars + 1):
            diff = LaurentPoly.variable(ctx, j) - LaurentPoly.variable(ctx, k)
            weight = weight * (diff * diff.bar_involution()) ** beta_int
    return MappingProxyType({e: int(c.as_fraction()) for e, c in weight.terms.items()})


def circle_inner_product(f: LaurentPoly, g: LaurentPoly, beta_int: int) -> Fraction:
    """Constant term of weight * f * bar(g) with the torus weight
    prod_{j<k} (z_j - z_k)^beta (1/z_j - 1/z_k)^beta, for positive integer
    coupling.

    The integer weights are summed per pair of distinct coefficients (one of
    f's, one of g's); each distinct coefficient is specialized once, and each
    coefficient pair costs one Fraction product."""
    if not isinstance(beta_int, int) or beta_int < 1:
        raise NonIntegerBeta(f"torus pairing needs a positive integer coupling, got {beta_int!r}")
    if f.ctx.nvars != g.ctx.nvars:
        raise ContextMismatch(f"{f.ctx} vs {g.ctx}")
    weight = _circle_weight(f.ctx.nvars, beta_int)
    # number the distinct coefficients, so that the pair loop hashes ints
    findex: dict[FieldElement, int] = {}
    gindex: dict[FieldElement, int] = {}
    fterms = [(a, findex.setdefault(c, len(findex))) for a, c in f.terms.items()]
    gterms = [(e, gindex.setdefault(c, len(gindex))) for e, c in g.terms.items()]
    fvals = [c.specialize(beta_int).as_fraction() for c in findex]
    gvals = [c.specialize(beta_int).as_fraction() for c in gindex]
    pairs: dict[tuple, int] = {}
    # z^a * bar(z^e) * z^w is constant exactly when w = e - a
    for e, jg in gterms:
        for a, jf in fterms:
            w = weight.get(tuple(map(sub, e, a)))
            if w is not None:
                pairs[jf, jg] = pairs.get((jf, jg), 0) + w
    total = Fraction(0)
    for (jf, jg), w in pairs.items():
        if w:
            total += fvals[jf] * gvals[jg] * w
    return total


def schur(lam: Partition, ctx: VarContext) -> LaurentPoly:
    """Schur polynomial via the bialternant: alternant of z^(lam + staircase)
    divided exactly by the Vandermonde determinant, one synthetic division per
    variable pair."""
    lam = Partition(lam)
    n = ctx.nvars
    padded = lam.pad(n)
    delta = tuple(padded[j] + n - 1 - j for j in range(n))
    terms = {}
    for perm in itertools.permutations(range(n)):
        exps = tuple(delta[perm[i]] for i in range(n))
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        terms[exps] = fieldring.field((-1) ** inversions)
    alternant = LaurentPoly(ctx, terms)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            alternant = divide_by_vardiff(alternant, i, j)
    return alternant
