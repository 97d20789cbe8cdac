import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from criteria_helpers import constant_term

from csjack.errors import (
    BasisMismatch,
    DegreeExceedsVariables,
    DegreeMismatch,
    LaurentInput,
    NonIntegerBeta,
    NotHomogeneous,
    NotSymmetric,
    TooManyParts,
)
from csjack.fieldring import BETA, ONE, FieldElement
from csjack.partitions import Partition, partitions_of
from csjack.polyring import LaurentPoly, VarContext, from_m_coordinates
from csjack.rodrigues import jack
from csjack.symbases import (
    BasisExpansion,
    MONOMIAL,
    POWER_SUM,
    _circle_weight,
    circle_inner_product,
    expand_in_basis,
    monomial_sym,
    power_sum,
    power_sum_columns,
    scalar_product_p,
    schur,
)

CTX2 = VarContext(2)
CTX3 = VarContext(3)


def test_monomial_sym():
    m = monomial_sym(Partition((2, 1)), CTX3)
    # six distinct rearrangements
    assert len(m.terms) == 6
    assert m.coefficient((2, 1, 0)) == ONE
    assert m.coefficient((0, 1, 2)) == ONE
    m = monomial_sym(Partition((1, 1)), CTX2)
    assert m == LaurentPoly.monomial(CTX2, (1, 1))
    assert monomial_sym(Partition(()), CTX2) == LaurentPoly.one(CTX2)
    # repeated parts do not double count
    m = monomial_sym(Partition((2, 2)), CTX2)
    assert m == LaurentPoly.monomial(CTX2, (2, 2))
    with pytest.raises(TooManyParts):
        monomial_sym(Partition((1, 1, 1)), CTX2)


def test_from_m_coordinates_matches_a_sum_of_scaled_monomials():
    rng = random.Random(1509)
    for nvars in range(2, 6):
        ctx = VarContext(nvars)
        for degree in range(6):
            parts = partitions_of(degree, nvars)
            for _ in range(4):
                picked = rng.sample(parts, k=rng.randint(1, len(parts)))
                quotient = FieldElement([rng.randint(-3, 3), 1], [rng.randint(1, 3), 1])
                values = (0, rng.randint(-5, 5), quotient)
                coords = {mu: rng.choice(values) for mu in picked}
                built = from_m_coordinates(coords, ctx)
                summed = LaurentPoly.sum(ctx, (monomial_sym(mu, ctx).scale(c) for mu, c in coords.items()))
                assert built == summed, (nvars, coords)
                assert all(type(c) is FieldElement and c for c in built.terms.values())
    with pytest.raises(TooManyParts):
        from_m_coordinates({Partition((1, 1, 1)): 0}, CTX2)


def test_from_m_coordinates_writes_every_distinct_permutation():
    for nvars in range(1, 8):
        ctx = VarContext(nvars)
        for degree in range(8):
            for mu in partitions_of(degree, nvars):
                built = from_m_coordinates({mu: 1}, ctx)
                assert set(built.terms) == set(itertools.permutations(mu.pad(nvars))), (nvars, mu)


def test_power_sum():
    p2 = power_sum(Partition((2,)), CTX2)
    z1 = LaurentPoly.variable(CTX2, 1)
    z2 = LaurentPoly.variable(CTX2, 2)
    assert p2 == z1**2 + z2**2
    assert power_sum(Partition((2, 1)), CTX2) == p2 * (z1 + z2)
    assert power_sum(Partition(()), CTX3) == LaurentPoly.one(CTX3)


def test_expand_monomial_basis():
    p = monomial_sym(Partition((2,)), CTX2) + monomial_sym(Partition((1, 1)), CTX2).scale(BETA)
    ex = expand_in_basis(p, MONOMIAL)
    assert ex.basis == MONOMIAL
    assert ex.degree == 2
    assert ex.coords[Partition((2,))] == ONE
    assert ex.coords[Partition((1, 1))] == BETA
    assert ex.reconstruct() == p


def test_expand_power_sum_basis():
    # m_11 = (p_1^2 - p_2)/2
    ex = expand_in_basis(monomial_sym(Partition((1, 1)), CTX2), POWER_SUM)
    assert ex.coords[Partition((1, 1))] == FieldElement(["1/2"])
    assert ex.coords[Partition((2,))] == FieldElement(["-1/2"])
    assert ex.reconstruct() == monomial_sym(Partition((1, 1)), CTX2)
    # p_2 = m_2 both ways
    ex = expand_in_basis(power_sum(Partition((2,)), CTX3), MONOMIAL)
    assert ex.coords == {Partition((2,)): ONE}


def test_expand_rejects():
    z1 = LaurentPoly.variable(CTX2, 1)
    with pytest.raises(NotSymmetric):
        expand_in_basis(z1, MONOMIAL)
    with pytest.raises(NotHomogeneous):
        expand_in_basis(z1 + z1**2 + LaurentPoly.variable(CTX2, 2) + (z1 * 0), MONOMIAL)
    with pytest.raises(LaurentInput):
        expand_in_basis(LaurentPoly.monomial(CTX2, (-1, -1)), MONOMIAL)
    # power-sum coordinates need degree <= nvars
    p = monomial_sym(Partition((2, 1)), CTX2)
    with pytest.raises(DegreeExceedsVariables):
        expand_in_basis(p, POWER_SUM)
    with pytest.raises(BasisMismatch):
        expand_in_basis(p, "q")


def test_degree_zero_expansion():
    ex = expand_in_basis(LaurentPoly.constant(CTX2, 5), POWER_SUM)
    assert ex.coords == {Partition(()): FieldElement([5])}
    assert ex.reconstruct() == LaurentPoly.constant(CTX2, 5)


def test_scalar_product_p():
    p2 = expand_in_basis(power_sum(Partition((2,)), CTX2), POWER_SUM)
    p11 = expand_in_basis(power_sum(Partition((1, 1)), CTX2), POWER_SUM)
    # <p_lam, p_mu> = delta * z_lam / b^len
    assert scalar_product_p(p2, p2) == FieldElement([2]) / BETA
    assert scalar_product_p(p11, p11) == FieldElement([2]) / BETA**2
    assert scalar_product_p(p2, p11) == FieldElement([0])
    with pytest.raises(DegreeMismatch):
        p1 = expand_in_basis(power_sum(Partition((1,)), CTX2), POWER_SUM)
        scalar_product_p(p2, p1)
    with pytest.raises(BasisMismatch):
        m2 = expand_in_basis(monomial_sym(Partition((2,)), CTX2), MONOMIAL)
        scalar_product_p(m2, p2)


def _random_symmetric(rng: random.Random, degree: int, ctx: VarContext) -> LaurentPoly:
    """A sum of m_lam over a random subset of the partitions of degree, each
    with a coefficient in Q(b)."""
    terms = []
    for lam in partitions_of(degree, ctx.nvars):
        if rng.random() < 0.6:
            num = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            den = [rng.randint(1, 3), rng.randint(0, 2)]
            terms.append(monomial_sym(lam, ctx).scale(FieldElement(num, den)))
    return LaurentPoly.sum(ctx, terms)


def test_power_sum_expansion_matches_a_direct_solve():
    """For degree <= N the p_mu are independent, so the reconstruction pins
    every power-sum coordinate."""
    rng = random.Random(20261018)
    for nvars in range(1, 6):
        ctx = VarContext(nvars)
        for degree in range(nvars + 1):
            for _ in range(3):
                p = _random_symmetric(rng, degree, ctx)
                assert expand_in_basis(p, POWER_SUM).reconstruct() == p


def test_power_sum_table_matches_a_direct_solve_for_every_nvars():
    """The table counts maps between parts instead of multiplying power
    sums; for degree <= N its column of rho, summed over the multiplied-out
    p_mu in N variables, must give m_rho, and it must be one table for every
    such N."""
    for degree in range(8):
        first = power_sum_columns(degree, VarContext(max(degree, 1)))
        for nvars in range(max(degree, 1), 8):
            ctx = VarContext(nvars)
            table = power_sum_columns(degree, ctx)
            assert table is first
            for rho, col in table.items():
                total = LaurentPoly.sum(ctx, (power_sum(mu, ctx).scale(c) for mu, c in col))
                assert total == monomial_sym(rho, ctx), (rho, nvars)


def test_power_sum_table_refuses_more_degree_than_variables():
    for nvars in range(1, 6):
        with pytest.raises(DegreeExceedsVariables):
            power_sum_columns(nvars + 1, VarContext(nvars))


def test_power_sum_table_is_read_only():
    table = power_sum_columns(3, CTX3)
    with pytest.raises(TypeError):
        table[Partition((3,))] = ()
    with pytest.raises(TypeError):
        del table[Partition((3,))]
    assert table[Partition((3,))] == ((Partition((3,)), ONE),)


def test_callers_cannot_corrupt_cached_values():
    p = monomial_sym(Partition((2, 1, 1)), VarContext(4))
    first = expand_in_basis(p, POWER_SUM)
    expected = dict(first.coords)
    first.coords.clear()
    first.coords[Partition((4,))] = BETA
    second = expand_in_basis(p, POWER_SUM)
    assert second.coords == expected and second.coords is not first.coords
    second.coords[Partition((1, 1, 1, 1))] = ONE
    assert expand_in_basis(p, POWER_SUM).coords == expected


def test_circle_inner_product():
    one2 = LaurentPoly.one(CTX2)
    assert circle_inner_product(one2, one2, 1) == 2
    assert circle_inner_product(one2, one2, 2) == 6
    # <p_1, p_1> at b=1, N=2: constant term of weight * p1 * bar(p1)
    p1 = power_sum(Partition((1,)), CTX2)
    val = circle_inner_product(p1, p1, 1)
    assert isinstance(val, Fraction) and val > 0
    with pytest.raises(NonIntegerBeta):
        circle_inner_product(one2, one2, 0)


def test_basis_expansion_json():
    ex = expand_in_basis(monomial_sym(Partition((1, 1)), CTX2), POWER_SUM)
    obj = ex.to_json()
    back = BasisExpansion.from_json(obj, CTX2)
    assert back.basis == ex.basis
    assert back.coords == ex.coords
    assert back.reconstruct() == ex.reconstruct()


def test_basis_expansion_is_a_frozen_unhashable_record():
    ex = expand_in_basis(monomial_sym(Partition((1, 1)), CTX2), POWER_SUM)
    with pytest.raises(AttributeError):
        ex.coords = {}
    with pytest.raises(AttributeError):
        del ex.basis
    with pytest.raises(TypeError):
        hash(ex)
    assert ex == BasisExpansion(POWER_SUM, 2, CTX2, dict(ex.coords)) != BasisExpansion(MONOMIAL, 2, CTX2, ex.coords)
    assert repr(ex) == "BasisExpansion(basis='p', degree=2, ctx=VarContext(nvars=2), coords={(2,): -1/2, (1, 1): 1/2})"
    assert copy.copy(ex) == ex == pickle.loads(pickle.dumps(ex))
    assert copy.deepcopy(ex) == ex


def test_sorted_coords_follows_partitions_of_without_listing_them(monkeypatch):
    """Coordinates are ordered like partitions_of(degree), which sorted_coords
    never walks: its cost follows the coordinates held, not the partition count."""
    orders = {degree: partitions_of(degree, None) for degree in range(9)}

    def refuse(*args):
        raise AssertionError("sorted_coords listed every partition")

    monkeypatch.setattr("csjack.symbases.partitions_of", refuse)
    rng = random.Random(7)
    for degree, order in orders.items():
        for _ in range(40):
            held = [lam for lam in order if rng.random() < 0.5]
            shuffled = rng.sample(held, len(held))
            coords = {lam: FieldElement([i + 1]) for i, lam in enumerate(shuffled)}
            listed = BasisExpansion(MONOMIAL, degree, CTX2, coords).sorted_coords()
            assert listed == [(lam, coords[lam]) for lam in held]
    power = LaurentPoly.monomial(CTX2, (60, 0)) + LaurentPoly.monomial(CTX2, (0, 60))
    assert expand_in_basis(power, MONOMIAL).sorted_coords() == [(Partition((60,)), ONE)]


def test_schur():
    # bialternant for (2,1) at three variables: m_21 + 2 m_111
    s = schur(Partition((2, 1)), CTX3)
    expect = monomial_sym(Partition((2, 1)), CTX3) + monomial_sym(
        Partition((1, 1, 1)), CTX3
    ).scale(2)
    assert s == expect
    assert schur(Partition(()), CTX2) == LaurentPoly.one(CTX2)
    assert schur(Partition((3,)), CTX2) == monomial_sym(Partition((3,)), CTX2) + monomial_sym(
        Partition((2, 1)), CTX2
    )


def _circle_reference(f, g, beta_int):
    """Constant term of the full product W * f * bar(g), specialized at beta."""
    ctx = f.ctx
    weight = LaurentPoly.one(ctx)
    for j in range(1, ctx.nvars + 1):
        for k in range(j + 1, ctx.nvars + 1):
            diff = LaurentPoly.variable(ctx, j) - LaurentPoly.variable(ctx, k)
            for _ in range(beta_int):
                weight = weight * diff * diff.bar_involution()
    return constant_term(weight * f * g.bar_involution()).specialize(beta_int)


def test_circle_inner_product_matches_full_product():
    rng = random.Random(5)
    pairs = []
    for ctx, max_degree in ((CTX2, 3), (CTX3, 2)):
        polys = [jack(lam, ctx).monic for d in range(max_degree + 1) for lam in partitions_of(d, ctx.nvars)]
        pairs += [(f, g) for f in polys for g in polys]
        for _ in range(6):
            exps = [tuple(rng.randint(-2, 2) for _ in range(ctx.nvars)) for _ in range(3)]
            f, g = (LaurentPoly(ctx, {e: rng.randint(-3, 3) for e in exps[k:]}) for k in (0, 1))
            pairs.append((f, g))
    for beta_int in (1, 2):
        for f, g in pairs:
            value = circle_inner_product(f, g, beta_int)
            assert value == _circle_reference(f, g, beta_int)
            if f is g:
                assert value > 0  # a squared norm on the torus


def _pair_loop(f, g, beta_int):
    """The torus pairing term pair by term, against a weight with field
    coefficients: one Fraction product per matching pair of terms."""
    ctx = f.ctx
    weight = LaurentPoly.one(ctx)
    for j in range(1, ctx.nvars + 1):
        for k in range(j + 1, ctx.nvars + 1):
            diff = LaurentPoly.variable(ctx, j) - LaurentPoly.variable(ctx, k)
            weight = weight * (diff * diff.bar_involution()) ** beta_int
    fvals = [(a, c.specialize(beta_int)) for a, c in f.terms.items()]
    total = Fraction(0)
    for e, c in g.terms.items():
        gv = c.specialize(beta_int)
        for a, fv in fvals:
            w = weight.terms.get(tuple(x - y for x, y in zip(e, a)))
            if w is not None:
                total += fv * gv * w.as_fraction()
    return total


def test_circle_inner_product_matches_the_pair_loop():
    rng = random.Random(13)
    for ctx, max_degree in ((CTX2, 3), (CTX3, 2)):
        polys = [jack(lam, ctx).monic for d in range(max_degree + 1) for lam in partitions_of(d, ctx.nvars)]
        polys += [_random_symmetric(rng, d, ctx) for d in range(max_degree + 1) for _ in range(2)]
        for beta_int in (1, 2, 3):
            for f in polys:
                for g in polys:
                    value = circle_inner_product(f, g, beta_int)
                    assert type(value) is Fraction
                    assert value == _pair_loop(f, g, beta_int)


def test_callers_cannot_corrupt_the_torus_weight():
    weight = _circle_weight(3, 2)
    before = dict(weight)
    assert all(type(w) is int for w in before.values())
    with pytest.raises(TypeError):
        weight[(0, 0, 0)] = 0
    with pytest.raises(TypeError):
        del weight[(0, 0, 0)]
    assert _circle_weight(3, 2) == before
