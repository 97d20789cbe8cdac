import itertools
from fractions import Fraction

import pytest

from csjack import oracle, rodrigues
from csjack.errors import (
    NegativePart,
    NotWeaklyDecreasing,
    TooManyParts,
    WeightMismatch,
)
from csjack.fieldring import ONE
from csjack.partitions import (
    Partition,
    dominates,
    partitions_of,
    z_factor,
)
from csjack.polyring import VarContext, from_m_coordinates
from csjack.spectrum import ModelParams, quasi_momenta
from csjack.symbases import schur

LAM, CTX2 = Partition((1, 1, 1)), VarContext(2)
# every entry point that needs l(lam) <= N, at l(lam) = 3 > N = 2
TOO_LONG = {
    "jack": lambda: rodrigues.jack(LAM, CTX2),
    "rodrigues_raw": lambda: rodrigues.rodrigues_raw(LAM, CTX2),
    "c_coefficient": lambda: rodrigues.c_coefficient(LAM, CTX2),
    "eigenvalue_epsilon": lambda: rodrigues.eigenvalue_epsilon(LAM, 2),
    "jack_by_triangular_H": lambda: oracle.jack_by_triangular_H(LAM, CTX2),
    "is_triangular_solution": lambda: oracle.is_triangular_solution({LAM: ONE}, ONE, LAM, CTX2),
    "nonsym_eigenfunction": lambda: oracle.nonsym_eigenfunction(LAM, CTX2),
    "schur": lambda: schur(LAM, CTX2),
    "from_m_coordinates": lambda: from_m_coordinates({LAM: 1}, CTX2),
    "quasi_momenta": lambda: quasi_momenta(LAM, ModelParams(2, Fraction(1))),
    "pad": lambda: LAM.pad(2),
}


def test_construction():
    assert Partition((3, 1)) == (3, 1)
    assert Partition([4, 4, 2, 1]).weight == 11
    assert Partition(()).weight == 0
    assert len(Partition(())) == 0
    # trailing zeros are stripped, interior zeros are not a thing
    assert Partition((3, 1, 0, 0)) == (3, 1)
    assert len(Partition((3, 1, 0))) == 2


def test_construction_rejects():
    with pytest.raises(NotWeaklyDecreasing):
        Partition((1, 2))
    with pytest.raises(NotWeaklyDecreasing):
        Partition((3, 1, 2))
    with pytest.raises(NegativePart):
        Partition((2, -1))


def test_a_partition_is_checked_once():
    """Partition(p) of a Partition is p itself; a plain tuple is still checked."""
    p = Partition((3, 1, 0))
    assert Partition(p) is p
    assert Partition(tuple(p)) == p and Partition(tuple(p)) is not p
    with pytest.raises(NotWeaklyDecreasing):
        Partition(tuple(reversed(p)))


def test_construction_rejects_non_int_parts():
    for parts in ([1.7, True], [2, 1.0], ["2"]):
        with pytest.raises(TypeError, match="partition part: expected int"):
            Partition(parts)


def test_pad():
    assert Partition((2, 1)).pad(4) == (2, 1, 0, 0)
    assert Partition((2, 1)).pad(2) == (2, 1)
    with pytest.raises(TooManyParts, match=r"^l\(\(2, 1\)\) = 2 > 1 variables$"):
        Partition((2, 1)).pad(1)


@pytest.mark.parametrize("build", TOO_LONG.values(), ids=TOO_LONG.keys())
def test_one_fact_one_message(build):
    """Every layer asks pad whether lam fits in N variables, so each says so
    in the same words."""
    with pytest.raises(TooManyParts, match=r"^l\(\(1, 1, 1\)\) = 3 > 2 variables$"):
        build()


def test_multiplicities():
    assert Partition((4, 4, 2, 1)).multiplicities() == {4: 2, 2: 1, 1: 1}
    assert Partition(()).multiplicities() == {}


def test_dominance_basics():
    lam = Partition((3, 1))
    mu = Partition((2, 2))
    # mu is below lam: one direction only; lam against itself: both
    assert dominates(lam, mu)
    assert not dominates(mu, lam)
    assert dominates(lam, lam)


def test_dominance_incomparable():
    # classic pair at weight 6
    a = Partition((3, 1, 1, 1))
    b = Partition((2, 2, 2))
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominance_weight_mismatch():
    with pytest.raises(WeightMismatch):
        dominates(Partition((2,)), Partition((2, 1)))
    with pytest.raises(WeightMismatch):
        dominates(Partition((2, 1)), Partition((2,)))


def _dominates_by_definition(lam, mu) -> bool:
    n = max(len(lam), len(mu))
    lam, mu = tuple(lam) + (0,) * (n - len(lam)), tuple(mu) + (0,) * (n - len(mu))
    return all(sum(lam[:k]) >= sum(mu[:k]) for k in range(1, n + 1))


def test_dominates_matches_its_definition():
    """Every ordered pair of partitions of n <= 8 against prefix sums of the
    padded tuples; dominance is antisymmetric."""
    for n in range(9):
        for lam, mu in itertools.product(partitions_of(n), repeat=2):
            assert dominates(lam, mu) == _dominates_by_definition(lam, mu), (lam, mu)
            assert (dominates(lam, mu) and dominates(mu, lam)) == (lam == mu), (lam, mu)


def test_partitions_of_order():
    got = partitions_of(4)
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]
    assert partitions_of(4, max_length=2) == [(4,), (3, 1), (2, 2)]
    # descending lex refines dominance: comparable pairs appear in order
    for n in range(1, 8):
        ps = partitions_of(n)
        for i, lam in enumerate(ps):
            for mu in ps[i + 1 :]:
                assert not dominates(mu, lam) or mu == lam


def test_partitions_of_counts():
    # 1, 1, 2, 3, 5, 7, 11, 15, 22, 30
    counts = [len(partitions_of(n)) for n in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_z_factor():
    assert z_factor(Partition(())) == 1
    assert z_factor(Partition((1, 1))) == 2
    assert z_factor(Partition((2,))) == 2
    assert z_factor(Partition((2, 1))) == 2
    assert z_factor(Partition((3, 3, 1))) == 18
    assert z_factor(Partition((2, 2, 1, 1))) == 16
