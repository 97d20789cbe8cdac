import pytest

from csjack.errors import (
    LengthTooSmall,
    NegativePart,
    NotWeaklyDecreasing,
    WeightMismatch,
)
from csjack.partitions import (
    Dominance,
    Partition,
    dominance_compare,
    dominates,
    partitions_of,
    z_factor,
)


def test_construction():
    assert Partition((3, 1)) == (3, 1)
    assert Partition([4, 4, 2, 1]).weight == 11
    assert Partition(()).weight == 0
    assert Partition(()).length == 0
    # trailing zeros are stripped, interior zeros are not a thing
    assert Partition((3, 1, 0, 0)) == (3, 1)
    assert Partition((3, 1, 0)).length == 2


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
    with pytest.raises(LengthTooSmall):
        Partition((2, 1)).pad(1)


def test_multiplicities():
    assert Partition((4, 4, 2, 1)).multiplicities() == {4: 2, 2: 1, 1: 1}
    assert Partition(()).multiplicities() == {}


def test_dominance_basics():
    lam = Partition((3, 1))
    mu = Partition((2, 2))
    assert dominance_compare(mu, lam) is Dominance.LESS
    assert dominance_compare(lam, mu) is Dominance.GREATER
    assert dominance_compare(lam, lam) is Dominance.EQUAL
    assert dominates(lam, mu)
    assert not dominates(mu, lam)
    assert dominates(lam, lam)


def test_dominance_incomparable():
    # classic pair at weight 6
    a = Partition((3, 1, 1, 1))
    b = Partition((2, 2, 2))
    assert dominance_compare(a, b) is Dominance.INCOMPARABLE
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominance_weight_mismatch():
    with pytest.raises(WeightMismatch):
        dominance_compare(Partition((2,)), Partition((2, 1)))


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
