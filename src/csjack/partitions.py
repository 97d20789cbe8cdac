"""Integer partitions, the dominance order, and small combinatorial factors.

Each question about a partition has one answer here: Partition.pad is the
one check that l(lam) <= N, and dominates the one dominance test.

Record, the one base of the package's frozen value classes (Partition, a
tuple, aside), lives here because every request loads this module, so the
spectrum records and the verify results derive from it without loading
polyring."""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import (
    NegativePart,
    NotWeaklyDecreasing,
    TooManyParts,
    WeightMismatch,
    checked_type,
)


class Record:
    """A value class that behaves as a dataclass would, so that no request
    imports dataclasses: its fields are the names in __slots__, in
    constructor order; equality, hash, repr, copy and pickle follow them, and
    a record refuses assignment and deletion once __init__ has set the fields
    through _init."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Partition(tuple):
    """Weakly decreasing tuple of non-negative integers, trailing zeros stripped.

    Instances are ordinary tuples, so they hash, compare lexicographically and
    serialize as plain int sequences.  They are checked once, when built:
    Partition(p) of a Partition p is p itself.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if parts.__class__ is cls:
            return parts
        items = tuple(checked_type(x, (int,), "partition part") for x in parts)
        for x in items:
            if x < 0:
                raise NegativePart(f"negative part {x} in {items}")
        for a, b in zip(items, items[1:]):
            if a < b:
                raise NotWeaklyDecreasing(f"{items} is not weakly decreasing")
        while items and items[-1] == 0:
            items = items[:-1]
        return super().__new__(cls, items)

    @property
    def weight(self) -> int:
        return sum(self)

    def pad(self, nvars: int) -> tuple[int, ...]:
        """Exponent vector in nvars variables, zero filled on the right: the
        one check that l(self) <= nvars."""
        if nvars < len(self):
            raise TooManyParts(f"l({self}) = {len(self)} > {nvars} variables")
        return tuple(self) + (0,) * (nvars - len(self))

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for x in self:
            out[x] = out.get(x, 0) + 1
        return out


def dominates(lam: Partition, mu: Partition) -> bool:
    """True when lam is greater than or equal to mu in the dominance order:
    each prefix sum of lam is at least the matching one of mu."""
    lam = Partition(lam)
    mu = Partition(mu)
    if mu.weight != lam.weight:
        raise WeightMismatch(f"|{mu}| = {mu.weight} != {lam.weight} = |{lam}|")
    # past the shorter partition one prefix sum is the weight: a longer lam
    # dominates there, and a longer mu fails by its last part
    sl = sm = 0
    for a, b in zip(lam, mu):
        sl += a
        sm += b
        if sl < sm:
            return False
    return True


def z_factor(lam: Partition) -> int:
    """Product over part values i of i^m(i) * m(i)!, the symmetric-group
    centralizer size attached to the cycle type lam."""
    out = 1
    for value, mult in Partition(lam).multiplicities().items():
        out *= value**mult * math.factorial(mult)
    return out


def _gen(n: int, max_part: int, slots: int) -> Iterator[tuple[int, ...]]:
    # descending-lex emission order: larger first part before smaller
    if n == 0:
        yield ()
        return
    if slots == 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen(n - first, first, slots - 1):
            yield (first,) + rest


def partitions_of(n: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of n with at most max_length parts.

    Listed in descending lexicographic order of the part tuples, which is a
    linear extension of dominance with the most dominant partition first.
    """
    if n < 0:
        raise NegativePart(f"cannot partition {n}")
    slots = n if max_length is None else min(max_length, n)
    return [Partition(p) for p in _gen(n, n, slots)]
