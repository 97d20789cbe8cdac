"""Integer partitions, the dominance order, and small combinatorial factors.

Record, the one base of the package's frozen value classes (Partition, a
tuple, aside), lives here because every request loads this module, so the
spectrum records and the verify results derive from it without loading
polyring."""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Iterator

from .errors import (
    LengthTooSmall,
    NegativePart,
    NotWeaklyDecreasing,
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
    serialize as plain int sequences.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
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

    @property
    def length(self) -> int:
        return len(self)

    def pad(self, length: int) -> tuple[int, ...]:
        """Exponent vector of the given length, zero filled on the right."""
        if length < len(self):
            raise LengthTooSmall(f"cannot pad {self} to length {length}")
        return tuple(self) + (0,) * (length - len(self))

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for x in self:
            out[x] = out.get(x, 0) + 1
        return out


class Dominance(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def dominance_compare(mu: Partition, lam: Partition) -> Dominance:
    """Compare two partitions of the same weight in the dominance order.

    Returns how `mu` relates to `lam` (LESS means every prefix sum of mu is at
    most the matching prefix sum of lam, with the partitions distinct).
    """
    mu = Partition(mu)
    lam = Partition(lam)
    if mu.weight != lam.weight:
        raise WeightMismatch(f"|{mu}| = {mu.weight} != {lam.weight} = |{lam}|")
    if mu == lam:
        return Dominance.EQUAL
    n = max(len(mu), len(lam))
    mp = mu.pad(n)
    lp = lam.pad(n)
    le = True
    ge = True
    sm = 0
    sl = 0
    for a, b in zip(mp, lp):
        sm += a
        sl += b
        if sm > sl:
            le = False
        if sm < sl:
            ge = False
    if le:
        return Dominance.LESS
    if ge:
        return Dominance.GREATER
    return Dominance.INCOMPARABLE


def dominates(lam: Partition, mu: Partition) -> bool:
    """True when lam is greater than or equal to mu in dominance."""
    return dominance_compare(mu, lam) in (Dominance.LESS, Dominance.EQUAL)


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
