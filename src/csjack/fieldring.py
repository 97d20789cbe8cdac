"""Exact coefficient field: rational functions of the coupling over Q.

A BetaPoly is a dense tuple of rational coefficients in ascending powers of
the coupling b, with no trailing zeros; the zero polynomial is the empty
tuple.  A coefficient is a plain int wherever it is integral and a Fraction
only where it has a denominator, so Fraction arithmetic runs only where a
denominator exists: coefficients in Z[b] are the norm, division by a monic
polynomial stays in Z, and _divide, the one monic step, keeps integral
quotients as ints.  Fraction(n) == n and both hash alike, so an integral
Fraction left by arithmetic needs no normalising.  A FieldElement is a
canonical quotient num/den of two BetaPolys: gcd(num, den) = 1, den monic;
this makes equality and hashing structural, as serialization requires.

Arithmetic special-cases den == 1, the overwhelmingly common shape while
operator pipelines run, so the hot path never takes a gcd.  A sum of two
quotients follows Henrici: one gcd of the two denominators (none when they
are equal or one is 1), then one gcd of the numerator with that common
factor, the only one that can cancel.  poly_gcd, the one gcd, runs a
pseudo-remainder sequence over Z on integer primitive parts, so it builds
no Fraction before its final monic step.

pack, unpack and pack_width are the one Kronecker codec: an element of
Z[b] becomes the int it takes at b = 2^B and is read back as balanced
base-2^B digits, exact whenever a proven bound keeps every coefficient
below 2^(B-2).  The packed creation product and the packed verify suites
use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import DivisionByZero, PoleAtValue, checked_type

BetaPoly = tuple  # tuple[int | Fraction, ...], ascending powers, trimmed

_F1 = Fraction(1)  # numerator of every inverse, so 1/c is exact
_PZERO: BetaPoly = ()
_PONE: BetaPoly = (1,)


def _coeff(c) -> Union[int, Fraction]:
    """An int, Fraction or string as an exact coefficient, int when integral."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def poly(coeffs: Iterable) -> BetaPoly:
    """Build a BetaPoly from ascending coefficients (ints, Fractions, strings)."""
    items = [_coeff(c) for c in coeffs]
    while items and items[-1] == 0:
        items.pop()
    return tuple(items)


def poly_add(a: BetaPoly, b: BetaPoly) -> BetaPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_neg(a: BetaPoly) -> BetaPoly:
    return tuple(-c for c in a)


def poly_mul(a: BetaPoly, b: BetaPoly) -> BetaPoly:
    if not a or not b:
        return _PZERO
    if b == _PONE:
        return a
    if a == _PONE:
        return b
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_divmod(a: BetaPoly, b: BetaPoly) -> tuple[BetaPoly, BetaPoly]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return _PZERO, a
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    # a monic divisor (every canonical denominator) keeps integral input in Z
    inv = None if lead == 1 else _F1 / lead
    for k in range(len(a) - len(b), -1, -1):
        top = r[k + len(b) - 1]
        if top:
            c = top if inv is None else top * inv
            q[k] = c
            for i, bc in enumerate(b):
                if bc:
                    r[k + i] -= c * bc
    while q and q[-1] == 0:
        q.pop()
    while r and r[-1] == 0:
        r.pop()
    return tuple(q), tuple(r)


def poly_gcd(a: BetaPoly, b: BetaPoly) -> BetaPoly:
    """Monic greatest common divisor; a zero input gives the other one made
    monic.  Runs the primitive pseudo-remainder sequence over Z (Knuth, TAOCP
    vol. 2, 4.6.1): every step is exact integer arithmetic on primitive parts,
    and only the final monic step may build a Fraction."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return _PONE
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        # pseudo-remainder: a <- lc(b) a - lc(a) b z^(deg a - deg b) while deg a >= deg b
        n, lb = len(b), b[-1]
        while len(a) >= n:
            shift, la = len(a) - n, a.pop()
            a = [c * lb for c in a]
            for i in range(n - 1):
                a[shift + i] -= la * b[i]
            while a and not a[-1]:
                a.pop()
        a, b = b, _primitive(a)
    if b:
        return _PONE  # a nonzero constant remainder: coprime
    return _divide(a, a[-1]) if a and a[-1] != 1 else tuple(a)


def _primitive(a: BetaPoly) -> list[int]:
    """a * lcm(denominators) / content: the primitive integer polynomial of a."""
    m = math.lcm(*[c.denominator for c in a])
    a = [c.numerator * (m // c.denominator) for c in a]
    g = math.gcd(*a)
    return a if g < 2 else [c // g for c in a]


def _divide(a: BetaPoly, lc) -> BetaPoly:
    """a divided by a nonzero constant lc (the leading coefficient that makes
    a denominator monic), every integral quotient kept as an int."""
    inv = _F1 / lc
    return tuple(q.numerator if q.denominator == 1 else q for q in (c * inv for c in a))


def _homogeneous(a: BetaPoly, p: int, q: int, m: int) -> int:
    """m q^deg(a) a(p/q) = sum_i m a_i p^i q^(deg - i), by Horner in ints;
    m is a common multiple of the denominators of a."""
    out, qk = 0, 1
    for c in reversed(a):
        out = out * p + c.numerator * (m // c.denominator) * qk
        qk *= q
    return out


def pack_width(bound: int) -> int:
    """Bits B per packed digit for integer coefficients of absolute value at
    most bound: bound < 2^(B-2), which leaves two spare bits."""
    return bound.bit_length() + 2


def pack(a: "FieldElement", width: int) -> int:
    """An element of Z[b] evaluated at b = 2^width (Kronecker substitution).

    A denominator, or a coefficient outside the balanced digit range
    |c| < 2^(width-1), raises: unpack reads the result back only then."""
    if a.den != _PONE or not all(type(c) is int for c in a.num):
        raise ValueError(f"{a} is not in Z[b]")
    out = 0
    for c in reversed(a.num):
        if c.bit_length() >= width:
            raise OverflowError(f"coefficient {c} needs more than {width} bits")
        out = (out << width) + c
    return out


def unpack(x: int, width: int, ndigits: int) -> "FieldElement":
    """The polynomial in b packed into x at b = 2^width, read as balanced
    base-2^width digits, lowest first; more than ndigits digits raise."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits = []
    for _ in range(ndigits):
        digit = ((x + half) & mask) - half
        digits.append(digit)
        x = (x - digit) >> width
        if not x:
            return FieldElement(digits)
    raise OverflowError(f"coefficient needs more than {ndigits} digits of {width} bits")


def poly_str(a: BetaPoly) -> str:
    if not a:
        return "0"
    pieces = []
    for power in range(len(a) - 1, -1, -1):
        c = a[power]
        if not c:
            continue
        if power == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}b" if power == 1 else f"{head}b^{power}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


FieldLike = Union["FieldElement", int, Fraction]


def _canonical(num: BetaPoly, den: BetaPoly) -> tuple[BetaPoly, BetaPoly]:
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return _PZERO, _PONE
    if den == _PONE:
        return num, den
    g = poly_gcd(num, den)
    if len(g) > 1:
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
    lc = den[-1]
    if lc != 1:
        num, den = _divide(num, lc), _divide(den, lc)
    return num, den


class FieldElement:
    """Reduced quotient of two coupling polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_PONE):
        self.num, self.den = _canonical(poly(num), poly(den) if den is not _PONE else _PONE)

    # -- construction helpers -------------------------------------------

    @classmethod
    def _raw(cls, num: BetaPoly, den: BetaPoly) -> "FieldElement":
        # caller guarantees canonical form
        fe = object.__new__(cls)
        fe.num = num
        fe.den = den
        return fe

    @classmethod
    def from_fraction(cls, value) -> "FieldElement":
        value = _coeff(value)
        if not value:
            return ZERO
        return cls._raw((value,), _PONE)

    @classmethod
    def beta(cls, power: int = 1) -> "FieldElement":
        """The coupling raised to an integer power (negative allowed)."""
        if power >= 0:
            return cls._raw((0,) * power + (1,), _PONE)
        return cls._raw(_PONE, (0,) * -power + (1,))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "FieldElement":
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1 == _PONE and d2 == _PONE:
            return FieldElement._raw(poly_add(n1, n2), _PONE)
        # Henrici (Knuth, TAOCP vol. 2, 4.5.1): with g = gcd(d1, d2) and
        # e_k = d_k / g, n1 e2 + n2 e1 shares no factor with e1 e2, so only
        # gcd(num, g) can cancel; every factor is monic, hence so is den
        if d1 == d2:
            g, e1, e2 = d1, _PONE, _PONE
        elif d1 == _PONE or d2 == _PONE:
            g, e1, e2 = _PONE, d1, d2
        else:
            g = poly_gcd(d1, d2)
            e1, e2 = (d1, d2) if g == _PONE else (poly_divmod(d1, g)[0], poly_divmod(d2, g)[0])
        num = poly_add(poly_mul(n1, e2), poly_mul(n2, e1))
        if not num:
            return ZERO
        den = poly_mul(d1, e2)
        if len(g) > 1 and len(num) > 1:
            h = poly_gcd(num, g)
            if len(h) > 1:
                num, den = poly_divmod(num, h)[0], poly_divmod(den, h)[0]
        return FieldElement._raw(num, den)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement._raw(poly_neg(self.num), self.den)

    def __sub__(self, other) -> "FieldElement":
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "FieldElement":
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other) -> "FieldElement":
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1 == _PONE and d2 == _PONE:
            return FieldElement._raw(poly_mul(n1, n2), _PONE)
        if not n1 or not n2:
            return ZERO
        # a constant on either side has no common factor to cancel
        if len(n1) > 1 and len(d2) > 1:
            g1 = poly_gcd(n1, d2)
            if len(g1) > 1:
                n1 = poly_divmod(n1, g1)[0]
                d2 = poly_divmod(d2, g1)[0]
        if len(n2) > 1 and len(d1) > 1:
            g2 = poly_gcd(n2, d1)
            if len(g2) > 1:
                n2 = poly_divmod(n2, g2)[0]
                d1 = poly_divmod(d1, g2)[0]
        # d1, d2 and every gcd are monic, so the product's denominator is too
        return FieldElement._raw(poly_mul(n1, n2), poly_mul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return FieldElement._raw(*_canonical(self.den, self.num))

    def __truediv__(self, other) -> "FieldElement":
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other) -> "FieldElement":
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__mul__(self.inverse())

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and conversions ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == _PONE

    def as_fraction(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        if not self.is_constant():
            raise PoleAtValue(f"{self} is not a constant")
        return Fraction(self.num[0])

    def specialize(self, beta_value) -> Fraction:
        """Evaluate at a rational coupling value p/q; poles raise PoleAtValue.
        num and den are evaluated homogeneously in ints, with their
        denominators cleared by one common multiple, and their quotient
        makes one Fraction."""
        x = Fraction(beta_value)
        p, q = x.numerator, x.denominator
        m = math.lcm(*(c.denominator for c in self.num + self.den))
        den = _homogeneous(self.den, p, q, m)
        if not den:
            raise PoleAtValue(f"pole at coupling value {x}")
        num = _homogeneous(self.num, p, q, m)
        # num / den = q^(deg den - deg num) times the value at p/q
        shift = len(self.den) - len(self.num)
        return Fraction(num * q**shift, den) if shift >= 0 else Fraction(num, den * q**-shift)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num": [str(c) for c in self.num],
            "den": [str(c) for c in self.den],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FieldElement":
        num, den = checked_type(obj["num"], (list,), "num"), checked_type(obj["den"], (list,), "den")
        for c in num + den:
            checked_type(c, (str, int), "num or den entry")
        return cls(poly(num), poly(den))

    def __str__(self) -> str:
        if self.den == _PONE:
            return poly_str(self.num)
        # display with cleared denominators; den is monic, so clearing by the
        # least common denominator already leaves num/den integer primitive
        mult = math.lcm(*(c.denominator for c in self.num + self.den))
        n = [c * mult for c in self.num]
        d = [c * mult for c in self.den]
        num = poly_str(tuple(n))
        den = poly_str(tuple(d))
        if len(n) > 1 or (n and n[0] < 0):
            num = f"({num})"
        if len(d) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


def _as_field(x) -> "FieldElement":
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction)):
        return FieldElement.from_fraction(x)
    return NotImplemented


ZERO = FieldElement._raw(_PZERO, _PONE)
ONE = FieldElement._raw(_PONE, _PONE)
BETA = FieldElement.beta()


def field(x) -> FieldElement:
    """Coerce an int or Fraction (or FieldElement) into the field."""
    out = _as_field(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} into the coefficient field")
    return out


def pochhammer(x: FieldLike, n: int) -> FieldElement:
    """Rising factorial x (x+1) ... (x+n-1); empty product for n = 0."""
    if n < 0:
        raise DivisionByZero(f"pochhammer index {n} < 0")
    out = ONE
    term = field(x)
    for k in range(n):
        out = out * (term + k)
    return out
