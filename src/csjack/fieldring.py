"""Exact coefficient field: rational functions of the coupling over Q.

A BetaPoly is a dense tuple of coefficients in ascending powers of the
coupling b, with no trailing zeros; the zero polynomial is the empty tuple.
A FieldElement is a quotient num/den of two BetaPolys in Z[b] in canonical
form: num and den coprime over Q[b], the integer content of all their
coefficients together 1, and lc(den) > 0 (zero is 0/1).  Each element of
Q(b) has one such form, so equality and hashing are structural, as
serialization requires, and the arithmetic is fraction-free (Knuth, TAOCP
vol. 2, 4.6.1): it runs on ints and builds no Fraction.  fractions is
imported only for input given as Fractions or as strings, which
errors.read_rational reads (poly, field), and by as_fraction, so a request
that reads no rational never loads it.
to_json and str print the monic form over Q, num/lc(den) over den/lc(den),
with every coefficient reduced by one integer gcd.

Arithmetic special-cases den == 1, the overwhelmingly common shape while
operator pipelines run, so the hot path never takes a gcd.  A sum of two
quotients follows Henrici: one gcd of the two denominators (none when they
are equal or one is 1), then one gcd of the numerator with that common
factor, the only one that can cancel, then one gcd of the integer content.
poly_gcd, the one gcd, runs a primitive pseudo-remainder sequence over Z
and returns a primitive gcd; poly_exquo, the one division, divides by it
exactly in Z[b], as Gauss's lemma guarantees for a primitive divisor.

unpack and pack_width are the one Kronecker codec: the packed creation
product and the packed verify suites compute the ints that elements of
Z[b] take at b = 2^B, exact at any B as b -> 2^B is a ring map.  Only the
answer needs B = pack_width of a proven bound on its coefficients (n! for
phi_lam, rodrigues._phi), and unpack reads such an int back as balanced
base-2^B digits, exact while every coefficient is below 2^(B-2).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from .errors import DivisionByZero, NonzeroRemainder, PoleAtValue, checked_type, read_rational

if TYPE_CHECKING:
    from fractions import Fraction

# tuple[int, ...], ascending powers, trimmed; poly() may hold the Fractions of input
BetaPoly = tuple

_PZERO: BetaPoly = ()
_PONE: BetaPoly = (1,)


def _coeff(c) -> int | Fraction:
    """An int, Fraction or string (read_rational) as an exact coefficient, int when integral."""
    if type(c) is int:
        return c
    from fractions import Fraction

    c = Fraction(*read_rational(c)) if isinstance(c, str) else Fraction(c)
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


def poly_exquo(a: BetaPoly, b: BetaPoly) -> BetaPoly:
    """a / b in Z[b], else NonzeroRemainder; a primitive b that divides a over Q
    divides it in Z[b] (Gauss's lemma), as in every reduction by a gcd."""
    n, lead = len(b), b[-1]
    r, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n - 1] // lead
        if c:
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
    if any(r):
        raise NonzeroRemainder(f"{poly_str(b)} does not divide {poly_str(a)} in Z[b]")
    return tuple(q)


def poly_gcd(a: BetaPoly, b: BetaPoly) -> BetaPoly:
    """Primitive greatest common divisor in Z[b], leading coefficient
    positive; a zero input gives the primitive part of the other one.  Runs
    the primitive pseudo-remainder sequence over Z (Knuth, TAOCP vol. 2,
    4.6.1): every step is exact integer arithmetic on primitive parts."""
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
    return _PONE if b else tuple(a)  # a nonzero constant remainder: coprime


def _primitive(a: BetaPoly) -> list[int]:
    """a divided by its content, signed so that its leading coefficient is positive."""
    g = -math.gcd(*a) if a and a[-1] < 0 else math.gcd(*a)
    return list(a) if g in (0, 1) else [c // g for c in a]


def _homogeneous(a: BetaPoly, p: int, q: int) -> int:
    """q^deg(a) a(p/q) = sum_i a_i p^i q^(deg - i), by Horner in ints."""
    out, qk = 0, 1
    for c in reversed(a):
        out = out * p + c * qk
        qk *= q
    return out


def pack_width(bound: int) -> int:
    """Bits B per packed digit for integer coefficients of absolute value at
    most bound: bound < 2^(B-2), which leaves two spare bits."""
    return bound.bit_length() + 2


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


def _ratio(c: int, d: int) -> str:
    """c/d in lowest terms as str(Fraction(c, d)) prints it, for d > 0."""
    g = math.gcd(c, d)
    return str(c // g) if g == d else f"{c // g}/{d // g}"


def poly_str(a: BetaPoly, lc: int = 1) -> str:
    """a / lc, each coefficient printed in lowest terms; lc > 0."""
    if not a:
        return "0"
    pieces = []
    for power in range(len(a) - 1, -1, -1):
        c = a[power]
        if not c:
            continue
        mag = _ratio(abs(c), lc)
        if power == 0:
            body = mag
        else:
            head = "" if mag == "1" else f"{mag}*"
            body = f"{head}b" if power == 1 else f"{head}b^{power}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def _canonical(num: BetaPoly, den: BetaPoly) -> tuple[BetaPoly, BetaPoly]:
    """The canonical form of the quotient num/den of two polynomials in Z[b]."""
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return _PZERO, _PONE
    if den == _PONE:
        return num, den
    g = poly_gcd(num, den)
    if len(g) > 1:
        num, den = poly_exquo(num, g), poly_exquo(den, g)
    return _content_free(num, den)


def _content_free(num: BetaPoly, den: BetaPoly) -> tuple[BetaPoly, BetaPoly]:
    """num and den divided by the content of all their coefficients, signed
    so that lc(den) > 0: the canonical form when they are coprime over Q."""
    g = -math.gcd(*num, *den) if den[-1] < 0 else math.gcd(*num, *den)
    return (num, den) if g == 1 else (tuple(c // g for c in num), tuple(c // g for c in den))


class FieldElement:
    """Reduced quotient of two coupling polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_PONE):
        num, den = poly(num), poly(den) if den is not _PONE else _PONE
        if not all(type(c) is int for c in num + den):  # Fraction input: clear its denominators
            m = math.lcm(*(c.denominator for c in num + den))
            num, den = (tuple(c.numerator * (m // c.denominator) for c in p) for p in (num, den))
        self.num, self.den = _canonical(num, den)

    # -- construction helpers -------------------------------------------

    @classmethod
    def _raw(cls, num: BetaPoly, den: BetaPoly) -> "FieldElement":
        # caller guarantees canonical form
        fe = object.__new__(cls)
        fe.num = num
        fe.den = den
        return fe

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
        # Henrici (Knuth, TAOCP vol. 2, 4.5.1) over Q[b]: with g = gcd(d1, d2)
        # and e_k = d_k / g, n1 e2 + n2 e1 shares no factor with e1 e2, so only
        # h = gcd(num, g) can cancel; both gcds are primitive with lc > 0, so
        # e_k and den stay in Z[b] with lc > 0, and one content gcd is left
        if d1 == d2:
            g, e1, e2 = d1, _PONE, _PONE
        elif d1 == _PONE or d2 == _PONE:
            g, e1, e2 = _PONE, d1, d2
        else:
            g = poly_gcd(d1, d2)
            e1, e2 = (d1, d2) if g == _PONE else (poly_exquo(d1, g), poly_exquo(d2, g))
        num = poly_add(poly_mul(n1, e2), poly_mul(n2, e1))
        if not num:
            return ZERO
        den = poly_mul(d1, e2)
        if len(g) > 1 and len(num) > 1:
            h = poly_gcd(num, g)
            if len(h) > 1:
                num, den = poly_exquo(num, h), poly_exquo(den, h)
        return FieldElement._raw(*_content_free(num, den))

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement._raw(poly_neg(self.num), self.den)

    def __sub__(self, other) -> "FieldElement":
        return self + -other

    def __rsub__(self, other) -> "FieldElement":
        return -self + other

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
                n1, d2 = poly_exquo(n1, g1), poly_exquo(d2, g1)
        if len(n2) > 1 and len(d1) > 1:
            g2 = poly_gcd(n2, d1)
            if len(g2) > 1:
                n2, d1 = poly_exquo(n2, g2), poly_exquo(d1, g2)
        # every factor has lc > 0, so den has too; one content gcd is left
        return FieldElement._raw(*_content_free(poly_mul(n1, n2), poly_mul(d1, d2)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self.num:
            raise DivisionByZero("inverse of zero")
        sign = 1 if self.num[-1] > 0 else -1
        return FieldElement._raw(tuple(sign * c for c in self.den), tuple(sign * c for c in self.num))

    def __truediv__(self, other) -> "FieldElement":
        other = _as_field(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return self.inverse() * other

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
        return len(self.num) <= 1 and len(self.den) == 1

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        if not self.is_constant():
            raise PoleAtValue(f"{self} is not a constant")
        return Fraction(self.num[0] if self.num else 0, self.den[0])

    def specialize(self, beta_value) -> "FieldElement":
        """The constant value at a rational coupling value p/q (an int, a
        Fraction or a constant FieldElement); poles raise PoleAtValue.  num
        and den are evaluated homogeneously by Horner in ints."""
        x = field(beta_value)
        if not x.is_constant():
            raise TypeError(f"coupling value {x} is not a constant")
        p, q = x.num[0] if x.num else 0, x.den[0]
        den = _homogeneous(self.den, p, q)
        if not den:
            raise PoleAtValue(f"pole at coupling value {x}")
        num = _homogeneous(self.num, p, q)
        # num / den = q^(deg den - deg num) times the value at p/q
        shift = len(self.den) - len(self.num)
        return FieldElement((num * q**shift,), (den,)) if shift >= 0 else FieldElement((num,), (den * q**-shift,))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        lc = self.den[-1]
        return {"num": [_ratio(c, lc) for c in self.num], "den": [_ratio(c, lc) for c in self.den]}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldElement":
        num, den = checked_type(obj["num"], (list,), "num"), checked_type(obj["den"], (list,), "den")
        for c in num + den:
            checked_type(c, (str, int), "num or den entry")
        return cls(num, den)

    def __str__(self) -> str:
        if len(self.den) == 1:
            return poly_str(self.num, self.den[0])
        # num/den is already the monic form with cleared denominators
        num = poly_str(self.num)
        if len(self.num) > 1 or (self.num and self.num[0] < 0):
            num = f"({num})"
        return f"{num}/({poly_str(self.den)})"

    __repr__ = __str__


def _as_field(x) -> "FieldElement":
    if isinstance(x, FieldElement):
        return x
    if not isinstance(x, int):
        from fractions import Fraction

        if not isinstance(x, Fraction):
            return NotImplemented
    x = _coeff(x)
    return FieldElement._raw((x.numerator,), (x.denominator,)) if x else ZERO


ZERO = FieldElement._raw(_PZERO, _PONE)
ONE = FieldElement._raw(_PONE, _PONE)
BETA = FieldElement.beta()


def field(x) -> FieldElement:
    """Coerce an int or Fraction (or FieldElement) into the field."""
    out = _as_field(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} into the coefficient field")
    return out


def pochhammer(x: FieldElement | int | Fraction, n: int) -> FieldElement:
    """Rising factorial x (x+1) ... (x+n-1); empty product for n = 0."""
    if n < 0:
        raise DivisionByZero(f"pochhammer index {n} < 0")
    out = ONE
    term = field(x)
    for k in range(n):
        out = out * (term + k)
    return out
