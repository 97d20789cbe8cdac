"""Sparse exact Laurent polynomials in z_1 .. z_N over the coefficient field,
and VarContext, the frozen record (partitions.Record) of their number of
variables.

Terms live in a dict mapping exponent tuples (length N, negative entries
allowed) to nonzero FieldElement coefficients; the ring operations, moves
and derivatives also run on plain int coefficients, which only _raw builds.
Sums merge through _merge, scalings go through scale (one field product per
distinct coefficient), m_coordinates lists the m-basis coordinates, and
from_m_coordinates, the one full-orbit builder, goes back (Partition.pad
checks that each mu fits in N variables).
divide_by_vardiff, the one exact division by z_i - z_j, divides line by
line on partial sums of coefficients.
Polynomials are immutable by convention: every operation returns a fresh
value and never mutates input dicts.  Serialization and printing order terms
by descending lexicographic exponent, so equal polynomials always render byte
identically.  Variable indices in the public API are 1-based throughout.
"""

from __future__ import annotations

from . import fieldring
from .errors import (
    ContextMismatch,
    IndexOutOfRange,
    NonzeroRemainder,
    checked_type,
)
from .fieldring import ONE, ZERO, FieldElement
from .partitions import Partition, Record


class VarContext(Record):
    """Number of variables a polynomial lives in: immutable, equal and hashed
    by nvars."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int):
        if checked_type(nvars, (int,), "nvars") < 1:
            raise IndexOutOfRange(f"need at least one variable, got {nvars}")
        self._init(nvars)


class LaurentPoly:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: dict | None = None):
        self.ctx = ctx
        clean: dict[tuple, FieldElement] = {}
        for exps, c in (terms or {}).items():
            exps = _exponents(exps)
            if len(exps) != ctx.nvars:
                raise ContextMismatch(
                    f"exponent tuple {exps} has length {len(exps)}, context has {ctx.nvars}"
                )
            c = fieldring.field(c)
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _raw(cls, ctx: VarContext, terms: dict) -> "LaurentPoly":
        # caller guarantees exponent lengths and nonzero coefficients
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "LaurentPoly":
        return cls._raw(ctx, {})

    @classmethod
    def constant(cls, ctx: VarContext, c) -> "LaurentPoly":
        return cls(ctx, {(0,) * ctx.nvars: c})

    @classmethod
    def one(cls, ctx: VarContext) -> "LaurentPoly":
        return cls.constant(ctx, ONE)

    @classmethod
    def monomial(cls, ctx: VarContext, exps, c=1) -> "LaurentPoly":
        return cls(ctx, {tuple(exps): c})

    @classmethod
    def variable(cls, ctx: VarContext, i: int) -> "LaurentPoly":
        _check_var(ctx, i)
        exps = [0] * ctx.nvars
        exps[i - 1] = 1
        return cls._raw(ctx, {tuple(exps): ONE})

    # -- ring operations ---------------------------------------------------

    @classmethod
    def sum(cls, ctx: VarContext, polys) -> "LaurentPoly":
        """Sum of polynomials in ctx, merged into one dict without intermediate
        copies (an addend met while the dict is empty is copied whole); the
        empty sum is zero."""
        out: dict[tuple, FieldElement] = {}
        for p in polys:
            if p.ctx.nvars != ctx.nvars:
                raise ContextMismatch(f"{p.ctx} vs {ctx}")
            out = _merge(out, p.terms.items()) if out else dict(p.terms)
        return cls._raw(ctx, out)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.ctx, other)
        return LaurentPoly.sum(self.ctx, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        if self.ctx.nvars != other.ctx.nvars:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, FieldElement] = {}
        for e1, c1 in a.items():
            # a field has no zero divisors, so no product c1 * c2 is zero
            _merge(out, ((tuple(x + y for x, y in zip(e1, e2)), c1 * c2) for e2, c2 in b.items()))
        return LaurentPoly._raw(self.ctx, out)

    def scale(self, c) -> "LaurentPoly":
        # c joins the field once here, unless it stays int, and multiplies each
        # distinct coefficient value once
        c = _int_or_field(c, self.terms)
        if not c:
            return LaurentPoly.zero(self.ctx)
        if type(c) is int:
            return LaurentPoly._raw(self.ctx, {e: v * c for e, v in self.terms.items()})
        products = {v: v * c for v in set(self.terms.values())}
        return LaurentPoly._raw(self.ctx, {e: products[v] for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise IndexOutOfRange(f"negative power {n}")
        out = LaurentPoly.one(self.ctx)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ctx.nvars == other.ctx.nvars and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- structure queries ---------------------------------------------------

    def coefficient(self, exps) -> FieldElement:
        return self.terms.get(tuple(exps), ZERO)

    def has_negative_exponents(self) -> bool:
        return any(min(e) < 0 for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def m_coordinates(self) -> dict[Partition, FieldElement]:
        """{mu: coefficient of z^mu} over the weakly decreasing exponents mu:
        the coordinates in the m basis when the polynomial is symmetric."""
        return {Partition(e): c for e, c in self.terms.items() if all(a >= b for a, b in zip(e, e[1:]))}

    def is_symmetric(self) -> bool:
        """Invariance under every adjacent variable swap: each term's swapped
        image carries the same coefficient (no swapped copies are built)."""
        terms = self.terms
        for e, c in terms.items():
            for i in range(len(e) - 1):
                if e[i] != e[i + 1] and terms.get(e[:i] + (e[i + 1], e[i]) + e[i + 2 :]) != c:
                    return False
        return True

    # -- variable moves --------------------------------------------------------

    def swap_vars(self, i: int, j: int) -> "LaurentPoly":
        _check_var(self.ctx, i)
        _check_var(self.ctx, j)
        if i == j:
            return self
        ii, jj = i - 1, j - 1
        out = {}
        for e, c in self.terms.items():
            le = list(e)
            le[ii], le[jj] = le[jj], le[ii]
            out[tuple(le)] = c
        return LaurentPoly._raw(self.ctx, out)

    def shift_var(self, i: int) -> "LaurentPoly":
        """Multiply by z_i (exponent shift, no term merging needed)."""
        _check_var(self.ctx, i)
        ii = i - 1
        out = {}
        for e, c in self.terms.items():
            out[e[:ii] + (e[ii] + 1,) + e[ii + 1 :]] = c
        return LaurentPoly._raw(self.ctx, out)

    # -- calculus ---------------------------------------------------------------

    def euler_derivative(self, i: int) -> "LaurentPoly":
        """z_i d/dz_i: scales each term by its z_i exponent."""
        _check_var(self.ctx, i)
        ii = i - 1
        out = {}
        for e, c in self.terms.items():
            k = e[ii]
            if k:
                out[e] = c * k
        return LaurentPoly._raw(self.ctx, out)

    def bar_involution(self) -> "LaurentPoly":
        """Substitute every z_i by its reciprocal."""
        out = {}
        for e, c in self.terms.items():
            out[tuple(-x for x in e)] = c
        return LaurentPoly._raw(self.ctx, out)

    # -- serialization -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, FieldElement]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def to_json(self) -> dict:
        return {
            "nvars": self.ctx.nvars,
            "terms": [
                {"exp": list(e), "coeff": c.to_json()} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentPoly":
        ctx = VarContext(obj["nvars"])
        terms = {}
        for entry in obj["terms"]:
            exps = _exponents(entry["exp"])
            if exps in terms:
                raise ValueError(f"exponent {list(exps)} listed twice")
            terms[exps] = FieldElement.from_json(entry["coeff"])
        return cls(ctx, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            vars_part = "*".join(
                f"z{k + 1}" if x == 1 else f"z{k + 1}^{x}"
                for k, x in enumerate(e)
                if x
            )
            cs = str(c)
            if vars_part:
                body = vars_part if cs == "1" else f"({cs})*{vars_part}"
            else:
                body = f"({cs})" if ("+" in cs or "-" in cs[1:] or "/" in cs) else cs
            pieces.append(body)
        return " + ".join(pieces)

    __repr__ = __str__


def _merge(out: dict, terms) -> dict:
    """Add (exponents, coefficient) pairs into out in place, dropping the
    terms that cancel; returns out."""
    for e, c in terms:
        acc = out.get(e)
        if acc is None:
            out[e] = c
        else:
            acc = acc + c
            if acc:
                out[e] = acc
            else:
                del out[e]
    return out


def _int_or_field(c, terms: dict):
    """c as a factor of the coefficients in terms: an int factor of int
    coefficients (or of none) stays int; anything else joins the field."""
    return c if type(c) is int and type(next(iter(terms.values()), 0)) is int else fieldring.field(c)


def _exponents(exps) -> tuple:
    return tuple(checked_type(e, (int,), "exponent") for e in exps)


def _check_var(ctx: VarContext, i: int):
    if not 1 <= i <= ctx.nvars:
        raise IndexOutOfRange(f"variable index {i} outside 1..{ctx.nvars}")


def from_m_coordinates(coords, ctx: VarContext) -> LaurentPoly:
    """Sum of c m_mu over the items (mu, c) of coords, a mapping from
    Partition to anything the field coerces; zero coordinates are skipped.
    Orbits of distinct partitions are disjoint, so each exponent is written
    once and nothing merges."""
    terms = {}
    for mu, c in coords.items():
        zeros = Partition(mu).pad(ctx.nvars)[len(mu) :]
        c = fieldring.field(c)
        if c:
            # insert the parts one at a time into every slot, so the cost
            # follows the size of the orbit, not N!
            orbit = {zeros}
            for part in mu:
                orbit = {e[:k] + (part,) + e[k:] for e in orbit for k in range(len(e) + 1)}
            for e in orbit:
                terms[e] = c
    return LaurentPoly._raw(ctx, terms)


def divide_by_vardiff(p: LaurentPoly, i: int, j: int) -> LaurentPoly:
    """Exact division of p by (z_i - z_j), one line at a time: a line is the
    set of exponents that agree once z_i^k is moved onto z_j; along it
    p = sum_k a_k z_i^k z_j^(s-k), and the quotient's coefficient of
    z_i^m z_j^(s-1-m) is the partial sum of the a_k with k > m, so it
    repeats across the gaps between exponents and is not stored where it
    vanishes.  A nonzero full sum on any line means p was not divisible and
    raises NonzeroRemainder.  Works for negative exponents and for int or
    field coefficients.
    """
    if i == j:
        raise IndexOutOfRange(f"cannot divide by (z_{i} - z_{i})")
    _check_var(p.ctx, i)
    _check_var(p.ctx, j)
    ii, jj = i - 1, j - 1

    # key each line by its exponents with z_i^k moved onto z_j
    lines: dict[tuple, list] = {}
    for e, c in p.terms.items():
        le = list(e)
        k = le[ii]
        le[ii], le[jj] = 0, le[jj] + k
        key = tuple(le)
        line = lines.get(key)
        if line is None:
            lines[key] = [(k, c)]
        else:
            line.append((k, c))

    out: dict[tuple, FieldElement] = {}
    for key, line in lines.items():
        line.sort(reverse=True)  # the k on a line are distinct
        le = list(key)
        top = le[jj] - 1
        acc, prev = 0, None
        for k, c in line:
            if acc:
                for m in range(k, prev):
                    le[ii], le[jj] = m, top - m
                    out[tuple(le)] = acc
            acc = acc + c if acc else c
            prev = k
        if acc:
            raise NonzeroRemainder(f"(z_{i} - z_{j}) does not divide the input")
    return LaurentPoly._raw(p.ctx, out)
