"""Sparse exact Laurent polynomials in z_1 .. z_N over the coefficient field.

Terms live in a dict mapping exponent tuples (length N, negative entries
allowed) to nonzero FieldElement coefficients.  Polynomials are immutable by
convention: every operation returns a fresh value and never mutates input
dicts.  Serialization and printing order terms by descending lexicographic
exponent, so equal polynomials always render byte identically.

Variable indices in the public API are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fieldring
from .errors import (
    ContextMismatch,
    IndexOutOfRange,
    NonzeroRemainder,
)
from .fieldring import ONE, ZERO, FieldElement


@dataclass(frozen=True)
class VarContext:
    """Number of variables a polynomial lives in."""

    nvars: int

    def __post_init__(self):
        if self.nvars < 1:
            raise IndexOutOfRange(f"need at least one variable, got {self.nvars}")


class LaurentPoly:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: dict | None = None):
        self.ctx = ctx
        clean: dict[tuple, FieldElement] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
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
        c = fieldring.field(c)
        if not c:
            return cls.zero(ctx)
        return cls._raw(ctx, {(0,) * ctx.nvars: c})

    @classmethod
    def one(cls, ctx: VarContext) -> "LaurentPoly":
        return cls.constant(ctx, ONE)

    @classmethod
    def monomial(cls, ctx: VarContext, exps, c=1) -> "LaurentPoly":
        c = fieldring.field(c)
        exps = tuple(int(e) for e in exps)
        if len(exps) != ctx.nvars:
            raise ContextMismatch(f"exponent tuple {exps} vs {ctx.nvars} variables")
        if not c:
            return cls.zero(ctx)
        return cls._raw(ctx, {exps: c})

    @classmethod
    def variable(cls, ctx: VarContext, i: int) -> "LaurentPoly":
        _check_var(ctx, i)
        exps = [0] * ctx.nvars
        exps[i - 1] = 1
        return cls._raw(ctx, {tuple(exps): ONE})

    # -- ring operations ---------------------------------------------------

    def _match(self, other: "LaurentPoly"):
        if self.ctx.nvars != other.ctx.nvars:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.ctx, other)
        self._match(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return LaurentPoly._raw(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.ctx, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._match(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, FieldElement] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                if acc is None:
                    if c:
                        out[e] = c
                else:
                    acc = acc + c
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
        return LaurentPoly._raw(self.ctx, out)

    def scale(self, c) -> "LaurentPoly":
        c = fieldring.field(c)
        if not c:
            return LaurentPoly.zero(self.ctx)
        return LaurentPoly._raw(self.ctx, {e: v * c for e, v in self.terms.items()})

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

    def constant_term(self) -> FieldElement:
        return self.terms.get((0,) * self.ctx.nvars, ZERO)

    def has_negative_exponents(self) -> bool:
        return any(min(e) < 0 for e in self.terms)

    def total_degree(self) -> int:
        """Maximum total degree; zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def is_symmetric(self) -> bool:
        """Invariance under every adjacent variable swap."""
        for i in range(1, self.ctx.nvars):
            if self.swap_vars(i, i + 1) != self:
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

    def permute_vars(self, perm) -> "LaurentPoly":
        """Relabel variables: the exponent at slot k moves to slot perm[k] (0-based)."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.ctx.nvars)):
            raise IndexOutOfRange(f"{perm} is not a permutation of 0..{self.ctx.nvars - 1}")
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(e)
            for k, x in enumerate(e):
                ne[perm[k]] = x
            out[tuple(ne)] = c
        return LaurentPoly._raw(self.ctx, out)

    def shift_var(self, i: int, amount: int = 1) -> "LaurentPoly":
        """Multiply by z_i^amount (exponent shift, no term merging needed)."""
        _check_var(self.ctx, i)
        ii = i - 1
        out = {}
        for e, c in self.terms.items():
            out[e[:ii] + (e[ii] + amount,) + e[ii + 1 :]] = c
        return LaurentPoly._raw(self.ctx, out)

    # -- calculus ---------------------------------------------------------------

    def partial_derivative(self, i: int) -> "LaurentPoly":
        _check_var(self.ctx, i)
        ii = i - 1
        out = {}
        for e, c in self.terms.items():
            k = e[ii]
            if k:
                out[e[:ii] + (k - 1,) + e[ii + 1 :]] = c * k
        return LaurentPoly._raw(self.ctx, out)

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

    def divided_difference(self, i: int, j: int) -> "LaurentPoly":
        """(p - swap_ij p) / (z_i - z_j), always an exact division."""
        if i == j:
            raise IndexOutOfRange(f"divided difference needs distinct variables, got {i}")
        return divide_by_vardiff(self - self.swap_vars(i, j), i, j)

    def bar_involution(self) -> "LaurentPoly":
        """Substitute every z_i by its reciprocal."""
        out = {}
        for e, c in self.terms.items():
            out[tuple(-x for x in e)] = c
        return LaurentPoly._raw(self.ctx, out)

    def specialize_beta(self, beta_value) -> "LaurentPoly":
        """Freeze the coupling to a rational value; coefficients stay exact."""
        out: dict[tuple, FieldElement] = {}
        for e, c in self.terms.items():
            v = c.specialize(beta_value)
            if v:
                out[e] = FieldElement.from_fraction(v)
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
        ctx = VarContext(int(obj["nvars"]))
        terms = {}
        for entry in obj["terms"]:
            terms[tuple(entry["exp"])] = FieldElement.from_json(entry["coeff"])
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


def _check_var(ctx: VarContext, i: int):
    if not 1 <= i <= ctx.nvars:
        raise IndexOutOfRange(f"variable index {i} outside 1..{ctx.nvars}")


def divide_by_vardiff(p: LaurentPoly, i: int, j: int) -> LaurentPoly:
    """Exact division of p by (z_i - z_j) via synthetic division in z_i.

    p is viewed as a one-variable polynomial in z_i whose coefficients are
    Laurent polynomials in the other variables; Horner steps run from the top
    exponent down.  A nonzero remainder means p was not divisible and raises
    NonzeroRemainder.  Works for negative exponents too.
    """
    if i == j:
        raise IndexOutOfRange(f"cannot divide by (z_{i} - z_{i})")
    _check_var(p.ctx, i)
    _check_var(p.ctx, j)
    if not p.terms:
        return p
    ii, jj = i - 1, j - 1

    # bucket terms by z_i exponent, zeroing that slot in the key
    buckets: dict[int, dict[tuple, FieldElement]] = {}
    for e, c in p.terms.items():
        k = e[ii]
        rest = e[:ii] + (0,) + e[ii + 1 :]
        buckets.setdefault(k, {})[rest] = c

    kmax = max(buckets)
    kmin = min(buckets)
    out: dict[tuple, FieldElement] = {}
    carry: dict[tuple, FieldElement] = {}
    for k in range(kmax, kmin, -1):
        # quotient coefficient at z_i^(k-1) equals A_k + z_j * (previous carry)
        nxt = dict(buckets.get(k, {}))
        for rest, c in carry.items():
            shifted = rest[:jj] + (rest[jj] + 1,) + rest[jj + 1 :]
            acc = nxt.get(shifted)
            if acc is None:
                nxt[shifted] = c
            else:
                acc = acc + c
                if acc:
                    nxt[shifted] = acc
                else:
                    del nxt[shifted]
        for rest, c in nxt.items():
            out[rest[:ii] + (k - 1,) + rest[ii + 1 :]] = c
        carry = nxt

    rem = dict(buckets.get(kmin, {}))
    for rest, c in carry.items():
        shifted = rest[:jj] + (rest[jj] + 1,) + rest[jj + 1 :]
        acc = rem.get(shifted)
        if acc is None:
            rem[shifted] = c
        else:
            rem[shifted] = acc + c
    if any(c for c in rem.values()):
        raise NonzeroRemainder(f"(z_{i} - z_{j}) does not divide the input")
    return LaurentPoly._raw(p.ctx, out)
