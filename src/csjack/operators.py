"""Dunkl operators and everything built from them.

Conventions: variable and operator indices are 1-based; a product of
operators written left to right acts right to left, so in an ordered string
the rightmost factor hits the polynomial first.  All operators preserve the
variable context and total degree (creation operators raise degree by their
cardinality).  Every operator that involves the coupling takes it as
`beta`, the symbol b unless given.  An int value on int coefficients
evaluates the operator at b = beta: each operator is Z[b]-linear with
structure constants in Z[b] (integer derivative factors, synthetic division
by the monic z_i - z_j, integer multiples of powers of b), so it commutes
with that evaluation.  The commutator suite runs them this way, and
rodrigues runs the symmetric D-string of the creation product and of the
annihilation suite on m-coordinates in the same closed form.

apply_dunkl writes the derivative and the closed-form divided differences
of each term into one dict, so it builds no p - s_ij p and makes no
per-pair call.  Every operator here takes every difference on every input:
the differences that vanish on symmetric input are skipped only in
rodrigues._d_string, which the tests compare with these definitions.
"""

from __future__ import annotations

import itertools

from .errors import (
    BadCardinality,
    EmptyIndexSet,
    IndexOutOfRange,
    LaurentInput,
    NotSymmetric,
)
from .fieldring import BETA, field
from .polyring import LaurentPoly, _check_var, divide_by_vardiff, galilei_boost


def _check_ordinary(p: LaurentPoly):
    if p.has_negative_exponents():
        raise LaurentInput("operator input must be an ordinary polynomial")


def _check_index_set(J, nvars: int) -> tuple[int, ...]:
    J = tuple(J)
    if not J:
        raise EmptyIndexSet("empty index set")
    if any(not 1 <= j <= nvars for j in J):
        raise IndexOutOfRange(f"index set {J} outside 1..{nvars}")
    if any(a >= b for a, b in zip(J, J[1:])):
        raise IndexOutOfRange(f"index set {J} must be strictly increasing")
    return J


def apply_dunkl(i: int, p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Dunkl operator: plain derivative plus coupling-weighted divided
    differences against every other variable, written into one dict.

    A term c z^e with a = e_i != b = e_j adds to (p - s_ij p)/(z_i - z_j)
    the closed form +-z^rest sum over m = min(a,b) .. max(a,b) - 1 of
    z_i^m z_j^(a+b-1-m), + when a > b, with beta c computed once per term;
    partner terms z^e and z^(s_ij e) cancel in the dict, and zeros are
    dropped once at the end.
    """
    _check_var(p.ctx, i)
    _check_ordinary(p)
    terms = p.terms
    # the rule of LaurentPoly.scale: an int coupling stays int on int input
    if type(beta) is not int or type(next(iter(terms.values()), 0)) is not int:
        beta = field(beta)
    ii = i - 1
    # the derivative's exponents are distinct, so it fills the dict first
    out = {e[:ii] + (e[ii] - 1,) + e[ii + 1 :]: c * e[ii] for e, c in terms.items() if e[ii]}
    others = [jj for jj in range(p.ctx.nvars) if jj != ii]
    for e, c in terms.items():
        a = e[ii]
        bc = beta * c
        le = list(e)
        for jj in others:
            b = e[jj]
            if a == b:
                continue
            lo, hi, v = (b, a, bc) if a > b else (a, b, -bc)
            top = a + b - 1
            for m in range(lo, hi):
                le[ii], le[jj] = m, top - m
                key = tuple(le)
                acc = out.get(key)
                out[key] = v if acc is None else acc + v
            le[jj] = b
    return LaurentPoly._raw(p.ctx, {e: c for e, c in out.items() if c})


def apply_D(i: int, p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Degree-preserving operator z_i * dunkl_i."""
    return apply_dunkl(i, p, beta).shift_var(i, 1)


def apply_D_string(k: int, J, p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Ordered product over J = (j_1 < ... < j_l) of (D_{j_t} + (k+t-1) b),
    the factor with the largest shift acting first."""
    J = _check_index_set(J, p.ctx.nvars)
    for pos in range(len(J) - 1, -1, -1):
        p = apply_D(J[pos], p, beta) + p.scale(beta * (k + pos))
    return p


def apply_B_plus(i: int, J, p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Creation operator of cardinality i over the index set J.

    Sum over i-element subsets J' of J of z_{J'} D-strings started at shift 1.
    The full-cardinality case i = N degenerates to multiplication by
    z_1 ... z_N (the boost).
    """
    nvars = p.ctx.nvars
    J = _check_index_set(J, nvars)
    if not 1 <= i <= nvars:
        raise IndexOutOfRange(f"cardinality {i} outside 1..{nvars}")
    if i > len(J):
        raise BadCardinality(f"cardinality {i} exceeds |J| = {len(J)}")
    if i == nvars:
        return galilei_boost(p)
    subsets = itertools.combinations(J, i)
    terms = (_times_z(apply_D_string(1, s, p, beta), s) for s in subsets)
    return LaurentPoly.sum(p.ctx, terms)


def _times_z(p: LaurentPoly, subset) -> LaurentPoly:
    """Multiply by the product of z_v over v in subset."""
    for v in subset:
        p = p.shift_var(v, 1)
    return p


def apply_N(i: int, J, p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Annihilation-side sum over i-element subsets of D-strings started at
    shift 0 (no variable prefactor)."""
    J = _check_index_set(J, p.ctx.nvars)
    if i < 1 or i > len(J):
        raise BadCardinality(f"cardinality {i} outside 1..|J| = {len(J)}")
    subsets = itertools.combinations(J, i)
    strings = (apply_D_string(0, s, p, beta) for s in subsets)
    return LaurentPoly.sum(p.ctx, strings)


def apply_H(p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Calogero-Sutherland Hamiltonian on symmetric polynomials.

    Differential form: sum of squared Euler operators plus the coupling times
    sum over pairs of (z_j + z_k)/(z_j - z_k) (z_j d_j - z_k d_k).  The pair
    term is evaluated by exact division, which symmetry of p guarantees.
    """
    _check_ordinary(p)
    if not p.is_symmetric():
        raise NotSymmetric("Hamiltonian input must be symmetric")
    indices = range(1, p.ctx.nvars + 1)

    def pair_term(j: int, k: int) -> LaurentPoly:
        w = p.euler_derivative(j) - p.euler_derivative(k)
        return divide_by_vardiff(w.shift_var(j, 1) + w.shift_var(k, 1), j, k)

    squares = (p.euler_derivative(i).euler_derivative(i) for i in indices)
    pairs = (pair_term(j, k) for j, k in itertools.combinations(indices, 2))
    return LaurentPoly.sum(p.ctx, squares) + LaurentPoly.sum(p.ctx, pairs).scale(beta)


def apply_L(j: int, p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Conserved charge: restriction of sum_i D_i^j to symmetric input."""
    if j < 1:
        raise IndexOutOfRange(f"charge order {j} must be >= 1")
    _check_ordinary(p)
    if not p.is_symmetric():
        raise NotSymmetric("charge input must be symmetric")

    def power(i: int) -> LaurentPoly:
        q = p
        for _ in range(j):
            q = apply_D(i, q, beta)
        return q

    return LaurentPoly.sum(p.ctx, (power(i) for i in range(1, p.ctx.nvars + 1)))


def apply_hatD(i: int, p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Shifted variant of D_i whose family commutes: D_i + (i-1) b minus b times
    the sum of (1 - swap_{ji}) over j < i, i.e. D_i + b * sum_{j<i} swap_{ji}."""
    _check_var(p.ctx, i)
    _check_ordinary(p)
    swapped = LaurentPoly.sum(p.ctx, (p.swap_vars(j, i) for j in range(1, i)))
    return apply_D(i, p, beta) + swapped.scale(beta)


def apply_hatH(p: LaurentPoly, beta=BETA) -> LaurentPoly:
    """Hamiltonian in terms of the commuting family: sum of hatD_i^2
    - (N-1) b hatD_i, plus the constant N(N-1)(N-2) b^2 / 6."""
    _check_ordinary(p)
    n = p.ctx.nvars
    first = [apply_hatD(i, p, beta) for i in range(1, n + 1)]
    squares = [apply_hatD(i, q, beta) for i, q in enumerate(first, start=1)]
    linear = LaurentPoly.sum(p.ctx, first).scale(beta * (1 - n))
    # a product of three consecutive integers is divisible by 6
    constant = p.scale(beta * beta * (n * (n - 1) * (n - 2) // 6))
    return LaurentPoly.sum(p.ctx, squares + [linear, constant])
