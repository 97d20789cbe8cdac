"""The creation kernel and the normalization against their definitions.

rodrigues._creation_step takes a symmetric polynomial's m-coordinates
through one creation step B_k+: one D-string over (1..k), each term read
once and weighted by the number of subsets that read it.  The reference
below is the defining sum over subsets, operators.apply_B_plus, on every
m_mu input and step by step along each creation chain.  The weights are
also checked against one lookup per subset for N <= 7, and against the
triangular oracle where a part 1 repeats up to 10 times; monic J_lam at
N = 40 and 300 matches it at N = l(lam) + 2, and raw phi_lam and c_lam
at N = |lam| + 2 ... |lam| + 4 match those at N = |lam| + 1.  A jack
request calls no operator.
LaurentPoly.scale, which the normalized forms use, multiplies once per
distinct coefficient (at most once per m-coordinate when the polynomial is
symmetric) and equals a term-by-term scaling on any input.  The kernel
never tests its input's symmetry.  Its D-string, rodrigues._d_string,
unfolds one slot per factor and equals the string run on p expanded onto
every distinct head of k parts first.
"""

import itertools
import math

import pytest
from criteria_helpers import PINNED, SWEEP, annihilation_width, case_id

from csjack import operators, oracle, rodrigues
from csjack.fieldring import BETA, FieldElement, pack_width
from csjack.operators import apply_B_plus, apply_D_string
from csjack.partitions import Partition, partitions_of
from csjack.polyring import LaurentPoly, VarContext
from csjack.symbases import monomial_sym

CHAIN = tuple(dict.fromkeys(SWEEP + PINNED))
# an int coupling large enough that no coefficient cancels by accident
PACKED_BETA = 1 << 40


def subset_sum(k, J, p):
    """Sum over k-subsets J' of J of z_{J'} * D-string(1, J') p."""
    total = LaurentPoly.zero(p.ctx)
    for subset in itertools.combinations(J, k):
        q = apply_D_string(1, subset, p)
        for v in subset:
            q = q * LaurentPoly.variable(p.ctx, v)
        total = total + q
    return total


def int_poly(ctx, coords):
    """The symmetric int polynomial with the m-coordinates coords."""
    terms = {e: c for mu, c in coords.items() for e in set(itertools.permutations(mu))}
    return LaurentPoly._raw(ctx, terms)


def m_coordinates(p):
    return {e: c for e, c in p.terms.items() if list(e) == sorted(e, reverse=True)}


@pytest.fixture
def string_calls(monkeypatch):
    calls = []
    original = operators.apply_D_string

    def counted(k, J, p, beta=BETA):
        calls.append(tuple(J))
        return original(k, J, p, beta)

    monkeypatch.setattr(operators, "apply_D_string", counted)
    return calls


@pytest.mark.parametrize("nvars", [2, 3, 4, 5, 6])
def test_symmetric_route_matches_subset_sum(nvars):
    """Both sides are linear in p, so the m_mu inputs cover every symmetric
    input of their degrees."""
    ctx = VarContext(nvars)
    J = tuple(range(1, nvars + 1))
    for n in range(5):
        for lam in partitions_of(n, nvars):
            coords = {lam.pad(nvars): 1}
            p = int_poly(ctx, coords)
            for k in range(1, nvars):
                expected = apply_B_plus(k, J, p, PACKED_BETA)
                assert expected.is_symmetric()
                assert rodrigues._creation_step(k, coords, PACKED_BETA) == m_coordinates(expected)


@pytest.mark.parametrize("lam, nvars", CHAIN, ids=map(case_id, CHAIN))
def test_kernel_follows_the_subset_sum_chain(lam, nvars):
    """Every creation step of phi_lam, at the packed coupling _phi uses."""
    ctx = VarContext(nvars)
    steps = rodrigues._creation_steps(lam)
    beta = 1 << pack_width(math.factorial(sum(steps)))
    coords = {(0,) * nvars: 1}
    p = int_poly(ctx, coords)
    for k in steps:
        coords = rodrigues._creation_step(k, coords, beta)
        p = apply_B_plus(k, tuple(range(1, nvars + 1)), p, beta)
        assert coords == m_coordinates(p)
        assert p == int_poly(ctx, coords)


# partitions with a part 1 repeated 8 to 10 times, and N beyond their length
LONG_COLUMNS = (((2,) + (1,) * 10, 12), ((2, 2) + (1,) * 8, 11), ((3,) + (1,) * 9, 40))


def lookup_sum(nvars, k, q):
    """{nu: sum over k-subsets S of q[nu_S - 1, nu_R]} for every nu that a
    term of the D-string q reaches, one lookup per subset."""
    subsets = [(s, [v for v in range(nvars) if v not in s]) for s in itertools.combinations(range(nvars), k)]
    out = {}
    for e in q:
        nu = tuple(sorted([x + 1 for x in e[:k]] + list(e[k:]), reverse=True))
        out[nu] = sum(q.get(tuple([nu[v] - 1 for v in s] + [nu[v] for v in r]), 0) for s, r in subsets)
    return {nu: c for nu, c in out.items() if c}


@pytest.mark.parametrize("nvars", [2, 3, 4, 5, 6, 7])
def test_multiplicity_count_matches_the_subset_lookups(nvars):
    """The binomials of part multiplicities count the subsets that read each
    term of the D-string."""
    for n in range(5):
        for lam in partitions_of(n, nvars):
            coords = {lam.pad(nvars): 1}
            for k in range(1, nvars):
                q = rodrigues._d_string(coords, k, 1, PACKED_BETA)
                assert rodrigues._creation_step(k, coords, PACKED_BETA) == lookup_sum(nvars, k, q)


def expanded_d_string(coords, k, start, beta):
    """The D-string on p expanded onto every distinct ordered head of k parts
    of each mu, the other parts following in order, then the same factors."""
    p = {}
    for mu, c in coords.items():
        level = [((), mu)]
        for _ in range(k):
            level = [
                (head + (x,), rest[:i] + rest[i + 1 :])
                for head, rest in level
                for i, x in enumerate(rest)
                if not i or x != rest[i - 1]
            ]
        p.update(dict.fromkeys((head + rest for head, rest in level), c))
    for t in range(k - 1, -1, -1):
        out = {e: c * (e[t] + (start + t) * beta) for e, c in p.items()}
        for e, c in p.items():
            for j in range(t + 1, k):
                a, b = e[t], e[j]
                lo, hi, v = (b, a, beta * c) if a > b else (a, b, -beta * c)
                for m in range(lo, hi):
                    key = list(e)
                    key[t], key[j] = m + 1, a + b - 1 - m
                    out[tuple(key)] = out.get(tuple(key), 0) + v
        p = {e: c for e, c in out.items() if c}
    return p


def test_unfolded_string_matches_the_expanded_string():
    """_d_string unfolds one slot per factor; the reference expands p onto
    every head first.  phi_lam at the annihilation width, full-length lam
    shifted by lam_N as _phi does, for every k and both shifts."""
    cases = 0
    for nvars in range(1, 7):
        for degree in range(8 if nvars <= 4 else 6):
            for lam in partitions_of(degree, nvars):
                padded = lam.pad(nvars)
                steps = [k for k in rodrigues._creation_steps(lam) if k < nvars]
                width = annihilation_width([x - padded[-1] for x in lam], nvars)
                coords = {
                    tuple(x + padded[-1] for x in mu): c
                    for mu, c in rodrigues._packed(nvars, steps, width).items()
                }
                for k, start in itertools.product(range(1, nvars + 1), (0, 1)):
                    expected = expanded_d_string(coords, k, start, 1 << width)
                    assert rodrigues._d_string(coords, k, start, 1 << width) == expected, (lam, nvars, k, start)
                    cases += 1
    assert cases == 1004


@pytest.mark.parametrize("lam", [(1,), (2, 1), (2, 2, 1), (3, 1, 1)], ids=lambda lam: ",".join(map(str, lam)))
def test_monic_coordinates_do_not_depend_on_many_zero_parts(lam):
    """Monic J_lam is stable in N (Macdonald VI.10), so its m-coordinates
    at N = 40 and N = 300, where the zero part repeats hundreds of times,
    are those at N = l(lam) + 2 on every mu with l(mu) <= l(lam) + 2."""
    lam = Partition(lam)

    def monic(nvars):
        ctx = VarContext(nvars)
        c = rodrigues.c_coefficient(lam, ctx)
        return {mu: v / c for mu, v in rodrigues._phi(ctx, lam).items() if len(mu) <= len(lam) + 2}

    few = monic(len(lam) + 2)
    for nvars in (40, 300):
        assert monic(nvars) == few


def test_raw_kernel_does_not_depend_on_nvars_past_the_weight():
    """For l(lam) < N, phi_lam and c_lam are stable in N: every mu that lam
    dominates has l(mu) <= |lam|, and the factors of c_coefficient with
    k > l(lam) are empty.  So at N = |lam| + 2 ... |lam| + 4 both equal
    their values at N = |lam| + 1, for every |lam| <= 6."""
    for weight in range(7):
        for lam in partitions_of(weight, None):
            few = VarContext(weight + 1)
            expected = (dict(rodrigues._phi(few, lam)), rodrigues.c_coefficient(lam, few))
            for nvars in range(weight + 2, weight + 5):
                ctx = VarContext(nvars)
                assert (dict(rodrigues._phi(ctx, lam)), rodrigues.c_coefficient(lam, ctx)) == expected, (lam, nvars)


@pytest.mark.parametrize("lam, nvars", LONG_COLUMNS, ids=map(case_id, LONG_COLUMNS))
def test_long_columns_solve_the_triangular_system(lam, nvars):
    """A nonzero part value that repeats past N = 7 weights its terms by
    binomials no kernel test above reaches; the triangular oracle shares no
    code with the kernel."""
    ctx = VarContext(nvars)
    lam = Partition(lam)
    assert oracle.is_triangular_solution(rodrigues._phi(ctx, lam), rodrigues.c_coefficient(lam, ctx), lam, ctx)


def test_nonsymmetric_input_takes_the_subset_loop(string_calls):
    ctx = VarContext(4)
    z = [LaurentPoly.variable(ctx, i) for i in range(1, 5)]
    p = z[0] * z[0] * z[1] + z[2].scale(BETA) + z[3].scale(3)
    J = (1, 2, 3, 4)
    for k in range(1, 4):
        del string_calls[:]
        out = apply_B_plus(k, J, p)
        assert string_calls == list(itertools.combinations(J, k))
        assert out == subset_sum(k, J, p)


def test_partial_index_set_takes_the_subset_loop(string_calls):
    ctx = VarContext(4)
    p = monomial_sym(Partition((2, 1)), ctx)
    J = (1, 3, 4)
    for k in range(1, 4):
        del string_calls[:]
        out = apply_B_plus(k, J, p)
        assert string_calls == list(itertools.combinations(J, k))
        assert out == subset_sum(k, J, p)


def test_a_jack_request_makes_no_operator_call(monkeypatch):
    calls = []
    for name in dir(operators):
        if name.startswith("apply_"):
            monkeypatch.setattr(operators, name, lambda *args, name=name, **kwargs: calls.append(name))
    rodrigues._phi.cache_clear()
    try:
        # a creation chain, and a full-length partition built by the boost
        rodrigues.jack(Partition((3, 2, 1)), VarContext(6))
        rodrigues.jack(Partition((4, 2, 1)), VarContext(3), "stanley")
    finally:
        rodrigues._phi.cache_clear()
    assert calls == []


@pytest.fixture
def symmetry_tests(monkeypatch):
    tests = []
    original = LaurentPoly.is_symmetric

    def counted(self):
        tests.append(len(self.terms))
        return original(self)

    monkeypatch.setattr(LaurentPoly, "is_symmetric", counted)
    return tests


def test_one_symmetry_test_per_creation_step(symmetry_tests):
    # the kernel's input is symmetric by construction and is never tested
    rodrigues._phi.cache_clear()
    try:
        rodrigues.rodrigues_raw(Partition((5, 3, 2, 1)), VarContext(5))
    finally:
        rodrigues._phi.cache_clear()
    assert not symmetry_tests


def term_by_term(p, c):
    return LaurentPoly._raw(p.ctx, {e: v * c for e, v in p.terms.items()})


def test_orbit_scaling_is_scale(monkeypatch):
    ctx = VarContext(5)
    c = FieldElement([1, 2], [3, 0, 1])
    p = rodrigues.rodrigues_raw(Partition((3, 2, 1)), ctx)
    coordinates = {tuple(sorted(e)) for e in p.terms}
    expected = term_by_term(p, c)
    products = []
    original = FieldElement.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    assert p.scale(c) == expected
    assert len(products) == len(set(p.terms.values())) <= len(coordinates) < len(p.terms)


def test_orbit_scaling_falls_back_on_nonsymmetric_input():
    ctx = VarContext(3)
    z1, z2 = LaurentPoly.variable(ctx, 1), LaurentPoly.variable(ctx, 2)
    c = FieldElement([0, 1], [1, 1])
    # z1^2 and z2^2 share an orbit, first with different coefficients, then
    # with equal ones in a polynomial that is still not symmetric
    for p in (z1 * z1 + (z2 * z2).scale(2), z1 * z1 + z2 * z2):
        assert not p.is_symmetric()
        assert p.scale(c) == term_by_term(p, c)
