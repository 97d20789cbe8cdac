"""Closed-form invariants of the integral phi_lam = c_lam J_lam, checked on
its cached m-coordinates (rodrigues._phi) at sizes the oracle solves reach
only slowly.  With phi_lam = b^|lam| times Stanley's J_lam at alpha = 1/b
(Stanley 1989; Macdonald VI.10):

* principal specialization: phi_lam(1^N), the sum over mu of the orbit size
  N! / prod_r m_r(mu)! of mu padded to N parts (zeros counted in m_0) times
  the coefficient of m_mu, is prod over the boxes (i, j) of lam of
  (N - i) b + j, with rows i and columns j counted from 0;
* the coefficient of m_(1^n), n = |lam| <= N, is n! b^n;
* positivity: every coefficient lies in N[b] (Knop and Sahi 1997).

Each invariant also rejects a perturbed phi_lam that the other two accept.
The packed widths rest on two bounds that follow: every b-coefficient is at
most n!, n = |lam|, which _phi's width pack_width(n!) covers, no wider than
the bound once chained over every creation step; and the 1-norm over z- and
b-monomials is the principal specialization at b = 1, on which the
annihilation suite's width builds.
"""

import math
from collections import Counter

import pytest
from criteria_helpers import packed_widths

from csjack import rodrigues
from csjack.fieldring import BETA, ONE, ZERO, FieldElement, pack_width
from csjack.partitions import Partition, partitions_of
from csjack.polyring import VarContext

# every lam with |lam| <= 12 that the creation product builds in N <= 7
CASES = [
    (VarContext(nvars), lam)
    for nvars in range(2, 8)
    for degree in range(13)
    for lam in partitions_of(degree, nvars - 1)
]


def orbit(mu, nvars: int) -> int:
    """Number of distinct exponent vectors in the orbit of mu padded to nvars."""
    counts = Counter(Partition(mu).pad(nvars))
    return math.factorial(nvars) // math.prod(map(math.factorial, counts.values()))


def principal_specialization(coords, lam: Partition, nvars: int) -> bool:
    value = sum((orbit(mu, nvars) * c for mu, c in coords.items()), ZERO)
    expected = ONE
    for i, row in enumerate(lam):
        for j in range(row):
            expected = expected * FieldElement((j, nvars - i))
    return value == expected


def ones_coefficient(coords, lam: Partition, nvars: int) -> bool:
    n = lam.weight
    return n > nvars or coords.get(Partition((1,) * n)) == math.factorial(n) * FieldElement.beta(n)


def positivity(coords, lam: Partition, nvars: int) -> bool:
    return all(
        c.den == (1,) and all(isinstance(x, int) and x >= 0 for x in c.num) for c in coords.values()
    )


INVARIANTS = {
    "principal-specialization": principal_specialization,
    "ones-coefficient": ones_coefficient,
    "positivity": positivity,
}


def rejected_by(coords, lam: Partition, nvars: int) -> set[str]:
    return {name for name, holds in INVARIANTS.items() if not holds(coords, lam, nvars)}


def chain_width(nvars: int, steps: list[int]) -> int:
    """The width once proven by a chain over every step: B_k+ at input degree
    d multiplies the 1-norm by at most C(N, k) prod_{pos<k} (N d + 1 + pos)."""
    bound, degree = 1, 0
    for k in steps:
        bound *= math.comb(nvars, k) * math.prod(nvars * degree + 1 + pos for pos in range(k))
        degree += k
    return pack_width(bound)


def width_faults(coords, lam: Partition, nvars: int, width: int) -> set[str]:
    """The bounds behind the packed widths that phi_lam, packed at width, breaks."""
    one_norm = sum(orbit(mu, nvars) * sum(map(abs, c.num)) for mu, c in coords.items())
    bounds = {
        "coefficient-bound": all(abs(x) <= math.factorial(lam.weight) for c in coords.values() for x in c.num),
        "one-norm": one_norm == math.prod(nvars - i + j for i, row in enumerate(lam) for j in range(row)),
        "chain-bound": width <= chain_width(nvars, rodrigues._creation_steps(lam)),
    }
    return {name for name, holds in bounds.items() if not holds}


@pytest.fixture
def cold_widths():
    """{(nvars, steps): width} of the _packed calls of _phi, on a cold cache."""
    rodrigues._phi.cache_clear()
    with packed_widths() as widths:
        yield widths


def faults(ctx: VarContext, lam: Partition, widths: dict) -> set[str]:
    coords = rodrigues._phi(ctx, tuple(lam))
    width = widths[ctx.nvars, tuple(rodrigues._creation_steps(lam))]
    return rejected_by(coords, lam, ctx.nvars) | width_faults(coords, lam, ctx.nvars, width)


def test_phi_satisfies_every_invariant(cold_widths):
    assert len(CASES) == 743
    failed = {(tuple(lam), ctx.nvars): faults(ctx, lam, cold_widths) for ctx, lam in CASES}
    assert not {case: names for case, names in failed.items() if names}


def test_largest_case_satisfies_every_invariant(cold_widths):
    """(8,6,4,3,2,1)/7, the creation product's largest pinned build, outside
    CASES, packed at pack_width(20!) = 82 bits."""
    lam, ctx = Partition((8, 6, 4, 3, 2, 1)), VarContext(7)
    assert not faults(ctx, lam, cold_widths)
    assert list(cold_widths.values()) == [82]


def transfer(coords, nvars: int, mu, nu, x):
    """coords with orbit(nu) x added at mu and orbit(mu) x taken from nu,
    which keeps the principal specialization."""
    out = dict(coords)
    out[mu] = out.get(mu, ZERO) + orbit(nu, nvars) * x
    out[nu] = out.get(nu, ZERO) - orbit(mu, nvars) * x
    return out


LAM, NVARS = Partition((2, 1)), 3  # phi = (2 b^3 + b^2) m_(2,1) + 6 b^3 m_(1,1,1)
MUTATIONS = {
    "principal-specialization": lambda phi: {**phi, LAM: phi[LAM] + BETA},
    "ones-coefficient": lambda phi: transfer(phi, NVARS, Partition((1, 1, 1)), LAM, BETA**3),
    "positivity": lambda phi: transfer(phi, NVARS, LAM, Partition((3,)), BETA),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_each_invariant_alone_rejects_its_mutation(name):
    phi = rodrigues._phi(VarContext(NVARS), tuple(LAM))
    assert not rejected_by(phi, LAM, NVARS)
    assert rejected_by(MUTATIONS[name](phi), LAM, NVARS) == {name}
