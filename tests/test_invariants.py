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
"""

import math
from collections import Counter

import pytest

from csjack import rodrigues
from csjack.fieldring import BETA, ONE, ZERO, FieldElement
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


def test_phi_satisfies_every_invariant():
    assert len(CASES) == 743
    failed = {
        (tuple(lam), ctx.nvars): rejected_by(rodrigues._phi(ctx, tuple(lam)), lam, ctx.nvars)
        for ctx, lam in CASES
    }
    assert not {case: names for case, names in failed.items() if names}


def test_largest_case_satisfies_every_invariant():
    """(8,6,4,3,2,1)/7, the creation product's largest pinned build, outside
    CASES."""
    lam, nvars = Partition((8, 6, 4, 3, 2, 1)), 7
    assert not rejected_by(rodrigues._phi(VarContext(nvars), tuple(lam)), lam, nvars)


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
