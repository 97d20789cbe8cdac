"""Property tests of the exact sparse solver over Q(b)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csjack.errors import InconsistentSystem  # noqa: E402
from csjack.fieldring import ONE, ZERO, FieldElement  # noqa: E402
from csjack.symbases import solve_linear  # noqa: E402

SMALL = st.integers(-3, 3)
BETA_POLY = st.lists(SMALL, max_size=3)


@st.composite
def field_elements(draw, nonzero=False):
    num = draw(BETA_POLY.filter(any) if nonzero else BETA_POLY)
    den = draw(BETA_POLY.filter(any))
    return FieldElement(num, den)


@st.composite
def square_systems(draw):
    """A = L U with L lower triangular (nonzero diagonal) and U unit upper
    triangular, so A is nonsingular; rows shuffled; b = A x."""
    n = draw(st.integers(1, 3))
    lower = [[draw(field_elements(nonzero=i == j)) if j <= i else ZERO for j in range(n)] for i in range(n)]
    upper = [[ONE if i == j else draw(field_elements()) if j > i else ZERO for j in range(n)] for i in range(n)]
    a = [[sum((lower[i][k] * upper[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]
    a = draw(st.permutations(a))
    x = [draw(field_elements()) for _ in range(n)]
    b = [sum((row[j] * x[j] for j in range(n)), ZERO) for row in a]
    return a, x, b


def _rows(a, b):
    return [({j: v for j, v in enumerate(row) if v}, rhs) for row, rhs in zip(a, b)]


def _combination(a, b, weights):
    n = len(a[0])
    row = [sum((w * r[j] for w, r in zip(weights, a)), ZERO) for j in range(n)]
    return row, sum((w * rhs for w, rhs in zip(weights, b)), ZERO)


@settings(max_examples=50, deadline=None)
@given(square_systems())
def test_nonsingular_system_solves_exactly(system):
    a, x, b = system
    solution = solve_linear(_rows(a, b), len(x))
    assert solution == x
    assert [sum((row[j] * solution[j] for j in range(len(x))), ZERO) for row in a] == b


@settings(max_examples=30, deadline=None)
@given(square_systems(), st.data())
def test_consistent_overdetermined_stack_solves(system, data):
    a, x, b = system
    weights = [data.draw(field_elements()) for _ in a]
    row, rhs = _combination(a, b, weights)
    assert solve_linear(_rows(a + [row], b + [rhs]), len(x)) == x


@settings(max_examples=30, deadline=None)
@given(square_systems(), st.data())
def test_inconsistent_stack_raises(system, data):
    a, x, b = system
    weights = [data.draw(field_elements()) for _ in a]
    row, rhs = _combination(a, b, weights)
    rhs = rhs + data.draw(field_elements(nonzero=True))
    with pytest.raises(InconsistentSystem):
        solve_linear(_rows(a + [row], b + [rhs]), len(x))


@settings(max_examples=30, deadline=None)
@given(square_systems(), st.data())
def test_undetermined_system_raises(system, data):
    a, x, b = system
    drop = data.draw(st.integers(0, len(a) - 1))
    with pytest.raises(InconsistentSystem):
        solve_linear(_rows(a[:drop] + a[drop + 1 :], b[:drop] + b[drop + 1 :]), len(x))
