import copy
import pickle

import pytest

from csjack.suites import (
    SUITES,
    CheckResult,
    suite_commutators,
    suite_spectrum_consistency,
)


def test_suite_names():
    assert set(SUITES) == {
        "commutators",
        "rodrigues-vs-oracle",
        "annihilation",
        "orthogonality",
        "spectrum-consistency",
    }


def test_commutators_small():
    results = suite_commutators(max_degree=3, max_nvars=3, count=30)
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    names = [r.name for r in results]
    assert "dunkl-commute" in names
    assert "shifted-family-swap" in names
    # corpus meets the requested size
    assert sum(r.cases for r in results) >= 30


def test_commutators_deterministic():
    a = suite_commutators(max_degree=3, max_nvars=3, count=18, seed=7)
    b = suite_commutators(max_degree=3, max_nvars=3, count=18, seed=7)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]


def test_spectrum_consistency_small():
    results = suite_spectrum_consistency(count=10)
    assert all(r.passed for r in results)


def test_check_result_is_a_frozen_record():
    result = CheckResult("dunkl-commute", True, "", 23)
    assert result == CheckResult("dunkl-commute", True, "", 23) != CheckResult("dunkl-commute", False, "x", 23)
    assert hash(result) == hash(CheckResult("dunkl-commute", True, "", 23))
    assert repr(result) == "CheckResult(name='dunkl-commute', passed=True, detail='', cases=23)"
    assert CheckResult("x", False) == CheckResult("x", False, "", 0)
    assert copy.copy(result) == result == pickle.loads(pickle.dumps(result))
    with pytest.raises(AttributeError):
        result.passed = False
    with pytest.raises(AttributeError):
        del result.detail
    assert result.passed is True
