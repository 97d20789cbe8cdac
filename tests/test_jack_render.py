"""How `csjack jack` renders a result: every format reads one listing of
m-coordinates, scaled from the raw product's, and a request never rescales
the whole raw product."""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from csjack import cli, rodrigues
from csjack.fieldring import FieldElement
from csjack.partitions import Partition
from csjack.polyring import LaurentPoly, VarContext

# (lambda, nvars, extra flags); the last one is full length, built by the boost
CASES = [("2,1", "3", ()), ("3,1", "3", ()), ("3,2,1", "3", ("--allow-shift",))]


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("lam,nvars,extra", CASES)
@pytest.mark.parametrize("normalization", rodrigues.NORMALIZATIONS)
@pytest.mark.parametrize("beta", ["1/2", "2"])
def test_json_at_fixed_beta_is_the_specialized_symbolic_json(lam, nvars, extra, normalization, beta):
    head = ["jack", "--lambda", lam, "--nvars", nvars, "--normalization", normalization, *extra]
    expected = json.loads(_stdout(head + ["--format", "json"]))
    value = Fraction(beta)

    def at_beta(coeff):
        return str(FieldElement.from_json(coeff).specialize(value))

    expected["c"] = at_beta(expected["c"])
    for entry in expected["monomial_expansion"]:
        entry["coeff"] = at_beta(entry["coeff"])
    expected["beta"] = beta
    got = _stdout(head + ["--format", "json", "--beta", beta])
    assert got == json.dumps(expected, indent=2) + "\n"


# SHA-256 of what this request printed when its JSON coefficients were
# first written symbolically and then overwritten with their values
BETA_JSON = ["jack", "--lambda", "3,2,1", "--nvars", "4", "--beta", "1/2", "--format", "json"]
BETA_JSON_SHA256 = "b5b6cc6d3b0f6fb3412f7501e3f4b2909980ffd787fa2ffc49cceaa368bda4af"


def test_json_at_fixed_beta_writes_each_coefficient_once(monkeypatch):
    """--beta JSON renders each coefficient once, at its value: no symbolic
    FieldElement.to_json is written first."""
    calls, original = [], FieldElement.to_json
    monkeypatch.setattr(FieldElement, "to_json", lambda self: calls.append(self) or original(self))
    got = _stdout(BETA_JSON)
    assert calls == []
    assert hashlib.sha256(got.encode()).hexdigest() == BETA_JSON_SHA256


@pytest.fixture
def scalings(monkeypatch):
    """One entry per LaurentPoly.scale call with a field factor, i.e. per
    rescaling of a raw product (the creation steps scale by ints)."""
    calls = []
    original = LaurentPoly.scale

    def counted(p, c):
        if isinstance(c, FieldElement):
            calls.append(1)
        return original(p, c)

    monkeypatch.setattr(LaurentPoly, "scale", counted)
    return calls


@pytest.mark.parametrize("lam,extra", [("4,2,1", ()), ("5,3,2,1", ("--allow-shift",))])
def test_a_request_scales_the_raw_product_at_most_once(scalings, lam, extra):
    """Only the printed m-coordinates are scaled, so no request rescales
    the whole raw product."""
    for normalization in rodrigues.NORMALIZATIONS:
        for fmt in ("json", "text"):
            for beta in ("sym", "1"):
                scalings.clear()
                _stdout(
                    ["jack", "--lambda", lam, "--nvars", "4", "--normalization", normalization,
                     "--format", fmt, "--beta", beta, *extra]
                )
                assert not scalings, (normalization, fmt, beta)


def test_other_forms_are_read_only_and_computed_once(scalings):
    result = rodrigues.jack(Partition((2, 1)), VarContext(3), "raw")
    assert not scalings
    assert result.monic is result.monic and result.stanley is result.stanley
    assert result.polynomial is result.raw
    assert len(scalings) == 2
    with pytest.raises(AttributeError):
        result.monic = result.raw
