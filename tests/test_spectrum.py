from fractions import Fraction

import pytest

from csjack.errors import TooManyParts
from csjack.partitions import Partition
from csjack.spectrum import (
    ENERGY_UNIT,
    GROUND_ENERGY_UNIT,
    MOMENTUM_UNIT,
    ModelParams,
    ground_energy,
    quasi_momenta,
    spectrum_record,
    total_energy,
    total_momentum,
    wavefunction_descriptor,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test of the integer numerators is skipped
    given = None


def test_units():
    assert MOMENTUM_UNIT == "2*pi/L"
    assert ENERGY_UNIT == "(2*pi/L)^2"
    assert GROUND_ENERGY_UNIT == "(pi/L)^2"


def test_params_validation():
    with pytest.raises(TooManyParts):
        ModelParams(nparticles=0, beta=Fraction(1))
    p = ModelParams(nparticles=3, beta=Fraction(1, 2))
    assert p.q == 0 and p.length == "2pi"


def test_quasi_momenta_frozen():
    p = ModelParams(nparticles=3, beta=Fraction(2))
    assert quasi_momenta(Partition((2, 1)), p) == [4, 1, -2]
    assert quasi_momenta(Partition(()), p) == [2, 0, -2]
    p = ModelParams(nparticles=2, beta=Fraction(1, 2), q=Fraction(1))
    assert quasi_momenta(Partition(()), p) == [Fraction(5, 4), Fraction(3, 4)]
    with pytest.raises(TooManyParts):
        quasi_momenta(Partition((1, 1, 1)), ModelParams(nparticles=2, beta=Fraction(1)))


def test_printed_form_differs():
    p = ModelParams(nparticles=2, beta=Fraction(1))
    assert quasi_momenta(Partition(()), p) == [Fraction(1, 2), Fraction(-1, 2)]


def test_momentum_additivity():
    # sum kappa = |lam| + N q
    for lam, n, beta, q in [
        ((3, 1), 3, Fraction(2), Fraction(0)),
        ((2, 2, 1), 4, Fraction(1, 3), Fraction(-2)),
        ((), 2, Fraction(5), Fraction(7, 2)),
    ]:
        p = ModelParams(nparticles=n, beta=beta, q=q)
        assert total_momentum(Partition(lam), p) == Partition(lam).weight + n * q


def test_ground_energy():
    p = ModelParams(nparticles=3, beta=Fraction(2))
    assert ground_energy(p) == 32
    p = ModelParams(nparticles=2, beta=Fraction(1, 2))
    assert ground_energy(p) == Fraction(1, 2)
    # rest energy of the vacuum: E0 in (pi/L)^2 units is 4x the kappa square sum
    for n in (2, 3, 4):
        for beta in (Fraction(1), Fraction(2), Fraction(3, 2)):
            p = ModelParams(nparticles=n, beta=beta)
            assert 4 * total_energy(Partition(()), p) == ground_energy(p)


def test_exclusion_spacing():
    p = ModelParams(nparticles=4, beta=Fraction(2, 3))
    for lam in [(), (3, 1), (2, 2, 2), (5, 4, 1, 1)]:
        padded = Partition(lam).pad(4)
        k = quasi_momenta(Partition(lam), p)
        for i in range(3):
            gap = k[i] - k[i + 1]
            assert gap >= p.beta
            assert (gap == p.beta) == (padded[i] == padded[i + 1])


def test_energy_example():
    # kappa = (2, -1): energy 5 is vacuum rest energy 5/4 * 4
    p = ModelParams(nparticles=2, beta=Fraction(3), q=Fraction(1, 2))
    k = quasi_momenta(Partition((1,)), p)
    assert k == [3, Fraction(-1)]
    assert total_energy(Partition((1,)), p) == 10


def test_spectrum_record():
    p = ModelParams(nparticles=3, beta=Fraction(2))
    r = spectrum_record(Partition((2, 1)), p)
    assert r.kappa == (4, 1, -2)
    assert r.momentum == 3
    assert r.energy == 21
    assert r.ground == 32
    obj = r.to_json()
    assert obj["lambda"] == [2, 1]
    assert obj["kappa"] == ["4", "1", "-2"]
    assert obj["momentum"] == "3"
    assert obj["energy"] == "21"


def test_wavefunction_descriptor():
    p = ModelParams(nparticles=3, beta=Fraction(2), q=Fraction(1))
    d = wavefunction_descriptor(Partition((2, 1)), p)
    assert d.ring_exponent == Fraction(-1)  # q - (N-1) b / 2
    assert d.pair_exponent == Fraction(2)
    assert d.jack_lam == (2, 1)
    obj = d.to_json()
    assert obj["product_power"] == "-1"
    assert obj["pair_difference_power"] == "2"
    assert obj["jack_normalization"] == "monic"
    with pytest.raises(TooManyParts):
        wavefunction_descriptor(Partition((1, 1, 1)), p)


def test_records_behave_as_frozen_values():
    import copy
    import pickle

    p = ModelParams(nparticles=3, beta=Fraction(1, 2))
    assert p == ModelParams(3, Fraction(1, 2), Fraction(0), "2pi") and p != ModelParams(3, Fraction(1))
    assert hash(p) == hash(ModelParams(3, Fraction(1, 2)))
    assert repr(p) == "ModelParams(nparticles=3, beta=Fraction(1, 2), q=Fraction(0, 1), length='2pi')"
    assert copy.deepcopy(p) == p == pickle.loads(pickle.dumps(p))
    record = spectrum_record(Partition((2, 1)), p)
    assert repr(record).startswith("SpectrumRecord(lam=(2, 1), params=ModelParams(")
    for value, field in ((p, "beta"), (record, "energy"), (wavefunction_descriptor(Partition((1,)), p), "nparticles")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)


if given is not None:
    RATIONAL = st.fractions(min_value=-8, max_value=8, max_denominator=7)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6),
        st.one_of(st.integers(1, 6), RATIONAL.filter(lambda b: b > 0)),
        RATIONAL,
        st.lists(st.integers(0, 6), max_size=7),
    )
    def test_numerators_match_the_fraction_staircase(n, beta, q, parts):
        """The spectrum over one common denominator against kappa_i =
        lam_i + (b/2)(N + 1 - 2i) + q built Fraction by Fraction; an int
        coupling is exact too."""
        lam = Partition(sorted(parts, reverse=True))
        params = ModelParams(nparticles=n, beta=beta, q=q)
        if len(lam) > n:
            with pytest.raises(TooManyParts):
                quasi_momenta(lam, params)
            return
        half = Fraction(beta) / 2
        kappa = [Fraction(x) + half * (n + 1 - 2 * i) + q for i, x in enumerate(lam.pad(n), start=1)]
        got = quasi_momenta(lam, params)
        assert got == kappa and all(type(k) is Fraction for k in got)
        assert total_momentum(lam, params) == sum(kappa, Fraction(0))
        assert total_energy(lam, params) == sum((k * k for k in kappa), Fraction(0))
        record = spectrum_record(lam, params)
        assert (record.kappa, record.momentum, record.energy) == (
            tuple(kappa),
            sum(kappa, Fraction(0)),
            sum((k * k for k in kappa), Fraction(0)),
        )

else:

    def test_numerators_match_the_fraction_staircase():
        pytest.skip("hypothesis is not installed")
