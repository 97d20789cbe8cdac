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
