"""Free quasi-particle spectrum of the trigonometric model.

Everything is exact rational arithmetic; momenta carry the unit 2*pi/L and
energies its square, with L kept symbolic.  The quasi-momentum uses the
half-coupling staircase

    kappa_i = (2 pi / L) [lam_i + (b/2)(N + 1 - 2 i) + q],

the unique choice consistent with the ground-state energy, the excitation
eigenvalues, and the exclusion spacing at once.  The quasi-momenta, their
sum and their squared sum are computed on integer numerators over one
common denominator, 2 den(b) den(q), and each becomes one Fraction.
spectrum_payload renders a `csjack spectrum` request as text, or as the
object that the command line writes as JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import OutOfFloatRange, TooManyParts
from .partitions import Partition, Record, partitions_of

MOMENTUM_UNIT = "2*pi/L"
ENERGY_UNIT = "(2*pi/L)^2"
GROUND_ENERGY_UNIT = "(pi/L)^2"


class ModelParams(Record):
    __slots__ = ("nparticles", "beta", "q", "length")

    def __init__(
        self, nparticles: int, beta: Fraction, q: Fraction = Fraction(0), length: str | Fraction = "2pi"
    ):
        if nparticles < 1:
            raise TooManyParts(f"need at least one particle, got {nparticles}")
        self._init(nparticles, beta, q, length)


def ground_energy(params: ModelParams) -> Fraction:
    """Ground state energy in units of (pi/L)^2: b^2 N (N^2 - 1) / 3."""
    n = params.nparticles
    return params.beta**2 * Fraction(n * (n * n - 1), 3)


def _numerators(lam: Partition, params: ModelParams) -> tuple[list[int], int]:
    """Integer numerators of the quasi-momenta over their one common
    denominator 2 den(b) den(q), and that denominator."""
    lam = Partition(lam)
    n = params.nparticles
    beta, q = params.beta, params.q
    den = 2 * beta.denominator * q.denominator
    # den * b / 2 and den * q, both integers
    stair = beta.numerator * q.denominator
    shift = 2 * beta.denominator * q.numerator
    return [x * den + stair * (n + 1 - 2 * i) + shift for i, x in enumerate(lam.pad(n), start=1)], den


def quasi_momenta(lam: Partition, params: ModelParams) -> list[Fraction]:
    """Quasi-momenta in units of 2*pi/L, one per particle, strictly ordered."""
    nums, den = _numerators(lam, params)
    return [Fraction(k, den) for k in nums]


def total_momentum(lam: Partition, params: ModelParams) -> Fraction:
    nums, den = _numerators(lam, params)
    return Fraction(sum(nums), den)


def total_energy(lam: Partition, params: ModelParams) -> Fraction:
    """Sum of squared quasi-momenta, in units of (2*pi/L)^2."""
    nums, den = _numerators(lam, params)
    return Fraction(sum(k * k for k in nums), den * den)


class SpectrumRecord(Record):
    __slots__ = ("lam", "params", "kappa", "momentum", "energy", "ground")

    def __init__(
        self,
        lam: Partition,
        params: ModelParams,
        kappa: tuple[Fraction, ...],
        momentum: Fraction,
        energy: Fraction,
        ground: Fraction,
    ):
        self._init(lam, params, kappa, momentum, energy, ground)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "kappa": [str(k) for k in self.kappa],
            "momentum": str(self.momentum),
            "energy": str(self.energy),
        }


def spectrum_record(lam: Partition, params: ModelParams) -> SpectrumRecord:
    return SpectrumRecord(
        lam=Partition(lam),
        params=params,
        kappa=tuple(quasi_momenta(lam, params)),
        momentum=total_momentum(lam, params),
        energy=total_energy(lam, params),
        ground=ground_energy(params),
    )


class WavefunctionDescriptor(Record):
    """Shape of the full eigenfunction: a power of the product of all
    variables, the pair-difference factor to the coupling, and a Jack factor."""

    __slots__ = ("jack_lam", "nparticles", "ring_exponent", "pair_exponent")

    def __init__(
        self, jack_lam: Partition, nparticles: int, ring_exponent: Fraction, pair_exponent: Fraction
    ):
        self._init(jack_lam, nparticles, ring_exponent, pair_exponent)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.jack_lam),
            "nparticles": self.nparticles,
            "product_power": str(self.ring_exponent),
            "pair_difference_power": str(self.pair_exponent),
            "jack_normalization": "monic",
        }


def wavefunction_descriptor(lam: Partition, params: ModelParams) -> WavefunctionDescriptor:
    lam = Partition(lam)
    n = params.nparticles
    if len(lam) > n - 1:
        raise TooManyParts(f"descriptor needs l(lambda) <= {n - 1}, got {len(lam)}")
    return WavefunctionDescriptor(
        jack_lam=lam,
        nparticles=n,
        ring_exponent=params.q - Fraction(n - 1) * params.beta / 2,
        pair_exponent=params.beta,
    )


def _float(x: Fraction, what: str) -> float:
    """x as a float; a domain error when it is too large for one."""
    try:
        return float(x)
    except OverflowError:
        raise OutOfFloatRange(f"{what} is too large for a float") from None


def _length_scale(length) -> float | None:
    """Numeric value of 2*pi/L when L is a plain rational, else None."""
    if length == "2pi":
        return None
    if not _float(length, "length"):
        raise OutOfFloatRange("length is too small for a float")
    return 2 * math.pi / float(length)


def spectrum_payload(args) -> str | dict:
    """stdout of `csjack spectrum` for the parsed flags args: text, or the
    object the command line writes as JSON."""
    params = ModelParams(
        nparticles=args.nparticles,
        beta=args.beta,
        q=Fraction(args.q),
        length=args.length,
    )
    if args.all_degree is not None:
        lams = [
            lam
            for n in range(args.all_degree + 1)
            for lam in partitions_of(n, params.nparticles)
        ]
    else:
        lams = [Partition(args.lam)]
    records = [spectrum_record(lam, params) for lam in lams]
    ground = ground_energy(params)
    if args.format == "json":
        return {
            "params": {
                "nparticles": params.nparticles,
                "beta": str(params.beta),
                "q": str(params.q),
                "length": str(params.length),
            },
            "units": {
                "momentum": MOMENTUM_UNIT,
                "energy": ENERGY_UNIT,
                "ground_energy": GROUND_ENERGY_UNIT,
            },
            "ground_energy": str(ground),
            "states": [r.to_json() for r in records],
        }
    lines = [
        f"spectrum nparticles={params.nparticles} beta={params.beta} "
        f"q={params.q} length={params.length}",
        f"ground energy = {ground} * {GROUND_ENERGY_UNIT}",
    ]
    scale = _length_scale(params.length)
    for r in records:
        kappa = ", ".join(str(k) for k in r.kappa)
        line = (
            f"lambda={list(r.lam)} kappa=[{kappa}] momentum={r.momentum} "
            f"energy={r.energy}"
        )
        if scale is not None:
            # only an exact zero prints as zero, and no energy prints as inf
            value = _float(r.energy, "energy") * scale * scale if r.energy else 0.0
            if value in (0, math.inf) and r.energy:
                raise OutOfFloatRange(f"energy value of lambda={list(r.lam)} is out of float range")
            line += f" energy_value={value:.12g}"
        lines.append(line)
    return "\n".join(lines) + "\n"
