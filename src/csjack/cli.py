"""Command line driver.

Subcommands: jack (build one polynomial), verify (run property suites),
spectrum (quasi-momenta and energies), convert (basis conversion of a
polynomial read from a file or stdin).  Output is byte deterministic for
fixed inputs.  Exit codes: 0 success, 1 domain error or unreadable input,
2 usage error (bad flags or flag values), 3 a verification suite reported a
failure.  json is imported only by the handlers that read or write it, so a
verify request or a text-format request does not load it.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .errors import AlgebraError
from .fieldring import FieldElement
from .partitions import Partition, partitions_of
from .polyring import LaurentPoly, VarContext


def _parse_partition(text: str) -> tuple[int, ...]:
    # syntax only: Partition() raises the domain errors
    text = text.strip()
    return () if text in ("", "0") else tuple(int(x) for x in text.split(","))


def _checked(parse, expected: str, valid=lambda value: True):
    """argparse type: a flag value that does not parse or is out of range is
    a usage error, reported before anything is built."""

    def convert(text: str):
        try:
            value = parse(text)
            if valid(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


PARTITION_ARG = _checked(_parse_partition, "comma separated integers")
COUNT_ARG = _checked(int, "an integer >= 1", lambda v: v >= 1)
DEGREE_ARG = _checked(int, "an integer >= 0", lambda v: v >= 0)

# choices of jack --normalization, verify --suite and convert --to, copied so
# that building the parser imports none of rodrigues, suites and symbases; a
# test pins them to their source
NORMALIZATION_CHOICES = ("monic", "stanley", "raw")
SUITE_CHOICES = [
    "annihilation",
    "commutators",
    "orthogonality",
    "rodrigues-vs-oracle",
    "spectrum-consistency",
    "all",
]
BASIS_CHOICES = ("m", "p")


def _emit(args, payload: str):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_jack(args) -> int:
    lam = Partition(args.lam)
    ctx = VarContext(args.nvars)
    if len(lam) == ctx.nvars and not args.allow_shift:
        print(
            f"error: l(lambda) = {len(lam)} requires l(lambda) <= N-1 = {ctx.nvars - 1} "
            "(pass --allow-shift for the boost reduction)",
            file=sys.stderr,
        )
        return 1
    from . import rodrigues

    result = rodrigues.jack(lam, ctx, args.normalization)

    def show(c) -> str:
        return str(c if args.beta is None else c.specialize(args.beta))

    if args.format == "json":
        import json

        obj = result.to_json()
        obj["beta"] = "sym" if args.beta is None else str(args.beta)
        if args.beta is not None:
            obj["c"] = show(result.c)
            for entry, (_, coeff) in zip(obj["monomial_expansion"], result.m_coordinates):
                entry["coeff"] = show(coeff)
        payload = json.dumps(obj, indent=2) + "\n"
    else:
        lines = [
            f"jack lambda={list(lam)} nvars={ctx.nvars} normalization={args.normalization}",
            f"c = {show(result.c)}",
        ]
        rows = [(f"m[{','.join(map(str, mu))}]", show(coeff)) for mu, coeff in result.m_coordinates]
        width = max(len(r[0]) for r in rows) if rows else 0
        lines += [f"{name:<{width}}  {val}" for name, val in rows]
        payload = "\n".join(lines) + "\n"
    _emit(args, payload)
    return 0


def cmd_verify(args) -> int:
    from . import suites

    results = suites.run_suite(args.suite, args.max_degree, args.max_nvars)
    failed = 0
    lines = []
    for r in results:
        if r.passed:
            lines.append(f"PASS {r.name}")
        else:
            failed += 1
            lines.append(f"FAIL {r.name}: {r.detail}")
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return 3 if failed else 0


def _length_scale(length) -> float | None:
    """Numeric value of 2*pi/L when L is a plain rational, else None."""
    if length == "2pi":
        return None
    return 2 * math.pi / float(length)


def cmd_spectrum(args) -> int:
    from . import spectrum

    params = spectrum.ModelParams(
        nparticles=args.nparticles,
        beta=args.beta,
        q=args.q,
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
    records = [spectrum.spectrum_record(lam, params) for lam in lams]
    ground = spectrum.ground_energy(params)
    if args.format == "json":
        import json

        obj = {
            "params": {
                "nparticles": params.nparticles,
                "beta": str(params.beta),
                "q": str(params.q),
                "length": str(params.length),
            },
            "units": {
                "momentum": spectrum.MOMENTUM_UNIT,
                "energy": spectrum.ENERGY_UNIT,
                "ground_energy": spectrum.GROUND_ENERGY_UNIT,
            },
            "ground_energy": str(ground),
            "states": [r.to_json() for r in records],
        }
        payload = json.dumps(obj, indent=2) + "\n"
    else:
        lines = [
            f"spectrum nparticles={params.nparticles} beta={params.beta} "
            f"q={params.q} length={params.length}",
            f"ground energy = {ground} * {spectrum.GROUND_ENERGY_UNIT}",
        ]
        scale = _length_scale(params.length)
        for r in records:
            kappa = ", ".join(str(k) for k in r.kappa)
            line = (
                f"lambda={list(r.lam)} kappa=[{kappa}] momentum={r.momentum} "
                f"energy={r.energy}"
            )
            if scale is not None:
                line += f" energy_value={float(r.energy) * scale * scale:.12g}"
            lines.append(line)
        payload = "\n".join(lines) + "\n"
    _emit(args, payload)
    return 0


def _decode_polynomial(obj) -> LaurentPoly | None:
    """Read a jack result, a LaurentPoly or a basis expansion payload."""
    from . import symbases

    if "monomial_expansion" in obj:
        ctx = VarContext(obj["nvars"])
        coords = {}
        for entry in obj["monomial_expansion"]:
            coeff = entry["coeff"]
            if not isinstance(coeff, dict):  # one rational, at a fixed beta
                coeff = {"num": [coeff], "den": [1]}
            mu = Partition(entry["partition"])
            if mu in coords:
                raise ValueError(f"partition {list(mu)} listed twice")
            coords[mu] = FieldElement.from_json(coeff)
        return symbases.from_m_coordinates(coords, ctx)
    if "terms" in obj:
        return LaurentPoly.from_json(obj)
    if "coords" in obj:
        ctx = VarContext(obj["nvars"])
        return symbases.BasisExpansion.from_json(obj, ctx).reconstruct()
    return None


def cmd_convert(args) -> int:
    import json

    from . import symbases

    try:
        if args.input:
            with open(args.input) as fh:
                obj = json.load(fh)
        else:
            obj = json.load(sys.stdin)
        poly = _decode_polynomial(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        print(f"error: malformed polynomial payload ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 1
    if poly is None:
        print("error: unrecognized polynomial payload", file=sys.stderr)
        return 1
    if args.nvars and args.nvars != poly.ctx.nvars:
        print(
            f"error: input declares {poly.ctx.nvars} variables, flags say {args.nvars}",
            file=sys.stderr,
        )
        return 1
    expansion = symbases.expand_in_basis(poly, args.to)
    obj = expansion.to_json()
    obj["nvars"] = poly.ctx.nvars
    _emit(args, json.dumps(obj, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csjack",
        description="Exact Jack polynomials, operator verification, and model spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jack = sub.add_parser("jack", help="build one Jack polynomial")
    p_jack.add_argument(
        "--lambda", dest="lam", type=PARTITION_ARG, required=True, help="comma separated parts, 0 for empty"
    )
    p_jack.add_argument("--nvars", type=COUNT_ARG, required=True)
    p_jack.add_argument("--normalization", choices=NORMALIZATION_CHOICES, default="monic")
    p_jack.add_argument("--format", choices=("json", "text"), default="json")
    p_jack.add_argument(
        "--beta",
        type=_checked(lambda t: None if t == "sym" else Fraction(t), '"sym", an integer or p/q'),
        default="sym",
        help='"sym", an integer, or p/q',
    )
    p_jack.add_argument("--allow-shift", action="store_true", help="accept l(lambda) = N via the boost")
    p_jack.add_argument("--output", default=None)
    p_jack.set_defaults(func=cmd_jack)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument(
        "--suite",
        choices=SUITE_CHOICES,
        default="all",
    )
    p_verify.add_argument("--max-degree", type=DEGREE_ARG, default=4)
    p_verify.add_argument("--max-nvars", type=_checked(int, "an integer >= 2", lambda v: v >= 2), default=3)
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_spec = sub.add_parser("spectrum", help="quasi-momenta and energies")
    states = p_spec.add_mutually_exclusive_group()
    states.add_argument("--lambda", dest="lam", type=PARTITION_ARG, default="0")
    states.add_argument(
        "--all-degree", type=DEGREE_ARG, default=None, help="list every state up to this degree"
    )
    p_spec.add_argument("--nparticles", type=COUNT_ARG, required=True)
    p_spec.add_argument(
        "--beta", type=_checked(Fraction, "a positive integer or p/q", lambda v: v > 0), required=True
    )
    p_spec.add_argument("--q", type=_checked(Fraction, "an integer or p/q"), default="0")
    p_spec.add_argument(
        "--length",
        type=_checked(
            lambda t: t if t == "2pi" else Fraction(t),
            '"2pi" or a positive rational',
            lambda v: v == "2pi" or v > 0,
        ),
        default="2pi",
        help='"2pi" or a rational circumference',
    )
    p_spec.add_argument("--format", choices=("json", "text"), default="text")
    p_spec.add_argument("--output", default=None)
    p_spec.set_defaults(func=cmd_spectrum)

    p_conv = sub.add_parser("convert", help="expand a polynomial in the m or p basis")
    p_conv.add_argument("--to", choices=BASIS_CHOICES, required=True)
    p_conv.add_argument("--input", default=None, help="JSON file; stdin when omitted")
    p_conv.add_argument("--nvars", type=COUNT_ARG, default=None)
    p_conv.add_argument("--output", default=None)
    p_conv.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
