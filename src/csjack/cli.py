"""Command line driver.

Subcommands: jack (build one polynomial), verify (run property suites),
spectrum (quasi-momenta and energies), convert (basis conversion of a
polynomial read from a file or stdin).  Output is byte deterministic for
fixed inputs.  Exit codes: 0 success, 1 domain error or unreadable input,
2 usage error (bad flags or flag values), 3 a verification suite reported a
failure.  Each handler imports the layers it runs when it runs: json only
where JSON is read or written, fieldring and polyring only for jack,
convert and the verify suites that build polynomials.  The spectrum and
convert modules build their payloads and never import cli, which
`python -m csjack.cli` would compile a second time.

A request from the command line (`python -m csjack.cli` or the `csjack`
script) enters through `run`, which freezes the collector's heap after
`main` returns: the interpreter's finalization then skips its full
collections over the objects that imports and compilation built, and the
OS reclaims them at exit.  atexit hooks, the flush of stdout and stderr and
the exit code are unchanged.  `main` itself never freezes: a frozen heap
is never collected, and tests call `main` in-process many times.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from fractions import Fraction

from .errors import AlgebraError
from .partitions import Partition


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
SUITE_CHOICES = (
    "annihilation", "commutators", "orthogonality", "rodrigues-vs-oracle", "spectrum-consistency", "all"
)
BASIS_CHOICES = ("m", "p")
# argparse reads a separate negative fraction as a flag, not as a value
NEGATIVE_FRACTION = re.compile(r"-\d+/\d+")


def _emit(args, payload: str):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_jack(args) -> int:
    from .polyring import VarContext

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


def cmd_spectrum(args) -> int:
    from .spectrum import spectrum_payload

    _emit(args, spectrum_payload(args))
    return 0


def cmd_convert(args) -> int:
    from .convert import convert_payload

    _emit(args, convert_payload(args))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # "--beta -1/2" means "--beta=-1/2"
    for i in range(len(argv) - 1, 0, -1):
        if NEGATIVE_FRACTION.fullmatch(argv[i]) and argv[i - 1].startswith("--") and "=" not in argv[i - 1]:
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def run():
    """Entry point of a command-line request: exit with main's code,
    skipping the teardown collections over the request's heap."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
