"""Command line driver.

Subcommands: jack (build one polynomial), verify (run property suites),
spectrum (quasi-momenta and energies), convert (basis conversion of a
polynomial read from a file or stdin).  Output is byte deterministic for
fixed inputs.  Exit codes: 0 success, 1 domain error, unreadable input or
a number too long to print, 2 usage error (bad flags or flag values), 3 a
verification suite reported a failure.  A usage error or a domain error
prints one `error:` line on stderr.  Each handler imports the layers it
runs when it runs: fieldring and polyring only for jack, convert and the
verify suites that build polynomials, fractions only in the converters of
spectrum's rational flags (errors.read_rational reads every rational flag
in ints), json only where convert reads its payload: _json writes all JSON
output.  The spectrum and convert modules build their payloads and never
import cli, which `python -m csjack.cli` would compile a second time.

The command line is read from one table, COMMANDS: each command's flags,
each with its dest, converter, default (or REQUIRED) and help text.
`parse` reads argv against it as argparse did: `--flag value` or
`--flag=value`, a unique prefix of a long flag, the last of a repeated flag
wins, a negative number (and after a long flag, a negative fraction) as a
value, and a converter or a choice that rejects its text ends the parse.
`--help`, for the tool and for each command, is the page of an argparse
parser built from the same table, laid out at 80 columns whatever the
terminal's width, so help and parsing cannot drift apart.  Only a help
request imports argparse, and the gettext and locale modules it loads.

A request from the command line (`python -m csjack.cli` or the `csjack`
script) enters through `run`, which freezes the collector's heap after
`main` returns: the interpreter's finalization then skips its full
collections over the objects that imports and compilation built, and the
OS reclaims them at exit.  atexit hooks, the flush of stdout and stderr and
the exit code are unchanged.  `main` itself never freezes: a frozen heap
is never collected, and tests call `main` in-process many times.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from .errors import TooManyParts, read_rational
from .partitions import Partition


class UsageError(Exception):
    """A command line that does not parse: `main` prints it as one line and
    returns 2 before anything is built."""


def _parse_partition(text: str) -> tuple[int, ...]:
    # syntax only: Partition() raises the domain errors
    text = text.strip()
    return () if text in ("", "0") else tuple(int(x) for x in text.split(","))


def _checked(parse, expected: str, valid=lambda value: True):
    """Flag converter: a value that does not parse or is out of range is a
    usage error, reported before anything is built."""

    def convert(text: str):
        try:
            value = parse(text)
            if valid(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise UsageError(f"expected {expected}, got {text!r}")

    return convert


def _fraction(text: str):
    from fractions import Fraction

    return Fraction(*read_rational(text))


def _rational(text: str):
    from .fieldring import FieldElement

    num, den = read_rational(text)
    return FieldElement((num,), (den,))


PARTITION_ARG = _checked(_parse_partition, "comma separated integers")
COUNT_ARG = _checked(int, "an integer >= 1", lambda v: v >= 1)
DEGREE_ARG = _checked(int, "an integer >= 0", lambda v: v >= 0)


def _json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2) for the str-keyed dicts, lists, ints and
    strings of a payload, without importing json.  A string that json would
    escape (a quote, a backslash, a control or non-ASCII character) raises."""
    if isinstance(value, str) and value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
        return f'"{value}"'
    if type(value) is int:
        return str(value)
    inner = indent + "  "
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        items, brackets = [f"{inner}{_json(key)}: {_json(item, inner)}" for key, item in value.items()], "{}"
    elif isinstance(value, list):
        items, brackets = [inner + _json(item, inner) for item in value], "[]"
    else:
        raise ValueError(f"no JSON writer for {value!r}")
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}" if items else brackets


def _emit(args, payload):
    """Write payload, text or an object written as JSON, to --output or stdout."""
    if not isinstance(payload, str):
        payload = _json(payload) + "\n"
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
        raise TooManyParts(
            f"l(lambda) = {len(lam)} requires l(lambda) <= N-1 = {ctx.nvars - 1} "
            "(pass --allow-shift to accept l(lambda) = N)"
        )
    from . import rodrigues

    result = rodrigues.jack(lam, ctx, args.normalization)

    def show(c) -> str:
        return str(c if args.beta is None else c.specialize(args.beta))

    if args.format == "json":
        payload = result.to_json() if args.beta is None else result.to_json(show)
        payload["beta"] = "sym" if args.beta is None else str(args.beta)
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


def _show_help(command) -> int:
    sys.stdout.write(_help(command))
    return 0


REQUIRED = object()
HELP = ("help", None, False, None)  # argparse writes its help line
HELP_FLAGS = {"-h": HELP, "--help": HELP}

# command: (help, handler, {flag: (dest, converter, default, help)}, flags
# that exclude each other).  A converter is a function of the flag's text, a
# tuple of the words it accepts, or None for a switch that takes no value.
# The words of jack --normalization, verify --suite and convert --to are
# copied, so that parsing imports none of rodrigues, suites and symbases; a
# test pins them to their source.
COMMANDS = {
    "jack": (
        "build one Jack polynomial",
        cmd_jack,
        {
            **HELP_FLAGS,
            "--lambda": ("lam", PARTITION_ARG, REQUIRED, "comma separated parts, 0 for empty"),
            "--nvars": ("nvars", COUNT_ARG, REQUIRED, None),
            "--normalization": ("normalization", ("monic", "stanley", "raw"), "monic", None),
            "--format": ("format", ("json", "text"), "json", None),
            "--beta": (
                "beta",
                _checked(lambda t: None if t == "sym" else _rational(t), '"sym", an integer or p/q'),
                None,
                '"sym", an integer, or p/q',
            ),
            "--allow-shift": ("allow_shift", None, False, "accept l(lambda) = N via the boost"),
            "--output": ("output", str, None, None),
        },
        (),
    ),
    "verify": (
        "run a property suite",
        cmd_verify,
        {
            **HELP_FLAGS,
            "--suite": (
                "suite",
                ("annihilation", "commutators", "orthogonality", "rodrigues-vs-oracle", "spectrum-consistency", "all"),
                "all",
                None,
            ),
            "--max-degree": ("max_degree", DEGREE_ARG, 4, None),
            "--max-nvars": ("max_nvars", _checked(int, "an integer >= 2", lambda v: v >= 2), 3, None),
            "--output": ("output", str, None, None),
        },
        (),
    ),
    "spectrum": (
        "quasi-momenta and energies",
        cmd_spectrum,
        {
            **HELP_FLAGS,
            "--lambda": ("lam", PARTITION_ARG, (), None),
            "--all-degree": ("all_degree", DEGREE_ARG, None, "list every state up to this degree"),
            "--nparticles": ("nparticles", COUNT_ARG, REQUIRED, None),
            "--beta": ("beta", _checked(_fraction, "a positive integer or p/q", lambda v: v > 0), REQUIRED, None),
            "--q": ("q", _checked(_fraction, "an integer or p/q"), 0, None),
            "--length": (
                "length",
                _checked(
                    lambda t: t if t == "2pi" else _fraction(t),
                    '"2pi" or a positive rational',
                    lambda v: v == "2pi" or v > 0,
                ),
                "2pi",
                '"2pi" or a rational circumference',
            ),
            "--format": ("format", ("json", "text"), "text", None),
            "--output": ("output", str, None, None),
        },
        ("--lambda", "--all-degree"),
    ),
    "convert": (
        "expand a polynomial in the m or p basis",
        cmd_convert,
        {
            **HELP_FLAGS,
            "--to": ("to", ("m", "p"), REQUIRED, None),
            "--input": ("input", str, None, "JSON file; stdin when omitted"),
            "--nvars": ("nvars", COUNT_ARG, None, None),
            "--output": ("output", str, None, None),
        },
        (),
    ),
}


def _is_number(token: str) -> bool:
    """argparse's negative number, -\\d+ or -\\d*\\.\\d+ (a final newline allowed)."""
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    return whole.isdecimal() and not dot or bool(dot) and (not whole or whole.isdecimal()) and fraction.isdecimal()


def _is_fraction(token: str) -> bool:
    """-p/q, which a long flag takes as its value although it reads as an option."""
    numerator, slash, denominator = token[1:].partition("/")
    return token[:1] == "-" and bool(slash) and numerator.isdecimal() and denominator.isdecimal()


def _classify(token: str, flags: dict):
    """How argparse reads token against flags: None for a value, else
    (flag, the value attached to it or None), flag None for an unknown option."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token in flags:
        return token, None
    name, eq, attached = token.partition("=")
    if eq and name in flags:
        return name, attached
    if token[1] == "-":  # a unique prefix of a long flag
        matches = [flag for flag in flags if flag.startswith(name)]
        attached = attached if eq else None
    else:  # a short flag with text run on: -hh
        matches = [token[:2]] if token[:2] in flags else []
        attached = token[2:]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token!r} could match {', '.join(matches)}")
    if matches:
        return matches[0], attached
    return None if _is_number(token) or " " in token else (None, None)


def _convert(flag: str, convert, text: str):
    if isinstance(convert, tuple):
        if text in convert:
            return text
        raise UsageError(f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(map(repr, convert))})")
    try:
        return convert(text)
    except (UsageError, OverflowError) as exc:
        raise UsageError(f"argument {flag}: {exc}") from None


def _read(tokens: list[str], flags: dict, exclusive=(), command=False):
    """Read tokens against flags from the left, as argparse does.

    Returns (values by dest, tokens no flag takes, index where the walk
    stopped), or None where a help flag comes before any error.  With
    command, the walk stops at the first token no flag takes (the command
    name); otherwise such tokens, "--" and all after it are unknown.  Every
    token is classified first, so an ambiguous prefix fails even after -h.
    """
    end = len(tokens) if command or "--" not in tokens else tokens.index("--")
    kinds = [_classify(token, flags) for token in tokens[:end]]
    values, unknown, i = {}, [], 0
    while i < end:
        token, kind = tokens[i], kinds[i]
        if kind is None and command:
            return values, unknown, i
        i += 1
        if kind is None or kind[0] is None:
            unknown.append(token)
            continue
        flag, attached = kind
        dest, convert, _, _ = entry = flags[flag]
        # a negative fraction after a long flag is its value: --beta -1/2
        if attached is None and token[1] == "-" and i < end and _is_fraction(tokens[i]):
            attached, i = tokens[i], i + 1
        if convert is None:
            # -hh repeats -h
            if attached is not None and not (flag == "-h" and attached and not attached.strip("h")):
                raise UsageError(f"argument {flag}: ignored explicit argument {attached!r}")
            if entry is HELP:
                return None
            values[dest] = True
            continue
        if attached is None:
            if i == end or kinds[i] is not None:
                raise UsageError(f"argument {flag}: expected one argument")
            attached, i = tokens[i], i + 1
        values[dest] = _convert(flag, convert, attached)
        if flag in exclusive:
            for other in exclusive:
                if other != flag and flags[other][0] in values:
                    raise UsageError(f"argument {flag}: not allowed with argument {other}")
    return values, unknown + tokens[end:], end


def parse(argv: list[str]):
    """(handler, namespace) of the request argv asks for; --help is a request
    too.  Raises UsageError where argv does not parse."""
    top = _read(argv, HELP_FLAGS, command=True)
    if top is None:
        return _show_help, None
    _, unknown, at = top
    if at == len(argv):
        raise UsageError("the following arguments are required: command")
    name = argv[at]
    if name not in COMMANDS:
        raise UsageError(f"argument command: invalid choice: {name!r} (choose from {', '.join(map(repr, COMMANDS))})")
    _, handler, flags, exclusive = COMMANDS[name]
    read = _read(argv[at + 1 :], flags, exclusive)
    if read is None:
        return _show_help, name
    values, more, _ = read
    missing = [flag for flag, (dest, _, default, _) in flags.items() if default is REQUIRED and dest not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown + more:
        raise UsageError(f"unrecognized arguments: {', '.join(map(repr, unknown + more))}")
    defaults = {dest: default for dest, _, default, _ in flags.values() if dest != "help"}
    return handler, SimpleNamespace(**{**defaults, **values})


def _help(command=None) -> str:
    """--help of the tool, or of one command: argparse's page of COMMANDS in
    its 80-column layout, whatever the terminal's width."""
    import argparse

    def layout(prog):
        return argparse.HelpFormatter(prog, width=78)

    description = "Exact Jack polynomials, operator verification, and model spectra."
    tool = argparse.ArgumentParser("csjack", description=description, formatter_class=layout)
    commands, pages = tool.add_subparsers(), {}
    for name, (text, _, flags, exclusive) in COMMANDS.items():
        page = pages[name] = commands.add_parser(name, help=text, formatter_class=layout)
        group = page.add_mutually_exclusive_group() if exclusive else page
        for flag, (dest, convert, default, text) in flags.items():
            if flag in HELP_FLAGS:
                continue
            kind = {"choices": convert} if isinstance(convert, tuple) else {} if convert else {"action": "store_true"}
            (group if flag in exclusive else page).add_argument(
                flag, dest=dest, required=default is REQUIRED, help=text, **kind
            )
    return (pages[command] if command else tool).format_help()


def main(argv=None) -> int:
    try:
        handler, args = parse(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return handler(args)
    # AlgebraError is a ValueError, as is an int past the int-to-str digit limit
    except (ValueError, OSError) as exc:
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
