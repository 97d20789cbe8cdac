"""Traced csjack request: wrap the layers' public functions, then run the CLI.

Usage: python3 perfbench/tracer.py TRACE_FILE REQUEST_ID CSJACK_ARGV...

Each wrapper replaces the function at every csjack module attribute that
holds it, i.e. where callers look it up (`rodrigues.apply_B_plus`,
`polyring.divide_by_vardiff`, ...), so nothing under src/ changes.  Spans
(name, start, end, parent) and counts stay in memory and are written to
TRACE_FILE as one JSON object when the request ends.  stdout is the CLI's
own output, byte for byte.

FieldElement arithmetic is counted, never timed: a span per field
operation would distort the timing it is meant to explain.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from csjack import cli, fieldring, operators, oracle, polyring, rodrigues, suites, symbases

SPANS: list[list] = []  # [name, start, end, parent index or -1]
COUNTS: dict[str, int] = {}
_stack: list[int] = []


def _count(key: str, amount: int = 1):
    COUNTS[key] = COUNTS.get(key, 0) + amount


def _spanned(name: str, fn, on_call=None, on_result=None):
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(*args, **kwargs)
        index = len(SPANS)
        SPANS.append([name, perf_counter(), None, _stack[-1] if _stack else -1])
        _stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            _stack.pop()
            SPANS[index][2] = perf_counter()
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _patch(module, attr: str, name: str, **hooks):
    """Replace module.attr wherever a csjack module holds the same object."""
    original = getattr(module, attr)
    wrapper = _spanned(name, original, **hooks)
    for modname, mod in list(sys.modules.items()):
        if (modname == "csjack" or modname.startswith("csjack.")) and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _counted(key: str, fn):
    def wrapper(*args):
        _count(key)
        return fn(*args)

    return wrapper


def install():
    _patch(rodrigues, "jack", "rodrigues.jack")
    _patch(
        rodrigues,
        "rodrigues_raw",
        "rodrigues.raw",
        on_result=lambda p: _count("rodrigues.raw_terms", len(p.terms)),
    )
    _patch(rodrigues, "c_coefficient", "rodrigues.c_coefficient")
    _patch(operators, "apply_B_plus", "operators.B_plus")
    _patch(operators, "apply_D_string", "operators.D_string")
    _patch(operators, "apply_dunkl", "operators.dunkl")
    _patch(operators, "apply_H", "operators.H")
    _patch(operators, "apply_hatD", "operators.hatD")
    _patch(operators, "apply_N", "operators.N")
    _patch(
        polyring,
        "divide_by_vardiff",
        "polyring.vardiff",
        on_call=lambda p, i, j: _count("polyring.vardiff_terms_in", len(p.terms)),
    )
    _patch(oracle, "triangular_system", "oracle.system")
    _patch(oracle, "jack_by_triangular_H", "oracle.triangular")
    _patch(oracle, "jack_by_gram_schmidt", "oracle.gram_schmidt")
    _patch(symbases, "expand_in_basis", "symbases.expand")
    _patch(symbases, "scalar_product_p", "symbases.scalar_product")
    _patch(symbases, "circle_inner_product", "symbases.circle_inner")
    for suite, fn in list(suites.SUITES.items()):
        suites.SUITES[suite] = _spanned(f"suites.{suite}", fn)

    field = fieldring.FieldElement
    for attr, key in (
        ("__add__", "fieldring.add"),
        ("__radd__", "fieldring.add"),
        ("__mul__", "fieldring.mul"),
        ("__rmul__", "fieldring.mul"),
        ("inverse", "fieldring.inverse"),
        ("specialize", "cli.specialize"),
    ):
        setattr(field, attr, _counted(key, getattr(field, attr)))

    gcd = fieldring.poly_gcd

    def counted_gcd(a, b):
        g = gcd(a, b)
        _count("fieldring.gcd")
        if len(g) > 1:
            _count("fieldring.gcd_reducing")
        return g

    fieldring.poly_gcd = counted_gcd


def main(argv: list[str]) -> int:
    trace_file, request_id, cli_argv = argv[0], argv[1], argv[2:]
    install()
    try:
        code = _spanned("cli.main", cli.main)(cli_argv)
        sys.stdout.flush()
    finally:
        with open(trace_file, "w") as fh:
            json.dump({"request": request_id, "spans": SPANS, "counts": COUNTS}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
