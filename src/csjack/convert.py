"""`csjack convert`: read a polynomial payload and expand it in a basis.

A payload is a jack result, a LaurentPoly or a basis expansion, as JSON
from a file or stdin.  Anything that does not decode raises BadPayload,
which the command line reports as a domain error.
"""

from __future__ import annotations

import json
import sys

from . import symbases
from .errors import AlgebraError
from .fieldring import FieldElement
from .partitions import Partition
from .polyring import LaurentPoly, VarContext, from_m_coordinates


class BadPayload(AlgebraError):
    pass


def _decode_polynomial(obj):
    """Read a jack result, a LaurentPoly or a basis expansion payload; None
    when obj is none of them."""
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
        return from_m_coordinates(coords, ctx)
    if "terms" in obj:
        return LaurentPoly.from_json(obj)
    if "coords" in obj:
        ctx = VarContext(obj["nvars"])
        return symbases.BasisExpansion.from_json(obj, ctx).reconstruct()
    return None


def convert_payload(args) -> str:
    """stdout of `csjack convert` for the parsed flags args."""
    try:
        if args.input:
            with open(args.input) as fh:
                obj = json.load(fh)
        else:
            obj = json.load(sys.stdin)
        poly = _decode_polynomial(obj)
    # json.load recurses once per nesting level
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError) as exc:
        raise BadPayload(f"malformed polynomial payload ({type(exc).__name__}: {exc})")
    if poly is None:
        raise BadPayload("unrecognized polynomial payload")
    if args.nvars and args.nvars != poly.ctx.nvars:
        raise BadPayload(f"input declares {poly.ctx.nvars} variables, flags say {args.nvars}")
    obj = symbases.expand_in_basis(poly, args.to).to_json()
    obj["nvars"] = poly.ctx.nvars
    return json.dumps(obj, indent=2) + "\n"
