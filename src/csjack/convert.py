"""`csjack convert`: read a polynomial payload and expand it in a basis.

A payload is a jack result, a basis expansion or a LaurentPoly, as JSON
from a file or stdin; json serves only to read it.  A jack result or a basis
expansion is read as m-coordinates and never becomes a polynomial; only a
LaurentPoly is checked and scanned by symbases.expand_in_basis.  Anything
that does not decode, such as a coefficient string with an exponent that
errors.read_rational refuses, raises BadPayload: a domain error.
"""

from __future__ import annotations

import json
import sys

from . import symbases
from .errors import AlgebraError
from .fieldring import FieldElement
from .partitions import Partition
from .polyring import LaurentPoly, VarContext


class BadPayload(AlgebraError):
    pass


def _decode(obj):
    """(ctx, nonzero m-coordinates) of a jack result or basis payload, (ctx,
    LaurentPoly) of a LaurentPoly payload; None when obj is none of them."""
    if "monomial_expansion" in obj:
        ctx, coords = VarContext(obj["nvars"]), {}
        for entry in obj["monomial_expansion"]:
            coeff = entry["coeff"]
            if not isinstance(coeff, dict):  # one rational, at a fixed beta
                coeff = {"num": [coeff], "den": [1]}
            mu = Partition(entry["partition"])
            if mu in coords:
                raise ValueError(f"partition {list(mu)} listed twice")
            coords[mu] = FieldElement.from_json(coeff)
    elif "terms" in obj:
        poly = LaurentPoly.from_json(obj)
        return poly.ctx, poly
    elif "coords" in obj:
        ctx = VarContext(obj["nvars"])
        coords = symbases.BasisExpansion.from_json(obj, ctx).m_coordinates()
    else:
        return None
    for mu in coords:
        mu.pad(ctx.nvars)  # m_mu needs l(mu) <= N, even at a zero coefficient
    return ctx, {mu: c for mu, c in coords.items() if c}


def convert_payload(args) -> dict:
    """The expansion `csjack convert` writes as JSON for the parsed flags args."""
    try:
        if args.input:
            with open(args.input) as fh:
                obj = json.load(fh)
        else:
            obj = json.load(sys.stdin)
        decoded = _decode(obj)
    # json.load recurses once per nesting level; read_rational overflows on a long exponent
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise BadPayload(f"malformed polynomial payload ({type(exc).__name__}: {exc})")
    if decoded is None:
        raise BadPayload("unrecognized polynomial payload")
    ctx, body = decoded
    if args.nvars and args.nvars != ctx.nvars:
        raise BadPayload(f"input declares {ctx.nvars} variables, flags say {args.nvars}")
    if isinstance(body, LaurentPoly):
        expansion = symbases.expand_in_basis(body, args.to)
    else:
        expansion = symbases.expand_m_coordinates(body, ctx, args.to)
    return {**expansion.to_json(), "nvars": ctx.nvars}
