"""`csjack convert` on a pinned corpus, and its coordinate route.

CORPUS holds payloads, each converted to both bases in process; EXPECTED
holds the exit code, a digest of stdout and the stderr that each row
printed before convert read jack and basis payloads as coordinates, when
every payload was expanded into a polynomial and scanned back.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest
from cli_helper import run_cli

from csjack import cli, convert, polyring, symbases
from csjack.partitions import partitions_of


def _q(text="1"):
    return {"num": [text], "den": ["1"]}


def _monomials(nvars, *pairs, **extra):
    entries = [{"partition": list(mu), "coeff": c} for mu, c in pairs]
    return json.dumps({"nvars": nvars, "monomial_expansion": entries, **extra})


def _coords(nvars, basis, degree, *pairs, **extra):
    entries = [{"partition": list(mu), "coeff": c} for mu, c in pairs]
    return json.dumps({"nvars": nvars, "basis": basis, "degree": degree, "coords": entries, **extra})


def _terms(nvars, *pairs):
    return json.dumps({"nvars": nvars, "terms": [{"exp": list(e), "coeff": c} for e, c in pairs]})


def _main(argv, stdin="") -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv) with stdin as its input."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _jack(*argv) -> str:
    code, out, err = _main(["jack", *argv])
    assert code == 0, err
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# p_2 - p_1^2 is zero in one variable
P2_MINUS_P11 = ((2,), _q()), ((1, 1), _q("-1"))

PAYLOADS_JACK_211_4 = _jack("--lambda", "2,1,1", "--nvars", "4")

PAYLOADS = {
    # jack results: symbolic, and printed at a fixed beta as rational strings
    "jack-21-3": _jack("--lambda", "2,1", "--nvars", "3"),
    "jack-211-4-stanley": _jack("--lambda", "2,1,1", "--nvars", "4", "--normalization", "stanley"),
    "jack-31-3-past-nvars": _jack("--lambda", "3,1", "--nvars", "3"),
    "jack-32-2-shifted": _jack("--lambda", "3,2", "--nvars", "2", "--allow-shift"),
    "jack-0-2": _jack("--lambda", "0", "--nvars", "2"),
    "jack-21-3-beta-half": _jack("--lambda", "2,1", "--nvars", "3", "--beta", "1/2"),
    "jack-31-4-beta-2": _jack("--lambda", "3,1", "--nvars", "4", "--beta", "2"),
    "jack-22-2-raw-beta-third": _jack(
        "--lambda", "2,2", "--nvars", "3", "--beta", "1/3", "--normalization", "raw"
    ),
    # monomial expansions written by hand: bare ints and rational strings
    "m-bare-int-and-string": _monomials(2, ((2,), 2), ((1, 1), "1/2")),
    "m-bare-zero": _monomials(2, ((2,), 0), ((1, 1), 3)),
    "m-degree-past-nvars": _monomials(2, ((2, 1), _q()), ((3,), _q("-2"))),
    "m-degree-zero": _monomials(2, ((), 5)),
    "m-trailing-zero-parts": _monomials(3, ((2, 0, 0), 1), ((1, 1, 0), -1)),
    "m-all-zero-degree-2-nvars-1": _monomials(1, ((2,), 0)),
    "m-zero-coeff-too-many-parts": _monomials(2, ((1, 1, 1), 0)),
    "m-nonzero-too-many-parts": _monomials(2, ((2,), 1), ((1, 1, 1), 1)),
    "m-zero-coeff-of-other-degree": _monomials(2, ((2,), 1), ((1,), 0)),
    "m-mixed-degrees": _monomials(2, ((2,), 1), ((1,), 1)),
    "m-mixed-degrees-past-nvars": _monomials(1, ((3,), 1), ((1,), 1)),
    "m-empty": _monomials(3),
    "m-nvars-true": _monomials(True, ((1,), 1)),
    "m-nvars-zero": _monomials(0, ((1,), 1)),
    "m-negative-part": _monomials(2, ((1, -1), 1)),
    "m-empty-num": _monomials(2, ((2,), {"num": [], "den": ["1"]})),
    "m-zero-den": _monomials(2, ((2,), {"num": ["1"], "den": ["0"]})),
    "m-listed-twice-with-a-zero": _monomials(2, ((1, 0), 1), ((1,), 2)),
    "m-bad-coeff-after-too-many-parts": _monomials(1, ((1, 1), 1), ((2,), {"num": "1", "den": ["1"]})),
    "m-noncanonical-coeff": _monomials(2, ((2,), {"num": ["2", "2"], "den": ["4", "0"]}), ((1, 1), "-6/4")),
    "m-no-nvars": json.dumps({"monomial_expansion": []}),
    "m-and-coords": _monomials(2, ((2,), 1), basis="p", degree=1, coords=[{"partition": [1], "coeff": _q()}]),
    # m-basis payloads
    "mb-degree-in-nvars": _coords(3, "m", 3, ((2, 1), _q("1/2")), ((1, 1, 1), {"num": ["0", "3"], "den": ["1"]})),
    "mb-degree-past-nvars": _coords(2, "m", 3, ((2, 1), _q()), ((3,), _q("2"))),
    "mb-all-zero-degree-2-nvars-1": _coords(1, "m", 2, ((2,), _q("0"))),
    "mb-zero-coeff-too-many-parts": _coords(2, "m", 3, ((1, 1, 1), _q("0"))),
    "mb-empty-degree-5": _coords(2, "m", 5),
    "mb-listed-twice-with-a-zero": _coords(2, "m", 1, ((1, 0), _q()), ((1,), _q())),
    "mb-bare-int": _coords(2, "m", 1, ((1,), 2)),
    "mb-degree-mismatch": _coords(2, "m", 2, ((1,), _q())),
    "mb-degree-text": _coords(2, "m", "1", ((1,), _q())),
    "mb-unknown-basis": _coords(2, "q", 1, ((1,), _q())),
    "mb-negative-part": _coords(2, "m", 0, ((1, -1), _q())),
    "mb-zero-den": _coords(2, "m", 1, ((1,), {"num": ["1"], "den": ["0"]})),
    # p-basis payloads
    "pb-degree-in-nvars": _coords(4, "p", 4, ((2, 1, 1), _q("1/2")), ((3, 1), {"num": ["1", "-1"], "den": ["2", "1"]})),
    "pb-degree-past-nvars": _coords(2, "p", 3, ((1, 1, 1), _q()), ((2, 1), _q("-3"))),
    "pb-more-parts-than-nvars": _coords(2, "p", 4, ((1, 1, 1, 1), _q())),
    "pb-p2-minus-p11-nvars-1": _coords(1, "p", 2, *P2_MINUS_P11),
    "pb-p2-minus-p11-nvars-2": _coords(2, "p", 2, *P2_MINUS_P11),
    "pb-zero-coeff-too-many-parts": _coords(2, "p", 3, ((1, 1, 1), _q("0"))),
    "pb-empty-degree-5": _coords(2, "p", 5),
    "pb-empty-negative-degree": _coords(2, "p", -1),
    "pb-degree-zero": _coords(1, "p", 0, ((), _q("5"))),
    "pb-every-partition-of-4-nvars-3": _coords(3, "p", 4, *((mu, _q(str(k + 1))) for k, mu in enumerate(partitions_of(4)))),
    "pb-every-partition-of-5-nvars-5": _coords(5, "p", 5, *((mu, _q(f"{k}/7")) for k, mu in enumerate(partitions_of(5)))),
    "pb-every-partition-of-6-nvars-3": _coords(3, "p", 6, *((mu, _q(str(k - 5))) for k, mu in enumerate(partitions_of(6)))),
    "pb-noncanonical-coeff": _coords(2, "p", 2, ((2,), {"num": ["0", "3"], "den": ["0", "6"]}), ((1, 1), _q("2"))),
    "pb-empty-num": _coords(2, "p", 1, ((1,), {"num": [], "den": ["1"]})),
    "pb-zero-den": _coords(2, "p", 1, ((1,), {"num": ["1"], "den": ["0"]})),
    "pb-listed-twice-with-a-zero": _coords(2, "p", 2, ((2, 0), _q()), ((2,), _q())),
    "pb-nvars-true": _coords(True, "p", 1, ((1,), _q())),
    "pb-jack-211-4": _main(["convert", "--to", "p"], PAYLOADS_JACK_211_4)[1],
    "pb-ones-30-nvars-2": _coords(2, "p", 30, ((1,) * 30, _q())),
    "pb-ones-30-nvars-4": _coords(4, "p", 30, ((1,) * 30, _q())),
    # LaurentPoly payloads
    "terms-z1-plus-z2": _terms(2, ((1, 0), _q()), ((0, 1), _q())),
    "terms-p2-nvars-3": _terms(3, ((2, 0, 0), _q("1/2")), ((0, 2, 0), _q("1/2")), ((0, 0, 2), _q("1/2"))),
    "terms-not-symmetric": _terms(2, ((1, 0), _q())),
    "terms-mixed-degrees": _terms(2, ((1, 0), _q()), ((0, 1), _q()), ((0, 0), _q())),
    "terms-negative-exponent": _terms(2, ((-1, -1), _q())),
    "terms-empty": _terms(2),
    # neither
    "unrecognized": json.dumps({"what": 1}),
    "json-list": "[1]",
    "json-number": "5",
    "not-json": "{not json",
}

FLAG_ROWS = {
    "m-nvars-flag-agrees": ("p", "2", PAYLOADS["m-bare-int-and-string"]),
    "m-nvars-flag-disagrees": ("m", "3", PAYLOADS["m-bare-int-and-string"]),
    "m-nvars-flag-after-too-many-parts": ("m", "3", PAYLOADS["m-zero-coeff-too-many-parts"]),
    "pb-nvars-flag-disagrees": ("p", "1", PAYLOADS["pb-p2-minus-p11-nvars-2"]),
}

CORPUS = {
    **{f"{name}-to-{to}": (["--to", to], payload) for name, payload in PAYLOADS.items() for to in ("m", "p")},
    **{name: (["--to", to, "--nvars", nvars], payload) for name, (to, nvars, payload) in FLAG_ROWS.items()},
}

EXPECTED = {
    'jack-21-3-to-m': (0, 'b5d48dc8f4407311', ''),
    'jack-21-3-to-p': (0, '746570214959ae87', ''),
    'jack-211-4-stanley-to-m': (0, 'eafd432e76155756', ''),
    'jack-211-4-stanley-to-p': (0, '98f0b2d008a301ea', ''),
    'jack-31-3-past-nvars-to-m': (0, 'd054b976dd7abcb2', ''),
    'jack-31-3-past-nvars-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 3, got 4\n'),
    'jack-32-2-shifted-to-m': (0, 'b655277e7cdf7d29', ''),
    'jack-32-2-shifted-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 2, got 5\n'),
    'jack-0-2-to-m': (0, 'f82bcbae87981f3d', ''),
    'jack-0-2-to-p': (0, '970fd65d467eada5', ''),
    'jack-21-3-beta-half-to-m': (0, '2c5fb38f8de6c31a', ''),
    'jack-21-3-beta-half-to-p': (0, '04567ff2efe90409', ''),
    'jack-31-4-beta-2-to-m': (0, '3979f79d5e537e95', ''),
    'jack-31-4-beta-2-to-p': (0, '711830768b1bb260', ''),
    'jack-22-2-raw-beta-third-to-m': (0, '69ef5023e6b025a1', ''),
    'jack-22-2-raw-beta-third-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 3, got 4\n'),
    'm-bare-int-and-string-to-m': (0, '831cd09c09012acc', ''),
    'm-bare-int-and-string-to-p': (0, '019605bb63b11edf', ''),
    'm-bare-zero-to-m': (0, 'b55471604126af12', ''),
    'm-bare-zero-to-p': (0, 'd3e349c6acf6b40b', ''),
    'm-degree-past-nvars-to-m': (0, 'fdf472a6b731bec1', ''),
    'm-degree-past-nvars-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 2, got 3\n'),
    'm-degree-zero-to-m': (0, '9cdd6adcd4414249', ''),
    'm-degree-zero-to-p': (0, '9fd532c87a30f5f3', ''),
    'm-trailing-zero-parts-to-m': (0, 'd9ad43493b593566', ''),
    'm-trailing-zero-parts-to-p': (0, '1693b9400c80d1cf', ''),
    'm-all-zero-degree-2-nvars-1-to-m': (0, 'f71af98360482935', ''),
    'm-all-zero-degree-2-nvars-1-to-p': (0, 'd233bf8399331b41', ''),
    'm-zero-coeff-too-many-parts-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TooManyParts: l((1, 1, 1)) = 3 > 2 variables)\n'),
    'm-zero-coeff-too-many-parts-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TooManyParts: l((1, 1, 1)) = 3 > 2 variables)\n'),
    'm-nonzero-too-many-parts-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TooManyParts: l((1, 1, 1)) = 3 > 2 variables)\n'),
    'm-nonzero-too-many-parts-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TooManyParts: l((1, 1, 1)) = 3 > 2 variables)\n'),
    'm-zero-coeff-of-other-degree-to-m': (0, '9f41066f11fc1d5e', ''),
    'm-zero-coeff-of-other-degree-to-p': (0, '406c43306af44655', ''),
    'm-mixed-degrees-to-m': (1, 'e3b0c44298fc1c14', 'error: input mixes total degrees\n'),
    'm-mixed-degrees-to-p': (1, 'e3b0c44298fc1c14', 'error: input mixes total degrees\n'),
    'm-mixed-degrees-past-nvars-to-m': (1, 'e3b0c44298fc1c14', 'error: input mixes total degrees\n'),
    'm-mixed-degrees-past-nvars-to-p': (1, 'e3b0c44298fc1c14', 'error: input mixes total degrees\n'),
    'm-empty-to-m': (0, 'b3b04d01e61a9235', ''),
    'm-empty-to-p': (0, '04d039def442344c', ''),
    'm-nvars-true-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TypeError: nvars: expected int, got True)\n'),
    'm-nvars-true-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TypeError: nvars: expected int, got True)\n'),
    'm-nvars-zero-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (IndexOutOfRange: need at least one variable, got 0)\n'),
    'm-nvars-zero-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (IndexOutOfRange: need at least one variable, got 0)\n'),
    'm-negative-part-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (NegativePart: negative part -1 in (1, -1))\n'),
    'm-negative-part-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (NegativePart: negative part -1 in (1, -1))\n'),
    'm-empty-num-to-m': (0, '724d45c220132d47', ''),
    'm-empty-num-to-p': (0, '37f217c503567198', ''),
    'm-zero-den-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (DivisionByZero: zero denominator)\n'),
    'm-zero-den-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (DivisionByZero: zero denominator)\n'),
    'm-listed-twice-with-a-zero-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (ValueError: partition [1] listed twice)\n'),
    'm-listed-twice-with-a-zero-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (ValueError: partition [1] listed twice)\n'),
    'm-bad-coeff-after-too-many-parts-to-m': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (TypeError: num: expected list, got '1')\n"),
    'm-bad-coeff-after-too-many-parts-to-p': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (TypeError: num: expected list, got '1')\n"),
    'm-noncanonical-coeff-to-m': (0, '2b70ab736527daaf', ''),
    'm-noncanonical-coeff-to-p': (0, '9c5f4e6eb598b062', ''),
    'm-no-nvars-to-m': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (KeyError: 'nvars')\n"),
    'm-no-nvars-to-p': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (KeyError: 'nvars')\n"),
    'm-and-coords-to-m': (0, '9f41066f11fc1d5e', ''),
    'm-and-coords-to-p': (0, '406c43306af44655', ''),
    'mb-degree-in-nvars-to-m': (0, '8dcddb96ba3592d4', ''),
    'mb-degree-in-nvars-to-p': (0, '08046c64a528e0b3', ''),
    'mb-degree-past-nvars-to-m': (0, '6e5b45610f2b76c2', ''),
    'mb-degree-past-nvars-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 2, got 3\n'),
    'mb-all-zero-degree-2-nvars-1-to-m': (0, 'f71af98360482935', ''),
    'mb-all-zero-degree-2-nvars-1-to-p': (0, 'd233bf8399331b41', ''),
    'mb-zero-coeff-too-many-parts-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TooManyParts: l((1, 1, 1)) = 3 > 2 variables)\n'),
    'mb-zero-coeff-too-many-parts-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TooManyParts: l((1, 1, 1)) = 3 > 2 variables)\n'),
    'mb-empty-degree-5-to-m': (0, '724d45c220132d47', ''),
    'mb-empty-degree-5-to-p': (0, '37f217c503567198', ''),
    'mb-listed-twice-with-a-zero-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (ValueError: partition [1] listed twice)\n'),
    'mb-listed-twice-with-a-zero-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (ValueError: partition [1] listed twice)\n'),
    'mb-bare-int-to-m': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (TypeError: 'int' object is not subscriptable)\n"),
    'mb-bare-int-to-p': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (TypeError: 'int' object is not subscriptable)\n"),
    'mb-degree-mismatch-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (DegreeMismatch: partition [1] does not have degree 2)\n'),
    'mb-degree-mismatch-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (DegreeMismatch: partition [1] does not have degree 2)\n'),
    'mb-degree-text-to-m': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (TypeError: degree: expected int, got '1')\n"),
    'mb-degree-text-to-p': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (TypeError: degree: expected int, got '1')\n"),
    'mb-unknown-basis-to-m': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (BasisMismatch: unknown basis 'q')\n"),
    'mb-unknown-basis-to-p': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (BasisMismatch: unknown basis 'q')\n"),
    'mb-negative-part-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (NegativePart: negative part -1 in (1, -1))\n'),
    'mb-negative-part-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (NegativePart: negative part -1 in (1, -1))\n'),
    'mb-zero-den-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (DivisionByZero: zero denominator)\n'),
    'mb-zero-den-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (DivisionByZero: zero denominator)\n'),
    'pb-degree-in-nvars-to-m': (0, '89c3a8eac55da2f7', ''),
    'pb-degree-in-nvars-to-p': (0, 'a670608a505ff61e', ''),
    'pb-degree-past-nvars-to-m': (0, '5a972e53e6c799e3', ''),
    'pb-degree-past-nvars-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 2, got 3\n'),
    'pb-more-parts-than-nvars-to-m': (0, '14d815e4959c2686', ''),
    'pb-more-parts-than-nvars-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 2, got 4\n'),
    'pb-p2-minus-p11-nvars-1-to-m': (0, 'f71af98360482935', ''),
    'pb-p2-minus-p11-nvars-1-to-p': (0, 'd233bf8399331b41', ''),
    'pb-p2-minus-p11-nvars-2-to-m': (0, '73f6fc46c76a5360', ''),
    'pb-p2-minus-p11-nvars-2-to-p': (0, '2ef6a0f6caca95ae', ''),
    'pb-zero-coeff-too-many-parts-to-m': (0, '724d45c220132d47', ''),
    'pb-zero-coeff-too-many-parts-to-p': (0, '37f217c503567198', ''),
    'pb-empty-degree-5-to-m': (0, '724d45c220132d47', ''),
    'pb-empty-degree-5-to-p': (0, '37f217c503567198', ''),
    'pb-empty-negative-degree-to-m': (0, '724d45c220132d47', ''),
    'pb-empty-negative-degree-to-p': (0, '37f217c503567198', ''),
    'pb-degree-zero-to-m': (0, 'a20e24b02c15d0dd', ''),
    'pb-degree-zero-to-p': (0, '91db862cca293208', ''),
    'pb-every-partition-of-4-nvars-3-to-m': (0, '2e4952ad3fb403c4', ''),
    'pb-every-partition-of-4-nvars-3-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 3, got 4\n'),
    'pb-every-partition-of-5-nvars-5-to-m': (0, 'beaa069f27273004', ''),
    'pb-every-partition-of-5-nvars-5-to-p': (0, 'def7151f1a22e067', ''),
    'pb-every-partition-of-6-nvars-3-to-m': (0, '2eae99d9e9b8e404', ''),
    'pb-every-partition-of-6-nvars-3-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 3, got 6\n'),
    'pb-noncanonical-coeff-to-m': (0, '946dd8b369d7f305', ''),
    'pb-noncanonical-coeff-to-p': (0, '769e64fb8497ca2a', ''),
    'pb-empty-num-to-m': (0, '724d45c220132d47', ''),
    'pb-empty-num-to-p': (0, '37f217c503567198', ''),
    'pb-zero-den-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (DivisionByZero: zero denominator)\n'),
    'pb-zero-den-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (DivisionByZero: zero denominator)\n'),
    'pb-listed-twice-with-a-zero-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (ValueError: partition [2] listed twice)\n'),
    'pb-listed-twice-with-a-zero-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (ValueError: partition [2] listed twice)\n'),
    'pb-nvars-true-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TypeError: nvars: expected int, got True)\n'),
    'pb-nvars-true-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TypeError: nvars: expected int, got True)\n'),
    'pb-jack-211-4-to-m': (0, '125692454c8c696b', ''),
    'pb-jack-211-4-to-p': (0, '6cb664d9beffd003', ''),
    'pb-ones-30-nvars-2-to-m': (0, 'b4474d7a14b5df41', ''),
    'pb-ones-30-nvars-2-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 2, got 30\n'),
    'pb-ones-30-nvars-4-to-m': (0, 'c41520478a57fa7a', ''),
    'pb-ones-30-nvars-4-to-p': (1, 'e3b0c44298fc1c14', 'error: power-sum coordinates need degree <= 4, got 30\n'),
    'terms-z1-plus-z2-to-m': (0, '3028e42bafbe55fe', ''),
    'terms-z1-plus-z2-to-p': (0, '85e3aa6c952ac390', ''),
    'terms-p2-nvars-3-to-m': (0, '3d4159f55215f1a1', ''),
    'terms-p2-nvars-3-to-p': (0, '1ab80139053f16ab', ''),
    'terms-not-symmetric-to-m': (1, 'e3b0c44298fc1c14', 'error: input is not symmetric\n'),
    'terms-not-symmetric-to-p': (1, 'e3b0c44298fc1c14', 'error: input is not symmetric\n'),
    'terms-mixed-degrees-to-m': (1, 'e3b0c44298fc1c14', 'error: input mixes total degrees\n'),
    'terms-mixed-degrees-to-p': (1, 'e3b0c44298fc1c14', 'error: input mixes total degrees\n'),
    'terms-negative-exponent-to-m': (1, 'e3b0c44298fc1c14', 'error: basis expansion needs ordinary polynomials\n'),
    'terms-negative-exponent-to-p': (1, 'e3b0c44298fc1c14', 'error: basis expansion needs ordinary polynomials\n'),
    'terms-empty-to-m': (0, '724d45c220132d47', ''),
    'terms-empty-to-p': (0, '37f217c503567198', ''),
    'unrecognized-to-m': (1, 'e3b0c44298fc1c14', 'error: unrecognized polynomial payload\n'),
    'unrecognized-to-p': (1, 'e3b0c44298fc1c14', 'error: unrecognized polynomial payload\n'),
    'json-list-to-m': (1, 'e3b0c44298fc1c14', 'error: unrecognized polynomial payload\n'),
    'json-list-to-p': (1, 'e3b0c44298fc1c14', 'error: unrecognized polynomial payload\n'),
    'json-number-to-m': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (TypeError: argument of type 'int' is not iterable)\n"),
    'json-number-to-p': (1, 'e3b0c44298fc1c14', "error: malformed polynomial payload (TypeError: argument of type 'int' is not iterable)\n"),
    'not-json-to-m': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (JSONDecodeError: Expecting property name enclosed in double quotes: line 1 column 2 (char 1))\n'),
    'not-json-to-p': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (JSONDecodeError: Expecting property name enclosed in double quotes: line 1 column 2 (char 1))\n'),
    'm-nvars-flag-agrees': (0, '019605bb63b11edf', ''),
    'm-nvars-flag-disagrees': (1, 'e3b0c44298fc1c14', 'error: input declares 2 variables, flags say 3\n'),
    'm-nvars-flag-after-too-many-parts': (1, 'e3b0c44298fc1c14', 'error: malformed polynomial payload (TooManyParts: l((1, 1, 1)) = 3 > 2 variables)\n'),
    'pb-nvars-flag-disagrees': (1, 'e3b0c44298fc1c14', 'error: input declares 2 variables, flags say 1\n'),
}


@pytest.mark.parametrize("name", CORPUS)
def test_convert_replays_the_corpus(name):
    argv, payload = CORPUS[name]
    code, out, err = _main(["convert", *argv], payload)
    assert (code, _digest(out), err) == EXPECTED[name]


@pytest.mark.parametrize("degree", range(8))
def test_power_sums_read_as_monomials_match_their_product(degree):
    """The p -> m route counts maps between parts; the reference multiplies
    the power sums out in nvars variables and scans the product, which
    drops every m_sigma with l(sigma) > nvars."""
    for rho in partitions_of(degree):
        for nvars in range(1, degree + 2):
            ctx = polyring.VarContext(nvars)
            expected = symbases.expand_in_basis(symbases.power_sum(rho, ctx), symbases.MONOMIAL).coords
            payload = json.loads(_coords(nvars, "p", degree, (rho, _q())))
            assert convert._decode(payload) == (ctx, expected), (rho, nvars)


def _refuse(*args, **kwargs):
    raise AssertionError("a coordinate payload was built as a polynomial")


@pytest.mark.parametrize("name", [name for name in CORPUS if EXPECTED[name][0] == 0])
def test_coordinate_payloads_build_no_polynomial(name, monkeypatch):
    """Only a terms payload is a polynomial; every other payload is read,
    and converted, as m-coordinates.  symbases holds its own names for the
    polynomial builders, so they are refused there as well as in polyring."""
    monkeypatch.setattr(polyring, "from_m_coordinates", _refuse)
    for builder in ("from_m_coordinates", "monomial_sym", "power_sum"):
        monkeypatch.setattr(symbases, builder, _refuse)
    monkeypatch.setattr(polyring.LaurentPoly, "__mul__", _refuse)
    if not name.startswith("terms-"):
        monkeypatch.setattr(polyring.LaurentPoly, "__init__", _refuse)
        monkeypatch.setattr(polyring.LaurentPoly, "_raw", classmethod(_refuse))
    argv, payload = CORPUS[name]
    code, out, err = _main(["convert", *argv], payload)
    assert (code, _digest(out), err) == EXPECTED[name]


def test_convert_costs_what_the_payload_holds():
    """Each of these requests once expanded every monomial in N variables:
    on a 2-CPU host the first ran out of memory or past 20 s, and the round
    trip of J_(4,3,2,1) at N = 10 through the p basis took 43 s.  p_(1^30)
    has 2^29 maps onto the parts of its m_sigma at N = 2, so counting them
    one by one does not end; its row of counts per sorted slot sum does."""
    one = json.dumps({"nvars": 100000, "monomial_expansion": [{"partition": [1], "coeff": 1}]})
    for to in ("m", "p"):
        r = run_cli("convert", "--to", to, stdin=one, timeout=20)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["coords"] == [{"partition": [1], "coeff": _q()}]
    r = run_cli("convert", "--to", "p", stdin=_jack("--lambda", "4,3,2,1", "--nvars", "8"), timeout=20)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", "error: power-sum coordinates need degree <= 8, got 10\n")
    j = _jack("--lambda", "4,3,2,1", "--nvars", "10")
    code, top, err = _main(["convert", "--to", "p"], j)
    assert code == 0, err
    back = run_cli("convert", "--to", "m", stdin=top, timeout=20)
    assert back.returncode == 0, back.stderr
    assert back.stdout == _main(["convert", "--to", "m"], j)[1]
    for nvars in (2, 4):
        name = f"pb-ones-30-nvars-{nvars}-to-m"
        r = run_cli("convert", "--to", "m", stdin=PAYLOADS[name[: -len("-to-m")]], timeout=20)
        assert (r.returncode, _digest(r.stdout), r.stderr) == EXPECTED[name]
