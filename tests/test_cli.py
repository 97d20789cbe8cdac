"""End-to-end runs of the command line tool in a subprocess: fixed inputs
must give byte-identical output, and the exit code contract is part of the
interface."""

import json

import pytest
from cli_helper import run_cli


def test_jack_json():
    r = run_cli("jack", "--lambda", "2,1", "--nvars", "3")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["lambda"] == [2, 1]
    assert obj["normalization"] == "monic"
    parts = [tuple(e["partition"]) for e in obj["monomial_expansion"]]
    assert parts == [(2, 1), (1, 1, 1)]
    # c = b^2 (2b + 1), ascending coefficients
    assert obj["c"] == {"num": ["0", "0", "1", "2"], "den": ["1"]}


def test_jack_text_specialized():
    r = run_cli("jack", "--lambda", "2,1", "--nvars", "3", "--beta", "1", "--format", "text")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "jack lambda=[2, 1] nvars=3 normalization=monic"
    assert lines[1] == "c = 3"
    assert lines[2].split() == ["m[2,1]", "1"]
    assert lines[3].split() == ["m[1,1,1]", "2"]


def test_jack_empty_partition():
    r = run_cli("jack", "--lambda", "0", "--nvars", "2", "--format", "text")
    assert r.returncode == 0
    assert "m[]  1" in r.stdout


def test_jack_byte_determinism():
    args = ("jack", "--lambda", "3,2,1", "--nvars", "4", "--normalization", "stanley")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_jack_full_length_needs_flag():
    r = run_cli("jack", "--lambda", "1,1,1", "--nvars", "3")
    assert r.returncode == 1
    assert "l(lambda) <= N-1" in r.stderr
    r = run_cli("jack", "--lambda", "1,1,1", "--nvars", "3", "--allow-shift", "--format", "text")
    assert r.returncode == 0
    assert "m[1,1,1]  1" in r.stdout


def test_jack_pole_is_domain_error():
    r = run_cli("jack", "--lambda", "3,1", "--nvars", "3", "--beta", "-1", "--format", "text")
    assert r.returncode == 1
    assert "pole" in r.stderr


def test_jack_bad_partition():
    r = run_cli("jack", "--lambda", "1,2", "--nvars", "3")
    assert r.returncode == 1
    assert "weakly decreasing" in r.stderr


def test_bad_flag_is_usage_error():
    r = run_cli("jack", "--lambda", "1", "--nvars", "2", "--frobnicate")
    assert r.returncode == 2
    r = run_cli("jack", "--nvars", "2")
    assert r.returncode == 2
    r = run_cli("jack", "--lambda", "1", "--nvars", "2", "--normalization", "shiny")
    assert r.returncode == 2


# a separate negative fraction after its flag, and the --flag=value form
NEGATIVE_FRACTIONS = {
    "jack-beta": (("jack", "--lambda", "2", "--nvars", "2", "--format", "text"), "--beta", "-1/3"),
    "jack-beta-pole": (("jack", "--lambda", "2,1", "--nvars", "3"), "--beta", "-1/2"),
    "spectrum-q": (("spectrum", "--lambda", "2,1", "--nparticles", "3", "--beta", "2"), "--q", "-1/2"),
    "spectrum-beta-usage": (("spectrum", "--nparticles", "3"), "--beta", "-1/2"),
}


@pytest.mark.parametrize("args, flag, value", NEGATIVE_FRACTIONS.values(), ids=NEGATIVE_FRACTIONS.keys())
def test_negative_fraction_is_the_flags_value(args, flag, value):
    separate = run_cli(*args, flag, value)
    joined = run_cli(*args, f"{flag}={value}")
    assert (separate.returncode, separate.stdout, separate.stderr) == (
        joined.returncode,
        joined.stdout,
        joined.stderr,
    )
    assert "expected one argument" not in separate.stderr


def test_parser_choices_match_their_modules():
    """cli copies these choices so that parsing imports none of their modules."""
    from csjack import cli, rodrigues, suites, symbases

    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices

    def choices(command, dest):
        return next(a for a in subcommands[command]._actions if a.dest == dest).choices

    assert list(choices("verify", "suite")) == sorted(suites.SUITES) + ["all"]
    assert tuple(choices("convert", "to")) == (symbases.MONOMIAL, symbases.POWER_SUM)
    assert tuple(choices("jack", "normalization")) == rodrigues.NORMALIZATIONS


def test_verify_passes():
    r = run_cli("verify", "--suite", "commutators", "--max-degree", "3", "--max-nvars", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_spectrum_text_frozen():
    r = run_cli("spectrum", "--lambda", "2,1", "--nparticles", "3", "--beta", "2")
    assert r.returncode == 0
    assert r.stdout == (
        "spectrum nparticles=3 beta=2 q=0 length=2pi\n"
        "ground energy = 32 * (pi/L)^2\n"
        "lambda=[2, 1] kappa=[4, 1, -2] momentum=3 energy=21\n"
    )


def test_spectrum_json_all_degree():
    r = run_cli(
        "spectrum",
        "--all-degree",
        "2",
        "--nparticles",
        "2",
        "--beta",
        "1/2",
        "--format",
        "json",
    )
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["units"]["momentum"] == "2*pi/L"
    assert obj["params"]["beta"] == "1/2"
    lams = [tuple(s["lambda"]) for s in obj["states"]]
    assert lams == [(), (1,), (2,), (1, 1)]


def test_spectrum_numeric_length():
    r = run_cli("spectrum", "--lambda", "1", "--nparticles", "2", "--beta", "1", "--length", "2")
    assert r.returncode == 0
    assert "energy_value=" in r.stdout


def test_convert_round_trip(tmp_path):
    r = run_cli("jack", "--lambda", "2,1", "--nvars", "3")
    src = tmp_path / "jack.json"
    src.write_text(r.stdout)
    top = run_cli("convert", "--to", "p", "--input", str(src))
    assert top.returncode == 0
    back = run_cli("convert", "--to", "m", stdin=top.stdout)
    assert back.returncode == 0
    obj = json.loads(back.stdout)
    assert obj["basis"] == "m"
    coords = {tuple(e["partition"]): e["coeff"] for e in obj["coords"]}
    assert coords[(2, 1)] == {"num": ["1"], "den": ["1"]}
    # 6b/(2b+1) in canonical monic-denominator form
    assert coords[(1, 1, 1)] == {"num": ["0", "3"], "den": ["1/2", "1"]}


def test_convert_rejects_garbage():
    r = run_cli("convert", "--to", "m", stdin="{\"what\": 1}")
    assert r.returncode == 1
    r = run_cli("convert", "--to", "m", stdin="{\"nvars\": 2, \"terms\": [{\"exp\": [1, 0], \"coeff\": {\"num\": [\"1\"], \"den\": [\"1\"]}}]}")
    # z1 alone is not symmetric
    assert r.returncode == 1


DEEP_PAYLOADS = {"arrays": "[" * 5000 + "]" * 5000, "objects": '{"a": ' * 5000 + "1" + "}" * 5000}


@pytest.mark.parametrize("payload", DEEP_PAYLOADS.values(), ids=DEEP_PAYLOADS.keys())
def test_convert_rejects_deep_nesting_in_one_line(payload, tmp_path):
    """json.load raises RecursionError on deep nesting: one line, exit 1."""
    src = tmp_path / "deep.json"
    src.write_text(payload)
    runs = (run_cli("convert", "--to", "m", stdin=payload), run_cli("convert", "--to", "m", "--input", str(src)))
    for r in runs:
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error: malformed polynomial payload (RecursionError")
        assert len(r.stderr.splitlines()) == 1


def test_output_flag(tmp_path):
    out = tmp_path / "result.json"
    r = run_cli("jack", "--lambda", "1", "--nvars", "2", "--output", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    obj = json.loads(out.read_text())
    assert obj["lambda"] == [1]


ONE_JSON = {"num": ["1"], "den": ["1"]}
THREE_JSON = {"num": ["3"], "den": ["1"]}


def _payload(nvars=2, **body):
    return json.dumps({"nvars": nvars, **body})


def _entry(key, value, coeff=ONE_JSON):
    return {key: value, "coeff": coeff}


def _z1_plus_z2(first_exp=(1, 0), nvars=2, coeff=ONE_JSON):
    """z1 + z2 as a terms payload, with its first exponent tuple replaced."""
    terms = [{"exp": list(first_exp), "coeff": coeff}, {"exp": [0, 1], "coeff": coeff}]
    return _payload(nvars, terms=terms)


def _m1_coords(partition=(1,), basis="m", degree=1):
    coords = [{"partition": list(partition), "coeff": ONE_JSON}]
    return _payload(basis=basis, degree=degree, coords=coords)


BAD_INPUT = {
    "jack-lambda-not-integers": (("jack", "--lambda", "x", "--nvars", "3"), None, 2),
    "jack-beta-zero-denominator": (("jack", "--lambda", "2,1", "--nvars", "3", "--beta", "1/0"), None, 2),
    "jack-beta-not-rational": (("jack", "--lambda", "2,1", "--nvars", "3", "--beta", "abc"), None, 2),
    "verify-one-variable": (("verify", "--max-nvars", "1"), None, 2),
    "verify-negative-degree": (("verify", "--max-degree", "-1"), None, 2),
    "verify-negative-degree-one-suite": (
        ("verify", "--suite", "rodrigues-vs-oracle", "--max-degree", "-1"),
        None,
        2,
    ),
    "verify-threads-removed": (("verify", "--threads", "2"), None, 2),
    "verify-unknown-suite": (("verify", "--suite", "hamiltonian"), None, 2),
    "convert-unknown-target-basis": (("convert", "--to", "q"), '{"coords": []}', 2),
    "spectrum-zero-length": (("spectrum", "--nparticles", "2", "--beta", "1", "--length", "0"), None, 2),
    "spectrum-zero-beta": (("spectrum", "--nparticles", "2", "--beta", "0"), None, 2),
    "spectrum-negative-beta": (("spectrum", "--nparticles", "2", "--beta", "-1"), None, 2),
    "spectrum-negative-all-degree": (("spectrum", "--nparticles", "2", "--beta", "1", "--all-degree", "-1"), None, 2),
    "spectrum-zero-particles": (("spectrum", "--nparticles", "0", "--beta", "1"), None, 2),
    "jack-zero-variables": (("jack", "--lambda", "0", "--nvars", "0"), None, 2),
    "convert-zero-variables": (("convert", "--to", "m", "--nvars", "0"), '{"coords": []}', 2),
    "convert-malformed-json": (("convert", "--to", "m"), "{not json", 1),
    "convert-missing-nvars": (("convert", "--to", "m"), '{"coords": []}', 1),
    "convert-fractional-exponent": (("convert", "--to", "m"), _z1_plus_z2((1.5, 0)), 1),
    "convert-boolean-exponent": (("convert", "--to", "m"), _z1_plus_z2((True, 0)), 1),
    "convert-string-exponent": (("convert", "--to", "m"), _z1_plus_z2(("1", 0)), 1),
    "convert-fractional-nvars": (("convert", "--to", "m"), _z1_plus_z2(nvars=2.5), 1),
    "convert-string-numerator": (
        ("convert", "--to", "m"),
        _z1_plus_z2(coeff={"num": "12", "den": ["1"]}),
        1,
    ),
    "convert-fractional-partition-part": (
        ("convert", "--to", "m"),
        _payload(monomial_expansion=[{"partition": [1.7], "coeff": ONE_JSON}]),
        1,
    ),
    "convert-fractional-coords-part": (("convert", "--to", "m"), _m1_coords(partition=(1.7,)), 1),
    "convert-unknown-basis": (("convert", "--to", "m"), _m1_coords(basis="q"), 1),
    "convert-degree-mismatch": (("convert", "--to", "m"), _m1_coords(degree=2), 1),
    # each payload below exits 0 if the repeated entry overwrites or adds up
    "convert-repeated-coords-partition": (
        ("convert", "--to", "m"),
        _payload(basis="m", degree=1, coords=[_entry("partition", [1]), _entry("partition", [1], THREE_JSON)]),
        1,
    ),
    "convert-repeated-exponent": (
        ("convert", "--to", "m"),
        _payload(terms=[_entry("exp", [1, 0]), _entry("exp", [0, 1]), _entry("exp", [0, 1])]),
        1,
    ),
    "convert-repeated-monomial-partition": (
        ("convert", "--to", "m"),
        _payload(monomial_expansion=[_entry("partition", [1]), _entry("partition", [1])]),
        1,
    ),
    "spectrum-lambda-and-all-degree": (
        ("spectrum", "--lambda", "2,1", "--all-degree", "1", "--nparticles", "2", "--beta", "1"),
        None,
        2,
    ),
}


# sizes whose first allocation fails at once, before anything is built
OUT_OF_MEMORY = {
    "jack-huge-nvars": ("jack", "--lambda", "0", "--nvars", "100000000000"),
    "spectrum-huge-nparticles": ("spectrum", "--nparticles", "100000000000", "--beta", "2"),
}


@pytest.mark.parametrize("args", OUT_OF_MEMORY.values(), ids=OUT_OF_MEMORY.keys())
def test_out_of_memory_is_one_line(args):
    r = run_cli(*args)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: out of memory\n"


@pytest.mark.parametrize("args, stdin, code", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exit_codes(args, stdin, code):
    """Usage errors exit 2 before anything is built, domain errors exit 1
    with a one-line message, and neither prints a traceback."""
    r = run_cli(*args, stdin=stdin)
    assert r.returncode == code
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    if code == 1:
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    if code == 1 and args[0] == "convert":
        assert r.stderr.startswith("error: malformed polynomial payload (")
