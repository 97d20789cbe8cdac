"""End-to-end runs of the command line tool in a subprocess: fixed inputs
must give byte-identical output, and the exit code contract is part of the
interface."""

import ast
import gc
import hashlib
import importlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from cli_helper import run_child, run_cli

from csjack import cli

ROOT = Path(__file__).resolve().parent.parent


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


# jack --lambda 3,1 --nvars 3 --format text at couplings beta <= 0, which no
# digest covers: c_lambda(0) = 0 with finite monic coordinates, and a pole at -1
NON_POSITIVE_COUPLING = {
    "0": (0, "c = 0\nm[3,1]    1\nm[2,2]    0\nm[2,1,1]  0\n", ""),
    "-1/2": (0, "c = 1/8\nm[3,1]    1\nm[2,2]    -2\nm[2,1,1]  -1\n", ""),
    "-1": (1, "", "error: pole at coupling value -1\n"),
    "-2": (0, "c = 8\nm[3,1]    1\nm[2,2]    4\nm[2,1,1]  14\n", ""),
}


@pytest.mark.parametrize("beta", NON_POSITIVE_COUPLING)
def test_jack_bytes_at_non_positive_coupling(beta):
    code, body, stderr = NON_POSITIVE_COUPLING[beta]
    r = run_cli("jack", "--lambda", "3,1", "--nvars", "3", "--format", "text", "--beta", beta)
    head = "jack lambda=[3, 1] nvars=3 normalization=monic\n" if body else ""
    assert (r.returncode, r.stdout, r.stderr) == (code, head + body, stderr)


def _main_block_call() -> str:
    """Name of the function that cli's `if __name__ == "__main__":` block calls."""
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = (node for node in tree.body if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test))
    (statement,) = block.body
    return ast.unparse(statement.value.func)


def test_request_exits_with_a_frozen_heap():
    """Run as __main__, a request freezes the collector's heap before it exits,
    and atexit hooks and the exit code still run as before."""
    r = run_child(
        "-c",
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
        "sys.argv = ['csjack', 'jack', '--lambda', '2,1', '--nvars', '3', '--format', 'text', '--beta', '1']\n"
        "runpy.run_module('csjack.cli', run_name='__main__')\n",
    )
    assert r.returncode == 0
    assert r.stdout.splitlines()[1] == "c = 3"
    assert int(r.stderr) > 0


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    assert gc.get_freeze_count() == 0
    assert cli.main(["jack", "--lambda", "2,1", "--nvars", "3"]) == 0
    assert capsys.readouterr().out
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_script_entry_point_is_the_main_block_exit():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    name = _main_block_call()
    assert scripts == {"csjack": f"csjack.cli:{name}"}
    assert callable(getattr(cli, name))


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

    def choices(command, dest):
        _, _, flags, _ = cli.COMMANDS[command]
        (words,) = {convert for name, convert, _, _ in flags.values() if name == dest}
        return words

    assert list(choices("verify", "suite")) == sorted(suites.SUITES) + ["all"]
    assert tuple(choices("convert", "to")) == (symbases.MONOMIAL, symbases.POWER_SUM)
    assert tuple(choices("jack", "normalization")) == rodrigues.NORMALIZATIONS


JACK_TEXT = ("jack", "--lambda", "3,1", "--nvars", "3", "--format", "text")
# z1 + z2, read by the convert request below
CONVERT_STDIN = json.dumps(
    {"nvars": 2, "terms": [{"exp": exp, "coeff": {"num": ["1"], "den": ["1"]}} for exp in ([1, 0], [0, 1])]}
)

# argv accepted by the argparse parser that the flag table replaced: the exit
# code and the first 16 hex digits of the sha256 of stdout, both recorded with
# that parser; the help pages are its layout at 80 columns
ACCEPTED_ARGV = {
    "jack": (JACK_TEXT, 0, "657ae230cd3dae4c"),
    "jack-joined": (("jack", "--lambda=3,1", "--nvars=3", "--format=text"), 0, "657ae230cd3dae4c"),
    "jack-prefixes": (("jack", "--lam", "3,1", "--nv", "3", "--form", "text", "--norm", "raw"), 0, "20e40628c3fa34e2"),
    "jack-repeated": (("jack", "--lambda", "1", "--nvars", "2", "--format", "json", *JACK_TEXT[1:]), 0, "657ae230cd3dae4c"),
    "jack-switch-prefix": (("jack", "--lambda", "1,1", "--nvars", "2", "--allow", "--format", "text"), 0, "db99abf1482c3e12"),
    "jack-negative-fraction": ((*JACK_TEXT, "--beta", "-1/2"), 0, "38f9319d92e0bfb9"),
    "jack-negative-fraction-joined": ((*JACK_TEXT, "--be=-1/3"), 0, "8e8576908872f69c"),
    "jack-negative-integer": ((*JACK_TEXT, "--beta", "-2"), 0, "90cf74b4cc732807"),
    "jack-negative-decimal": ((*JACK_TEXT, "--beta", "-.5"), 0, "38f9319d92e0bfb9"),
    "jack-lambda-negative-part": (("jack", "--lambda", "-1", "--nvars", "2"), 1, "e3b0c44298fc1c14"),
    "verify-prefixes": (("verify", "--su", "commutators", "--max-d", "2", "--max-n", "2"), 0, "4150c6ce9bd92baf"),
    "verify-repeated": (
        ("verify", "--suite", "all", "--suite", "spectrum-consistency", "--max-degree", "2"),
        0,
        "777eddedf28cc834",
    ),
    "spectrum-all-degree": (
        ("spectrum", "--all-degree", "1", "--nparticles", "2", "--beta", "2", "--format", "json"),
        0,
        "b2f9ed3fc8e2cf81",
    ),
    "spectrum-negative-q": (
        ("spectrum", "--lambda", "2,1", "--nparticles", "3", "--beta", "2", "--q", "-1/2"),
        0,
        "1f7a379ed259097b",
    ),
    "spectrum-negative-q-integer": (
        ("spectrum", "--lambda", "1", "--nparticles", "2", "--beta", "1/2", "--q", "-3", "--length", "3/2"),
        0,
        "f526d4be6100758d",
    ),
    "spectrum-prefixes": (("spectrum", "--la", "1", "--np", "2", "--be", "1/2", "--len", "2"), 0, "a32e427fa623bf0d"),
    "convert-prefix": (("convert", "--t", "p"), 0, "85e3aa6c952ac390"),
    "help": (("-h",), 0, "b6c892fa996b358e"),
    "help-long": (("--help",), 0, "b6c892fa996b358e"),
    "help-prefix": (("--he",), 0, "b6c892fa996b358e"),
    "jack-help": (("jack", "-h"), 0, "80b68cad7ca3e75d"),
    "verify-help": (("verify", "--help"), 0, "ec28406a6f827467"),
    "spectrum-help": (("spectrum", "-h"), 0, "3af5d508fcfd71f4"),
    "convert-help-prefix": (("convert", "--h"), 0, "01ec04868eaae685"),
    "help-before-bad-value": (("jack", "-h", "--lambda", "x"), 0, "80b68cad7ca3e75d"),
    "help-after-unknown-flag": (("jack", "--frobnicate", "-h"), 0, "80b68cad7ca3e75d"),
}


@pytest.mark.parametrize("argv, code, digest", ACCEPTED_ARGV.values(), ids=ACCEPTED_ARGV.keys())
def test_accepted_argv_prints_as_before(argv, code, digest, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CONVERT_STDIN))
    assert cli.main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("key", [key for key in ACCEPTED_ARGV if "help" in key])
def test_help_pages_ignore_the_terminal_width(key, capsys, monkeypatch):
    """argparse would follow COLUMNS; the pages keep their 80-column layout."""
    monkeypatch.setenv("COLUMNS", "40")
    argv, code, digest = ACCEPTED_ARGV[key]
    assert cli.main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


# argv the argparse parser rejected with exit 2, except the last, where it
# stored an attached "--" as [] and the request ended in a traceback
REJECTED_ARGV = {
    "no-command": (),
    "unknown-command": ("frobnicate",),
    "flag-before-command": ("--frobnicate", "jack", "--lambda", "1", "--nvars", "2"),
    "unknown-flag": ("jack", "--lambda", "1", "--nvars", "2", "--frobnicate"),
    "stray-value": ("jack", "--lambda", "1", "--nvars", "2", "extra"),
    "missing-flag": ("jack", "--nvars", "2"),
    "missing-value": ("jack", "--nvars", "2", "--lambda"),
    "flag-as-value": ("jack", "--lambda", "--nvars", "2"),
    "unknown-option-as-value": ("jack", "--lambda", "1", "--nvars", "2", "--beta", "-x"),
    "ambiguous-prefix": ("jack", "--lambda", "1", "--n", "2"),
    "ambiguous-prefix-after-help": ("jack", "-h", "--n", "2"),
    "bad-choice": ("jack", "--lambda", "1", "--nvars", "2", "--normalization", "shiny"),
    "out-of-range": ("jack", "--lambda", "1", "--nvars", "0"),
    "bad-value-before-help": ("jack", "--lambda", "x", "-h"),
    "switch-with-value": ("jack", "--lambda", "1", "--nvars", "2", "--allow-shift=yes"),
    "help-with-fraction": ("jack", "--help", "-1/2"),
    "after-double-dash": ("jack", "--nvars", "2", "--", "--lambda", "1"),
    "negative-degree": ("verify", "--max-degree", "-1"),
    "exclusive-flags": ("spectrum", "--lambda", "2,1", "--all-degree", "1", "--nparticles", "2", "--beta", "1"),
    "missing-beta": ("spectrum", "--nparticles", "2"),
    "zero-beta": ("spectrum", "--nparticles", "2", "--beta", "0"),
    "bad-basis": ("convert", "--to", "q"),
    "double-dash-value": ("jack", "--lambda", "1", "--nvars", "2", "--beta=--"),
}


@pytest.mark.parametrize("argv", REJECTED_ARGV.values(), ids=REJECTED_ARGV.keys())
def test_rejected_argv_is_one_usage_line(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_verify_passes():
    r = run_cli("verify", "--suite", "commutators", "--max-degree", "3", "--max-nvars", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


SPECTRUM_STATE = r"lam=\(.*\) n=\d+ beta=\d+(/\d+)? q=-?\d+(/\d+)?"
# one mutant per check of the verify failure path: (suite, module, name, the
# mutant as a function of the original, {check it fails: pattern of the detail})
VERIFY_MUTANTS = {
    "energy-off-by-q": (
        "spectrum-consistency",
        "spectrum",
        "total_energy",
        lambda energy: lambda lam, params: energy(lam, params) + params.q,
        {"energy-boost-additivity": SPECTRUM_STATE},
    ),
    "momentum-off-by-one": (
        "spectrum-consistency",
        "spectrum",
        "total_momentum",
        lambda momentum: lambda lam, params: momentum(lam, params) + 1,
        {"momentum-additivity": SPECTRUM_STATE},
    ),
    # reversed, the quasi-momenta keep their squared sum and lose their order
    "momenta-reversed": (
        "spectrum-consistency",
        "spectrum",
        "quasi_momenta",
        lambda kappa: lambda lam, params: kappa(lam, params)[::-1],
        {"exclusion-spacing": SPECTRUM_STATE + " i=1"},
    ),
    "ground-off-by-one": (
        "spectrum-consistency",
        "spectrum",
        "ground_energy",
        lambda ground: lambda params: ground(params) + 1,
        {"ground-state-energy": r"n=\d+ beta=\d+(/\d+)?"},
    ),
    # hatD_k gains z_f(k) with f(1) = 2, else 1: every adjacent swap still
    # holds, and s_1 or s_2 no longer commutes with a hatD_k outside its pair
    "hatD-distant": (
        "commutators",
        "operators",
        "apply_hatD",
        lambda hat_d: lambda i, p, beta: hat_d(i, p, beta) + p.shift_var(2 if i == 1 else 1),
        {
            "shifted-family-commute": r"nvars=\d+ i=\d+ j=\d+ p=.+",
            "shifted-family-swap": r"distant swap: nvars=\d+ i=\d+ k=\d+ p=.+",
        },
    ),
}


@pytest.mark.parametrize("suite, module, name, mutant, failing", VERIFY_MUTANTS.values(), ids=VERIFY_MUTANTS.keys())
def test_verify_prints_each_failure(suite, module, name, mutant, failing, capsys, monkeypatch):
    """A broken check prints `FAIL name: detail`, the others still print
    PASS, the tally counts the failures and the exit code is 3."""
    target = importlib.import_module(f"csjack.{module}")
    monkeypatch.setattr(target, name, mutant(getattr(target, name)))
    assert cli.main(["verify", "--suite", suite, "--max-degree", "3"]) == 3
    *lines, tally = capsys.readouterr().out.splitlines()
    names = [line.split()[1].rstrip(":") for line in lines]
    assert set(failing) <= set(names)
    for line, check in zip(lines, names):
        if check in failing:
            assert re.fullmatch(f"FAIL {check}: {failing[check]}", line), line
        else:
            assert line == f"PASS {check}"
    assert tally == f"{len(lines) - len(failing)}/{len(lines)} checks passed"


def test_spectrum_text_frozen():
    r = run_cli("spectrum", "--lambda", "2,1", "--nparticles", "3", "--beta", "2")
    assert r.returncode == 0
    assert r.stdout == (
        "spectrum nparticles=3 beta=2 q=0 length=2pi\n"
        "ground energy = 32 * (pi/L)^2\n"
        "lambda=[2, 1] kappa=[4, 1, -2] momentum=3 energy=21\n"
    )


def test_spectrum_defaults_print_as_before():
    """Without --q the request reads q = 0, and importing cli builds no
    Fraction for that default."""
    text = run_cli("spectrum", "--nparticles", "2", "--beta", "1")
    assert (text.returncode, text.stdout) == (
        0,
        "spectrum nparticles=2 beta=1 q=0 length=2pi\n"
        "ground energy = 2 * (pi/L)^2\n"
        "lambda=[] kappa=[1/2, -1/2] momentum=0 energy=1/2\n",
    )
    obj = {
        "params": {"nparticles": 2, "beta": "1", "q": "0", "length": "2pi"},
        "units": {"momentum": "2*pi/L", "energy": "(2*pi/L)^2", "ground_energy": "(pi/L)^2"},
        "ground_energy": "2",
        "states": [{"lambda": [], "kappa": ["1/2", "-1/2"], "momentum": "0", "energy": "1/2"}],
    }
    r = run_cli("spectrum", "--nparticles", "2", "--beta", "1", "--format", "json")
    assert (r.returncode, r.stdout) == (0, json.dumps(obj, indent=2) + "\n")
    r = run_child("-c", "import sys\nfrom csjack import cli\nprint('fractions' in sys.modules)")
    assert r.stdout == "False\n"


# values of the shapes a payload holds, for the JSON writer
JSON_VALUES = {
    "empty-lambda": {"lambda": [], "nvars": 2, "beta": "sym"},
    "empty-containers": [[], {}, [[]], {"a": {}}, [{}]],
    "nested": {"a": [{"b": [1, -2, [3, []]]}, "p/q"], "c": {"d": {"e": "-3/7"}}},
    "negative-int": -12,
    "rational": "-1/2",
    "spaces": "(2*pi/L)^2 ~ {x}",
    "empty-string": "",
}


@pytest.mark.parametrize("value", JSON_VALUES.values(), ids=JSON_VALUES.keys())
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_writer_writes_no_string_raw_that_json_escapes():
    """Each string is written as json.dumps writes it, or rejected; it is
    rejected only where json would escape it."""
    for text in [chr(i) for i in range(256)] + ['say "hi"', "a\\b", "line\n", "\U0001f600", "caf\u00e9"]:
        try:
            written = cli._json(text)
        except ValueError:
            assert json.dumps(text) != f'"{text}"', repr(text)
        else:
            assert written == json.dumps(text), repr(text)


@pytest.mark.parametrize("value", [{1: "a"}, (1, 2), True, None, 1.5, ["ok", b"bytes"]], ids=repr)
def test_json_writer_rejects_other_types(value):
    with pytest.raises(ValueError):
        cli._json(value)


def test_json_writer_matches_json_dumps_on_every_payload():
    """Every to_json the command line writes, with each value type it emits."""
    from fractions import Fraction
    from types import SimpleNamespace

    from csjack.partitions import Partition
    from csjack.polyring import VarContext
    from csjack.rodrigues import jack
    from csjack.spectrum import ModelParams, spectrum_payload, spectrum_record, wavefunction_descriptor
    from csjack.symbases import expand_in_basis

    result = jack(Partition((2, 1)), VarContext(3))
    params = ModelParams(3, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2))
    flags = SimpleNamespace(nparticles=3, beta=Fraction(1, 2), q=Fraction(-1, 3), length="2pi", all_degree=2, format="json")
    payloads = [
        {**result.to_json(), "beta": "sym"},
        result.raw.to_json(),
        expand_in_basis(result.monic, "p").to_json(),
        spectrum_payload(flags),
        spectrum_record(Partition((2, 1)), params).to_json(),
        wavefunction_descriptor(Partition((1,)), params).to_json(),
    ]
    for payload in payloads:
        assert cli._json(payload) == json.dumps(payload, indent=2)


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


def test_spectrum_energy_value_is_finite_or_an_error():
    # 2 pi / L is a float, and its square overflows to inf
    r = run_cli("spectrum", "--nparticles", "2", "--beta", "1", "--length", "1e-200")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: energy value of lambda=[] is out of float range\n"
    # a nonzero energy that underflows to 0.0
    r = run_cli("spectrum", "--nparticles", "1", "--beta", "1", "--q", "1e-400", "--length", "1")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: energy value of lambda=[] is out of float range\n"
    # an exact zero energy still prints as 0, even where (2 pi / L)^2 overflows
    for length in ("1", "1e-200"):
        r = run_cli("spectrum", "--nparticles", "1", "--beta", "1", "--length", length)
        assert r.returncode == 0 and r.stdout.endswith(" energy=0 energy_value=0\n")


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
    # energy_value needs L and the energy as floats
    "spectrum-length-underflows": (("spectrum", "--nparticles", "2", "--beta", "1", "--length", "1e-400"), None, 1),
    "spectrum-length-overflows": (
        ("spectrum", "--nparticles", "2", "--beta", "1", "--length", "1e400", "--lambda", "1"),
        None,
        1,
    ),
    "spectrum-energy-overflows": (
        ("spectrum", "--nparticles", "2", "--beta", "1e200", "--length", "1", "--lambda", "1"),
        None,
        1,
    ),
    "spectrum-energy-value-overflows": (("spectrum", "--nparticles", "2", "--beta", "1", "--length", "1e-200"), None, 1),
    "spectrum-energy-value-underflows": (
        ("spectrum", "--nparticles", "1", "--beta", "1", "--q", "1e-400", "--length", "1"),
        None,
        1,
    ),
    # values whose printed form passes Python's int-to-str digit limit
    "jack-text-beta-too-long-to-print": (
        ("jack", "--lambda", "2,1", "--nvars", "3", "--beta", "1e5000", "--format", "text"),
        None,
        1,
    ),
    "jack-json-beta-too-long-to-print": (("jack", "--lambda", "1", "--nvars", "2", "--beta", "1e5000"), None, 1),
    "spectrum-beta-too-long-to-print": (("spectrum", "--nparticles", "2", "--beta", "1e5000"), None, 1),
    "spectrum-q-too-long-to-print": (("spectrum", "--nparticles", "2", "--beta", "1", "--q", "1e5000"), None, 1),
    "spectrum-length-too-long-to-print": (
        ("spectrum", "--nparticles", "2", "--beta", "1", "--length", "1e5000"),
        None,
        1,
    ),
    # 10^k is never computed for an exponent of more than six digits
    "jack-beta-exponent-too-long": (("jack", "--lambda", "1", "--nvars", "2", "--beta", "1e99999999"), None, 2),
    "jack-beta-zero-exponent-too-long": (("jack", "--lambda", "1", "--nvars", "2", "--beta", "0e99999999"), None, 2),
    "spectrum-beta-exponent-too-long": (
        ("spectrum", "--nparticles", "2", "--beta", "1e99999999", "--lambda", "1"),
        None,
        2,
    ),
}


def test_a_huge_beta_that_is_never_printed_is_accepted():
    r = run_cli("jack", "--lambda", "0", "--nvars", "2", "--beta", "1e5000", "--format", "text")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[1] == "c = 1"


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
    """Usage errors exit 2 before anything is built, domain errors exit 1,
    each with a one-line message, and neither prints a traceback."""
    r = run_cli(*args, stdin=stdin)
    assert r.returncode == code
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    if code == 1 and args[0] == "convert":
        assert r.stderr.startswith("error: malformed polynomial payload (")


# texts for --beta that Fraction(text) reads or rejects at an edge of its
# grammar, and a corpus drawn from its alphabet; "-1/2" is the value that
# follows --beta as its own token
BETA_TEXTS = ["1e400", "1.5", " 3/2 ", "+2", "1_0/4", "2/4", "-0", "-1/2", "1/0", "nan", "inf", "3 /2", "/2", "1/-2"]
BETA_TEXTS += ["1.5/2", "--", "sym", ".5", "1.", ".", "-.5e1", "1E+2", "1e-3", "1__0", "_1", "1_", "1.d", "1e", "e5"]
BETA_TEXTS += ["+-1", "\u0661\u0662/3", "\u30001/3\t", "1.5_0e0_1", "0/5", "00/10", "1/0_0", "2/ 3", "1e+", "+.5"]


def _beta_corpus(count: int) -> list[str]:
    rng = random.Random(33)
    alphabet = "0123456789" * 3 + "_./+-eE d\t\u0663"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5))) for _ in range(count)]


def _reads_as_fraction(text: str):
    """The --beta converter that Fraction(text) is the reference for."""
    return None if text == "sym" else Fraction(text)


@pytest.mark.parametrize("text", BETA_TEXTS + _beta_corpus(300))
def test_beta_reader_matches_fraction(text, capsys, monkeypatch):
    """--beta reads a rational in ints, no Fraction built: an accepted text
    gives Fraction(text)'s value and prints it alike, and a rejected one the
    same single usage line and exit 2, as a converter calling Fraction would."""
    argv = ["jack", "--lambda", "2", "--nvars", "2", "--format", "json", "--beta", text]
    code, out, err = cli.main(argv), *capsys.readouterr()
    dest, _, default, help_text = cli.COMMANDS["jack"][2]["--beta"]
    reference = cli._checked(_reads_as_fraction, '"sym", an integer or p/q')
    monkeypatch.setitem(cli.COMMANDS["jack"][2], "--beta", (dest, reference, default, help_text))
    assert (cli.main(argv), *capsys.readouterr()) == (code, out, err)
    try:
        expected = _reads_as_fraction(text)
    except (ValueError, ZeroDivisionError):
        assert (code, out) == (2, "") and err.startswith("error: ") and len(err.splitlines()) == 1
        return
    if code == 0:
        assert json.loads(out)["beta"] == ("sym" if expected is None else str(expected))
    if expected is not None:
        value = cli._rational(text)
        assert value == expected and str(value) == str(expected)


# spectrum's rational flags: (name in the JSON params, what a value must satisfy)
SPECTRUM_RATIONALS = {
    "--beta": ("beta", lambda v: v > 0),
    "--q": ("q", lambda v: True),
    "--length": ("length", lambda v: v > 0),
}


@pytest.mark.parametrize("text", BETA_TEXTS + _beta_corpus(300))
def test_spectrum_rational_flags_read_as_fraction(text, capsys):
    """spectrum's --beta, --q and --length read text as Fraction(text) does:
    an accepted value in range prints as str(Fraction(text)), and anything
    else is one usage line and exit 2.  The flag joins its value with =, so
    that argv never reads the text as an option."""
    for flag, (name, valid) in SPECTRUM_RATIONALS.items():
        argv = ["spectrum", "--nparticles", "2", "--lambda", "1", "--format", "json", "--beta=1", f"{flag}={text}"]
        code, out, err = cli.main(argv), *capsys.readouterr()
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        if expected is None or not valid(expected):
            assert (code, out) == (2, "") and err.startswith(f"error: argument {flag}: ") and len(err.splitlines()) == 1
        else:
            assert (code, err) == (0, "") and json.loads(out)["params"][name] == str(expected)


@pytest.mark.parametrize("text", BETA_TEXTS + _beta_corpus(300))
def test_payload_coefficient_strings_read_as_fraction(text, capsys, monkeypatch):
    """A coefficient string of a convert payload reads as Fraction(text): an
    accepted one is that value, a rejected one a malformed payload (exit 1)."""
    from csjack.fieldring import FieldElement, field

    coeff = {"num": [text], "den": [1]}
    monkeypatch.setattr("sys.stdin", io.StringIO(_payload(monomial_expansion=[_entry("partition", [1], coeff)])))
    code, out, err = cli.main(["convert", "--to", "m"]), *capsys.readouterr()
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        assert (code, out) == (1, "") and err.startswith("error: malformed polynomial payload (")
        assert len(err.splitlines()) == 1
        return
    assert FieldElement.from_json(coeff) == field(expected)
    coords = [_entry("partition", [1], field(expected).to_json())] if expected else []
    assert (code, err) == (0, "") and json.loads(out)["coords"] == coords


@pytest.mark.parametrize("coeff", [{"num": ["1e99999999"], "den": [1]}, "1e99999999"], ids=["symbolic", "fixed-beta"])
def test_a_payload_exponent_too_long_is_refused_at_once(coeff):
    """10^k is never computed for a payload coefficient whose exponent has
    more than 6 digits; the timeout fails a reader that computes it."""
    payload = _payload(monomial_expansion=[_entry("partition", [1], coeff)])
    r = run_cli("convert", "--to", "p", stdin=payload, timeout=10)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == (
        "error: malformed polynomial payload (OverflowError: exponent of '1e99999999' has more than 6 digits)\n"
    )


def test_no_reader_hands_text_to_fraction(capsys, monkeypatch):
    """spectrum's flags and convert's coefficient strings are read in ints;
    Fraction is only built from the ints read."""
    new, calls = Fraction.__new__, []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    argv = ["spectrum", "--nparticles", "3", "--beta", "3/2", "--q=-1.5e0", "--length", "7.", "--lambda", "2,1"]
    assert cli.main(argv) == 0
    coeffs = [_entry("partition", [2], {"num": ["1.5e1", "-2/3"], "den": ["4"]}), _entry("partition", [1, 1])]
    monkeypatch.setattr("sys.stdin", io.StringIO(_payload(monomial_expansion=coeffs)))
    assert cli.main(["convert", "--to", "p"]) == 0
    capsys.readouterr()
    assert calls and not [args for args in calls if any(isinstance(a, str) for a in args)]
