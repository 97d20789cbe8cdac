"""The package surface loads each layer on first use: every exported name
resolves, a `jack` request imports only the creation-product layers, a
verify request only the layers its suite runs, no module imports the
command line module back, only `convert`, which reads JSON, imports json,
no `jack` request imports fractions (the field's arithmetic runs in Z[b]),
only the functions named in FRACTION_IMPORTERS import it, only those in
TOO_MANY_PARTS_RAISERS raise TooManyParts, only a --help request imports
argparse, and every cached value is read-only."""

import ast
import importlib
import inspect
import json
from pathlib import Path
from types import MappingProxyType

import pytest
from cli_helper import run_child, run_cli
from criteria_helpers import PINNED, case_id

import csjack
from csjack import cli
from csjack.fieldring import FieldElement
from csjack.partitions import Partition, Record
from csjack.polyring import VarContext
from csjack.rodrigues import jack
from csjack.symbases import expand_in_basis

LAYERS = {"errors", "fieldring", "polyring", "partitions", "rodrigues"}
# argparse, and the modules its import and its first message load
PARSER_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("name", csjack.__all__)
def test_every_exported_name_resolves(name):
    namespace = {}
    exec(f"from csjack import {name}", namespace)
    assert namespace[name] is getattr(csjack, name)
    assert name in dir(csjack)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        csjack.frobnicate
    with pytest.raises(ImportError):
        exec("from csjack import frobnicate", {})


def test_submodules_still_import_by_name():
    namespace = {}
    exec("from csjack import cli, suites", namespace)
    assert namespace["cli"] is importlib.import_module("csjack.cli")
    assert namespace["suites"] is importlib.import_module("csjack.suites")


def _loaded_after(code: str) -> set[str]:
    """Modules loaded in a fresh interpreter after running code."""
    r = run_child("-c", f"import sys\n{code}\nprint(*sorted(sys.modules), file=sys.stderr)")
    assert r.returncode == 0, r.stderr
    return set(r.stderr.splitlines()[-1].split())


def test_import_loads_no_layer():
    loaded = _loaded_after("import csjack")
    assert "csjack" in loaded
    assert not {m for m in loaded if m.startswith("csjack.")}


def test_jack_request_imports_only_the_creation_product():
    loaded = _loaded_after(
        "from csjack import cli\n"
        "assert cli.main(['jack', '--lambda', '3,2,1', '--nvars', '4']) == 0"
    )
    assert {m for m in loaded if m.startswith("csjack.")} == {"csjack.cli"} | {
        f"csjack.{layer}" for layer in LAYERS
    }
    assert "dataclasses" not in loaded
    assert not PARSER_MODULES & loaded


VERIFY_LAYERS = {
    "commutators": {"errors", "fieldring", "polyring", "partitions", "operators", "commutators"},
    "annihilation": LAYERS,
    "rodrigues-vs-oracle": LAYERS | {"oracle", "symbases"},
    "orthogonality": LAYERS | {"symbases"},
    "spectrum-consistency": {"errors", "partitions", "spectrum"},
}


@pytest.mark.parametrize("suite", sorted(VERIFY_LAYERS))
def test_verify_request_loads_only_its_suites_layers(suite):
    loaded = _loaded_after(
        "from csjack import cli\n"
        f"assert cli.main(['verify', '--suite', '{suite}', '--max-degree', '3']) == 0"
    )
    assert {m for m in loaded if m.startswith("csjack.")} == {"csjack.cli", "csjack.suites"} | {
        f"csjack.{layer}" for layer in VERIFY_LAYERS[suite]
    }
    assert "dataclasses" not in loaded
    assert not PARSER_MODULES & loaded


def test_every_suite_takes_the_sweep_bounds():
    """A suite is its own function of (max_degree, max_nvars), so none can
    drop the bounds the command line passes through a wrapper."""
    from csjack import suites

    signatures = {name: list(inspect.signature(fn).parameters) for name, fn in suites.SUITES.items()}
    assert all(params == ["max_degree", "max_nvars"] for params in signatures.values()), signatures


def test_spectrum_request_loads_no_polynomials():
    loaded = _loaded_after(
        "from csjack import cli\n"
        "assert cli.main(['spectrum', '--nparticles', '3', '--beta', '2', '--lambda', '2,1']) == 0"
    )
    assert "csjack.spectrum" in loaded
    assert not {"csjack.fieldring", "csjack.polyring"} & loaded


@pytest.mark.parametrize(
    "argv, help_page",
    [
        (["spectrum", "--nparticles", "3", "--beta", "2", "--lambda", "2,1"], False),
        (["spectrum", "--nparticles", "2", "--beta", "1/2", "--all-degree", "2", "--format", "json"], False),
        (["convert", "--to", "m", "--input", "{input}"], False),
        (["convert", "--to", "p", "--input", "{input}", "--nvars", "2"], False),
        (["-h"], True),
        (["jack", "--help"], True),
    ],
    ids=["spectrum-text", "spectrum-json", "convert-m", "convert-p", "help", "jack-help"],
)
def test_only_a_help_page_loads_the_parser(argv, help_page, tmp_path):
    """argparse lays out --help; no other request imports it."""
    payload = tmp_path / "z1z2.json"
    payload.write_text(json.dumps({"nvars": 2, "terms": [{"exp": [1, 1], "coeff": {"num": ["1"], "den": ["1"]}}]}))
    argv = [token.format(input=payload) for token in argv]
    loaded = _loaded_after(f"from csjack import cli\nassert cli.main({argv!r}) == 0")
    assert (PARSER_MODULES <= loaded) if help_page else not (PARSER_MODULES & loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--nparticles", "3", "--beta", "2", "--lambda", "2,1"],
        ["spectrum", "--nparticles", "2", "--beta", "1", "--all-degree", "2", "--format", "json"],
        ["convert", "--to", "p"],
    ],
    ids=["spectrum-text", "spectrum-json", "convert"],
)
def test_requests_run_as_a_module_do_not_import_cli_again(argv):
    """Under `python -m csjack.cli` the cli module runs as __main__; a module that
    imported csjack.cli would compile it a second time."""
    one = {"num": ["1"], "den": ["1"]}
    stdin = json.dumps({"nvars": 2, "terms": [{"exp": [1, 0], "coeff": one}, {"exp": [0, 1], "coeff": one}]})
    r = run_child("-X", "importtime", "-m", "csjack.cli", *argv, stdin=stdin)
    assert r.returncode == 0, r.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in r.stderr.splitlines() if line.startswith("import time:")}
    assert f"csjack.{argv[0]}" in imported
    assert "csjack.cli" not in imported


def _imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of the csjack modules that an import statement of tree
    names, relative imports resolved against the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "csjack" + (f".{node.module}" if node.module else "") if node.level else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_cli():
    assert all("csjack.cli" not in _imported_modules(tree) for tree in _src_trees())


@pytest.mark.parametrize("module", ["oracle", "symbases"])
def test_independent_routes_import_nothing_of_the_creation_product(module):
    """oracle and symbases check rodrigues, so neither may import it: a
    fault of the product it shared would pass on both sides."""
    tree = ast.parse((Path(csjack.__file__).parent / f"{module}.py").read_text())
    assert not [name for name in _imported_modules(tree) if name.startswith("csjack.rodrigues")]


@pytest.mark.parametrize("suite", ["rodrigues-vs-oracle", "orthogonality", "spectrum-consistency", "all"])
def test_field_verify_request_loads_no_dataclasses(suite):
    loaded = _loaded_after(
        "from csjack import cli\n"
        f"assert cli.main(['verify', '--suite', '{suite}', '--max-degree', '3']) == 0"
    )
    assert "dataclasses" not in loaded


def test_only_the_record_base_hand_writes_value_class_methods():
    """A second hand-written value class (its own __setattr__, __delattr__ or
    __reduce__) would duplicate partitions.Record."""
    src = Path(csjack.__file__).parent
    owners = {
        (path.stem, node.name, item.name)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__", "__reduce__")
    }
    assert owners == {("partitions", "Record", name) for name in ("__setattr__", "__delattr__", "__reduce__")}


def _src_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(Path(csjack.__file__).parent.glob("*.py"))]


def _named(trees) -> set[str]:
    """Every name, attribute and import that a module of src/ mentions."""
    return {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_module_level_definition_is_used_or_exported():
    """A function or class that no module of src/ names (as a name, an
    attribute or an import) and that csjack does not export is dead code,
    or code only the tests need."""
    trees = _src_trees()
    # dunder hooks (the PEP 562 __getattr__ and __dir__) are Python's to call
    unused = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
    } - _named(trees) - set(csjack.__all__)
    assert not unused, sorted(unused)


def test_every_top_level_import_is_used():
    """A name that a module of src/ imports at top level and never mentions
    is a left-over import, which costs load time on every request that loads
    the module."""
    unused = []
    for path in sorted(Path(csjack.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        mentioned = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}: {alias.asname or alias.name.split('.')[0]}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in mentioned
        ]
    assert not unused, unused


def test_no_function_has_a_private_parameter():
    """A `_`-prefixed parameter is a knob for one caller that the public
    signature hides; the caller should run its own code instead."""
    # ast.arg nodes are exactly the parameters of functions and lambdas
    private = [
        node.arg
        for tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.arg) and node.arg.startswith("_")
    ]
    assert not private, sorted(private)


# sample arguments of every function of src/ under functools.cache
CACHED = {
    ("rodrigues", "_phi"): (VarContext(4), (2, 1)),
    ("symbases", "_power_sum_columns"): (3,),
    ("symbases", "_integral_power_sums"): (3,),
    ("symbases", "_circle_weight"): (2, 1),
    ("oracle", "triangular_system"): (3, VarContext(3)),
}


def _read_only(value) -> bool:
    """Whether neither value nor anything it holds takes a write: read-only
    mappings, tuples and records of such values, ints and field elements."""
    if isinstance(value, MappingProxyType):
        return all(map(_read_only, value.values()))
    if isinstance(value, Record):
        value = value._values()
    if isinstance(value, tuple):
        return all(map(_read_only, value))
    return isinstance(value, (int, FieldElement))


def test_every_cached_value_is_read_only():
    """functools.cache hands one value to every caller, so that value must
    refuse the writes of any one of them, as a read-only mapping does."""
    cached = {
        (path.stem, node.name)
        for path in sorted(Path(csjack.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(ast.unparse(d) == "functools.cache" for d in node.decorator_list)
    }
    assert cached == set(CACHED)
    for (module, name), args in CACHED.items():
        value = getattr(importlib.import_module(f"csjack.{module}"), name)(*args)
        assert _read_only(value), (module, name)


def test_every_method_is_used():
    """A method of a src/ class whose name no module of src/ mentions is dead
    code, or code only the tests need; dunder methods are Python's to call."""
    trees = _src_trees()
    named = _named(trees)
    unused = {
        f"{node.name}.{item.name}"
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__") and item.name not in named
    }
    assert not unused, sorted(unused)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "commutators", "--max-degree", "3"],
        ["jack", "--lambda", "3,2,1", "--nvars", "4", "--format", "text"],
    ],
    ids=["verify", "jack-text"],
)
def test_requests_without_json_output_load_no_json(argv):
    loaded = _loaded_after(f"from csjack import cli\nassert cli.main({argv!r}) == 0")
    assert "json" not in loaded


def _jack(lam, nvars, *flags) -> list[str]:
    return ["jack", "--lambda", ",".join(map(str, lam)), "--nvars", str(nvars), *flags]


# every kind of jack request, each with its exit code: the benchmark's set-up
# request and its pinned cases, symbolic in JSON and at beta = 1 in text;
# raw, stanley, and monic where lc(c_lam) != 1 (2 for (2,1)/3, 4 for (4,2)/3);
# each normalization at the benchmark's couplings and at couplings <= 0
# (stanley at 0 is a pole); a full-length lambda
JACK_REQUESTS = {
    "setup": (["jack", "--lambda", "1", "--nvars", "2"], 0),
    **{f"pinned-{case_id(case)}": (_jack(*case, "--normalization", "monic", "--format", "json"), 0) for case in PINNED},
    **{
        f"pinned-beta-{case_id(case)}": (_jack(*case, "--normalization", "monic", "--format", "text", "--beta", "1"), 0)
        for case in PINNED
    },
    "raw": (_jack((3, 2, 1), 4, "--normalization", "raw"), 0),
    "stanley": (_jack((3, 1), 3, "--normalization", "stanley", "--format", "text"), 0),
    "monic": (_jack((2, 1), 3), 0),
    "monic-text": (_jack((4, 2), 3, "--format", "text"), 0),
    "jack-beta-json": (_jack((2, 1), 3, "--beta", "1/2"), 0),
    "jack-beta-text": (_jack((3, 1), 3, "--beta", "-2", "--format", "text"), 0),
    **{
        f"{normalization}-beta={beta}": (
            _jack((3, 1), 3, "--normalization", normalization, "--beta", beta),
            int((normalization, beta) == ("stanley", "0")),
        )
        for normalization in ("monic", "stanley", "raw")
        for beta in ("1/2", "1", "3/2", "2", "0", "-1/2", "-2")
    },
    "allow-shift": (_jack((3, 2, 1), 3, "--allow-shift", "--beta", "3/2", "--format", "text"), 0),
}
FRACTION_MODULES = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("argv, code", JACK_REQUESTS.values(), ids=JACK_REQUESTS.keys())
def test_integral_jack_requests_load_no_fractions_or_json(argv, code):
    loaded = _loaded_after(f"from csjack import cli\nassert cli.main({argv!r}) == {code}")
    assert not (FRACTION_MODULES | {"json"}) & loaded


# the only places of src/ that import fractions, (module, function) with
# None for the module level: the readers of rational input, as_fraction, the
# spectrum and the verify code that computes in Fractions
FRACTION_IMPORTERS = {
    ("cli", "_fraction"),
    ("fieldring", "_coeff"),
    ("fieldring", "FieldElement.as_fraction"),
    ("fieldring", "_as_field"),
    ("spectrum", None),
    ("suites", "suite_spectrum_consistency"),
    ("symbases", None),
}


def _owners(is_hit, node, module: str, owner=None):
    """(module, function) of every node under node that is_hit accepts;
    code under `if TYPE_CHECKING:` never runs and is skipped."""
    if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        return
    if is_hit(node):
        yield module, owner
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _owners(is_hit, child, module, child.name if owner is None else f"{owner}.{child.name}")
        else:
            yield from _owners(is_hit, child, module, owner)


def _found_in_src(is_hit) -> set:
    return {
        hit
        for path in sorted(Path(csjack.__file__).parent.glob("*.py"))
        for hit in _owners(is_hit, ast.parse(path.read_text()), path.stem)
    }


def _imports_fractions(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "fractions"
    return isinstance(node, ast.Import) and "fractions" in [alias.name for alias in node.names]


def test_only_the_named_functions_import_fractions():
    """A module-level import of fractions, or one in a function that a jack
    request runs, would load it (with decimal and numbers) on requests that
    never build a Fraction."""
    assert _found_in_src(_imports_fractions) == FRACTION_IMPORTERS


# the only places of src/ that raise TooManyParts: Partition.pad, the one
# check of l(lambda) <= N, and three other facts: jack's l(lambda) = N
# refusal, N >= 1, and the descriptor's l(lambda) <= N - 1
TOO_MANY_PARTS_RAISERS = {
    ("partitions", "Partition.pad"),
    ("cli", "cmd_jack"),
    ("spectrum", "ModelParams.__init__"),
    ("spectrum", "wavefunction_descriptor"),
}


def _raises_too_many_parts(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc).rsplit(".", 1)[-1] == "TooManyParts"


def test_only_pad_checks_that_a_partition_fits():
    """A hand-written l(lambda) <= N check elsewhere would be a second answer
    to the question pad answers, free to drift from its message."""
    assert _found_in_src(_raises_too_many_parts) == TOO_MANY_PARTS_RAISERS


@pytest.mark.parametrize("suite", ["commutators", "annihilation"])
def test_packed_verify_requests_load_no_fractions(suite):
    loaded = _loaded_after(
        "from csjack import cli\n"
        f"assert cli.main(['verify', '--suite', '{suite}', '--max-degree', '3']) == 0"
    )
    assert not FRACTION_MODULES & loaded


# requests that build a Fraction: every spectrum flag that reads a rational
FRACTION_REQUESTS = {
    "spectrum-text": ["spectrum", "--lambda", "2,1", "--nparticles", "3", "--beta", "2/3", "--q", "1/2"],
    "spectrum-json": ["spectrum", "--all-degree", "2", "--nparticles", "2", "--beta", "3", "--length", "5/2", "--format", "json"],
}


@pytest.mark.parametrize("argv", FRACTION_REQUESTS.values(), ids=FRACTION_REQUESTS.keys())
def test_requests_that_build_fractions_still_run(argv, capsys):
    """fractions loads where these requests first build a Fraction; a child
    interpreter, which has not loaded it before, prints what main prints here."""
    r = run_cli(*argv)
    assert r.returncode == 0, r.stderr
    assert cli.main(argv) == 0
    assert r.stdout == capsys.readouterr().out
    loaded = _loaded_after(f"from csjack import cli\nassert cli.main({argv!r}) == 0")
    assert "json" not in loaded


def test_json_requests_still_write_json():
    r = run_cli("jack", "--lambda", "2,1", "--nvars", "3")
    result = jack(Partition((2, 1)), VarContext(3))
    assert r.returncode == 0
    assert r.stdout == json.dumps({**result.to_json(), "beta": "sym"}, indent=2) + "\n"
    back = run_cli("convert", "--to", "p", stdin=r.stdout)
    assert back.returncode == 0
    expansion = expand_in_basis(result.monic, "p").to_json()
    assert back.stdout == json.dumps({**expansion, "nvars": 3}, indent=2) + "\n"
