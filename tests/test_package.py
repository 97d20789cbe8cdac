"""The package surface loads each layer on first use: every exported name
resolves, a `jack` request imports only the creation-product layers, a
verify request only the layers its suite runs, and only requests that read
or write JSON import json."""

import ast
import importlib
import json
from pathlib import Path

import pytest
from cli_helper import run_child, run_cli

import csjack
from csjack.partitions import Partition
from csjack.polyring import VarContext
from csjack.rodrigues import jack
from csjack.symbases import expand_in_basis

LAYERS = {"errors", "fieldring", "polyring", "partitions", "operators", "rodrigues"}


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


VERIFY_LAYERS = {
    "commutators": {"errors", "fieldring", "polyring", "partitions", "operators"},
    "annihilation": LAYERS,
    "rodrigues-vs-oracle": LAYERS | {"oracle", "symbases"},
    "orthogonality": LAYERS | {"symbases"},
    "spectrum-consistency": {"errors", "fieldring", "polyring", "partitions", "spectrum"},
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


@pytest.mark.parametrize("suite", ["rodrigues-vs-oracle", "orthogonality", "spectrum-consistency", "all"])
def test_field_verify_request_loads_no_dataclasses(suite):
    loaded = _loaded_after(
        "from csjack import cli\n"
        f"assert cli.main(['verify', '--suite', '{suite}', '--max-degree', '3']) == 0"
    )
    assert "dataclasses" not in loaded


def test_only_the_record_base_hand_writes_value_class_methods():
    """A second hand-written value class (its own __setattr__, __delattr__ or
    __reduce__) would duplicate polyring.Record."""
    src = Path(csjack.__file__).parent
    owners = {
        (path.stem, node.name, item.name)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__", "__reduce__")
    }
    assert owners == {("polyring", "Record", name) for name in ("__setattr__", "__delattr__", "__reduce__")}


def test_every_module_level_definition_is_used_or_exported():
    """A function or class that no module of src/ names (as a name, an
    attribute or an import) and that csjack does not export is dead code,
    or code only the tests need.  Methods are out of scope."""
    src = Path(csjack.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    # dunder hooks (the PEP 562 __getattr__ and __dir__) are Python's to call
    unused = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__")
    } - named - set(csjack.__all__)
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


def test_json_requests_still_write_json():
    r = run_cli("jack", "--lambda", "2,1", "--nvars", "3")
    result = jack(Partition((2, 1)), VarContext(3))
    assert r.returncode == 0
    assert r.stdout == json.dumps({**result.to_json(), "beta": "sym"}, indent=2) + "\n"
    back = run_cli("convert", "--to", "p", stdin=r.stdout)
    assert back.returncode == 0
    expansion = expand_in_basis(result.monic, "p").to_json()
    assert back.stdout == json.dumps({**expansion, "nvars": 3}, indent=2) + "\n"
