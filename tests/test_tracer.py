"""Smoke test of the benchmark's tracer: a traced request prints what the
plain command prints.  A jack trace holds exactly the spans of `cli.main`
and of rodrigues, so an operator call or a per-pair division coming back
onto the jack path shows up here.  A verify trace holds the creation
product and the Dunkl operators its suites run, so a change to an
operator's signature that the tracer's wrappers cannot forward shows up
too."""

import json
from pathlib import Path

import pytest
from cli_helper import run_child, run_cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
JACK_SPANS = {"cli.main", "rodrigues.jack", "rodrigues.raw", "rodrigues.c_coefficient"}
VERIFY_LAYERS = {"rodrigues.raw", "operators.dunkl"}


@pytest.mark.parametrize(
    "argv",
    [
        ("jack", "--lambda", "3,2,1", "--nvars", "4", "--normalization", "stanley"),
        ("verify", "--max-nvars", "3", "--max-degree", "4"),
    ],
    ids=["jack", "verify"],
)
def test_traced_request_matches_plain_cli(argv, tmp_path):
    trace_file = tmp_path / "trace.json"
    traced = run_child(str(TRACER), str(trace_file), "smoke", *argv)
    plain = run_cli(*argv)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    trace = json.loads(trace_file.read_text())
    assert trace["request"] == "smoke"
    spans = {span[0] for span in trace["spans"]}
    if argv[0] == "jack":
        assert spans == JACK_SPANS
    else:
        assert VERIFY_LAYERS <= spans
