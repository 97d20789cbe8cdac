"""Output drift guard: replay the small requests of the benchmark's digest
table in-process and compare the SHA-256 of each stdout.

perfbench/digests.json pins the stdout of every request the benchmark can
draw.  The requests with N <= 4 and |lambda| <= 4, plus the verify sweeps at
--max-nvars 3 --max-degree 4, cover every subcommand path the benchmark
uses and run in a couple of seconds.  The jack requests with N >= 5 and
|lambda| <= 4, plus the five fixed cases as both jack workloads ask for
them, cover the creation product relabelled over many subsets.  Every
full-length (--allow-shift) jack request replays, since its last creation
steps are z_1 ... z_N.  Every verify sweep of the table also replays, since
verify is the workload whose checks run in the coefficient field.  The
set-up request, the fixed cases and the small verify sweeps also replay
through `python -m csjack.cli`, so the bytes a child writes before it exits
are checked too.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

from cli_helper import child_env

from csjack import cli

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _small(argv) -> bool:
    if argv[0] == "verify":
        return _flag(argv, "--max-nvars") == "3" and _flag(argv, "--max-degree") == "4"
    lam = _flag(argv, "--lambda")
    weight = 0 if lam == "0" else sum(int(x) for x in lam.split(","))
    return int(_flag(argv, "--nvars")) <= 4 and weight <= 4


def _drifted(table, requests) -> list[str]:
    """The requests whose in-process stdout misses its digest or that fail."""
    drifted = []
    for key in requests:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(key.split())
        if code != 0 or hashlib.sha256(buffer.getvalue().encode()).hexdigest() != table[key]:
            drifted.append(key)
    return drifted


def test_small_requests_match_benchmark_digests():
    table = json.loads(DIGESTS.read_text())
    requests = [key for key in table if _small(key.split())]
    assert len(requests) == 421
    assert _drifted(table, requests) == []


def test_verify_requests_match_benchmark_digests():
    table = json.loads(DIGESTS.read_text())
    requests = [key for key in table if key.startswith("verify ")]
    assert len(requests) == 40
    assert _drifted(table, requests) == []


# the fixed cases of the benchmark: (lambda, N)
PINNED = (("3,1", 3), ("4,2,1", 4), ("6,4,2", 4), ("5,3,2,1", 5), ("3,2,1", 6))


def _wide(argv) -> bool:
    if argv[0] != "jack":
        return False
    lam = _flag(argv, "--lambda")
    weight = 0 if lam == "0" else sum(int(x) for x in lam.split(","))
    return int(_flag(argv, "--nvars")) >= 5 and weight <= 4


# the request the benchmark times as setup_s (perfbench/workloads.py SETUP_ARGV)
SETUP = "jack --lambda 1 --nvars 2"


def _pinned_requests() -> list[str]:
    """The fixed cases as jack-sym and jack-beta request them."""
    pinned = []
    for lam, nvars in PINNED:
        head = f"jack --lambda {lam} --nvars {nvars} --normalization monic --format"
        pinned += [f"{head} json", f"{head} text --beta 1"]
    return pinned


def test_wide_and_pinned_requests_match_benchmark_digests():
    table = json.loads(DIGESTS.read_text())
    pinned = _pinned_requests()
    requests = [key for key in table if _wide(key.split())]
    assert len(requests) == 432
    assert set(pinned) <= table.keys()
    assert _drifted(table, requests + pinned) == []


def test_full_length_requests_match_benchmark_digests():
    table = json.loads(DIGESTS.read_text())
    requests = [key for key in table if key.endswith(" --allow-shift")]
    assert len(requests) == 2448
    assert _drifted(table, requests) == []


def test_child_requests_match_benchmark_digests():
    """A request run as `python -m csjack.cli` writes the digest's bytes to
    stdout, nothing to stderr, and exits 0."""
    # block-buffered stdout, as on a user's pipe, so that output still
    # buffered at exit must be flushed to count
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    table = json.loads(DIGESTS.read_text())
    small_verify = [key for key in table if key.startswith("verify ") and _small(key.split())]
    requests = [SETUP] + _pinned_requests() + small_verify
    assert len(requests) == 17
    drifted = []
    for key in requests:
        r = subprocess.run(
            [sys.executable, "-m", "csjack.cli", *key.split()], capture_output=True, env=env
        )
        if (r.returncode, r.stderr, hashlib.sha256(r.stdout).hexdigest()) != (0, b"", table[key]):
            drifted.append(key)
    assert drifted == []
