"""Regenerate digests.json: the stdout SHA-256 of every request the
workloads can draw.

Usage: python3 perfbench/make_digests.py

Runs each request in this one process through csjack.cli.main, which
writes the same bytes a fresh `python3 -m csjack.cli` would.  Run it only
when the request space changes; a change to the program must leave every
digest as it is.  `selftest.py --full` checks each jack digest against the
oracle routes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import workloads
from run import DIGESTS, SRC, request_key

sys.path.insert(0, str(SRC))

from csjack import cli  # noqa: E402


def cli_stdout(argv) -> bytes:
    """stdout of one request run in this process through csjack.cli.main."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"{request_key(argv)} exited with {code}")
    return buffer.getvalue().encode()


def main() -> int:
    table = {
        request_key(argv): hashlib.sha256(cli_stdout(argv)).hexdigest()
        for argv in workloads.request_space()
    }
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
