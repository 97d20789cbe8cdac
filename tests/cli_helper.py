"""Run the command line tool in a child interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import csjack

# the directory holding the imported package, first on the child's path, so
# children import the same csjack whether or not it is installed
_SRC = str(Path(csjack.__file__).resolve().parent.parent)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return env


def run_child(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, input=stdin, env=child_env()
    )


def run_cli(*args, stdin=None):
    return run_child("-m", "csjack.cli", *args, stdin=stdin)
