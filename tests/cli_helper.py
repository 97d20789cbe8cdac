"""Run the command line tool in a child interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import csjack

# the directory holding the imported package, first on the child's path, so
# children import the same csjack whether or not it is installed
_SRC = str(Path(csjack.__file__).resolve().parent.parent)


def run_cli(*args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "csjack.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )
