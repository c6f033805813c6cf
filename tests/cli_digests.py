"""Print a digest of each CLI command's outputs, to compare two source trees.

Usage::

    PYTHONPATH=src python tests/cli_digests.py ['<command line>' ...]

Runs every command of ``helpers.CLI_COMMANDS``, then each extra command line
given as an argument (shell-quoted, without ``--out``), once each in a fresh
interpreter.  Prints one line per command: its name, exit code, and the
sha256 of its data file and of its stderr.  Run it against two trees and
``diff`` the outputs: an empty diff means byte-identical data files, exit
codes and error text.  Manifests are left out, since their timestamp varies.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from helpers import CLI_COMMANDS


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list[str]) -> str:
    """'<exit code> <data sha256 or -> <stderr sha256>' for one command."""
    env = dict(os.environ)
    # the command runs in a scratch directory, so make the import path absolute
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "ergodecay.cli", *argv, "--out", "out.dat"],
            cwd=tmp, env=env, capture_output=True,
        )
        out = Path(tmp, "out.dat")
        data = _sha256(out.read_bytes()) if out.exists() else "-"
    return f"{proc.returncode} {data} {_sha256(proc.stderr)}"


def main(extra: list[str]) -> None:
    commands = dict(CLI_COMMANDS)
    commands.update((text, shlex.split(text)) for text in extra)
    for name, argv in commands.items():
        print(f"{name}: {digest(argv)}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
