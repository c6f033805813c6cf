"""Print a digest of each CLI command's outputs, to compare two source trees.

Usage::

    PYTHONPATH=src python tests/cli_digests.py ['<command line>' ...]

Runs every command of ``helpers.CLI_COMMANDS``, then the CLI commands of the
benchmark workloads (``BENCH_COMMANDS``), then the stalled scans of
``STALL_COMMANDS``, then each extra command line given
as an argument (shell-quoted, without ``--out``), once each in a fresh
interpreter.  Prints one line per command: its name, exit code, and the
sha256 of its data file and of its stderr.  Then, in this interpreter, the
library steps that reach ``czmax.sigma_n`` (``sigma_digests``): one line each
with the sha256 of its JSON result.  Run it against two trees and
``diff`` the outputs: an empty diff means byte-identical data files, exit
codes, error text and library results.  Manifests are left out, since their
timestamp varies.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from ergodecay import MeasureFamily, SelectionStalled, select_subsequence, verify_selection
from ergodecay.czmax import sigma_n
from helpers import CLI_COMMANDS

# The CLI steps of bench/workloads.py at workload seed 0, copied: the
# select-scan stall (exit 3; its stderr digest covers the stall report), the
# triviality commands of certify-refine and the seven audit-mix commands.
BENCH_COMMANDS = {
    "bench-select-scan": [
        "select", "--family", "perturbed:power:0.25", "--k", "3", "--cap", "8000",
    ],
    **{
        f"bench-triviality-{fam}": ["triviality", "--family", fam, "--n", "180", "--tol", "1e-4"]
        for fam in ("squares", "rotated:quadratic", "perturbed:power:1/4")
    },
    "bench-weyl-audit": ["weyl-audit", "--grid", "1024", "--n", "64,256,1024,4096"],
    "bench-threshold-audit": [
        "threshold-audit", "--rho", "power:1/4", "--n-list", "1024,4096,16384,32768",
        "--grid", "1048576",
    ],
    "bench-residues": [
        "residues", "--rho", "log:1", "--q", "105", "--n-list", "250000,500000,1000000",
    ],
    "bench-cz-check": ["cz-check", "--count", "128", "--lambdas", "5", "--seed", "0"],
    "bench-maximal": [
        "maximal", "--family", "squares", "--indices", "16,64,256,1024",
        "--phi-span", "4096", "--phi-atoms", "256", "--seed", "0",
    ],
    "bench-dynsys-rotation": [
        "dynsys-trace", "--system", "rotation:golden", "--f", "trig:1",
        "--family", "perturbed:power:1/4",
        "--indices", ",".join(str(1 << i) for i in range(4, 17)), "--seed", "0",
    ],
    "bench-dynsys-cyclic": [
        "dynsys-trace", "--system", "cyclic:105", "--f", "table:3", "--family", "squares",
        "--indices", ",".join(str(16 * i) for i in range(1, 129)), "--seed", "0",
    ],
}

# Selection scans that stall at stage 2 (exit 3) on families other than the
# benchmark's: the rotated families keep no residue counts, so every candidate
# reaches a grid; squares rejects every candidate from its counts.
STALL_COMMANDS = {
    f"stall-{fam}": ["select", "--family", fam, "--k", "3", "--cap", "2000"]
    for fam in ("rotated:quadratic", "rotated:linear", "squares")
}


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


def sigma_digests() -> dict:
    """sha256 of the JSON results of the library steps of the benchmark's
    certify-refine workload, on the family n -> sigma_n(0, n): the k = 2
    selection state, its ``verify_selection`` rows and the k = 3 stall
    report at grid cap 2^22.  No CLI command reaches sigma_n."""
    family = MeasureFamily(
        "uniform-dyadic", lambda n: sigma_n(0, n, size_cap=1 << 22), lambda n: 1 << n
    )
    state = select_subsequence(family, 2, search_cap=22)
    try:
        select_subsequence(family, 3, search_cap=22, grid_cap=1 << 22)
        stall = None
    except SelectionStalled as exc:
        stall = exc.report
    results = {
        "sigma-select-k2": state.to_dict(),
        "sigma-verify-k2": verify_selection(family, state),
        "sigma-select-k3": stall,
    }
    return {name: _sha256(json.dumps(v, sort_keys=True).encode()) for name, v in results.items()}


def main(extra: list[str]) -> None:
    commands = {**CLI_COMMANDS, **BENCH_COMMANDS, **STALL_COMMANDS}
    commands.update((text, shlex.split(text)) for text in extra)
    for name, argv in commands.items():
        print(f"{name}: {digest(argv)}", flush=True)
    for name, sha in sigma_digests().items():
        print(f"{name}: {sha}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
