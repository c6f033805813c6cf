"""Workload definitions: the fixed steps each benchmark pass runs.

A step is one CLI command (run in-process through ``ergodecay.cli.main``) or
one library call.  Running a step yields an ``Output``: the exit code, the
data files the command wrote, the stall report it printed, or the value a
library call returned.  Manifests are not collected, because their timestamp
is the one field allowed to differ between identical runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# The workload seed feeds only the commands that take a --seed.  The other
# inputs are fixed by the workload's definition.
DEFAULT_SEED = 0
HELDOUT_SEED = 7

SELECT_CAP = 8000
WEYL_GRID = 1024
WEYL_NS = (64, 256, 1024, 4096)
# cz-check draws each case's atom count from the seed, and a case's cost
# jumps with the dyadic scale its smallest lambda needs.  Many cases with few
# lambdas keep a pass's cost nearly the same on every seed; 8 cases with 10
# lambdas made it vary by a factor of two between seeds.
CZ_COUNT = 128
CZ_LAMBDAS = 5
ROTATION_INDICES = tuple(1 << i for i in range(4, 17))
CYCLIC_INDICES = tuple(16 * i for i in range(1, 129))
MAXIMAL_INDICES = (16, 64, 256, 1024)
MAXIMAL_SPAN = 4096
MAXIMAL_ATOMS = 256
X_SAMPLES = 16  # the dynsys-trace default
TRIVIALITY_FAMILIES = ("squares", "rotated:quadratic", "perturbed:power:1/4")

WORKLOADS = ("select-scan", "certify-refine", "audit-mix")


# Traced-run self-test: per-layer counts that follow from each workload's
# definition.  select-scan stalls at stage 2 (no admissible index below the
# cap), so every index 2..cap is a candidate that gets one certification.
# certify-refine bounds the grids only; its triviality brackets come from the
# first stage of both selections plus one per triviality command, and only
# the perturbed triviality command needs exact floors.  audit-mix runs no
# selection and no refinement.
EXPECTED_COUNTS = {
    "select-scan": {
        "selection.candidates": SELECT_CAP - 1,
        "measures.certify_sup_below.calls": SELECT_CAP - 1,
        "families.measure.calls": SELECT_CAP,
        "measures.triviality_sup.calls": 1,
    },
    "certify-refine": {
        "measures.triviality_sup.calls": 2 + len(TRIVIALITY_FAMILIES),
        "families.floor_at_int.calls": 1,
    },
    "audit-mix": {
        "weyl.weyl_bound_audit.calls": len(WEYL_NS) * WEYL_GRID,
        "weyl.dirichlet_approx.calls": len(WEYL_NS) * WEYL_GRID,
        "weyl.weyl_sum.calls": len(WEYL_NS) * WEYL_GRID,
        "czmax.cz_decompose.calls": CZ_COUNT * CZ_LAMBDAS,
        "czmax.cz_report.calls": CZ_COUNT * CZ_LAMBDAS,
        # maximal_function runs once directly and once inside weak11_ratio
        "measures.convolve.calls": 2 * len(MAXIMAL_INDICES),
        "dynsys.weighted_average.calls": X_SAMPLES * (len(ROTATION_INDICES) + len(CYCLIC_INDICES)),
        "families.measure.calls": len(MAXIMAL_INDICES) + len(ROTATION_INDICES) + len(CYCLIC_INDICES),
        "selection.candidates": 0,
        "measures.certify_sup_below.calls": 0,
        "measures.triviality_sup.calls": 0,
    },
}


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass
class Step:
    label: str
    argv: list | None = None  # CLI command without --out
    suffix: str = ".csv"  # data file type of a CLI command
    call: object = None  # library call: fn(ergodecay modules, pass context) -> jsonable
    seeded: bool = False  # inputs depend on the workload seed


@dataclass
class Output:
    rc: object  # exit code, or "exception" when the step raised
    files: dict = field(default_factory=dict)  # name -> bytes
    report: dict | None = None  # stall report printed by `select`
    value: object = None  # library call result (jsonable)
    error: str = ""

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.rc).encode())
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.files[name])
        h.update(json.dumps(self.report, sort_keys=True).encode())
        h.update(json.dumps(self.value, sort_keys=True).encode())
        return h.hexdigest()

    @property
    def data_bytes(self) -> int:
        return sum(len(b) for b in self.files.values())


def _uniform_dyadic_family(mods):
    # sigma_n is looked up on the module at call time, so a traced run sees
    # the wrapped binding.
    czmax = mods.czmax
    return mods.families.MeasureFamily(
        "uniform-dyadic",
        lambda n: czmax.sigma_n(0, n, size_cap=1 << 22),
        lambda n: 1 << n,
    )


def _select(count: int, search_cap: int, grid_cap: int | None = None):
    def call(mods, ctx):
        family = _uniform_dyadic_family(mods)
        kwargs = {} if grid_cap is None else {"grid_cap": grid_cap}
        try:
            state = mods.selection.select_subsequence(
                family, count, search_cap=search_cap, **kwargs
            )
        except mods.errors.SelectionStalled as exc:
            return {"stalled": exc.report}
        ctx["state", count] = state
        return {"state": state.to_dict()}

    return call


def _verify(mods, ctx):
    state = ctx["state", 2]
    return {"rows": mods.selection.verify_selection(_uniform_dyadic_family(mods), state)}


def steps_for(workload: str, seed: int) -> list[Step]:
    """The steps of one pass of ``workload`` with workload seed ``seed``."""
    if workload == "select-scan":
        return [
            Step(
                "select",
                ["select", "--family", "perturbed:power:0.25", "--k", "3",
                 "--cap", str(SELECT_CAP)],
                suffix=".json",
            )
        ]
    if workload == "certify-refine":
        steps = [
            Step("select-k2", call=_select(2, 22)),
            Step("verify-k2", call=_verify),
            Step("select-k3", call=_select(3, 22, grid_cap=1 << 22)),
        ]
        for fam in TRIVIALITY_FAMILIES:
            steps.append(
                Step(
                    f"triviality-{fam.split(':')[0]}",
                    ["triviality", "--family", fam, "--n", "180", "--tol", "1e-4"],
                    suffix=".json",
                )
            )
        return steps
    if workload == "audit-mix":
        s = str(seed)
        return [
            Step("weyl-audit",
                 ["weyl-audit", "--grid", str(WEYL_GRID), "--n", _ints(WEYL_NS)]),
            Step("threshold-audit",
                 ["threshold-audit", "--rho", "power:1/4",
                  "--n-list", "1024,4096,16384,32768", "--grid", "1048576"]),
            Step("residues",
                 ["residues", "--rho", "log:1", "--q", "105",
                  "--n-list", "250000,500000,1000000"]),
            Step("cz-check",
                 ["cz-check", "--count", str(CZ_COUNT), "--lambdas", str(CZ_LAMBDAS),
                  "--seed", s], suffix=".json", seeded=True),
            Step("maximal",
                 ["maximal", "--family", "squares", "--indices", _ints(MAXIMAL_INDICES),
                  "--phi-span", str(MAXIMAL_SPAN), "--phi-atoms", str(MAXIMAL_ATOMS),
                  "--seed", s], seeded=True),
            Step("dynsys-rotation",
                 ["dynsys-trace", "--system", "rotation:golden", "--f", "trig:1",
                  "--family", "perturbed:power:1/4", "--indices", _ints(ROTATION_INDICES),
                  "--seed", s], seeded=True),
            Step("dynsys-cyclic",
                 ["dynsys-trace", "--system", "cyclic:105", "--f", "table:3",
                  "--family", "squares", "--indices", _ints(CYCLIC_INDICES),
                  "--seed", s], seeded=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _parse_stall_report(stderr: str) -> dict | None:
    start = stderr.find("\n{")
    if not stderr.startswith("selection stalled") or start < 0:
        return None
    return json.loads(stderr[start + 1 :])


def run_step(step: Step, mods, out_dir: Path, ctx: dict) -> Output:
    """Run one step; an unexpected exception is recorded as a failed output.

    ``ctx`` carries values between the steps of one pass.
    """
    out_path = out_dir / (step.label + step.suffix)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if step.call is not None:
                return Output(rc=0, value=_jsonable(step.call(mods, ctx)))
            if out_path.exists():
                out_path.unlink()
            rc = mods.cli.main(step.argv + ["--out", str(out_path)])
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    except Exception:  # a benchmark pass must finish and report the failure
        return Output(rc="exception", error=traceback.format_exc())
    files = {out_path.name: out_path.read_bytes()} if out_path.exists() else {}
    return Output(rc=rc, files=files, report=_parse_stall_report(stderr.getvalue()))


def _jsonable(value):
    """Round-trip through JSON so outputs compare as plain data."""
    return json.loads(json.dumps(value))
