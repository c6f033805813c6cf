"""Benchmark of ergodecay: one workload per run, checked outputs, named metrics.

Usage, from the repository root:

    python3 bench/run.py --workload select-scan --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --record      # rewrite bench/reference.json

A run times the setup a CLI user pays (fresh interpreters importing
``ergodecay.cli`` and building its parser), then runs timed passes of the
workload until the next pass would end after ``--seconds``, with at least
``MIN_PASSES``.  The first pass is checked in full; every later pass must
reproduce its outputs byte for byte.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  The last line of standard
output is the result as one JSON object; ``error_rate`` is ``failed / attempted`` there,
counted over step runs (one CLI command or library call in one pass).
Run records and spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 9  # fresh interpreters per run; the median is reported
MIN_PASSES = 3  # untraced passes per run, at least
MIN_TRACED_PASSES = 2  # counts must repeat across at least two traced passes
SELF_TIME_FLOOR = -1e-9  # self times are >= 0 up to clock rounding
# The program's own parallelism is its --threads option (default 1).  BLAS
# threads for numpy dot products would otherwise wait on a second core that a
# shared machine may not give, so they are switched off before numpy loads.
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> SimpleNamespace:
    if not (SRC / "ergodecay" / "cli.py").is_file():
        _fail(f"no ergodecay sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    names = ("families", "measures", "selection", "czmax", "threshold", "weyl",
             "dynsys", "cli", "errors")
    return SimpleNamespace(**{n: importlib.import_module(f"ergodecay.{n}") for n in names})


def measure_setup(samples: int) -> list[float]:
    """Wall seconds of fresh interpreters that import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    code = "import ergodecay.cli as c; c.build_parser()"
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if i:  # the first start compiles bytecode; users run with it compiled
            times.append(time.perf_counter() - t0)
    return times


def machine_record() -> dict:
    import numpy as np

    rec = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    rec["caches"] = caches or "unknown"
    try:
        rec["ram_bytes"] = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        rec["ram_bytes"] = None
    return rec


def run_pass(wl, steps, mods, out_dir: Path) -> tuple[float, list, list]:
    """One pass over the workload's steps: (wall seconds, outputs, step seconds)."""
    ctx: dict = {}
    outputs, step_s = [], []
    t0 = time.perf_counter()
    for step in steps:
        ts = time.perf_counter()
        outputs.append(wl.run_step(step, mods, out_dir, ctx))
        step_s.append(time.perf_counter() - ts)
    return time.perf_counter() - t0, outputs, step_s


def check_first_pass(wl, checks, workload: str, seed: int, steps, outputs) -> dict:
    """Failure messages per step label for the checked first pass."""
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        return {s.label: [f"no usable reference: {exc}"] for s in steps}
    failures = {}
    for step, out in zip(steps, outputs):
        msgs = []
        if out.rc == "exception":
            msgs.append(out.error.strip().splitlines()[-1])
        key = f"{workload}/{step.label}"
        if step.seeded:
            ref = reference["seeded"].get(str(seed), {}).get(key)
            try:
                msgs += checks.oracle(step.label, out, seed)
            except Exception as exc:  # malformed output: report, keep checking
                msgs.append(f"oracle could not read the output: {exc!r}")
        else:
            ref = reference["steps"].get(key)
            if ref is None:
                msgs.append("no reference recorded for this step")
        if ref is not None:
            msgs += checks.compare(ref, checks.summarize(step.label, out))
        if msgs:
            failures[step.label] = msgs
    return failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def record(wl, checks, mods) -> None:
    """Write reference.json from this tree's outputs (run at the seed commit)."""
    OUT.mkdir(exist_ok=True)
    ref = {"tolerance": {"rtol": checks.RTOL, "atol": checks.ATOL}, "steps": {}, "seeded": {}}
    for workload in wl.WORKLOADS:
        seeded = any(s.seeded for s in wl.steps_for(workload, wl.DEFAULT_SEED))
        for seed in (wl.DEFAULT_SEED, wl.HELDOUT_SEED) if seeded else (wl.DEFAULT_SEED,):
            steps = wl.steps_for(workload, seed)
            _, outputs, _ = run_pass(wl, steps, mods, OUT)
            for step, out in zip(steps, outputs):
                if out.rc == "exception":
                    _fail(f"{workload}/{step.label} raised:\n{out.error}")
                if step.seeded:
                    bad = checks.oracle(step.label, out, seed)
                    if bad:
                        _fail(f"{workload}/{step.label} seed {seed} fails its oracle: {bad}")
                    bucket = ref["seeded"].setdefault(str(seed), {})
                else:
                    bucket = ref["steps"]
                bucket[f"{workload}/{step.label}"] = checks.summarize(step.label, out)
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    REFERENCE.write_text(_dump(ref) + "\n")


def _dump(obj, indent: str = "") -> str:
    """JSON with one field (a list) per line, so reference diffs stay readable."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    inner = indent + " "
    items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write reference.json from this tree instead of measuring")
    args = ap.parse_args(argv)

    os.environ.update(SERIAL_ENV)  # inherited by the set-up interpreters too
    mods = load_package()
    import checks
    import tracer as tr
    import workloads as wl

    if args.record:
        record(wl, checks, mods)
        return 0
    if args.workload not in wl.WORKLOADS:
        _fail(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = wl.steps_for(args.workload, seed)

    setup_times = measure_setup(SETUP_SAMPLES)

    walls, traced_walls, layer, step_times = [], [], [], []
    first, digests, differs = None, None, []  # differs: (step label, pass kind)
    selftest: list[str] = []
    tracer = tr.Tracer()
    spans: list = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, outputs, step_s = run_pass(wl, steps, mods, out_dir)
        finally:
            tracer.uninstall()
        if first is None:
            first, digests = outputs, [o.digest() for o in outputs]
        kind = "traced pass" if traced else "untraced pass"
        differs += [(s.label, kind) for s, o, d in zip(steps, outputs, digests) if o.digest() != d]
        if traced:
            traced_walls.append(wall)
            m = tr.layer_metrics(tracer.spans, tracer.counts)
            m["cli.output_bytes"] = sum(o.data_bytes for o in outputs)
            layer.append(m)
            low = min(tr.self_times(tracer.spans), default=0.0)
            if low < SELF_TIME_FLOOR:
                selftest.append(f"negative self time {low!r}")
            spans = tracer.spans
        else:
            walls.append(wall)
            step_times.append(step_s)
        enough = len(walls) >= MIN_PASSES and (
            not args.trace or len(traced_walls) >= MIN_TRACED_PASSES)
        # stop before a pass that would run past --seconds
        if enough and time.perf_counter() - start + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checked after the peak is read, so the checks' memory is not counted
    failures = check_first_pass(wl, checks, args.workload, seed, steps, first)
    for label, kind in differs:
        failures.setdefault(f"{label} ({kind})", ["output differs from the first pass"])
    passes = len(walls) + len(traced_walls)
    attempted = len(steps) * passes
    failed = sum(1 for s in steps if s.label in failures) * passes + sum(
        1 for label, _ in differs if label not in failures)

    wq1, wmed, wq3 = quartiles(walls)
    sq1, smed, sq3 = quartiles(setup_times)
    result = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(),
              "wall_s": walls, "setup_s": setup_times, "peak_rss_mb": peak_rss_mb,
              "step_s": {s.label: statistics.median(t[i] for t in step_times)
                         for i, s in enumerate(steps)},
              "failures": failures}

    print(f"bench: workload={args.workload} seed={seed} trace={args.trace} "
          f"passes={len(walls)} untraced, {len(traced_walls)} traced")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for label, secs in result["step_s"].items():
        print(f"  step {label:<22} {secs:10.4f} s  (median over untraced passes)")
    print(f"wall_s       {wmed:.4f} s  (median of {len(walls)} passes; q1 {wq1:.4f}, q3 {wq3:.4f})")
    print(f"setup_s      {smed:.4f} s  (median of {len(setup_times)} fresh interpreters; "
          f"q1 {sq1:.4f}, q3 {sq3:.4f})")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"error_rate   {failed / attempted:.4g}  ({failed} of {attempted} step runs failed)")
    for label, msgs in failures.items():
        for msg in msgs[:5]:
            print(f"  FAIL {label}: {msg}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name, unit in tr.PER_LAYER.items():
            if name == "trace.overhead_s":
                value = statistics.median(traced_walls) - statistics.median(walls)
            elif name in tr.COUNT_METRICS:
                value = layer[0][name]
                if any(m[name] != value for m in layer[1:]):
                    selftest.append(f"{name} differs between traced passes")
            else:
                value = statistics.median(m[name] for m in layer)
            metrics[name] = {"value": value, "unit": unit}
        for name, expect in wl.EXPECTED_COUNTS[args.workload].items():
            if metrics[name]["value"] != expect:
                selftest.append(f"{name} = {metrics[name]['value']}, workload definition gives {expect}")
        for msg in selftest:
            print(f"  SELFTEST FAIL {msg}", file=sys.stderr)
        print(f"trace: {len(traced_walls)} traced passes, overhead "
              f"{metrics['trace.overhead_s']['value']:.4f} s per pass, "
              f"self-test {'ok' if not selftest else 'FAILED'}")
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        result.update(traced_wall_s=traced_walls, layer=metrics, selftest=selftest)
        (OUT / f"spans-{args.workload}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": spans}))
    else:
        metrics = {
            "wall_s": {"value": wmed, "unit": "s"},
            "setup_s": {"value": smed, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    (OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    correct = failed == 0 and not selftest
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
