"""Print each function of ``src/ergodecay`` that no command, benchmark step or
acceptance criterion reaches, with the open ROADMAP item that will use it or
the reason it stays.

Usage::

    PYTHONPATH=src python tests/reachability.py

The traffic runs in this interpreter under ``sys.settrace`` (calls only, no
line events): every command of ``helpers.CLI_COMMANDS`` and of
``cli_digests.BENCH_COMMANDS`` and ``STALL_COMMANDS`` through
``ergodecay.cli.main``, then ``EXTRA_COMMANDS`` (the CLI options that the
digest set does not run), then the library steps of
``cli_digests.sigma_digests``, then ``tests/test_acceptance.py`` under pytest.

A function is reported when no call of it was seen; the functions nested in a
reported one are not listed again.  Comprehensions and generator expressions
are parts of their function and are never listed.  Each line reads
``module.qualname  line  item N`` for a function an open ROADMAP item will
call, ``keep: <reason>`` for one that stays without a caller, and ``none``
for one that has neither.
"""

import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ergodecay"

# CLI options that no digest command sets: rotation systems, indicator
# observables and the log-power and constant rho kinds.
EXTRA_COMMANDS = {
    "dynsys-rotation-indicator": [
        "dynsys-trace", "--system", "rotation:3/7", "--f", "indicator:0.1:0.4",
        "--family", "squares", "--indices", "4,8",
    ],
    "fourier-logpow": ["fourier", "--family", "perturbed:logpow:1.5", "--n", "64", "--grid", "256"],
    "fourier-const": ["fourier", "--family", "perturbed:const:3", "--n", "64", "--grid", "256"],
}

# Unreached functions that an open ROADMAP item names as its consumer.
CONSUMERS = {
    "czmax.e1_e2_diagnostics": 14,
    "czmax._l2sq": 14,
    "selection.selection_from_json": 14,
    "threshold._circle_dist": 11,
    "threshold._chunked_sum": 11,
    "threshold.block_sum": 11,
    "threshold.block_sqrt_sum": 11,
    "threshold.vj_sum": 11,
    "threshold.cesaro_expos": 11,
    "threshold.major_arc_audit": 11,
}

# Unreached functions that stay without a caller, and why.
KEEP = {
    "measures.WeightedMeasure.__eq__": "tests compare measures with ==",
    "measures.WeightedMeasure.__getattr__":
        "builds an interval measure's sites on first read (item 14's e1_e2_diagnostics reads them)",
}

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _functions(code, module: str):
    """(name, line, code) of the functions in ``code``'s tree, outermost first,
    each followed by the functions nested in it."""
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name in _COMPREHENSIONS:
            continue
        if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
            yield f"{module}.{const.co_qualname}", const.co_firstlineno, const
        else:
            yield from _functions(const, module)


def _unreached(reached: set) -> list:
    """(name, line) of every unreached function whose enclosing function, if
    any, was reached."""
    out = []

    def walk(code, module):
        for name, line, fn in _functions(code, module):
            if (fn.co_filename, fn.co_firstlineno, fn.co_qualname) in reached:
                walk(fn, module)
            else:
                out.append((name, line))

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return out


def _run_traffic() -> set:
    """Run the traffic; return (file, first line, qualname) of each code
    object of the package that was called."""
    prefix = str(PACKAGE) + os.sep
    seen = set()

    def tracer(frame, event, arg):
        seen.add(frame.f_code)  # "call" is the only event a global tracer gets

    sys.path[:0] = [str(TESTS), str(PACKAGE.parent)]
    sys.settrace(tracer)
    try:
        import pytest

        from cli_digests import BENCH_COMMANDS, STALL_COMMANDS, sigma_digests
        from ergodecay.cli import main
        from helpers import CLI_COMMANDS

        commands = {**CLI_COMMANDS, **BENCH_COMMANDS, **STALL_COMMANDS, **EXTRA_COMMANDS}
        with tempfile.TemporaryDirectory() as tmp:
            for name, argv in commands.items():
                out = os.path.join(tmp, "out.dat")
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = main([*argv, "--out", out])
                print(f"# {name}: exit {rc}", file=sys.stderr, flush=True)
        sigma_digests()
        print("# sigma_digests", file=sys.stderr, flush=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS / "test_acceptance.py")])
        print(f"# test_acceptance.py: pytest exit {int(rc)}", file=sys.stderr, flush=True)
    finally:
        sys.settrace(None)
    return {
        (os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname)
        for c in seen
        if os.path.realpath(c.co_filename).startswith(prefix)
    }


def main() -> None:
    unreached = _unreached(_run_traffic())
    for name, line in unreached:
        if name in CONSUMERS:
            note = f"item {CONSUMERS[name]}"
        elif name in KEEP:
            note = f"keep: {KEEP[name]}"
        else:
            note = "none"
        print(f"{name:<44} {line:>4}  {note}")
    print(f"{len(unreached)} unreached functions, "
          f"{sum(1 for n, _ in unreached if n not in CONSUMERS and n not in KEEP)} "
          "without a consumer item or keep reason")


if __name__ == "__main__":
    main()
