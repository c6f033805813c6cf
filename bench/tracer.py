"""In-memory span tracing around the public functions of each ergodecay layer.

``Tracer.install`` wraps every public function of the layer modules at every
module binding (a ``from``-import copies the name, so e.g.
``certify_sup_below`` is wrapped both in ``ergodecay.measures`` and in
``ergodecay.selection``), plus the ``MeasureFamily`` / ``RhoSpec`` methods
that build measures and floors, and the ``cmd_*`` subcommands of the CLI.
Each call records a span ``[name, start, end, parent]``; ``layer_metrics``
turns the spans of one pass into the per-layer metrics.  ``uninstall``
restores every binding, so untraced passes run the original code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("families", "measures", "selection", "czmax", "threshold", "weyl", "dynsys", "cli")

# Methods are wrapped on their class; the name is the span name.
METHODS = (
    ("families", "MeasureFamily", "measure"),
    ("families", "MeasureFamily", "support_radius"),
    ("families", "RhoSpec", "floor_at_int"),
)

SUBCOMMANDS = (
    "select", "triviality", "weyl-audit", "threshold-audit", "residues",
    "cz-check", "maximal", "dynsys-trace",
)

# Per-layer metrics: name -> unit.  Every traced run reports all of them.
PER_LAYER = {
    "families.measure.calls": "count",
    "families.measure.s": "s",
    "families.support_radius.calls": "count",
    "families.support_radius.s": "s",
    "families.floor_at_int.calls": "count",
    "families.floor_at_int.s": "s",
    "families.assembly_s": "s",
    "selection.select_subsequence.s": "s",
    "selection.candidates": "count",
    "selection.candidates_per_s": "1/s",
    "selection.verify_selection.s": "s",
    "selection.self_s": "s",
    "measures.fourier_grid.calls": "count",
    "measures.fourier_grid.s": "s",
    "measures.fourier_grid.points": "points",
    "measures.max_grid": "points",
    "measures.fft_bytes_computed": "B",
    "measures.certify_sup_below.calls": "count",
    "measures.certify_sup_below.s": "s",
    "measures.certify_sup_below.accepted": "count",
    "measures.certify_sup_below.rejected": "count",
    "measures.certify_sup_below.undecided": "count",
    "measures.certify_sup_below.grids_per_call": "grids/call",
    "measures.triviality_sup.calls": "count",
    "measures.triviality_sup.s": "s",
    "measures.convolve.calls": "count",
    "measures.convolve.s": "s",
    "weyl.weyl_bound_audit.calls": "count",
    "weyl.weyl_bound_audit.s": "s",
    "weyl.dirichlet_approx.calls": "count",
    "weyl.dirichlet_approx.s": "s",
    "weyl.weyl_sum.calls": "count",
    "weyl.weyl_sum.s": "s",
    "threshold.transform_bound_audit.s": "s",
    "threshold.residue_density.s": "s",
    "czmax.cz_decompose.calls": "count",
    "czmax.cz_decompose.s": "s",
    "czmax.cz_report.calls": "count",
    "czmax.cz_report.s": "s",
    "czmax.maximal_function.s": "s",
    "dynsys.convergence_trace.s": "s",
    "dynsys.weighted_average.calls": "count",
    "dynsys.weighted_average.s": "s",
    "dynsys.trace_self_s": "s",
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Metrics that count work; they must repeat exactly from pass to pass.
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "points", "B")
)

_FFT_BYTES_PER_POINT = 16  # complex128


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _after(self, name: str, args, kwargs, result) -> None:
        if name == "measures.fourier_grid":
            G = int(kwargs["G"] if "G" in kwargs else args[1])
            self._count("measures.fourier_grid.points", G)
            self.counts["measures.max_grid"] = max(self.counts.get("measures.max_grid", 0), G)
        elif name == "measures.certify_sup_below":
            verdict = result[0]
            key = {True: "accepted", False: "rejected"}.get(verdict, "undecided")
            self._count(f"measures.certify_sup_below.{key}")

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._after(name, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("ergodecay")
        mods = {layer: importlib.import_module(f"ergodecay.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            if layer == "cli":
                names = [n for n in vars(mod) if n.startswith("cmd_")]
            else:
                names = list(mod.__all__)
            for attr in names:
                fn = getattr(mod, attr)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    span = attr
                    if layer == "cli":
                        span = attr[len("cmd_"):].replace("_", "-")
                    wrappers[fn] = self._wrap(f"{layer}.{span}", fn)
        for mod in (pkg, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, attr, self._wrap(f"{layer}.{attr}", cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _has_ancestor(spans, i: int, names: set) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls in one thread nest, so children never overlap each other.
    """
    out = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer metrics of one traced pass, except ``cli.output_bytes`` and
    ``trace.overhead_s``, which the caller measures."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own

    def under(name: str, ancestors: set) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] == name and _has_ancestor(spans, i, ancestors)]

    floors_in_measure = sum(
        spans[i][2] - spans[i][1] for i in under("families.floor_at_int", {"families.measure"})
    )
    candidates = sum(
        1
        for s in spans
        if s[0] == "measures.certify_sup_below"
        and s[3] >= 0
        and spans[s[3]][0] == "selection.select_subsequence"
    )
    certify_calls = calls.get("measures.certify_sup_below", 0)
    grids_in_certify = len(under("measures.fourier_grid", {"measures.certify_sup_below"}))
    select_s = total.get("selection.select_subsequence", 0.0)
    points = counts.get("measures.fourier_grid.points", 0)

    out = {}
    for metric in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(base, 0)
        elif field == "s":
            out[metric] = total.get(base, 0.0)
        else:  # counted in Tracer._after, or derived below
            out[metric] = counts.get(metric, 0)
    out.update(
        {
            "families.assembly_s": total.get("families.measure", 0.0) - floors_in_measure,
            "selection.candidates": candidates,
            "selection.candidates_per_s": candidates / select_s if select_s > 0 else 0.0,
            "selection.self_s": self_s.get("selection.select_subsequence", 0.0),
            "measures.fft_bytes_computed": _FFT_BYTES_PER_POINT * points,
            "measures.certify_sup_below.grids_per_call": (
                grids_in_certify / certify_calls if certify_calls else 0.0
            ),
            "dynsys.trace_self_s": self_s.get("dynsys.convergence_trace", 0.0),
            "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
            "trace.spans": len(spans),
        }
    )
    return out
