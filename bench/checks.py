"""Output checks behind ``error_rate``.

Two kinds of check, both applied to the first pass of every run:

* Reference summaries, recorded from the seed commit into
  ``reference.json`` (``run.py --record``).  Each output is reduced to typed
  fields, compared by kind:

  ``exact``    exit codes, stall stage, bound and counters, ``chosen``,
               ``S_values``, row counts, integer columns, argmax keys;
  ``float``    within ``RTOL * scale + ATOL``;
  ``lower``    a certified lower bound: may rise, may not fall;
  ``upper``    a certified upper bound: may fall, may not rise;
  ``bracket``  a returned ``[lower, upper]`` must still overlap the seed's.

  Seed-independent steps are always compared; steps whose inputs come from
  the workload seed are compared when that seed was recorded (the default
  and the held-out seed).

* Independent oracles for the seeded steps, which hold for every seed:
  ``cz-check`` against a brute-force stopping-time selection, ``maximal``
  against a direct convolution, and both ``dynsys-trace`` commands against
  a recomputation of the weighted averages and tail diameters.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

import workloads as wl

RTOL = 1e-9
ATOL = 1e-12

# CSV argmax: (group column or None, key column, target column).  The key is
# the smallest one whose target is within tolerance of the group maximum, so
# exact ties (beta and 1 - beta) cannot flip it.
ARGMAX = {
    "weyl-audit": ("N", "beta", "ratio"),
    "threshold-audit": ("N", "beta", "ratio"),
    "residues": (None, "a", "density"),
    "maximal": (None, "lambda", "ratio"),
    "dynsys-rotation": ("x", "k", "abs"),
    "dynsys-cyclic": ("x", "k", "abs"),
}

CSV_SAMPLES = 32  # rows compared one by one, evenly spaced


def _tol(scale: float) -> float:
    return RTOL * abs(scale) + ATOL


# -- summaries -----------------------------------------------------------------


def _stall(report: dict) -> dict:
    out = {
        f"stall.{k}": ["exact", report[k]]
        for k in ("family", "stage", "bound", "rejected", "uncertifiable",
                  "skipped_support", "search_cap", "chosen_so_far")
        if k in report
    }
    out["stall.best_sup_lower"] = ["lower", report["best_sup_lower"]]
    return out


def _value(value: dict) -> dict:
    if "stalled" in value:
        return _stall(value["stalled"])
    if "state" in value:
        st = value["state"]
        out = {f"state.{k}": ["exact", st[k]] for k in ("family", "chosen", "S_values", "bounds")}
        out["state.achieved_sups"] = ["upper", st["achieved_sups"]]
        return out
    rows = value["rows"]
    out = {"rows.count": ["exact", len(rows)]}
    for r in rows:
        p = f"rows.{r['k']}"
        out.update({f"{p}.{k}": ["exact", r[k]] for k in ("k", "n", "S", "bound")})
        if "sup_lower" in r:
            out[f"{p}.bracket"] = ["bracket", [r["sup_lower"], r["sup_upper"]]]
        else:
            out[f"{p}.sup_upper"] = ["upper", r["sup_upper"]]
    return out


def _json_file(doc: dict) -> dict:
    if "reports" in doc:  # cz-check
        out = {"cz.cases": ["exact", doc["cases"]], "cz.reports": ["exact", len(doc["reports"])]}
        for i, r in enumerate(doc["reports"]):
            out[f"cz.{i}.exact"] = ["exact", [r["case"], r["n_bad_intervals"], r["carleson_sum"]]]
            out[f"cz.{i}.lambda"] = ["float", r["lambda"]]
            out[f"cz.{i}.g_inf_norm"] = ["float", r["g_inf_norm"]]
        return out
    # triviality
    out = {f"triv.{k}": ["exact", doc[k]] for k in ("family", "n", "tol")}
    out["triv.bracket"] = ["bracket", [doc["lower"], doc["upper"]]]
    return out


def _cell(text: str):
    """int, float or str, as the CSV cell reads."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(data: bytes) -> tuple[list, list]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return rows[0], [[_cell(c) for c in r] for r in rows[1:]]


def _col_kind(values) -> str:
    if all(isinstance(v, int) for v in values):
        return "int"
    if all(isinstance(v, (int, float)) for v in values):
        return "float"
    return "str"


def _argmax(label: str, header: list, rows: list) -> dict:
    group, key, target = (header.index(c) if c else None for c in ARGMAX[label])
    best: dict = {}
    for r in rows:
        g = "all" if group is None else str(r[group])
        best[g] = max(best.get(g, -math.inf), r[target])
    keys: dict = {}
    for r in rows:
        g = "all" if group is None else str(r[group])
        if r[target] >= best[g] - _tol(best[g]):
            keys[g] = min(keys.get(g, r[key]), r[key])
    return keys


def _csv(label: str, data: bytes) -> dict:
    header, rows = parse_csv(data)
    out = {"csv.header": ["exact", header], "csv.rows": ["exact", len(rows)]}
    if not rows:
        return out
    kinds = [_col_kind([r[j] for r in rows]) for j in range(len(header))]
    for j, (name, kind) in enumerate(zip(header, kinds)):
        col = [r[j] for r in rows]
        if kind == "int":
            out[f"col.{name}"] = ["exact", [sum(col), min(col), max(col)]]
        elif kind == "float":
            scale = math.fsum(abs(v) for v in col)
            out[f"col.{name}.sum"] = ["float", math.fsum(col), scale]
            out[f"col.{name}.min"] = ["float", min(col)]
            out[f"col.{name}.max"] = ["float", max(col)]
        else:
            out[f"col.{name}"] = ["exact", sorted(set(map(str, col)))]
    step = max(1, len(rows) // CSV_SAMPLES)
    for i in range(0, len(rows), step):
        for name, kind, v in zip(header, kinds, rows[i]):
            out[f"row.{i}.{name}"] = ["float" if kind == "float" else "exact", v]
    if label in ARGMAX:
        out["csv.argmax"] = ["exact", _argmax(label, header, rows)]
    return out


def summarize(label: str, out: wl.Output) -> dict:
    """Typed fields of one step's output, the unit of reference comparison."""
    s = {"rc": ["exact", out.rc]}
    if out.report is not None:
        s.update(_stall(out.report))
    if out.value is not None:
        s.update(_value(out.value))
    for name, data in out.files.items():
        if name.endswith(".csv"):
            s.update(_csv(label, data))
        else:
            s.update(_json_file(json.loads(data)))
    return json.loads(json.dumps(s))  # compare as the reference file reads


# -- comparison ----------------------------------------------------------------


def _pairs(ref, new):
    if isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            raise ValueError("length differs")
        return list(zip(ref, new))
    return [(ref, new)]


def _field_ok(spec: list, new: list) -> bool:
    kind, ref = spec[0], spec[1]
    if new is None or new[0] != kind:
        return False
    val = new[1]
    try:
        if kind == "exact":
            return val == ref
        if kind == "float":
            scale = spec[2] if len(spec) > 2 else ref
            return all(abs(n - r) <= _tol(scale) for r, n in _pairs(ref, val))
        if kind == "lower":
            return all(n >= r - _tol(r) for r, n in _pairs(ref, val))
        if kind == "upper":
            return all(n <= r + _tol(r) for r, n in _pairs(ref, val))
        if kind == "bracket":
            (rlo, rhi), (nlo, nhi) = ref, val
            return nlo <= nhi and nlo <= rhi + _tol(rhi) and nhi >= rlo - _tol(rlo)
    except (TypeError, ValueError):
        return False
    raise ValueError(f"unknown field kind {kind!r}")


def compare(ref: dict, new: dict) -> list[str]:
    """Fields of ``new`` that break the rule of their kind in ``ref``."""
    bad = []
    for name, spec in ref.items():
        if not _field_ok(spec, new.get(name)):
            got = new.get(name)
            bad.append(f"{name}: seed {spec[1]!r}, now {got[1] if got else None!r}")
    return bad


# -- oracles for seeded steps --------------------------------------------------


def _random_dyadic_phi(rng, span: int, max_atoms: int):
    """The cz-check / maximal input: sites -> complex weights, duplicates merged."""
    n = int(rng.integers(1, max_atoms))
    sites = rng.integers(-span, span + 1, size=n)
    values = (rng.integers(-(1 << 20), 1 << 20, size=n) / 1024.0) * (
        1 + 1j * rng.integers(0, 2, size=n)
    )
    phi: dict[int, complex] = {}
    for s, v in zip(sites.tolist(), values.tolist()):
        phi[s] = phi.get(s, 0.0) + v
    phi = {s: v for s, v in phi.items() if v != 0}
    return phi or {0: 1.0 + 0j}


def _cz_selected(phi: dict, lam: float) -> list[tuple[int, int]]:
    """Maximal dyadic intervals (s, k) with |phi| sum > lam * 2^s, by brute force.

    Sums are formed left child + right child, the order in which a dense
    pyramid adds them, so threshold comparisons see the same floats.
    """
    tv = math.fsum(abs(v) for v in phi.values())
    s_top = 0
    while (1 << s_top) * lam < tv:
        s_top += 1
    levels = [{s: abs(v) for s, v in phi.items()}]
    for _ in range(s_top):
        prev, cur = levels[-1], {}
        for k in {k >> 1 for k in prev}:
            cur[k] = prev.get(2 * k, 0.0) + prev.get(2 * k + 1, 0.0)
        levels.append(cur)
    chosen: set = set()
    for s in range(s_top - 1, -1, -1):
        for k, total in levels[s].items():
            if total > lam * (1 << s) and not any(
                (t, k >> (t - s)) in chosen for t in range(s + 1, s_top)
            ):
                chosen.add((s, k))
    return sorted(chosen)


def _oracle_cz(data: bytes, seed: int) -> list[str]:
    doc = json.loads(data)
    rng = np.random.default_rng(seed)
    bad = []
    reports = iter(doc["reports"])
    for case in range(wl.CZ_COUNT):
        phi = _random_dyadic_phi(rng, 1 << 14, 160)
        tv = math.fsum(abs(v) for v in phi.values())
        top = max(abs(v) for v in phi.values())
        for i in range(1, wl.CZ_LAMBDAS + 1):
            lam = top / (1 << i)
            r = next(reports, None)
            if r is None:
                return bad + [f"cz-check: report missing at case {case} lambda {i}"]
            sel = _cz_selected(phi, lam)
            expect = (case, len(sel), sum(1 << s for s, _ in sel))
            got = (r["case"], r["n_bad_intervals"], r["carleson_sum"])
            if got != expect or abs(r["lambda"] - lam) > _tol(lam):
                bad.append(f"cz-check case {case} lambda {i}: {got} != brute force {expect}")
            if not (r["g_inf_norm"] <= 2 * lam + 1e-12 and r["reconstruction_error"] <= 1e-12
                    and r["carleson_sum"] <= tv / lam):
                bad.append(f"cz-check case {case} lambda {i}: invariant broken: {r}")
    if next(reports, None) is not None:
        bad.append("cz-check: more reports than cases x lambdas")
    return bad


def _oracle_maximal(data: bytes, seed: int) -> list[str]:
    phi = _random_dyadic_phi(np.random.default_rng(seed), wl.MAXIMAL_SPAN, wl.MAXIMAL_ATOMS)
    psites = np.array(sorted(phi), dtype=np.int64)
    pw = np.array([phi[s] for s in psites.tolist()], dtype=np.complex128)
    best: dict[int, float] = {}
    for n in wl.MAXIMAL_INDICES:
        k = np.arange(1, n + 1, dtype=np.int64)
        sites = ((k * k)[:, None] + psites[None, :]).ravel()
        weights = np.outer(np.full(n, 1.0 / n), pw).ravel()
        # phi values are multiples of 2^-10 and 1/n is a power of two, so
        # these sums are exact in any order
        uniq, inv = np.unique(sites, return_inverse=True)
        conv = np.bincount(inv, weights=weights.real) + 1j * np.bincount(inv, weights=weights.imag)
        for s, v in zip(uniq.tolist(), np.abs(conv).tolist()):
            if v > best.get(s, 0.0):
                best[s] = v
    vals = np.sort(np.array([v for v in best.values() if v != 0.0]))
    tv = math.fsum(np.abs(pw).tolist())
    lam = float(np.max(np.abs(pw)))
    expect = []
    while lam >= tv / (1 << 20):
        count = len(vals) - int(np.searchsorted(vals, lam, side="right"))
        expect.append((lam, count, lam * count / tv))
        lam /= 2.0
    _, rows = parse_csv(data)
    if len(rows) != len(expect):
        return [f"maximal: {len(rows)} rows, direct convolution gives {len(expect)}"]
    bad = []
    for got, exp in zip(rows, expect):
        if got[1] != exp[1] or any(abs(g - e) > _tol(e) for g, e in ((got[0], exp[0]), (got[2], exp[2]))):
            bad.append(f"maximal: row {got} != direct convolution {exp}")
    return bad


def _tail_diameters(values: np.ndarray) -> np.ndarray:
    d = np.abs(values[:, None] - values[None, :])
    out = np.zeros(len(values))
    run = 0.0
    for k in range(len(values) - 1, -1, -1):
        run = max(run, float(d[k, k:].max()))
        out[k] = run
    return out


def _golden_numerator() -> int:
    num = round((math.sqrt(5.0) - 1.0) / 2.0 * (1 << 61))
    return num if num % 2 else num + 1


def _perturbed_quarter_sites(n: int) -> list[int]:
    # floor(k^(1/4)) == isqrt(isqrt(k)) exactly
    return [k * k + math.isqrt(math.isqrt(k)) for k in range(1, n + 1)]


def _oracle_dynsys(label: str, data: bytes, seed: int) -> list[str]:
    rotation = label == "dynsys-rotation"
    indices = wl.ROTATION_INDICES if rotation else wl.CYCLIC_INDICES
    K = len(indices)
    header, rows = parse_csv(data)
    if header != ["k", "n_k", "x", "re", "im", "abs", "osc_tail"] or len(rows) != wl.X_SAMPLES * K:
        return [f"{label}: header {header} / {len(rows)} rows, expected {wl.X_SAMPLES * K} rows"]
    rng = np.random.default_rng(seed)
    table = np.random.default_rng(3).normal(size=105).astype(np.complex128)
    bad = []
    for xi in range(wl.X_SAMPLES):
        block = rows[xi * K : (xi + 1) * K]
        if rotation:
            x = int(rng.integers(0, 1 << 32))
            x_repr = float(Fraction(x, 1 << 32))
        else:
            x = x_repr = int(rng.integers(0, 105))
        got = np.array([r[3] + 1j * r[4] for r in block])
        if [r[0] for r in block] != list(range(1, K + 1)) or [r[1] for r in block] != list(indices):
            bad.append(f"{label}: sample {xi} k / n_k columns differ from the indices")
        if any(r[2] != x_repr for r in block):
            bad.append(f"{label}: sample {xi} x column != {x_repr}")
        # weighted averages: every cyclic row; rotation rows for the first and
        # last sample (exact big-integer orbits are as slow as the command)
        if not rotation or xi in (0, wl.X_SAMPLES - 1):
            expect = []
            for n in indices:
                if rotation:
                    num, den = _golden_numerator(), 1 << 93
                    base = x << 61
                    step = num << 32
                    fr = np.array([(base + j * step) % den / den for j in _perturbed_quarter_sites(n)])
                    vals = np.exp(2j * math.pi * fr)
                else:
                    k = np.arange(1, n + 1, dtype=np.int64)
                    vals = table[(x + k * k) % 105]
                expect.append(complex(np.dot(np.full(n, 1.0 / n, dtype=np.complex128), vals)))
            err = np.abs(got - np.array(expect))
            if np.any(err > RTOL * np.abs(expect) + 1e-12):
                bad.append(f"{label}: sample {xi} weighted averages off by {err.max():.3g}")
        osc = np.array([r[6] for r in block])
        if np.any(np.abs(osc - _tail_diameters(got)) > 1e-12):
            bad.append(f"{label}: sample {xi} osc_tail is not the tail diameter")
        if any(abs(r[5] - abs(complex(r[3], r[4]))) > 1e-12 for r in block):
            bad.append(f"{label}: sample {xi} abs column != |re + i im|")
    return bad


def oracle(label: str, out: wl.Output, seed: int) -> list[str]:
    """Seed-independent correctness of a seeded step's output."""
    if out.rc != 0 or len(out.files) != 1:
        return [f"{label}: exit code {out.rc}, files {sorted(out.files)}"]
    (data,) = out.files.values()
    if label == "cz-check":
        return _oracle_cz(data, seed)
    if label == "maximal":
        return _oracle_maximal(data, seed)
    return _oracle_dynsys(label, data, seed)
