"""Command-line front end: every audit and experiment, reproducible, CSV/JSON out.

Each successful run writes its data file(s), then ``main`` writes a
``<out>.manifest.json`` echoing the subcommand, config and library version
(the manifest timestamp is the only field allowed to differ between identical
runs); a failing run writes no manifest.  Exit codes: 0 ok, 2 config error (a bad
descriptor, or an argument out of range: a library ValueError), 3 selection
stalled, 4 resource cap exceeded, 5 verification failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .czmax import cz_decompose, cz_report, maximal_function, weak11_ratio, weak11_rows
from .dynsys import (
    convergence_trace,
    cyclic_system,
    golden_rotation,
    indicator_function,
    rotation_system,
    table_function,
    trig_function,
)
from .errors import ConfigError, ResourceCapError, SelectionStalled, VerificationError
from .families import parse_family, parse_rho
from .measures import fourier_grid, make_measure, triviality_sup
from .selection import select_subsequence, verify_selection
from .threshold import residue_density, transform_bound_audit
from .weyl import weyl_bound_audit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STALLED = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5


def _write_manifest(out_path: str, command: str, config: dict) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(out_path + ".manifest.json", manifest)


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _config_of(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


# -- subcommands ---------------------------------------------------------------


def cmd_fourier(args) -> int:
    family = parse_family(args.family)
    G = args.grid
    vals = map(complex, fourier_grid(family.measure(args.n), G))
    rows = ((m / G, v.real, v.imag, abs(v)) for m, v in enumerate(vals))
    _write_csv(args.out, ["gamma", "re", "im", "abs"], rows)
    print(f"fourier: {family.descriptor} n={args.n} grid={args.grid} -> {args.out}")
    return EXIT_OK


def cmd_triviality(args) -> int:
    family = parse_family(args.family)
    mu = family.measure(args.n)
    bracket = triviality_sup(mu, args.tol, grid_cap=args.grid_cap)
    payload = {
        "family": family.descriptor,
        "n": args.n,
        "tol": args.tol,
        "lower": bracket.lower,
        "upper": bracket.upper,
        "grid_size": bracket.grid_size,
    }
    _write_json(args.out, payload)
    print(
        f"triviality: {family.descriptor} n={args.n} "
        f"sup in [{bracket.lower:.6g}, {bracket.upper:.6g}]"
    )
    return EXIT_OK


def cmd_select(args) -> int:
    family = parse_family(args.family)
    state = select_subsequence(
        family, args.k, search_cap=args.cap, sup_tol=args.sup_tol
    )
    verify_selection(family, state)
    _write_json(args.out, state.to_dict())
    print(f"select: {family.descriptor} chose {state.chosen}")
    return EXIT_OK


def cmd_cz_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    reports = []
    worst = 0.0
    for case in range(args.count):
        phi = _random_dyadic_phi(rng)
        lams = _dyadic_lambdas(phi, args.lambdas)
        for lam in lams:
            dec = cz_decompose(phi, lam)
            rep = cz_report(phi, dec)
            worst = max(worst, rep["reconstruction_error"])
            carleson_ok = rep["carleson_sum"] <= phi.total_variation / lam
            g_ok = rep["g_inf_norm"] <= 2.0 * lam + 1e-12
            if not (carleson_ok and g_ok and rep["reconstruction_error"] <= 1e-12):
                raise VerificationError(
                    f"cz-check case {case} lambda={lam!r} violated an invariant: {rep}"
                )
            reports.append({"case": case, **rep})
    _write_json(
        args.out,
        {"cases": args.count, "worst_reconstruction_error": worst, "reports": reports},
    )
    print(f"cz-check: {args.count} cases x {args.lambdas} lambdas, all invariants hold")
    return EXIT_OK


def _random_dyadic_phi(rng, span: int = 1 << 14, max_atoms: int = 160):
    n = int(rng.integers(1, max_atoms))
    sites = rng.integers(-span, span + 1, size=n)
    values = (rng.integers(-(1 << 20), 1 << 20, size=n) / 1024.0) * (
        1 + 1j * rng.integers(0, 2, size=n)
    )
    phi = make_measure(zip(sites.tolist(), values))
    if phi.n_atoms == 0:
        phi = make_measure([(0, 1.0)])
    return phi


def _dyadic_lambdas(phi, count: int) -> list[float]:
    top = float(np.max(np.abs(phi.weights)))
    return [top / (1 << i) for i in range(1, count + 1)]


def cmd_maximal(args) -> int:
    family = parse_family(args.family)
    measures = [family.measure(n) for n in _parse_int_list(args.indices)]
    rng = np.random.default_rng(args.seed)
    phi = _random_dyadic_phi(rng, span=args.phi_span, max_atoms=args.phi_atoms)
    rows = weak11_rows(phi, maximal_function(phi, measures))
    _write_csv(args.out, ["lambda", "levelset_count", "ratio"], rows)
    ratio = weak11_ratio(phi, measures)
    print(f"maximal: weak-(1,1) empirical ratio {ratio:.4g} -> {args.out}")
    return EXIT_OK


def cmd_weyl_audit(args) -> int:
    Ns = _parse_int_list(args.n)
    if not Ns:
        raise ConfigError("--n must list at least one N")
    G = args.grid
    if G < 1:
        raise ConfigError(f"grid must be >= 1, got {G}")
    rows = [weyl_bound_audit(N, m / G) for N in Ns for m in range(G)]
    _write_csv(
        args.out,
        ["N", "beta", "p", "q", "err", "value", "bound_shape", "ratio"],
        ((r.N, r.beta, r.p, r.q, r.err, r.value, r.bound_shape, r.ratio) for r in rows),
    )
    max_ratio = max(r.ratio for r in rows)
    print(f"weyl-audit: {len(rows)} rows, max ratio {max_ratio:.4g} -> {args.out}")
    return EXIT_OK


def cmd_threshold_audit(args) -> int:
    rho = parse_rho(args.rho)
    Ns = _parse_int_list(args.n_list)
    report = transform_bound_audit(
        rho, Ns, eps=args.eps, grid=args.grid, row_betas=args.row_betas
    )
    rows = [
        (args.rho, r["N"], r["beta"], "", "transform", r["value"], r["bound"], r["ratio"])
        for r in report["rows"]
    ]
    _write_csv(
        args.out, ["rho", "N", "beta", "q", "branch", "value", "bound", "ratio"], rows
    )
    trend = ", ".join(
        f"N={p['N']}: triv={p['triviality_grid_max']:.4g}" for p in report["per_N"]
    )
    print(f"threshold-audit: {trend}, shape from x0={rho.shape_from:.6g} -> {args.out}")
    return EXIT_OK


def cmd_residues(args) -> int:
    rho = parse_rho(args.rho)
    Ns = _parse_int_list(args.n_list)
    profile = residue_density(rho, args.q, Ns, window=args.window)
    rows = (
        (
            profile.Q,
            a,
            int(round(profile.densities[a] * profile.N_star)),
            profile.densities[a],
            profile.bound if profile.bound is not None else "",
        )
        for a in profile.lambda_q
    )
    _write_csv(args.out, ["Q", "a", "count", "density", "bound"], rows)
    print(
        f"residues: Q={profile.Q} r_Q={profile.r_q} min nonzero density "
        f"{profile.min_nonzero_density:.5g} bound {profile.bound} "
        f"stabilized={profile.stabilized} shape from x0={rho.shape_from:.6g}"
    )
    return EXIT_OK


def cmd_dynsys_trace(args) -> int:
    sys_ = _parse_system(args.system)
    f = _parse_observable(args.f, sys_)
    family = parse_family(args.family)
    indices = _parse_int_list(args.indices)
    measures = [family.measure(n) for n in indices]
    trace = convergence_trace(
        sys_, f, measures, indices=indices, x_samples=args.x_samples, seed=args.seed
    )
    rows = (
        (
            r["k"],
            r["n_k"],
            r["x"],
            r["value"].real,
            r["value"].imag,
            abs(r["value"]),
            r["osc_tail"],
        )
        for r in trace["rows"]
    )
    _write_csv(args.out, ["k", "n_k", "x", "re", "im", "abs", "osc_tail"], rows)
    print(
        f"dynsys-trace: median mid-tail osc {trace['median_osc']:.4g}, "
        f"max {trace['max_osc']:.4g} -> {args.out}"
    )
    return EXIT_OK


def _parse_system(text: str):
    parts = text.split(":")
    if parts[0] == "rotation":
        if len(parts) == 1 or parts[1] == "golden":
            return golden_rotation()
        try:
            num, den = parts[1].split("/")
            return rotation_system(Fraction(int(num), int(den)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rotation spec {text!r}: {exc}") from exc
    if parts[0] == "cyclic":
        try:
            return cyclic_system(int(parts[1]))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"bad cyclic spec {text!r}") from exc
    raise ConfigError(f"unknown system {text!r}")


def _parse_observable(text: str, sys_):
    parts = text.split(":")
    try:
        if parts[0] == "trig":
            return trig_function(int(parts[1]))
        if parts[0] == "indicator":
            return indicator_function(float(parts[1]), float(parts[2]))
        if parts[0] == "table":
            seed = int(parts[1])
            rng = np.random.default_rng(seed)
            return table_function(rng.normal(size=sys_.modulus))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad observable {text!r}: {exc}") from exc
    raise ConfigError(f"unknown observable {text!r}")


# -- driver --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ergodecay",
        description="Fourier decay of measure sequences on Z: audits and experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output data file path")

    p = sub.add_parser("fourier", help="Fourier grid of a family measure")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=1024)
    common(p)
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("triviality", help="rigorous sup bracket of the decay functional")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--grid-cap", type=int, default=1 << 25)
    common(p)
    p.set_defaults(func=cmd_triviality)

    p = sub.add_parser("select", help="greedy certified subsequence selection")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--sup-tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("cz-check", help="Calderon-Zygmund invariant audit on a random corpus")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--lambdas", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_cz_check)

    p = sub.add_parser("maximal", help="maximal function level sets and weak-(1,1) ratio")
    p.add_argument("--family", required=True)
    p.add_argument("--indices", required=True, help="comma-separated measure indices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi-span", type=int, default=1 << 10)
    p.add_argument("--phi-atoms", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("weyl-audit", help="Weyl sum vs denominator-shape bound sweep")
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--n", required=True, help="comma-separated N values")
    common(p)
    p.set_defaults(func=cmd_weyl_audit)

    p = sub.add_parser("threshold-audit", help="transform bound audit for perturbed squares")
    p.add_argument("--rho", required=True, help="e.g. power:1/4, log:1.0, const:0")
    p.add_argument("--n-list", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--grid", type=int, default=1 << 18)
    p.add_argument("--row-betas", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_threshold_audit)

    p = sub.add_parser("residues", help="residue-class densities of k^2 + floor(rho(k))")
    p.add_argument("--rho", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--window", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_residues)

    p = sub.add_parser("dynsys-trace", help="weighted ergodic averages along a measure list")
    p.add_argument("--system", required=True, help="rotation:golden, rotation:p/q, cyclic:M")
    p.add_argument("--f", required=True, help="trig:m, indicator:a:b, table:seed")
    p.add_argument("--family", required=True)
    p.add_argument("--indices", required=True)
    p.add_argument("--x-samples", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_dynsys_trace)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
    except (ConfigError, ValueError) as exc:  # ValueError: argument out of range
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SelectionStalled as exc:
        print(f"selection stalled: {exc}", file=sys.stderr)
        print(json.dumps(exc.report, indent=2), file=sys.stderr)
        return EXIT_STALLED
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if rc == EXIT_OK:
        _write_manifest(args.out, args.command, _config_of(args))
    return rc


if __name__ == "__main__":
    sys.exit(main())
