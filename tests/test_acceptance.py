"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 02 and 09 cover
subsequence selection.  The paper proves that *some* subsequence exists once
mu_hat_n -> 0 on compacts of (0,1); it says nothing of where that subsequence
starts.  For perturbed:power:1/4 it starts far beyond any desk-scale cap: the
atoms have weight 1/N at pairwise non-adjacent sites, so Parseval gives
sup |(1 - e) mu_hat_N| >= sqrt(2/N).  The stage-2 bound 2^-6 then needs
n_2 >= 8192, hence S(n_2) >= 27 and a stage-3 bound <= 2^-60, and Parseval
forces n_3 >= 2^121 whatever the cap.  Criterion 02 therefore asserts the
certified stage-2 stall of that family at the cap 10^5, and runs the positive
path on a family that meets the hypothesis and selects three indices at desk
scale (uniform on {0..2^(n-1)-1}); criterion 09 checks the sigma-deficit
chain on that selection.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from ergodecay import (
    SelectionStalled,
    convolve,
    cz_decompose,
    dirichlet_approx,
    fourier_at,
    fourier_grid,
    gauss_sum,
    make_measure,
    modulate,
    parse_family,
    perturbed_squares_measure,
    quadratic_residues,
    residue_density,
    rho_log,
    rho_power,
    rotated_squares_measure,
    select_subsequence,
    sigma_deficit_sup,
    squares_family,
    squares_measure,
    triviality_sup,
    verify_selection,
    weyl_bound_audit,
)
from ergodecay.cli import main as cli_main
from helpers import CLI_COMMANDS, dyadic_phi, uniform_zero_based_family


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} [{name}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    dt = time.time() - t0
    verdict = "PASS" if dt <= budget_s else "FAIL (over budget)"
    print(f"\nACCEPTANCE {num:02d} [{name}]: {verdict} ({dt:.1f}s, budget {budget_s:.0f}s)")
    assert dt <= budget_s, f"runtime {dt:.1f}s exceeded budget {budget_s}s"


# -- 01: Calderon-Zygmund invariant suite ---------------------------------------


def _audit_cz(phi, lam):
    dec = cz_decompose(phi, lam)
    b = dec.bad_sum
    starts = np.array([q.start for q in dec.selected], dtype=np.int64)
    stops = np.array([q.stop for q in dec.selected], dtype=np.int64)
    # every atom of sum b lies in a selected interval
    holder = np.searchsorted(starts, b.sites, side="right") - 1
    assert np.all(holder >= 0) and np.all(b.sites < stops[holder])
    # cut sum b into the b_Q at the selected intervals
    cuts = np.searchsorted(b.sites, [starts, stops]).T.tolist()
    re, im = b.weights.real.tolist(), b.weights.imag.tolist()
    mags = np.abs(b.weights).tolist()
    for q, (i, j) in zip(dec.selected, cuts):
        # mean zero, exactly (dyadic inputs)
        assert math.fsum(re[i:j]) == 0.0
        assert math.fsum(im[i:j]) == 0.0
        assert math.fsum(mags[i:j]) <= 4.0 * lam * q.length + 1e-12
    # g + sum b - phi, merged per site over the union of the three supports
    parts = (dec.good, b)
    sites = np.concatenate([phi.sites, *(m.sites for m in parts)])
    uniq, at = np.unique(sites, return_inverse=True)
    dense = np.zeros(len(uniq), dtype=np.complex128)
    dense[at[: phi.n_atoms]] = phi.weights
    recon = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(recon, at[phi.n_atoms :], np.concatenate([m.weights for m in parts]))
    assert np.max(np.abs(recon - dense)) <= 1e-12
    if dec.good.n_atoms:
        assert np.max(np.abs(dec.good.weights)) <= 2.0 * lam + 1e-12
    assert dec.carleson_sum <= phi.total_variation / lam + 1e-9
    spans = sorted((q.start, q.stop) for q in dec.selected)
    for (a1, b1), (a2, _) in zip(spans, spans[1:]):
        assert b1 <= a2


def test_criterion_01_cz_invariants():
    with criterion(1, "cz-invariants", 60):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            phi = dyadic_phi(rng, span=1 << 14, n=int(rng.integers(1, 160)))
            tv = phi.total_variation
            for i in range(1, 11):
                _audit_cz(phi, tv / (1 << i))


# -- 02/09: selection, the certified stall and the positive path -----------------


def _positive_selection():
    """Three-stage selection on a family that meets the paper's hypothesis."""
    fam = uniform_zero_based_family()
    return fam, select_subsequence(fam, 3, search_cap=10**5)


@pytest.mark.slow
def test_criterion_02_selection_positive_path():
    with criterion(2, "selection-positive-path", 600):
        # perturbed:power:1/4 meets the hypothesis, but its first admissible
        # stage-2 index lies beyond the cap (n_2 >= 8192 by Parseval, and then
        # n_3 >= 2^121): the program must report a certified stall at stage 2
        fam = parse_family("perturbed:power:0.25")
        with pytest.raises(SelectionStalled) as exc:
            select_subsequence(fam, 3, search_cap=10**5)
        rep = exc.value.report
        assert rep["stage"] == 2
        assert rep["bound"] == 2.0**-6
        assert rep["search_cap"] == 10**5
        assert rep["rejected"] == 99999
        assert rep["uncertifiable"] == 0
        assert rep["skipped_support"] == 0
        assert rep["chosen_so_far"] == [1]
        assert rep["best_sup_lower"] >= 0.1141956725894561
        assert rep["best_sup_lower"] > rep["bound"]

        fam, state = _positive_selection()
        # functional 2^(2-n) against stage bounds 2^-4 and 2^-18 (see helpers)
        assert state.chosen == [1, 7, 21]
        assert state.S_values == [0, 6, 20]
        rows = verify_selection(fam, state)
        for row in rows[1:]:
            assert row["margin"] >= 0


def test_criterion_09_sigma_deficit_chain():
    with criterion(9, "sigma-deficit-chain", 300):
        fam, state = _positive_selection()
        assert len(state.chosen) == 3
        for k in range(2, len(state.chosen) + 1):
            S_prev = state.S_values[k - 2]
            mu = fam.measure(state.chosen[k - 1])
            report = sigma_deficit_sup(mu, S_prev, k, tol=1e-6)
            upper = report["bracket"].upper
            bound, target = report["paper_bound"], report["paper_target"]
            assert upper <= bound + 1e-9, (
                f"k={k}: sup |mu_hat (1 - sigma_hat)| <= {upper:.6g} exceeds "
                f"2^(S+n) * triviality upper {bound:.6g}"
            )
            assert bound <= target + 1e-9, (
                f"k={k}: 2^(S+n) * triviality upper {bound:.6g} exceeds the "
                f"target 2^-(S+n) = {target:.6g}"
            )


# -- 03: selection negative witness ------------------------------------------------


def test_criterion_03_selection_negative_witness():
    with criterion(3, "selection-negative-witness", 300):
        with pytest.raises(SelectionStalled) as exc:
            select_subsequence(squares_family(), 2, search_cap=10**4)
        report = exc.value.report
        assert report["best_sup_lower"] >= 0.9
        assert report["stage"] == 2


# -- 04: Weyl bound audit ------------------------------------------------------------


def test_criterion_04_weyl_bound_audit():
    with criterion(4, "weyl-bound-audit", 600):
        max_ratio = 0.0
        for N in (64, 256, 1024, 4096):
            for m in range(1024):
                row = weyl_bound_audit(N, m / 1024)
                max_ratio = max(max_ratio, row.ratio)
        # observed max on this sweep: ~0.97 (the shape constant is close to 1)
        assert max_ratio <= 10.0


# -- 05: Dirichlet certificates ---------------------------------------------------------


def test_criterion_05_dirichlet_certificates():
    with criterion(5, "dirichlet-certificates", 60):
        rng = np.random.default_rng(5)
        betas = rng.random(10**5)
        qmaxes = 10.0 ** rng.uniform(0.0, 7.0, size=10**5)
        failures = 0
        for beta, q_max in zip(betas, qmaxes):
            cert = dirichlet_approx(float(beta), float(q_max))
            # exact rational arithmetic: q <= q_max and err*q*q_max <= 1
            if not (cert.q <= cert.q_max and cert.error * cert.q * cert.q_max <= 1):
                failures += 1
        assert failures == 0


# -- 06: Gauss-sum magnitudes --------------------------------------------------------------


def test_criterion_06_gauss_sum_magnitudes():
    with criterion(6, "gauss-magnitudes", 60):
        for q in range(3, 201, 2):
            m, squarefree = q, True
            d = 3
            while d * d <= m:
                if m % (d * d) == 0:
                    squarefree = False
                    break
                d += 2
            if not squarefree:
                continue
            target = q**-0.5
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    assert abs(abs(gauss_sum(p, q)) - target) <= 1e-10


# -- 07: threshold dichotomy shadow -----------------------------------------------------------


def test_criterion_07_threshold_dichotomy():
    with criterion(7, "threshold-dichotomy", 1800):
        G = 1 << 20
        gam = np.arange(G) / G
        mask = (gam >= 0.05) & (gam <= 0.95)
        phase = 1.0 - np.exp(2j * np.pi * gam[mask])
        rho_good = rho_power(Fraction(1, 4))
        grid_maxes = []
        for N in (1 << k for k in range(10, 16)):
            mu = perturbed_squares_measure(rho_good, N)
            vals = fourier_grid(mu, G)[mask]
            grid_maxes.append(float(np.max(np.abs(phase * vals))))
        for a, b in zip(grid_maxes, grid_maxes[1:]):
            assert b < a, f"running max not strictly decreasing: {grid_maxes}"

        rho_bad = rho_log(1.0)
        for N in (1 << k for k in range(10, 16)):
            mu = perturbed_squares_measure(rho_bad, N)
            assert abs(fourier_at(mu, Fraction(1, 4))) >= 0.2


# -- 08: transference identity -------------------------------------------------------------------


def test_criterion_08_transference_identity():
    with criterion(8, "transference-identity", 60):
        rng = np.random.default_rng(8)
        phis = []
        for _ in range(100):
            n_atoms = int(rng.integers(1, 12))
            phis.append(
                make_measure(
                    (int(s), complex(a, b))
                    for s, a, b in zip(
                        rng.integers(-30, 30, n_atoms),
                        rng.normal(size=n_atoms),
                        rng.normal(size=n_atoms),
                    )
                )
            )
        for n in range(4, 65):
            theta = n**-0.5
            mu = rotated_squares_measure(n, "quadratic")
            nu = squares_measure(n)
            for phi in phis:
                if phi.n_atoms == 0:
                    continue
                lhs = convolve(mu, phi)
                rhs = modulate(convolve(nu, modulate(phi, -theta % 1.0)), theta % 1.0)
                assert lhs.sites.tolist() == rhs.sites.tolist()
                assert np.max(np.abs(lhs.weights - rhs.weights)) <= 1e-9


# -- 10: residue densities ---------------------------------------------------------------------


def test_criterion_10_residue_density():
    with criterion(10, "residue-density", 300):
        N = 10**6
        j = np.arange(1, N + 1, dtype=np.int64)
        for Q in (15, 105):
            counts = np.bincount((j * j) % Q, minlength=Q)
            exact = {a: 0 for a in range(Q)}
            for k in range(Q):
                exact[(k * k) % Q] += 1
            for a in quadratic_residues(Q):
                assert abs(counts[a] / N - exact[a] / Q) <= 1e-3
        # the log side: min hit-class density respects 1/(3 C |Lambda_Q|)
        prof = residue_density(rho_log(1.0), 15, [250_000, 500_000, 1_000_000])
        assert prof.bound is not None and prof.bound_met
        assert prof.min_nonzero_density >= prof.bound
        # Q = 105 at desk scale: reported, not asserted -- the thinnest class
        # (a = 70: one root mod 5 and 7 each) undercuts the shape at N = 1e6
        prof105 = residue_density(rho_log(1.0), 105, [250_000, 500_000, 1_000_000])
        print(
            f"\n  [info] Q=105: min density {prof105.min_nonzero_density:.5f} "
            f"vs shape bound {prof105.bound:.5f} (met: {prof105.bound_met})"
        )


# -- 11: determinism across runs and thread counts ------------------------------------------------


def _run_cli(tmp_path, name, *args):
    out = tmp_path / name
    rc = cli_main([*args, "--out", str(out)])
    assert rc == 0, f"command failed: {args}"
    return out.read_bytes()


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "cli-determinism", 600):
        for name, args in CLI_COMMANDS.items():
            first = _run_cli(tmp_path, f"{name}-a.dat", *args)
            second = _run_cli(tmp_path, f"{name}-b.dat", *args)
            assert first == second, f"{name}: outputs differ between runs"
