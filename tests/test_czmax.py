import math
from dataclasses import replace

import numpy as np
import pytest

from ergodecay import (
    ResourceCapError,
    cz_decompose,
    cz_report,
    e1_e2_diagnostics,
    fourier_grid,
    make_measure,
    maximal_function,
    point_mass,
    sigma_deficit_sup,
    sigma_n,
    squares_measure,
    triviality_sup,
    weak11_ratio,
)
from ergodecay.czmax import DyadicInterval, sigma_hat_grid
from ergodecay.measures import convolve

from helpers import dyadic_phi, uniform_dyadic_family


def brute_maximal_intervals(phi, lam, s_max=None):
    """Oracle: enumerate every dyadic interval meeting the support; keep those
    with avg |phi| > lam whose every ancestor has avg <= lam."""
    tv = phi.total_variation
    if s_max is None:
        s_max = 0
        while (1 << s_max) * lam < tv:
            s_max += 1
        s_max += 2
    weights = {int(s): abs(w) for s, w in zip(phi.sites, phi.weights)}
    lo, hi = int(phi.sites[0]), int(phi.sites[-1])

    def avg(s, k):
        total = sum(
            weights.get(x, 0.0) for x in range(k << s, (k + 1) << s)
        )
        return total / (1 << s)

    out = []
    for s in range(0, s_max + 1):
        for k in range(lo >> s, (hi >> s) + 1):
            if avg(s, k) > lam:
                ancestors_ok = all(
                    avg(t, k >> (t - s)) <= lam for t in range(s + 1, s_max + 1)
                )
                if ancestors_ok:
                    out.append((s, k))
    return sorted(out)


# -- cz_decompose ---------------------------------------------------------------


def test_cz_below_threshold_everywhere():
    dec = cz_decompose(point_mass(0), 2.0)
    assert dec.selected == ()
    assert dec.good == point_mass(0)


def test_cz_single_point_interval():
    dec = cz_decompose(point_mass(0), 0.5)
    assert [(q.s, q.k) for q in dec.selected] == [(0, 0)]
    q, b = dec.bad[0]
    assert b.n_atoms == 0  # b = phi - mean vanishes on a single point
    assert dec.good == point_mass(0)
    assert np.max(np.abs(dec.good.weights)) <= 2 * 0.5


def test_cz_indicator_block_maximality_climbs():
    phi = make_measure([(x, 1.0) for x in range(4)])
    lam = 0.3
    oracle = brute_maximal_intervals(phi, lam)
    assert oracle == [(3, 0)]  # avg over [0,8) is 0.5 > 0.3, over [0,16) is 0.25
    dec = cz_decompose(phi, lam)
    assert [(q.s, q.k) for q in dec.selected] == oracle
    rep = cz_report(phi, dec)
    assert rep["reconstruction_error"] == 0.0


def test_cz_report_measures_injected_reconstruction_error():
    rng = np.random.default_rng(5)
    phi = dyadic_phi(rng, span=64, n=12)
    dec = cz_decompose(phi, float(np.max(np.abs(phi.weights))) / 8)
    assert dec.bad

    def plus(mu, site, w):
        return make_measure([(int(x), v) for x, v in zip(mu.sites, mu.weights)] + [(site, w)])

    far = int(phi.sites[-1]) + 1000  # outside every piece and off phi's support
    # a site only in the reconstruction
    good = plus(dec.good, far, 0.375j)
    assert cz_report(phi, replace(dec, good=good))["reconstruction_error"] == 0.375
    # a site only in phi
    assert cz_report(plus(phi, far, -0.625), dec)["reconstruction_error"] == 0.625
    # a site inside a selected interval, off by one bad piece
    q, b = dec.bad[0]
    bad = ((q, plus(b, q.start, 0.125)),) + dec.bad[1:]
    assert cz_report(phi, replace(dec, bad=bad))["reconstruction_error"] == 0.125


def test_cz_matches_brute_oracle_on_corpus():
    rng = np.random.default_rng(42)
    for _ in range(25):
        phi = dyadic_phi(rng, span=64, n=10)
        top = float(np.max(np.abs(phi.weights)))
        for lam in (top / 2, top / 8, top / 32):
            dec = cz_decompose(phi, lam)
            assert sorted((q.s, q.k) for q in dec.selected) == brute_maximal_intervals(
                phi, lam
            )


def _check_invariants(phi, lam, dec):
    # reconstruction and mean-zero are exact for dyadic inputs
    rep = cz_report(phi, dec)
    assert rep["reconstruction_error"] == 0.0
    for q, b in dec.bad:
        if b.n_atoms:
            assert all(site in q for site in b.sites.tolist())
            assert math.fsum(b.weights.real) == 0.0
            assert math.fsum(b.weights.imag) == 0.0
            assert b.total_variation <= 4 * lam * q.length + 1e-12
    assert rep["g_inf_norm"] <= 2 * lam + 1e-12
    assert dec.carleson_sum <= phi.total_variation / lam + 1e-12
    ivs = sorted((q.start, q.stop) for q in dec.selected)
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert b1 <= a2  # pairwise disjoint


def test_cz_invariants_small_corpus():
    rng = np.random.default_rng(7)
    for _ in range(60):
        phi = dyadic_phi(rng)
        top = float(np.max(np.abs(phi.weights)))
        for i in range(1, 6):
            _check_invariants(phi, top / (1 << i), cz_decompose(phi, top / (1 << i)))


def test_cz_cross_scale_orthogonality_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        phi = dyadic_phi(rng)
        lam = float(np.max(np.abs(phi.weights))) / 16
        by_scale = cz_decompose(phi, lam).bad_by_scale()
        scales = sorted(by_scale)
        for i, s in enumerate(scales):
            for t in scales[i + 1 :]:
                bs, bt = by_scale[s], by_scale[t]
                inner = 0.0
                for site, w in zip(bs.sites.tolist(), bs.weights):
                    inner += (w * np.conj(bt.weight_at(site))).real
                assert inner == 0.0  # disjoint supports across scales


# -- maximal function -------------------------------------------------------------


def test_maximal_identity_list():
    phi = make_measure([(0, -2.0), (3, 1.0)])
    M = maximal_function(phi, [point_mass(0)])
    assert M.sites.tolist() == [0, 3]
    assert np.allclose(M.weights, [2.0, 1.0])


def test_maximal_translations():
    M = maximal_function(point_mass(0), [point_mass(1), point_mass(2)])
    assert M.sites.tolist() == [1, 2]
    assert np.allclose(M.weights, [1.0, 1.0])


def test_maximal_against_enumeration():
    from ergodecay import perturbed_squares_measure, rho_power
    from fractions import Fraction

    rho = rho_power(Fraction(1, 4))
    measures = [perturbed_squares_measure(rho, n) for n in (2, 3, 5)]
    phi = point_mass(0)
    M = maximal_function(phi, measures)
    sites = set()
    for mu in measures:
        sites.update(mu.sites.tolist())
    for x in sites:
        expected = max(abs(mu.weight_at(x)) for mu in measures)
        assert abs(M.weight_at(x)) == pytest.approx(expected, abs=1e-15)


def test_maximal_monotone_in_list():
    phi = make_measure([(0, 1.0), (1, -0.5)])
    small = maximal_function(phi, [squares_measure(3)])
    big = maximal_function(phi, [squares_measure(3), squares_measure(5)])
    for x in small.sites.tolist():
        assert abs(big.weight_at(x)) >= abs(small.weight_at(x)) - 1e-15


# -- weak (1,1) ratios --------------------------------------------------------------


def test_weak11_point_example():
    assert weak11_ratio(point_mass(0), [point_mass(0)], [0.5]) == pytest.approx(0.5)


def test_weak11_squares_levelset():
    n = 5
    ratio = weak11_ratio(point_mass(0), [squares_measure(n)], [1.0 / (2 * n)])
    assert ratio == pytest.approx(0.5)


def test_weak11_trivial_ceiling():
    rng = np.random.default_rng(3)
    measures = [squares_measure(n) for n in (2, 4, 8, 16)]
    for _ in range(10):
        phi = dyadic_phi(rng, span=64, n=12)
        assert weak11_ratio(phi, measures) <= len(measures) + 1e-9


# -- sigma averages -----------------------------------------------------------------


def test_sigma_n_examples():
    s01 = sigma_n(0, 1)
    assert s01.sites.tolist() == [1, 2]
    assert np.allclose(s01.weights, 0.5)
    s21 = sigma_n(2, 1)
    assert s21.sites.tolist() == list(range(1, 9))
    assert abs(np.sum(s21.weights) - 1.0) < 1e-12
    with pytest.raises(ResourceCapError):
        sigma_n(30, 10)


def test_sigma_hat_closed_form_matches_measure():
    for S_prev, n in ((0, 1), (2, 1), (3, 2)):
        G = 64
        direct = fourier_grid(sigma_n(S_prev, n), G)
        closed = sigma_hat_grid(S_prev, n, G)
        assert np.max(np.abs(direct - closed)) < 1e-12
        assert closed[0] == pytest.approx(1.0)


def test_sigma_deficit_delta0_vs_grid_oracle():
    report = sigma_deficit_sup(point_mass(0), 0, 1, 1e-6)
    br = report["bracket"]
    # oracle on a refinement of the bracket's grid, sigma materialized
    G = 4 * br.grid_size
    oracle = np.max(np.abs(1.0 - fourier_grid(sigma_n(0, 1), G)))
    assert br.lower - 1e-9 <= oracle <= br.upper + 1e-9
    assert br.upper >= 1.4  # the deficit is large for tiny supports


def test_sigma_deficit_sigma_itself():
    mu = sigma_n(1, 1)
    report = sigma_deficit_sup(mu, 1, 1, 1e-6)
    br = report["bracket"]
    G = 4 * br.grid_size
    vals = fourier_grid(mu, G)
    oracle = np.max(np.abs(vals * (1.0 - sigma_hat_grid(1, 1, G))))
    assert br.lower - 1e-9 <= oracle <= br.upper + 1e-9


def test_sigma_deficit_paper_chain():
    # sup |mu_hat (1 - sigma_hat)| <= 2^(S+n) * triviality upper, always
    mu = squares_measure(6)
    for S_prev, n in ((0, 1), (1, 2)):
        report = sigma_deficit_sup(mu, S_prev, n, 1e-4)
        assert report["bracket"].upper <= report["paper_bound"] + 1e-3


def test_sigma_convolution_smoothing_bound():
    # ||sigma_n * b||_1 <= 2^(-S_prev-n+s+1) ||b||_1 for mean-zero b on a 2^s block
    for S_prev, n, s in ((2, 1, 0), (3, 1, 1), (3, 2, 2)):
        sigma = sigma_n(S_prev, n)
        b = make_measure([(0, 1.0), ((1 << s) - 1, -1.0)] if s else [(0, 1.0), (0, -1.0)])
        if b.n_atoms == 0:  # s = 0 has no room for a nonzero mean-zero b
            continue
        value = convolve(sigma, b).total_variation
        bound = 2.0 ** (-S_prev - n + s + 1) * b.total_variation
        assert value <= bound + 1e-9


# -- E1/E2 diagnostics ----------------------------------------------------------------


def test_e1_e2_zero_when_no_bad_intervals():
    fam = uniform_dyadic_family()
    from ergodecay import select_subsequence

    state = select_subsequence(fam, 2, search_cap=64)
    phi = make_measure([(0, 0.125), (5, 0.125)])
    rows = e1_e2_diagnostics(phi, state, fam, lam=1.0)
    assert all(r["e1_value"] == 0.0 and r["e2_value"] == 0.0 for r in rows)


def test_e1_e2_bounds_hold_on_corpus():
    fam = uniform_dyadic_family()
    from ergodecay import select_subsequence

    state = select_subsequence(fam, 2, search_cap=64)
    rng = np.random.default_rng(21)
    for _ in range(8):
        phi = dyadic_phi(rng, span=48, n=10)
        lam = float(np.max(np.abs(phi.weights))) / 8
        rows = e1_e2_diagnostics(phi, state, fam, lam=lam)
        for r in rows:
            assert r["e1_value"] <= r["e1_bound"] + 1e-9
            assert r["e2_value"] <= r["e2_bound_actual"] + 1e-9
            # this family satisfies the selection inequality, so the pure
            # decay form of the E2 bound applies as well
            assert r["e2_value"] <= r["e2_bound_paper"] + 1e-9


def test_dyadic_interval_geometry():
    q = DyadicInterval(3, -1)
    assert q.start == -8 and q.stop == 0 and q.length == 8
    assert -1 in q and 0 not in q and -8 in q
