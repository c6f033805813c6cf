import math
from dataclasses import replace

import mpmath
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
    weak11_rows,
)
from ergodecay.czmax import DyadicInterval, sigma_hat_grid
from ergodecay.measures import SupBracket, _from_arrays, convolve

from helpers import (
    dense_cz_decompose,
    dyadic_phi,
    uniform_dyadic_family,
    uniform_zero_based_family,
)


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
    assert dec.bad_sum.n_atoms == 0  # b = phi - mean vanishes on a single point
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
    assert dec.selected

    def plus(mu, site, w):
        return make_measure([(int(x), v) for x, v in zip(mu.sites, mu.weights)] + [(site, w)])

    far = int(phi.sites[-1]) + 1000  # outside every piece and off phi's support
    # a site only in the reconstruction
    good = plus(dec.good, far, 0.375j)
    assert cz_report(phi, replace(dec, good=good))["reconstruction_error"] == 0.375
    # a site only in phi
    assert cz_report(plus(phi, far, -0.625), dec)["reconstruction_error"] == 0.625
    # a site inside a selected interval, off in the sum of the bad pieces
    q = dec.selected[0]
    off = replace(dec, bad_sum=plus(dec.bad_sum, q.start, 0.125))
    assert cz_report(phi, off)["reconstruction_error"] == 0.125


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


def _same_measure(a, b):
    return (
        a.sites.tobytes() == b.sites.tobytes()
        and a.weights.tobytes() == b.weights.tobytes()
        and a.total_variation == b.total_variation
    )


def _tie_lambdas(phi):
    """Averages of |phi| over dyadic blocks at the largest atom, exact for
    dyadic values: lambda equal to a block average, which is not selected."""
    site = int(phi.sites[np.argmax(np.abs(phi.weights))])
    out = []
    for s in (1, 2, 3):
        start = (site >> s) << s
        inside = (phi.sites >= start) & (phi.sites < start + (1 << s))
        out.append(float(np.sum(np.abs(phi.weights[inside]))) / (1 << s))
    return out


def test_cz_matches_dense_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 40, size=30).tolist()
    corpus = [dyadic_phi(rng, span=64 << (i % 6), n=n) for i, n in enumerate(sizes)]
    for _ in range(30):  # non-dyadic complex weights: the block means round
        n = int(rng.integers(1, 40))
        sites = rng.integers(-3000, 3000, size=n).tolist()
        weights = rng.normal(size=n) + 1j * rng.normal(size=n)
        corpus.append(make_measure(zip(sites, weights)))
    for phi in corpus:
        top, tv = float(np.max(np.abs(phi.weights))), phi.total_variation
        lams = [top / 2, top / 8, tv / 64, tv / 1024] + _tie_lambdas(phi)
        for lam in lams:
            dec = cz_decompose(phi, lam)
            selected, good, bad = dense_cz_decompose(phi, lam)
            assert dec.selected == selected
            assert _same_measure(dec.good, good)
            assert [q for q, _ in bad] == list(selected)
            bad_sum = _from_arrays(  # the reference pieces, concatenated
                np.concatenate([np.zeros(0, np.int64), *(b.sites for _, b in bad)]),
                np.concatenate([np.zeros(0, np.complex128), *(b.weights for _, b in bad)]),
            )
            assert _same_measure(dec.bad_sum, bad_sum)
    for phi in corpus[:30]:  # dyadic values: the tie lambdas are exact averages
        site = int(phi.sites[np.argmax(np.abs(phi.weights))])
        for s, lam in zip((1, 2, 3), _tie_lambdas(phi)):
            assert DyadicInterval(s, site >> s) not in cz_decompose(phi, lam).selected


def test_cz_tie_at_lambda_not_selected():
    phi = make_measure([(0, 3.0), (1, 1.0), (5, 0.5)])
    dec = cz_decompose(phi, 2.0)  # average over [0, 2) is exactly 2.0
    assert [(q.s, q.k) for q in dec.selected] == brute_maximal_intervals(phi, 2.0)
    assert brute_maximal_intervals(phi, 2.0) == [(0, 0)]


def test_cz_far_apart_atoms_need_no_dense_window():
    # A window over [0, 2^40 + 2) would be 16 TiB of complex128; the tree holds
    # at most two nodes per level.
    far = 1 << 40
    phi = make_measure([(0, 3.0), (far + 1, 1.0)])
    dec = cz_decompose(phi, 0.5)  # tv = 4, so the top scale is 3
    # [0, 4) has average 3/4 > 0.5 and [0, 8) has 3/8; at the far atom only
    # the single point {far + 1} has average above 0.5
    assert [(q.s, q.k) for q in dec.selected] == [(2, 0), (0, far + 1)]
    assert dec.good == make_measure([(x, 0.75) for x in range(4)] + [(far + 1, 1.0)])
    assert dec.bad_sum == make_measure([(0, 2.25), (1, -0.75), (2, -0.75), (3, -0.75)])
    assert cz_report(phi, dec)["reconstruction_error"] == 0.0


def _check_invariants(phi, lam, dec):
    # reconstruction and mean-zero are exact for dyadic inputs
    rep = cz_report(phi, dec)
    assert rep["reconstruction_error"] == 0.0
    b = dec.bad_sum
    cuts = np.searchsorted(b.sites, [[q.start, q.stop] for q in dec.selected])
    assert sum(j - i for i, j in cuts.tolist()) == b.n_atoms  # all inside some Q
    for q, (i, j) in zip(dec.selected, cuts.tolist()):
        assert math.fsum(b.weights[i:j].real) == 0.0
        assert math.fsum(b.weights[i:j].imag) == 0.0
        assert math.fsum(np.abs(b.weights[i:j])) <= 4 * lam * q.length + 1e-12
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


def test_weak11_rows_count_level_sets():
    # M = |phi| for the point mass at 0; its values are 3, 2, 1 (/ 4)
    phi = make_measure([(0, 0.75), (5, -0.5), (9, 0.25j)])
    M = maximal_function(phi, [point_mass(0)])
    rows = weak11_rows(phi, M, [1.0, 0.5, 0.25, 0.125])
    assert rows == [(1.0, 0, 0.0), (0.5, 1, 0.5 / 1.5), (0.25, 2, 0.5 / 1.5), (0.125, 3, 0.375 / 1.5)]
    assert weak11_ratio(phi, [point_mass(0)], [1.0, 0.5, 0.25, 0.125]) == 0.5 / 1.5
    # the default lambdas: max|phi| halved down to ||phi||_1 / 2^20
    assert [lam for lam, _, _ in weak11_rows(phi, M)] == [0.75 / (1 << i) for i in range(20)]
    assert weak11_ratio(phi, [point_mass(0)], [2.0]) == 0.0  # empty level sets


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
        closed = sigma_hat_grid(S_prev, n, np.arange(G), G)
        assert np.max(np.abs(direct - closed)) < 1e-12
        assert closed[0] == pytest.approx(1.0)


def test_sigma_hat_grid_bit_identical_to_formula():
    # the closed form as written, one temporary per operation
    # 2^21 + 3 points: an odd G, where G // 2 is not G/2 in the residue reduction
    cases = ((0, 1, 64), (3, 2, 1000), (6, 3, 4096), (20, 1, 1 << 14), (6, 3, (1 << 21) + 3))
    for S_prev, n, G in cases:
        M = 1 << (S_prev + n)
        m = np.arange(G, dtype=np.int64)
        r = (M * m + G // 2) % (2 * G) - G // 2
        num = np.sin(np.pi * np.where(r > G // 2, G - r, r) / G)
        den = M * np.sin(np.pi * np.minimum(m, G - m) / G)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(den == 0.0, 1.0, num / den)
        angle = np.pi * (((M + 1) * m) % (2 * G)) / G
        want = np.empty(G, dtype=np.complex128)
        want.real, want.imag = np.cos(angle) * ratio, np.sin(angle) * ratio
        assert sigma_hat_grid(S_prev, n, m, G).tobytes() == want.tobytes(), (S_prev, n, G)


@pytest.mark.parametrize("G", [4096, 1 << 25])
@pytest.mark.parametrize("S_prev, n", [(0, 1), (6, 3)])
def test_sigma_hat_grid_accurate_near_one(S_prev, n, G):
    # sin(pi m/G) is tiny near m = G: an unreduced angle there is off by up to
    # G ulps (about 7e-10 at m = G - 1 for G = 2^25, M = 512)
    M = 1 << (S_prev + n)
    m = np.array([0, 1, 7, G // 2 - 1, G // 2, G // 3, G - 1000, G - 7, G - 2, G - 1])
    got = sigma_hat_grid(S_prev, n, m, G)
    for mi, v in zip(m.tolist(), got):
        with mpmath.workdps(40):
            g = mpmath.mpf(mi) / G
            exact = complex(
                mpmath.expjpi((M + 1) * g) * mpmath.sinpi(M * g) / (M * mpmath.sinpi(g))
                if mi else 1
            )
        assert abs(complex(v) - exact) <= 30 * 2.0**-53, (mi, v)


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
    oracle = np.max(np.abs(vals * (1.0 - sigma_hat_grid(1, 1, np.arange(G), G))))
    assert br.lower - 1e-9 <= oracle <= br.upper + 1e-9


def test_sigma_deficit_zero_measure_reports_every_key():
    report = sigma_deficit_sup(make_measure([]), 1, 2, 1e-6)
    assert report["bracket"] == SupBracket(0.0, 0.0, 0)
    assert report["triviality_upper"] == report["paper_bound"] == 0.0
    assert report["paper_target"] == 2.0**-3


@pytest.mark.parametrize("S_prev, n", [(-1, 1), (2, 0), (1, -3)])
def test_sigma_deficit_rejects_what_sigma_n_rejects(S_prev, n):
    with pytest.raises(ValueError, match="need S_prev >= 0 and n >= 1"):
        sigma_n(S_prev, n)
    with pytest.raises(ValueError, match="need S_prev >= 0 and n >= 1"):
        sigma_deficit_sup(point_mass(0), S_prev, n, 1e-3)


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
    # mu_1 spans four sites, so S(n_1) = 2 and the scales 0 and 1 of b enter
    # B; with S(n_1) <= 1 only scale 0 would, and b vanishes there.
    fam = uniform_zero_based_family(shift=1)
    from ergodecay import select_subsequence

    state = select_subsequence(fam, 2, search_cap=64)
    assert state.chosen == [1, 9] and state.S_values == [2, 10]
    rng = np.random.default_rng(21)
    nonzero = 0
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
            nonzero += r["e1_value"] > 0
    assert nonzero > 0


def test_dyadic_interval_geometry():
    q = DyadicInterval(3, -1)
    assert q.start == -8 and q.stop == 0 and q.length == 8
    assert -1 in q and 0 not in q and -8 in q
