import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodecay import (
    ResourceCapError,
    certify_sup_below,
    convolve,
    fourier_at,
    fourier_grid,
    make_measure,
    measure_from_json,
    measure_to_json,
    modulate,
    perturbed_squares_measure,
    point_mass,
    rho_power,
    rotated_squares_measure,
    sigma_n,
    squares_measure,
    triviality_sup,
    write_fourier_csv,
)
from helpers import uniform_zero_based_family


def brute_fourier(mu, gamma):
    """Independent oracle: exact rational phase reduction, plain summation."""
    g = Fraction(gamma) if not isinstance(gamma, Fraction) else gamma
    total = 0j
    for site, w in zip(mu.sites.tolist(), mu.weights):
        total += complex(w) * cmath.exp(2j * cmath.pi * float((site * g) % 1))
    return total


def brute_trivial_max(mu, G):
    """Grid max of |(1-e)mu_hat| evaluated without the FFT fold."""
    best = 0.0
    for m in range(G):
        g = Fraction(m, G)
        v = abs((1 - cmath.exp(2j * cmath.pi * m / G)) * brute_fourier(mu, g))
        best = max(best, v)
    return best


# -- construction -------------------------------------------------------------


def test_point_mass_is_probability():
    mu = make_measure([(0, 1)])
    assert mu.n_atoms == 1
    assert mu.total_variation == pytest.approx(1.0, abs=1e-15)
    assert mu.is_probability


def test_duplicate_sites_merge():
    mu = make_measure([(1, 0.5), (1, 0.5)])
    assert mu.n_atoms == 1
    assert mu.weight_at(1) == pytest.approx(1.0)
    assert mu.is_probability


def test_complex_weight_disqualifies_probability():
    mu = make_measure([(4, 0.5), (9, 0.5j)])
    assert mu.total_variation == pytest.approx(1.0, abs=1e-12)
    assert not mu.is_probability


def test_zero_weights_dropped_and_nonfinite_rejected():
    mu = make_measure([(3, 1.0), (5, -1.0), (5, 1.0)])
    assert mu.n_atoms == 1
    with pytest.raises(ValueError):
        make_measure([(0, float("inf"))])
    with pytest.raises(ValueError):
        make_measure([(0, float("nan"))])


@pytest.mark.parametrize(
    "atoms",
    [[(0, 1e308), (1, 1e308)], [(0, 1.5e308 + 1.5e308j)]],
)
def test_total_variation_overflow_is_value_error(atoms):
    # the sum, or a single |w| of finite parts, exceeds the double range
    with pytest.raises(ValueError, match="overflows"):
        make_measure(atoms)


def _fsum_tv(mu):
    return math.fsum(np.abs(mu.weights))


@pytest.mark.parametrize("n", [1, 3, 7, 49, 1000, 12345, 50021])
def test_total_variation_is_fsum_for_uniform_families(n):
    # equal-magnitude weights take the n*|w_0| shortcut; it must equal fsum bit for bit
    for mu in (
        squares_measure(n),
        perturbed_squares_measure(rho_power(Fraction(1, 4)), n),
        rotated_squares_measure(n),
    ):
        assert mu.total_variation == _fsum_tv(mu)


def test_total_variation_is_fsum_for_sigma_n():
    for S_prev, n in ((0, 1), (1, 2), (3, 4), (6, 3), (10, 10)):
        mu = sigma_n(S_prev, n)
        assert mu.total_variation == _fsum_tv(mu) == 1.0


def test_total_variation_is_fsum_for_mixed_magnitudes():
    # unequal magnitudes take the fsum fallback
    mu = make_measure([(0, 0.1), (1, 0.1), (2, 0.1), (5, 1e-17), (9, -0.25j)])
    assert mu.total_variation == _fsum_tv(mu) == math.fsum([0.1, 0.1, 0.1, 1e-17, 0.25])
    merged = make_measure([(4, 1 / 3), (4, 1 / 3), (6, 1 / 3)])
    assert merged.total_variation == _fsum_tv(merged)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5000),
    st.floats(1e-300, 1e300),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_total_variation_is_fsum_for_equal_magnitudes(n, mag, turn):
    w = mag * cmath.exp(2j * cmath.pi * turn)
    mu = make_measure((j, w) for j in range(n))
    assert mu.total_variation == _fsum_tv(mu)


# -- fourier_at ---------------------------------------------------------------


def test_fourier_delta0_any_gamma():
    mu = point_mass(0)
    for g in (0.0, 0.3, 0.99):
        assert fourier_at(mu, g) == pytest.approx(1.0, abs=1e-14)


def test_fourier_delta1_quarter_is_i():
    assert fourier_at(point_mass(1), 0.25) == pytest.approx(1j, abs=1e-14)


def test_fourier_nu4_quarter():
    nu4 = squares_measure(4)
    expected = brute_fourier(nu4, Fraction(1, 4))
    assert expected == pytest.approx((1 + 1j) / 2, abs=1e-14)
    assert fourier_at(nu4, 0.25) == pytest.approx(expected, abs=1e-12)


def test_fourier_accepts_exact_fractions():
    mu = squares_measure(50)
    g = Fraction(1, 3)
    assert fourier_at(mu, g) == pytest.approx(brute_fourier(mu, g), abs=1e-12)


def test_fourier_large_sites_phase_accuracy():
    # sites ~ 1e9 would lose ~1e-7 of phase without compensated products
    mu = make_measure([(10**9 + 7, 1.0)])
    gamma = 0.1234567890123
    exact = cmath.exp(2j * cmath.pi * float((Fraction(10**9 + 7) * Fraction(gamma)) % 1))
    assert fourier_at(mu, gamma) == pytest.approx(exact, abs=1e-12)


def test_fourier_float_path_rejects_sites_beyond_2_53():
    # 2^60 + 1 rounds to 2^60 as a double, which would silently give 1+0j
    for site in (2**60 + 1, -(2**60 + 1), 2**53 + 1):
        with pytest.raises(ValueError, match="2\\^53"):
            fourier_at(point_mass(site), 0.1)
    assert fourier_at(point_mass(2**53), 0.25) == pytest.approx(1.0, abs=1e-15)
    # the exact Fraction path still serves those sites: (2^60 + 1) / 10 = 0.7 mod 1
    mu = point_mass(2**60 + 1)
    expected = cmath.exp(2j * cmath.pi * 0.7)
    assert fourier_at(mu, Fraction(1, 10)) == pytest.approx(expected, abs=1e-15)
    assert brute_fourier(mu, Fraction(1, 10)) == pytest.approx(expected, abs=1e-15)


# -- fourier_grid -------------------------------------------------------------


def test_grid_delta0():
    assert np.allclose(fourier_grid(point_mass(0), 4), np.ones(4))


def test_grid_delta1_powers_of_i():
    got = fourier_grid(point_mass(1), 4)
    assert np.allclose(got, [1, 1j, -1, -1j], atol=1e-14)


def test_grid_fast_and_direct_paths_agree():
    nu = squares_measure(100)
    fast = fourier_grid(nu, 1024)
    direct = np.array([fourier_at(nu, Fraction(m, 1024)) for m in range(1024)])
    assert np.max(np.abs(fast - direct)) < 1e-10


def test_grid_matches_pointwise():
    nu = squares_measure(37)
    got = fourier_grid(nu, 64)
    for m in (0, 1, 13, 63):
        assert got[m] == pytest.approx(fourier_at(nu, Fraction(m, 64)), abs=1e-10)


# -- triviality_sup -----------------------------------------------------------


def test_triviality_delta0_bracket_contains_two():
    br = triviality_sup(point_mass(0), 1e-6)
    assert br.lower <= 2.0 <= br.upper
    assert br.width <= 1e-6


def test_triviality_uniform_interval():
    n = 64
    mu = make_measure([(j, 1.0 / n) for j in range(1, n + 1)])
    br = triviality_sup(mu, 1e-4)
    # |(1-e)sigma_hat| = |e(g) - e((n+1)g)|/n <= 2/n
    assert br.upper <= 2.0 / n + 1e-3
    assert br.upper <= 0.5
    oracle = brute_trivial_max(mu, 640)
    assert br.lower - 1e-9 <= oracle <= br.upper + 1e-9


def test_triviality_squares_does_not_vanish():
    nu = squares_measure(200)
    br = triviality_sup(nu, 1e-3)
    # oracle: the value at gamma = 1/4 alone is |(1-i)(1+i)/2| = 1
    at_quarter = abs((1 - cmath.exp(2j * cmath.pi * 0.25)) * brute_fourier(nu, Fraction(1, 4)))
    assert at_quarter == pytest.approx(1.0, abs=1e-12)
    assert br.lower >= 0.9


def test_triviality_resource_error():
    mu = make_measure([(0, 0.5), (10**6, 0.5)])
    with pytest.raises(ResourceCapError):
        triviality_sup(mu, 1e-9, grid_cap=1 << 14)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_triviality_bracket_contains_finer_grid_max(data):
    n = data.draw(st.integers(1, 12))
    atoms = [
        (data.draw(st.integers(-300, 300)), complex(data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2))))
        for _ in range(n)
    ]
    mu = make_measure(atoms)
    if mu.n_atoms == 0:
        return
    br = triviality_sup(mu, 1e-3)
    finer = np.max(
        np.abs(
            (1 - np.exp(2j * np.pi * np.arange(10 * br.grid_size) / (10 * br.grid_size)))
            * fourier_grid(mu, 10 * br.grid_size)
        )
    )
    assert br.lower - 1e-9 <= finer <= br.upper + 1e-9


# -- certify_sup_below: the functional of the zero-based family is exactly 2^(2-n)


@pytest.mark.parametrize(
    "threshold, grid_cap, verdict",
    [
        (0.2, 1 << 25, True),
        (0.1, 1 << 25, False),
        (0.125 * (1 + 1e-6), 1 << 25, True),  # decided only after refinement
        (0.125 * (1 + 1e-6), 4096, None),  # the same gap needs a grid past the cap
    ],
)
def test_certify_sup_below_verdicts(threshold, grid_cap, verdict):
    exact = 0.125  # n = 5
    got, lower, upper, grid = certify_sup_below(
        uniform_zero_based_family().measure(5), threshold, grid_cap=grid_cap
    )
    assert got is verdict
    assert lower <= exact <= upper
    assert grid <= grid_cap
    if verdict is True:
        assert upper <= threshold
    if verdict is False:
        assert lower > threshold


def test_certify_sup_below_roundoff_tie_is_undecided():
    # the sup equals the threshold, so no grid can separate them: give up at once
    verdict, lower, upper, grid = certify_sup_below(
        uniform_zero_based_family().measure(5), 0.125
    )
    assert verdict is None
    assert grid == 4096
    assert lower <= 0.125 <= upper


# -- convolve -----------------------------------------------------------------


def test_convolve_identity_and_translation():
    phi = make_measure([(0, 1.0), (3, -2.0), (7, 1j)])
    assert convolve(point_mass(0), phi) == phi
    got = convolve(point_mass(2), point_mass(3))
    assert got == point_mass(5)


def test_convolve_nu2_difference():
    # oracle by direct expansion: nu2 * (d0 - d1)
    nu2 = squares_measure(2)
    phi = make_measure([(0, 1.0), (1, -1.0)])
    got = convolve(nu2, phi)
    expected = make_measure([(1, 0.5), (2, -0.5), (4, 0.5), (5, -0.5)])
    assert got.allclose(expected)
    assert got.total_variation <= nu2.total_variation * phi.total_variation + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_convolution_theorem_and_l1_bound(data):
    def rand_measure():
        n = data.draw(st.integers(1, 8))
        return make_measure(
            (data.draw(st.integers(-50, 50)), complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1))))
            for _ in range(n)
        )

    mu, phi = rand_measure(), rand_measure()
    conv = convolve(mu, phi)
    assert conv.total_variation <= mu.total_variation * phi.total_variation + 1e-12
    for gamma in (0.0, 0.37, 0.91):
        lhs = fourier_at(conv, gamma)
        rhs = fourier_at(mu, gamma) * fourier_at(phi, gamma)
        assert lhs == pytest.approx(rhs, abs=1e-9)


# -- modulate -----------------------------------------------------------------


def test_modulate_examples():
    assert modulate(point_mass(0), 0.77) == point_mass(0)
    got = modulate(point_mass(1), 0.5)
    assert got.weight_at(1) == pytest.approx(-1.0, abs=1e-14)


def test_modulate_shift_duality():
    nu4 = squares_measure(4)
    rotated = modulate(nu4, 0.25)
    assert fourier_at(rotated, 0.0) == pytest.approx(fourier_at(nu4, 0.25), abs=1e-12)
    assert fourier_at(rotated, 0.0) == pytest.approx((1 + 1j) / 2, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-400, 400), st.floats(-1, 1)), min_size=1, max_size=8),
    st.floats(0, 0.999),
    st.floats(0, 0.999),
)
def test_modulate_preserves_tv_and_shifts_transform(atoms, theta, gamma):
    mu = make_measure(atoms)
    if mu.n_atoms == 0:
        return
    got = modulate(mu, theta)
    assert got.total_variation == pytest.approx(mu.total_variation, rel=1e-12)
    assert fourier_at(got, gamma) == pytest.approx(
        fourier_at(mu, (gamma + theta) % 1.0), abs=1e-10
    )


# -- global invariants ---------------------------------------------------------


def test_parseval_on_window():
    rng = np.random.default_rng(7)
    G = 256
    sites = rng.choice(G, size=40, replace=False)
    vals = rng.normal(size=40) + 1j * rng.normal(size=40)
    phi = make_measure(zip(sites.tolist(), vals))
    space = np.sum(np.abs(phi.weights) ** 2)
    freq = np.sum(np.abs(fourier_grid(phi, G)) ** 2) / G
    assert freq == pytest.approx(space, rel=1e-12)


def test_probability_measure_transform_bounds():
    nu = squares_measure(60)
    assert fourier_at(nu, 0.0) == pytest.approx(1.0, abs=1e-12)
    for g in np.linspace(0, 0.99, 23):
        assert abs(fourier_at(nu, float(g))) <= 1.0 + 1e-12


# -- serialization -------------------------------------------------------------


def test_json_roundtrip():
    mu = make_measure([(4, 0.5), (9, 0.5j), (-3, -1.25)])
    assert measure_from_json(measure_to_json(mu)) == mu


def test_fourier_csv(tmp_path):
    path = tmp_path / "grid.csv"
    write_fourier_csv(path, squares_measure(5), 8)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "gamma,re,im,abs"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
