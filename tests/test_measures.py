import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    parse_family,
    perturbed_squares_measure,
    point_mass,
    rho_power,
    rotated_squares_measure,
    sigma_deficit_sup,
    sigma_n,
    squares_measure,
    triviality_sup,
)
from ergodecay import measures
from ergodecay.cli import main
from ergodecay.czmax import sigma_hat_grid
from ergodecay.measures import (
    _FP_SLACK,
    _fold_mod,
    _from_arrays,
    _difference_measure,
    _quarter_witness,
    _subgrid_max,
    _triviality_on_grid,
    _uniform_on,
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
    # the uniform families' total variation is N*(1/N) (``_uniform_on``); it
    # must equal the fsum of |w| bit for bit (the rotated family takes that fsum)
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
    # unequal magnitudes and merged duplicates: the one fsum of _total_variation
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


def reference_fold(mu, G):
    idx = np.mod(mu.sites, G)
    re = np.bincount(idx, weights=mu.weights.real, minlength=G)
    im = np.bincount(idx, weights=mu.weights.imag, minlength=G)
    return re + 1j * im


FOLD_CASES = [
    make_measure([(-9, 0.5), (-4096, 0.25), (4095, -1.0), (3, 2.0), (-1, 0.125)]),  # real weights
    make_measure([(-9, 0.5 - 2j), (-4096, 1j), (4095, -1.0), (3, -0.5 + 0.25j)]),  # complex
    squares_measure(300),
    rotated_squares_measure(300),
]


@pytest.mark.parametrize("G", [2, 1000, 3 * 1024, 4095, 4096, 8192, 1 << 16])
def test_fold_and_grids_bit_identical_to_reference(G):
    for mu in FOLD_CASES:
        fold = _fold_mod(mu, G)
        assert fold.tobytes() == reference_fold(mu, G).tobytes(), G
        grid = np.fft.ifft(reference_fold(mu, G)) * G
        assert fourier_grid(mu, G).tobytes() == grid.tobytes(), G
        factor = 1.0 - np.exp((2j * math.pi) * (np.arange(G) / G))
        assert _triviality_on_grid(mu, G).tobytes() == np.abs(factor * grid).tobytes(), G


# -- sub-grids of the difference measure (grids above _SUBGRID_MIN) ------------


def _grid_roundoff(mu, G):
    """First-order roundoff bound of ``_subgrid_max`` (its docstring) plus the
    same form for the whole-grid reference, with every atom on one residue
    (M = 2n atoms of Delta mu, n of mu) and D = 2 TV(mu)."""
    u, log2G, n = 2.0**-53, G.bit_length() - 1, mu.n_atoms
    sub = 22 + math.sqrt(2) * 2 * n + 7 * log2G
    full = 22 + math.sqrt(2) * n + 7 * log2G
    return (sub + full) * u * 2 * mu.total_variation


def _full_grid_max(mu, G):
    factor = 1 - np.exp(2j * np.pi * np.arange(G) / G)
    return float(np.max(np.abs(factor * fourier_grid(mu, G))))


@st.composite
def _subgrid_cases(draw):
    """Runs of adjacent sites anywhere in [-3G, 3G] (negative, and past G),
    each run with one repeated weight (it cancels in Delta mu) or fresh
    weights (their difference rounds); complex weights, total variation
    from 1e-3 to 1e3."""
    G = draw(st.sampled_from([1 << 17, 1 << 18, 1 << 20]))
    part = st.integers(-64, 64).map(lambda k: k / 64)
    atoms = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(-3 * G, 3 * G))
        w, repeat = complex(draw(part), draw(part)), draw(st.booleans())
        for i in range(draw(st.integers(1, 4))):
            atoms.append((start + i, w))
            if not repeat:
                w = complex(draw(part), draw(part))
    mu = make_measure(atoms)
    assume(mu.n_atoms > 0)
    scale = draw(st.floats(1e-3, 1e3)) / mu.total_variation
    return G, make_measure((s, w * scale) for s, w in atoms)


@settings(max_examples=40, deadline=None)
@given(_subgrid_cases())
@example((1 << 17, make_measure([(0, 1.0), (1, 1.0), (2, 1.0)])))  # Delta mu: two atoms
@example((1 << 18, make_measure([(-1, 2j), ((1 << 18) - 1, 0.5), (1 << 18, -3.0)])))
def test_subgrid_max_matches_full_grid(case):
    G, mu = case
    got = _subgrid_max(*_difference_measure(mu), G)
    assert abs(got - _full_grid_max(mu, G)) <= _grid_roundoff(mu, G)


@pytest.mark.parametrize(
    "mu",
    [
        squares_measure(180),
        rotated_squares_measure(90),
        make_measure([(-7, 0.5 - 2j), (-6, 0.5 - 2j), (-5, 1j), (3, 0.25), (70001, -1.0)]),
    ],
    ids=["squares", "rotated", "complex"],
)
def test_subgrid_max_is_the_exact_value_at_the_grid_argmax(mu):
    G = 1 << 18
    factor = 1 - np.exp(2j * np.pi * np.arange(G) / G)
    m = int(np.argmax(np.abs(factor * fourier_grid(mu, G))))
    exact = abs((1 - cmath.exp(2j * cmath.pi * m / G)) * fourier_at(mu, Fraction(m, G)))
    # the reference argmax may be a near tie off by its own roundoff: twice the bound
    got = _subgrid_max(*_difference_measure(mu), G)
    assert abs(got - exact) <= 2 * _grid_roundoff(mu, G)


def test_difference_measure_is_convolution_with_delta0_minus_delta1():
    mu = make_measure([(-9, 0.5), (-8, 0.5), (-7, 0.25 + 1j), (-5, 3.0), (11, 2.0), (12, -2j)])
    ref = convolve(mu, make_measure([(0, 1.0), (1, -1.0)]))
    sites, weights = _difference_measure(mu)
    order, ref_order = np.argsort(sites), np.argsort(ref.sites)
    assert np.array_equal(sites[order], ref.sites[ref_order])
    assert np.array_equal(weights[order], ref.weights[ref_order])  # -0.0 == 0.0


def test_subgrid_refinement_allocates_no_full_grid():
    tracemalloc.start()
    try:
        br = triviality_sup(squares_measure(180), 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert br.grid_size == 1 << 22
    # one complex128 array of the grid would be 64 MB
    assert peak < (16 << 22) // 4, peak


def test_sigma_deficit_refinement_allocates_no_full_grid():
    tracemalloc.start()
    try:
        br = sigma_deficit_sup(squares_measure(180), 2, 1, 1e-4)["bracket"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert br.grid_size == 1 << 22
    # one complex128 array of the grid would be 64 MB
    assert peak < (16 << 22) // 4, peak


# the sigma deficit: sub-grids times 1 - sigma_hat, against the whole grid
_DEFICIT_CASES = [
    make_measure([(-9, 0.5 - 2j), (-4096, 1j), (4095, -1.0), (3, -0.5 + 0.25j)]),
    make_measure([(-70001, 0.25 + 0.5j), (-3, -1j), (-2, 0.75), (5, 0.125 - 0.25j),
                  (300007, -0.5)]),
]


@pytest.mark.parametrize("S_prev, n", [(0, 1), (3, 2)])
@pytest.mark.parametrize("G", [1 << 17, 1 << 20])  # P = 2 and 16 sub-grids
@pytest.mark.parametrize("mu", _DEFICIT_CASES, ids=["four", "five"])
def test_sigma_deficit_subgrid_max_matches_full_grid(mu, G, S_prev, n):
    def deficit(m, G):
        return 1.0 - sigma_hat_grid(S_prev, n, m, G)

    got = _subgrid_max(mu.sites, mu.weights, G, deficit)
    want = float(np.max(np.abs(fourier_grid(mu, G) * deficit(np.arange(G), G))))
    # _subgrid_max's bound 2E + 40u D for both evaluations, every atom on one
    # residue (M = n atoms), D = TV(mu)
    u, log2G, D = 2.0**-53, G.bit_length() - 1, mu.total_variation
    bound = 2 * (2 * (19 + math.sqrt(2) * mu.n_atoms + 7 * log2G) + 40) * u * D
    assert abs(got - want) <= bound, (got, want, bound)


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
        (0.2, 1000, True),  # a cap below the coarse grid bounds the first grid
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


@pytest.fixture
def grids_evaluated(monkeypatch):
    """The grid sizes that sup brackets and certifications evaluate, in order."""
    grids = []
    evaluate = measures._triviality_max

    def recording(mu, G, *rest):
        grids.append(G)
        if len(grids) > 32:
            raise AssertionError(f"refinement does not terminate: {grids}")
        return evaluate(mu, G, *rest)

    monkeypatch.setattr(measures, "_triviality_max", recording)
    return grids


@pytest.mark.parametrize(
    "threshold, grid_cap, grids",
    [
        (0.2, 1 << 25, [4096]),
        (0.1, 1 << 25, [4096]),
        (0.125 * (1 + 1e-6), 1 << 25, [4096, 32768]),
        (0.125 * (1 + 1e-6), 4096, [4096]),
        (0.2, 1000, [512]),
    ],
)
def test_certify_sup_below_grid_sequence(threshold, grid_cap, grids, grids_evaluated):
    certify_sup_below(uniform_zero_based_family().measure(5), threshold, grid_cap=grid_cap)
    assert grids_evaluated == grids


def test_certify_sup_below_doubles_when_the_estimate_stalls(grids_evaluated):
    # 1e-12 below the coarse upper bound the width estimate, which leaves out
    # the roundoff allowance, says the coarse grid already suffices; only the
    # at-least-doubling step moves the refinement on
    mu = uniform_zero_based_family().measure(5)
    coarse_upper = certify_sup_below(mu, 1.0)[2]
    grids_evaluated.clear()
    verdict, _, upper, grid = certify_sup_below(mu, coarse_upper - 1e-12)
    assert (verdict, grid) == (True, 8192) and upper < coarse_upper
    assert grids_evaluated == [4096, 8192]


def test_triviality_sup_grid_sequence(grids_evaluated):
    br = triviality_sup(squares_measure(200), 1e-3)
    assert grids_evaluated == [4096, 1 << 21]
    assert br.grid_size == 1 << 21


def test_triviality_sup_cap_message_names_refused_grid(grids_evaluated):
    with pytest.raises(ResourceCapError) as info:
        triviality_sup(squares_measure(5000), 1e-9, grid_cap=16384)
    assert str(info.value) == (
        "triviality_sup(radius 25000000): tol=1e-09 needs grid ~1099511627776 "
        "> cap 16384; bracket so far [1, 38350.5]"
    )
    assert grids_evaluated == [4096]


def test_certify_sup_below_roundoff_tie_is_undecided():
    # the sup equals the threshold, so no grid can separate them: give up at once
    verdict, lower, upper, grid = certify_sup_below(
        uniform_zero_based_family().measure(5), 0.125
    )
    assert verdict is None
    assert grid == 4096
    assert lower <= 0.125 <= upper


# -- quarter-frequency witness -------------------------------------------------


def _exact_quarter_max_sq(mu):
    """max_{a=1,2,3} |(1 - i^a) mu_hat(a/4)|^2 in exact rational arithmetic."""
    W = [[Fraction(0), Fraction(0)] for _ in range(4)]
    for site, w in zip(mu.sites.tolist(), mu.weights.tolist()):
        W[site % 4][0] += Fraction(w.real)
        W[site % 4][1] += Fraction(w.imag)
    best = Fraction(0)
    for a in (1, 2, 3):
        re = im = Fraction(0)
        for r, (x, y) in enumerate(W):
            for _ in range(a * r % 4):  # times i
                x, y = -y, x
            re, im = re + x, im + y
        x, y = re, im
        for _ in range(a):
            x, y = -y, x
        best = max(best, (re - x) ** 2 + (im - y) ** 2)
    return best


@st.composite
def _cancelling_measures(draw):
    """Groups of three atoms on one residue class mod 4: +big, a small
    complex weight and -big, in random site order, so that the float residue
    sums lose the small weight to rounding; total variation up to 1e9."""
    groups = draw(st.integers(1, 8))
    atoms = []
    for _ in range(groups):
        big = draw(st.floats(0.0, 1e9 / (2 * groups))) * draw(
            st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / math.sqrt(2)])
        )
        small = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        base = draw(st.integers(-(1 << 40), (1 << 40) - (1 << 39)))
        offsets = draw(st.lists(st.integers(0, 1 << 37), min_size=3, max_size=3))
        for k, w in zip(offsets, (big, small, -big)):
            atoms.append((base + 4 * k, w))
    return make_measure(atoms)


@settings(max_examples=150, deadline=None)
@given(_cancelling_measures())
@example(make_measure([(0, 5e8), (4, 0.003), (8, -5e8)]))  # 5e8 + 0.003 rounds up
def test_quarter_witness_is_below_exact_quarter_values(mu):
    witness = _quarter_witness(mu)
    assert witness <= 0 or Fraction(witness) ** 2 <= _exact_quarter_max_sq(mu)


@settings(max_examples=150, deadline=None)
@given(_cancelling_measures())
@example(make_measure([(0, 5e8), (4, 0.003), (8, -5e8)]))
def test_quarter_witness_from_coarse_fold_is_below_exact_quarter_values(mu):
    witness = _quarter_witness(mu, _fold_mod(mu, measures._COARSE_GRID))
    assert witness <= 0 or Fraction(witness) ** 2 <= _exact_quarter_max_sq(mu)


def test_certify_sup_below_reuses_the_witness_fold_bit_for_bit(grids_evaluated):
    # 2^17 atoms: the witness comes from the coarse fold, and the coarse grid
    # reuses it; the quarter values are 0, so the witness never rejects
    mu = _uniform_on(np.arange(1, (1 << 17) + 1))
    plain = certify_sup_below(mu, 2.0**-15)
    assert plain[0] is True and plain[3] == 1 << 19
    assert certify_sup_below(mu, 2.0**-15, skip_above=1.0) == plain
    assert grids_evaluated == [4096, 1 << 19] * 2


@pytest.mark.parametrize("family", ["squares", "perturbed:power:1/4", "rotated:quadratic"])
def test_quarter_witness_below_coarse_grid_lower_bound(family):
    # gamma = 1/4, 1/2, 3/4 lie on the coarse grid, so a witness rejection
    # reports no more than the grid lower bound the candidate would have had
    fam = parse_family(family)
    for n in range(1, 2001):
        mu = fam.measure(n)
        grid_lower = float(np.max(_triviality_on_grid(mu, measures._COARSE_GRID))) - _FP_SLACK
        assert _quarter_witness(mu) <= grid_lower, n


def test_certify_sup_below_witness_rejection():
    mu = squares_measure(100)  # squares sit on residues 0 and 1 mod 4: |T(1/4)| is 1
    grid = certify_sup_below(mu, 0.01)
    witness = _quarter_witness(mu)
    assert grid[0] is False and 0.01 < witness <= grid[1]
    # rejected from the witness only when it exceeds both threshold and skip_above
    assert certify_sup_below(mu, 0.01, skip_above=witness / 2) == (False, witness, math.inf, 0)
    assert certify_sup_below(mu, 0.01, skip_above=witness) == grid
    assert certify_sup_below(mu, witness, skip_above=0.0) == certify_sup_below(mu, witness)


# -- _uniform_on ---------------------------------------------------------------


def _assert_bit_identical(got, ref):
    assert got.sites.dtype == ref.sites.dtype and got.weights.dtype == ref.weights.dtype
    assert got.sites.tobytes() == ref.sites.tobytes()
    assert got.weights.tobytes() == ref.weights.tobytes()
    assert got.total_variation.hex() == ref.total_variation.hex()


@pytest.mark.parametrize("N", [1, 2, 3, 7, 4000, 1 << 20])
def test_uniform_on_matches_from_arrays_on_increasing_sites(N):
    rng = np.random.default_rng(N)
    sites = np.cumsum(rng.integers(1, 1000, size=N)) - 300 * N
    _assert_bit_identical(_uniform_on(sites), _from_arrays(sites, np.full(N, 1 / N, dtype=complex)))


@pytest.mark.parametrize("sites", [[3, 1, 3], [5, 2], [4, 4], [0, 7, 7, -2, 0]])
def test_uniform_on_merges_unsorted_and_colliding_sites(sites):
    sites = np.array(sites, dtype=np.int64)
    N = len(sites)
    got = _uniform_on(sites)
    _assert_bit_identical(got, _from_arrays(sites, np.full(N, 1 / N, dtype=complex)))
    assert np.all(got.sites[1:] > got.sites[:-1])


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
    # the grid CSV is written by the fourier subcommand
    path = tmp_path / "grid.csv"
    args = ["fourier", "--family", "squares", "--n", "5", "--grid", "8", "--out", str(path)]
    assert main(args) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "gamma,re,im,abs"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
