import math
from fractions import Fraction

import numpy as np
import pytest

from ergodecay import (
    ConfigError,
    convergence_trace,
    cyclic_system,
    fourier_at,
    golden_rotation,
    indicator_function,
    make_measure,
    rotation_system,
    squares_measure,
    table_function,
    trig_function,
    weighted_average,
    weyl_sum,
)
from ergodecay.dynsys import _rotation_fractions
from helpers import point_mass, uniform_dyadic_family


def test_delta0_returns_f_at_x():
    sys_ = golden_rotation()
    f = trig_function(2)
    x = Fraction(1, 3)
    got = weighted_average(sys_, f, point_mass(0), x)
    expected = complex(math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3))
    assert got == pytest.approx(expected, abs=1e-12)


def test_cyclic_full_period_average_is_exact_mean():
    M = 12
    rng = np.random.default_rng(0)
    values = rng.normal(size=M)
    f = table_function(values)
    mu = make_measure([(j, 1.0 / M) for j in range(1, M + 1)])
    got = weighted_average(cyclic_system(M), f, mu, 5)
    assert got == pytest.approx(np.mean(values), abs=1e-12)


def test_rotation_trig_matches_weyl_sum():
    # squares measure + character: the average is e(mx) * (1/n) sum e(j^2 m alpha)
    sys_ = rotation_system(Fraction(7, 32))
    n, m = 40, 1
    mu = squares_measure(n)
    x = Fraction(1, 5)
    got = weighted_average(sys_, trig_function(m), mu, x)
    alpha = Fraction(7, 32)
    expected = complex(
        math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5)
    ) * weyl_sum(n, float(alpha))
    assert got == pytest.approx(expected, abs=1e-10)


def test_rotation_spectral_identity():
    # average of e(m .) equals e(mx) * mu_hat(m alpha mod 1), exactly in rationals
    sys_ = golden_rotation()
    alpha = Fraction(sys_.alpha_num, sys_.alpha_den)
    mu = squares_measure(64)
    for m in (1, 3):
        x = Fraction(3, 7)
        got = weighted_average(sys_, trig_function(m), mu, x)
        gamma = (m * alpha) % 1
        phase = complex(
            math.cos(2 * math.pi * m * 3 / 7), math.sin(2 * math.pi * m * 3 / 7)
        )
        expected = phase * fourier_at(mu, gamma)
        assert got == pytest.approx(expected, abs=1e-10)


def test_weighted_average_linear_in_f_and_mu():
    M = 10
    sys_ = cyclic_system(M)
    rng = np.random.default_rng(4)
    f1 = table_function(rng.normal(size=M))
    f2 = table_function(rng.normal(size=M))
    combo = table_function(np.array(f1.table) + 2.5 * np.array(f2.table))
    mu = make_measure([(1, 0.25), (4, 0.5), (9, 0.25)])
    x = 3
    lhs = weighted_average(sys_, combo, mu, x)
    rhs = weighted_average(sys_, f1, mu, x) + 2.5 * weighted_average(sys_, f2, mu, x)
    assert lhs == pytest.approx(rhs, abs=1e-12)

    mu2 = make_measure([(2, 0.5), (3, 0.5)])
    both = make_measure([(1, 0.125), (4, 0.25), (9, 0.125), (2, 0.25), (3, 0.25)])
    lhs2 = weighted_average(sys_, f1, both, x)
    rhs2 = 0.5 * weighted_average(sys_, f1, mu, x) + 0.5 * weighted_average(sys_, f1, mu2, x)
    assert lhs2 == pytest.approx(rhs2, abs=1e-12)


def test_cyclic_agrees_with_convolution_oracle():
    M = 9
    rng = np.random.default_rng(6)
    values = rng.normal(size=M) + 1j * rng.normal(size=M)
    f = table_function(values)
    mu = squares_measure(7)
    sys_ = cyclic_system(M)
    for x in range(M):
        brute = sum(
            w * values[(x + s) % M] for s, w in zip(mu.sites.tolist(), mu.weights)
        )
        assert weighted_average(sys_, f, mu, x) == pytest.approx(brute, abs=1e-12)


def test_cyclic_indicator_counts_positions_inside_the_arc():
    # position p is the point p/15: 1/15 lies below [0.1, 0.2) and 3/15 at
    # its open end; the wrap-around arc [0.9, 0.1) holds 14/15, 0 and 1/15
    sys_ = cyclic_system(15)
    inside = [
        weighted_average(sys_, indicator_function(a, b), point_mass(0), x)
        for a, b, xs in [(0.1, 0.2, range(4)), (0.9, 0.1, (13, 14, 0, 1, 2))]
        for x in xs
    ]
    assert inside == [0, 0, 1, 0, 0, 1, 1, 1, 0]


@pytest.mark.parametrize("a, b", [(0.1, 0.2), (0.0, 0.5), (0.9, 0.1), (0.75, 0.25), (1 / 3, 2 / 3)])
def test_cyclic_indicator_agrees_with_rotation_by_one_over_M(a, b):
    f = indicator_function(a, b)
    mu = squares_measure(40)
    for M in (3, 7, 12, 15, 105):
        for x in range(M):
            want = weighted_average(rotation_system(Fraction(1, M)), f, mu, Fraction(x, M))
            assert weighted_average(cyclic_system(M), f, mu, x) == want, (M, x)


@pytest.mark.parametrize("a, b", [(0, 1), (0.3, 0.3), (0.25, 2.25), (-0.5, 0.5)])
def test_indicator_ends_that_agree_mod_1_are_refused(a, b):
    # [a, b) with a = b mod 1 is the empty arc or the whole circle
    with pytest.raises(ConfigError, match="agree mod 1"):
        indicator_function(a, b)


def test_table_requires_cyclic():
    with pytest.raises(ConfigError):
        weighted_average(golden_rotation(), table_function([1, 2]), point_mass(0), 0.5)


# -- convergence traces ----------------------------------------------------------


def test_trace_equal_measures_zero_oscillation():
    mu = squares_measure(8)
    trace = convergence_trace(golden_rotation(), trig_function(1), [mu, mu, mu], x_samples=4)
    assert trace["max_osc"] == pytest.approx(0.0, abs=1e-12)


def test_trace_good_family_oscillation_decays():
    fam = uniform_dyadic_family()
    measures = [fam.measure(n) for n in range(4, 10)]
    trace = convergence_trace(golden_rotation(), trig_function(1), measures, x_samples=6)
    # averages are e(x) mu_hat(alpha) with |mu_hat(alpha)| <= ~2/2^n
    assert trace["max_osc"] <= 4.0 / (1 << 6)
    rows0 = [r for r in trace["rows"] if r["x"] == trace["rows"][0]["x"]]
    oscs = [r["osc_tail"] for r in rows0]
    assert oscs[-1] <= oscs[0] + 1e-12  # suffix oscillation shrinks


def test_trace_squares_residue_obstruction_on_cyclic():
    """Squares averages against a one-hot non-residue class on Z_15: the
    averages stay away from the space mean and keep fluctuating at desk
    scale, in contrast with the trig/rotation good case."""
    M = 15
    non_residue = 7  # not among {0,1,4,6,9,10} = squares mod 15
    one_hot = np.zeros(M)
    one_hot[non_residue] = 1.0
    f = table_function(one_hot)
    measures = [squares_measure(n) for n in (4, 8, 16, 32, 64, 128)]
    trace = convergence_trace(cyclic_system(M), f, measures, x_samples=10, seed=2)
    assert trace["max_osc"] >= 0.01  # fluctuation does not die out
    # the averages settle, but on x-dependent values far from the mean 1/15:
    # the residue classes the orbit can hit depend on x
    finals = {}
    for r in trace["rows"]:
        if r["k"] == len(measures):
            finals[r["x"]] = r["value"].real
    deviations = [abs(v - 1.0 / M) for v in finals.values()]
    assert min(deviations) >= 0.05
    assert max(deviations) >= 0.15


def test_trace_good_much_calmer_than_bad():
    fam = uniform_dyadic_family()
    good = convergence_trace(
        golden_rotation(), trig_function(1), [fam.measure(n) for n in range(4, 10)],
        x_samples=6,
    )
    M = 15
    one_hot = np.zeros(M)
    one_hot[7] = 1.0
    bad = convergence_trace(
        cyclic_system(M), table_function(one_hot),
        [squares_measure(n) for n in (4, 8, 16, 32, 64, 128)], x_samples=6, seed=2,
    )
    assert bad["max_osc"] > 3 * good["max_osc"]


@pytest.mark.parametrize(
    "sys_, f",
    [
        (golden_rotation(), trig_function(1)),
        (cyclic_system(15), table_function(np.random.default_rng(3).normal(size=15))),
    ],
)
def test_trace_osc_tail_is_pairwise_tail_diameter(sys_, f):
    measures = [squares_measure(n) for n in (1, 2, 3, 5, 8, 13, 21, 34)]
    trace = convergence_trace(sys_, f, measures, x_samples=3, seed=1)
    K = len(measures)
    for start in range(0, len(trace["rows"]), K):
        rows = trace["rows"][start : start + K]
        avgs = [r["value"] for r in rows]
        for k, r in enumerate(rows):
            # O(K^3) reference: every pair of the tail, bit for bit
            tail = avgs[k:]
            brute = max(
                (abs(u - v) for i, u in enumerate(tail) for v in tail[i + 1 :]),
                default=0.0,
            )
            assert r["osc_tail"] == brute


# -- rotation orbit kernel ---------------------------------------------------------


def _exact_fractions(sys_, x, sites, mult=1):
    """mult*(x + j*alpha) mod 1 as an exact Fraction, rounded once per site."""
    alpha = Fraction(sys_.alpha_num, sys_.alpha_den)
    out = []
    for j in sites.tolist():
        v = (mult * (x + j * alpha)) % 1
        out.append(v.numerator / v.denominator)
    return np.array(out, dtype=np.float64)


_ORBIT_SITES = np.array(
    [0, 1, -1, 2, -7, 12345, -(1 << 40) - 3, (1 << 40) + 5, (1 << 53) - 1, -(1 << 53)]
    + [k * k + 3 * k for k in range(-200, 200, 7)],
    dtype=np.int64,
)


@pytest.mark.parametrize("mult", [-3, 0, 1, 5])
def test_rotation_orbit_golden_bit_identical(mult):
    sys_ = golden_rotation()
    for k in (0, 1, 2, 3, 1 << 31, (1 << 32) - 1, 0x9E3779B9):
        x = Fraction(k, 1 << 32)  # the convergence_trace samples
        got = _rotation_fractions(sys_, x, _ORBIT_SITES, mult)
        assert got.tobytes() == _exact_fractions(sys_, x, _ORBIT_SITES, mult).tobytes()


@pytest.mark.parametrize("mult", [-3, 0, 1, 5])
def test_rotation_orbit_general_denominator_bit_identical(mult):
    # D = lcm(7, 3) = 21 is not a power of two: the Python-int path
    sys_ = rotation_system(Fraction(3, 7))
    x = Fraction(1, 3)
    got = _rotation_fractions(sys_, x, _ORBIT_SITES, mult)
    assert got.tobytes() == _exact_fractions(sys_, x, _ORBIT_SITES, mult).tobytes()


@pytest.mark.parametrize(
    "f", [trig_function(5), indicator_function(0.1, 0.4), indicator_function(0.8, 0.3)]
)
def test_weighted_average_golden_matches_exact_orbit(f):
    sys_ = golden_rotation()
    weights = np.linspace(-1.0, 2.0, len(_ORBIT_SITES))
    mu = make_measure(zip(_ORBIT_SITES.tolist(), weights))
    x = Fraction(0x9E3779B9, 1 << 32)
    if f.kind == "trig":
        values = np.exp(2j * math.pi * _exact_fractions(sys_, x, mu.sites, f.m))
    else:
        pts = _exact_fractions(sys_, x, mu.sites)
        if f.a <= f.b:
            inside = (pts >= f.a) & (pts < f.b)
        else:  # wrap-around interval
            inside = (pts >= f.a) | (pts < f.b)
        values = inside.astype(np.complex128)
    assert weighted_average(sys_, f, mu, x) == complex(np.dot(mu.weights, values))
