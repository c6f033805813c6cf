import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from ergodecay import (
    ConfigError,
    block_sqrt_sum,
    block_structure,
    block_sum,
    cesaro_expos,
    fourier_at,
    parse_rho,
    major_arc_audit,
    perturbed_squares_measure,
    quadratic_residues,
    residue_density,
    rho_constant,
    rho_log,
    rho_power,
    transform_bound_audit,
    vj_sum,
)
from ergodecay import threshold

RHO4 = rho_power(Fraction(1, 4))


def floor8(l):
    """Oracle: floor(l^(1/8)) by integer search."""
    r = 0
    while (r + 1) ** 8 <= l:
        r += 1
    return r


# -- block structure -----------------------------------------------------------


def test_block_structure_log():
    bs = block_structure(rho_log(1.0), 1)
    assert bs.lo == pytest.approx(math.e - 1, rel=1e-12)
    assert bs.hi == pytest.approx(math.e**2 - 1, rel=1e-12)
    assert bs.length == pytest.approx(math.e**2 - math.e, rel=1e-12)
    # integers with floor(log(1+k)) = 1 are 2..6
    assert (bs.k_lo, bs.k_hi, bs.integer_count) == (2, 6, 5)


def test_block_structure_power():
    bs = block_structure(RHO4, 2)
    assert bs.lo == pytest.approx(16.0)
    assert bs.hi == pytest.approx(81.0)
    assert bs.length == pytest.approx(65.0)
    # floor(k^(1/4)) = 2 exactly for k = 16..80
    assert (bs.k_lo, bs.k_hi, bs.integer_count) == (16, 80, 65)


def test_block_structure_constant_single_block():
    bs = block_structure(rho_constant(3.5), 3, horizon=100)
    assert bs.integer_count == 100
    assert bs.hi == math.inf


def test_block_structure_range_errors():
    with pytest.raises(ValueError):
        block_structure(RHO4, 0)  # rho(1) = 1, so j=0 is never attained
    with pytest.raises(ValueError):
        block_structure(RHO4, 5, horizon=100)  # floor(rho(100)) = 3


def test_blocks_partition_horizon():
    for rho in (RHO4, rho_log(1.0), rho_log(0.5)):
        for N in (17, 100, 1234):
            j_min = int(rho.floor_at_int(1))
            j_max = int(rho.floor_at_int(N))
            total = sum(
                block_structure(rho, j, horizon=N).integer_count
                for j in range(j_min, j_max + 1)
            )
            assert total == N


# -- phi ------------------------------------------------------------------------


def test_phi_increments_count_sqrt_blocks():
    # number of l with sqrt(l) in I_j matches phi(j+1) - phi(j) within 2, where
    # phi(j) = rho^{-1}(j)^2 is the squared block endpoint
    for rho in (RHO4, rho_log(1.0)):
        for j in range(int(rho.floor_at_int(1)), 5):
            n_l = abs(block_sqrt_sum(rho, j, 0.0))
            diff = rho.inverse(j + 1) ** 2 - rho.inverse(j) ** 2
            assert abs(n_l - diff) <= 2.0


# -- block sums -------------------------------------------------------------------


def test_block_sum_beta_zero_counts():
    bs = block_structure(RHO4, 2)
    assert block_sum(RHO4, 2, 0.0) == pytest.approx(bs.integer_count)


def test_block_sum_parity_cancellation():
    # beta = 1/2: e(k^2/2) = (-1)^k, alternating over consecutive integers
    val = block_sum(RHO4, 2, 0.5)
    assert abs(val) <= 1.0 + 1e-12


def test_block_sum_brute_oracle():
    # oracle over the definition: k with floor(k^(1/4)) = 2
    beta = 0.25
    expected = sum(
        cmath.exp(2j * cmath.pi * ((k * k * 1) % 4) / 4)
        for k in range(1, 200)
        if int(math.floor(k**0.25 + 1e-12)) == 2
    )
    assert block_sum(RHO4, 2, beta) == pytest.approx(expected, abs=1e-10)


def test_vj_sum_riemann_comparison():
    # V_j(0) = sum 1/(2 sqrt(l)) over the block approximates its length
    for j in (2, 3):
        bs = block_structure(RHO4, j)
        got = vj_sum(RHO4, j, 0.0)
        assert got.imag == pytest.approx(0.0, abs=1e-12)
        assert got.real == pytest.approx(bs.length, rel=0.1)


def test_empty_integer_block_sums_to_zero():
    # rho = 4*log(1+x) jumps from 2 to 4 between k=1 and k=2: block j=3 holds
    # no integer, so its sum is empty
    rho = rho_log(4.0)
    assert int(rho.floor_at_int(1)) == 2 and int(rho.floor_at_int(2)) == 4
    assert block_sum(rho, 3, 0.3) == 0.0
    assert block_structure(rho, 3).integer_count == 0


def test_block_sum_constant_rho_needs_a_horizon():
    # without a horizon the one block is k >= 1, a sum of 2^63 terms
    with pytest.raises(ConfigError):
        block_sum(rho_constant(3.5), 3, 0.1)
    # with one it is a finite sum: k = 1..8 at beta = 0 counts 8
    assert block_sum(rho_constant(3.5), 3, 0.0, horizon=8) == 8


def test_chunked_sum_rounds_once_across_chunks(monkeypatch):
    # with two-term chunks, rounding each chunk first turns 1e16 + 1 into its
    # even neighbour 1e16, and the total into 0
    monkeypatch.setattr(threshold, "_CHUNK", 2)
    terms = np.array([1e16, 1.0, -1e16], dtype=np.complex128)
    assert threshold._chunked_sum(0, 2, lambda k: terms[k]) == 1 + 0j
    assert threshold._chunked_sum(3, 2, lambda k: terms[k]) == 0


def test_vj_sum_brute_oracle():
    alpha = 0.3
    # floor(l^(1/8)) = 2 exactly for l in [2^8, 3^8)
    l_lo, l_hi = 2**8, 3**8 - 1
    assert floor8(l_lo) == 2 and floor8(l_hi) == 2 and floor8(l_hi + 1) == 3
    expected = sum(
        cmath.exp(2j * cmath.pi * ((l * alpha) % 1.0)) / (2 * math.sqrt(l))
        for l in range(l_lo, l_hi + 1)
    )
    assert vj_sum(RHO4, 2, alpha) == pytest.approx(expected, abs=1e-9)


# -- summation by parts -------------------------------------------------------------


def test_summation_by_parts_identity_exact():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 30))
        a = rng.normal(size=m + 2) + 1j * rng.normal(size=m + 2)
        b = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        lhs = sum((a[j + 1] - a[j]) * b[j] for j in range(m + 1))
        rhs = a[m + 1] * b[m] - a[0] * b[0] + sum(
            a[j] * (b[j - 1] - b[j]) for j in range(1, m + 1)
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- cesaro mean ---------------------------------------------------------------------


def test_cesaro_two_summation_orders_agree():
    rho, N, beta, alpha = RHO4, 1 << 10, 0.3, 0.001
    got = cesaro_expos(rho, N, beta, alpha)
    j_max = int(rho.floor_at_int(N))
    l_max = math.ceil(rho.inverse(j_max + 1) ** 2) - 1
    l = np.arange(1, l_max + 1, dtype=np.int64)
    r = np.floor(np.power(l.astype(float), 1 / 8) + 1e-12).astype(np.int64)
    for _ in range(3):
        r = np.where((r + 1) ** 8 <= l, r + 1, r)
        r = np.where(r**8 > l, r - 1, r)
    keep = r <= j_max
    phases = np.exp(2j * np.pi * (((r[keep] * beta) % 1.0) + ((l[keep] * alpha) % 1.0)))
    brute = phases.sum() / N**2
    assert got["value"] == pytest.approx(brute, abs=1e-9)


def test_cesaro_bound_reporting():
    got = cesaro_expos(RHO4, 1 << 8, 0.5, 0.0)
    assert got["bound"] is not None
    assert got["ratio"] == pytest.approx(abs(got["value"]) / got["bound"])
    raw = cesaro_expos(RHO4, 1 << 8, 0.0, 0.0)
    assert raw["bound"] is None  # no claim at beta = 0, raw sum still returned
    assert raw["value"] != 0


# -- major/minor arc audit -------------------------------------------------------------


def test_major_arc_small_q_branch():
    out = major_arc_audit(RHO4, 1 << 10, 1 / 3 + 1e-7)
    assert out["branch"] == "qsmall"
    assert out["q"] == 3
    assert out["eps"] == RHO4.epsilon
    assert out["rows"]
    assert math.isfinite(out["max_ratio"])


def test_major_arc_large_q_branch():
    out = major_arc_audit(RHO4, 1 << 10, math.sqrt(2) - 1)
    assert out["branch"] == "qlarge"
    assert out["q"] > (1 << 10) ** (2 / 3)
    assert math.isfinite(out["max_ratio"])


# -- transform bound audit ---------------------------------------------------------------


def test_transform_audit_constant_rho_reduces_to_squares():
    report = transform_bound_audit(rho_constant(0.0), [1 << 10], grid=1 << 14)
    quarter = report["per_N"][0]["value_quarter"]
    assert quarter == pytest.approx(math.sqrt(2) / 2, abs=0.02)


def test_transform_audit_log_keeps_mass_at_quarter():
    report = transform_bound_audit(rho_log(1.0), [1 << 10, 1 << 11], grid=1 << 14)
    for row in report["per_N"]:
        assert row["value_quarter"] >= 0.2


def test_transform_audit_structure():
    report = transform_bound_audit(RHO4, [1 << 8, 1 << 9], grid=1 << 14)
    assert report["eps"] == pytest.approx(1 / 3 - 1 / 4)
    assert len(report["rows"]) > 0
    for row in report["rows"]:
        assert math.isfinite(row["ratio"])
    trivs = [p["triviality_grid_max"] for p in report["per_N"]]
    assert all(t > 0 for t in trivs)


# -- residue densities ----------------------------------------------------------------------


def test_lambda_q_counts():
    # |Lambda_Q| is the product of (p + 1)/2 over the primes p of Q
    assert len(quadratic_residues(15)) == 6
    assert len(quadratic_residues(105)) == 24


def test_residue_density_rejects_bad_q():
    for q in (4, 10, 9, 45, 2):
        with pytest.raises(ConfigError):
            residue_density(rho_constant(0.0), q, [1000])


def test_residue_density_rejects_bad_window():
    for rho in (RHO4, rho_log(1.0)):
        for window in (-0.5, 0.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                residue_density(rho, 15, [1000], window=window)


def test_residue_density_rejects_N_below_1():
    for rho in (RHO4, rho_log(1.0)):
        for N_list in ([0], [-5], [1000, 0]):
            with pytest.raises(ConfigError):
                residue_density(rho, 15, N_list)


def test_residue_density_constant_matches_enumeration():
    N = 10**5
    prof = residue_density(rho_constant(0.0), 15, [N])
    assert prof.r_q == 0
    # oracle: exact full-period counts of k^2 mod 15
    counts = {a: 0 for a in range(15)}
    for k in range(15):
        counts[(k * k) % 15] += 1
    for a in prof.lambda_q:
        assert prof.densities[a] == pytest.approx(counts[a] / 15, abs=1e-3)
    assert prof.bound is None  # rho' vanishes: no density bound is claimed


def test_residue_density_log_meets_bound_shape():
    prof = residue_density(rho_log(1.0), 15, [250_000, 500_000, 1_000_000])
    assert prof.fitted_C == pytest.approx(1.0, abs=0.01)
    assert prof.N_star == 1_000_000
    assert prof.bound_met
    assert prof.min_nonzero_density >= prof.bound


FITTED_C_RHOS = ("log:1", "log:0.5", "power:1/4", "power:1/7", "power:1/1000",
                 "power:3/10", "logpow:1", "logpow:1.5", "logpow:2", "logpow:4",
                 "logpow:7", "const:0", "const:2.5")


def _sampled_fitted_C(rho, N_star):
    # the former definition: the max of x rho'(x) over 128 geometric points
    xs = np.geomspace(2.0, max(4.0, float(N_star)), 128)
    return float(np.max(xs * rho.deriv(xs)))


@pytest.mark.parametrize("text", FITTED_C_RHOS)
def test_residue_fitted_C_is_the_sampled_max_bit_for_bit(text):
    rho = parse_rho(text)
    for N in (1, 2, 3, 5, 8, 37, 100, 1000, 4097, 10_000):
        prof = residue_density(rho, 15, [N])
        assert prof.fitted_C == _sampled_fitted_C(rho, prof.N_star), (text, N)
    # past the N a test can enumerate, the sampled max is its last point
    for N in np.unique(np.geomspace(1, 1e12, 60).round().astype(np.int64)):
        x = np.array([max(4.0, float(N))])
        assert _sampled_fitted_C(rho, N) == float((x * rho.deriv(x))[0]), (text, N)


def test_residue_stabilization_flags():
    # dense geometric list: floor(log(N/2)) increments by ~0.22, so adjacent
    # repeats occur for the log kind but never for the power kind (whose
    # floor steps exceed 1 at this scale)
    dense = [round((1 << 18) * 1.25**i) for i in range(10)]
    assert residue_density(rho_log(1.0), 15, dense).stabilized
    assert not residue_density(RHO4, 15, dense).stabilized
